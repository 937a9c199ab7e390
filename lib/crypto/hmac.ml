let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest_string key else key in
  let padded = Bytes.make block_size '\x00' in
  Bytes.blit_string key 0 padded 0 (String.length key);
  Bytes.to_string padded

let xor_with s byte =
  String.map (fun c -> Char.chr (Char.code c lxor byte)) s

(* Each pad fills exactly one block, so each midstate is one compression
   past [Sha256.init] with an empty buffer. *)
type midstates = { inner : Sha256.ctx; outer : Sha256.ctx }

let absorbed pad =
  let ctx = Sha256.init () in
  Sha256.feed ctx pad;
  ctx

let midstates key =
  let key = normalize_key key in
  { inner = absorbed (xor_with key 0x36); outer = absorbed (xor_with key 0x5c) }

let mac_with m msg =
  let inner = Sha256.copy m.inner in
  Sha256.feed inner msg;
  let outer = Sha256.copy m.outer in
  Sha256.feed outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ~key msg = mac_with (midstates key) msg

let mac_hex ~key msg = Sha256.hex (mac ~key msg)

let verify_with m msg ~tag =
  let expected = mac_with m msg in
  if String.length expected <> String.length tag then false
  else begin
    (* Fold over all bytes regardless of mismatches. *)
    let diff = ref 0 in
    String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i])) expected;
    !diff = 0
  end

let verify ~key msg ~tag = verify_with (midstates key) msg ~tag
