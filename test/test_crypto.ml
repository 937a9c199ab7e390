(* Crypto substrate tests: FIPS 180-4 / RFC 4231 vectors plus the simulated
   signature directory. *)

open Qs_crypto

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Reference: the Int32 SHA-256 and the per-call HMAC the library used
   before it compressed in native ints and cached per-key midstates,
   copied verbatim. Every tag the protocols exchange must stay
   byte-identical to these. *)

module Ref_sha256 = struct
  let k =
    [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
       0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
       0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
       0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
       0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
       0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
       0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
       0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
       0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
       0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
       0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

  type ctx = {
    h : int32 array;             (* 8 state words *)
    buf : Bytes.t;               (* 64-byte block buffer *)
    mutable buf_len : int;
    mutable total : int64;       (* total bytes absorbed *)
    w : int32 array;             (* message schedule scratch *)
  }

  let init () =
    {
      h =
        [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
           0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |];
      buf = Bytes.create 64;
      buf_len = 0;
      total = 0L;
      w = Array.make 64 0l;
    }

  let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

  let ( ^^ ) = Int32.logxor
  let ( &&& ) = Int32.logand
  let ( +% ) = Int32.add

  let process_block ctx block off =
    let w = ctx.w in
    for t = 0 to 15 do
      let b i = Int32.of_int (Char.code (Bytes.get block (off + (4 * t) + i))) in
      w.(t) <-
        Int32.logor
          (Int32.shift_left (b 0) 24)
          (Int32.logor (Int32.shift_left (b 1) 16)
             (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
    done;
    for t = 16 to 63 do
      let s0 = rotr w.(t - 15) 7 ^^ rotr w.(t - 15) 18 ^^ Int32.shift_right_logical w.(t - 15) 3 in
      let s1 = rotr w.(t - 2) 17 ^^ rotr w.(t - 2) 19 ^^ Int32.shift_right_logical w.(t - 2) 10 in
      w.(t) <- w.(t - 16) +% s0 +% w.(t - 7) +% s1
    done;
    let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) and d = ref ctx.h.(3) in
    let e = ref ctx.h.(4) and f = ref ctx.h.(5) and g = ref ctx.h.(6) and hh = ref ctx.h.(7) in
    for t = 0 to 63 do
      let s1 = rotr !e 6 ^^ rotr !e 11 ^^ rotr !e 25 in
      let ch = (!e &&& !f) ^^ (Int32.lognot !e &&& !g) in
      let t1 = !hh +% s1 +% ch +% k.(t) +% w.(t) in
      let s0 = rotr !a 2 ^^ rotr !a 13 ^^ rotr !a 22 in
      let maj = (!a &&& !b) ^^ (!a &&& !c) ^^ (!b &&& !c) in
      let t2 = s0 +% maj in
      hh := !g;
      g := !f;
      f := !e;
      e := !d +% t1;
      d := !c;
      c := !b;
      b := !a;
      a := t1 +% t2
    done;
    ctx.h.(0) <- ctx.h.(0) +% !a;
    ctx.h.(1) <- ctx.h.(1) +% !b;
    ctx.h.(2) <- ctx.h.(2) +% !c;
    ctx.h.(3) <- ctx.h.(3) +% !d;
    ctx.h.(4) <- ctx.h.(4) +% !e;
    ctx.h.(5) <- ctx.h.(5) +% !f;
    ctx.h.(6) <- ctx.h.(6) +% !g;
    ctx.h.(7) <- ctx.h.(7) +% !hh

  let feed ctx s =
    let len = String.length s in
    ctx.total <- Int64.add ctx.total (Int64.of_int len);
    let pos = ref 0 in
    (* Fill a partial buffer first. *)
    if ctx.buf_len > 0 then begin
      let take = min (64 - ctx.buf_len) len in
      Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      pos := take;
      if ctx.buf_len = 64 then begin
        process_block ctx ctx.buf 0;
        ctx.buf_len <- 0
      end
    end;
    while len - !pos >= 64 do
      Bytes.blit_string s !pos ctx.buf 0 64;
      process_block ctx ctx.buf 0;
      pos := !pos + 64
    done;
    if !pos < len then begin
      Bytes.blit_string s !pos ctx.buf 0 (len - !pos);
      ctx.buf_len <- len - !pos
    end

  let finalize ctx =
    let bit_len = Int64.mul ctx.total 8L in
    (* Append 0x80, pad with zeros to 56 mod 64, then 64-bit big-endian length. *)
    Bytes.set ctx.buf ctx.buf_len '\x80';
    ctx.buf_len <- ctx.buf_len + 1;
    if ctx.buf_len > 56 then begin
      Bytes.fill ctx.buf ctx.buf_len (64 - ctx.buf_len) '\x00';
      process_block ctx ctx.buf 0;
      ctx.buf_len <- 0
    end;
    Bytes.fill ctx.buf ctx.buf_len (56 - ctx.buf_len) '\x00';
    for i = 0 to 7 do
      Bytes.set ctx.buf (56 + i)
        (Char.chr
           (Int64.to_int (Int64.logand (Int64.shift_right_logical bit_len (8 * (7 - i))) 0xFFL)))
    done;
    process_block ctx ctx.buf 0;
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      let word = ctx.h.(i) in
      for j = 0 to 3 do
        Bytes.set out ((4 * i) + j)
          (Char.chr
             (Int32.to_int (Int32.logand (Int32.shift_right_logical word (8 * (3 - j))) 0xFFl)))
      done
    done;
    Bytes.to_string out

  let digest_string s =
    let ctx = init () in
    feed ctx s;
    finalize ctx

  let hex d =
    let buf = Buffer.create (2 * String.length d) in
    String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
    Buffer.contents buf
end

module Ref_hmac = struct
  let block_size = 64

  let normalize_key key =
    let key = if String.length key > block_size then Ref_sha256.digest_string key else key in
    let padded = Bytes.make block_size '\x00' in
    Bytes.blit_string key 0 padded 0 (String.length key);
    Bytes.to_string padded

  let xor_with s byte =
    String.map (fun c -> Char.chr (Char.code c lxor byte)) s

  let mac ~key msg =
    let key = normalize_key key in
    let inner = Ref_sha256.init () in
    Ref_sha256.feed inner (xor_with key 0x36);
    Ref_sha256.feed inner msg;
    let inner_digest = Ref_sha256.finalize inner in
    let outer = Ref_sha256.init () in
    Ref_sha256.feed outer (xor_with key 0x5c);
    Ref_sha256.feed outer inner_digest;
    Ref_sha256.finalize outer
end

(* ------------------------------------------------------------------ *)
(* SHA-256: official test vectors *)

let test_sha_empty () =
  check_str "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_hex "")

let test_sha_abc () =
  check_str "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_hex "abc")

let test_sha_two_blocks () =
  check_str "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha_896_bit () =
  check_str "896-bit message"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.digest_hex
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha_million_a () =
  check_str "one million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex (String.make 1_000_000 'a'))

let test_sha_streaming_equals_oneshot () =
  (* Feeding in odd-sized chunks must match the one-shot digest. *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  let sizes = [ 1; 3; 7; 64; 65; 100; 760 ] in
  List.iter
    (fun sz ->
      let take = min sz (String.length msg - !pos) in
      Sha256.feed ctx (String.sub msg !pos take);
      pos := !pos + take)
    sizes;
  check_str "streaming" (Sha256.hex (Sha256.digest_string msg)) (Sha256.hex (Sha256.finalize ctx))

let test_sha_block_boundaries () =
  (* Lengths around the 64-byte block and 56-byte padding boundary. *)
  List.iter
    (fun len ->
      let m = String.make len 'x' in
      let d1 = Sha256.digest_string m in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) m;
      check_str (Printf.sprintf "len %d" len) (Sha256.hex d1) (Sha256.hex (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

let test_sha_distinct_inputs () =
  check_bool "different inputs differ" false
    (Sha256.digest_string "a" = Sha256.digest_string "b")

let test_sha_digest_length () =
  Alcotest.(check int) "32 bytes" 32 (String.length (Sha256.digest_string "anything"))

(* ------------------------------------------------------------------ *)
(* HMAC-SHA256: RFC 4231 vectors *)

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  check_str "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key "Hi There")

let test_hmac_rfc4231_case2 () =
  check_str "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  let key = String.make 20 '\xaa' in
  let data = String.make 50 '\xdd' in
  check_str "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key data)

let test_hmac_rfc4231_case6_long_key () =
  let key = String.make 131 '\xaa' in
  check_str "case 6 (key > block size)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex ~key "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_rfc4231_case7_long_key_long_data () =
  let key = String.make 131 '\xaa' in
  check_str "case 7 (key and data > block size)"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Hmac.mac_hex ~key
       "This is a test using a larger than block-size key and a larger than block-size \
        data. The key needs to be hashed before being used by the HMAC algorithm.")

let test_hmac_verify () =
  let tag = Hmac.mac ~key:"k" "msg" in
  check_bool "accepts valid" true (Hmac.verify ~key:"k" "msg" ~tag);
  check_bool "rejects wrong msg" false (Hmac.verify ~key:"k" "msG" ~tag);
  check_bool "rejects wrong key" false (Hmac.verify ~key:"j" "msg" ~tag);
  check_bool "rejects truncated tag" false
    (Hmac.verify ~key:"k" "msg" ~tag:(String.sub tag 0 16))

(* ------------------------------------------------------------------ *)
(* Auth: simulated signature directory *)

let test_auth_sign_verify () =
  let dir = Auth.create 4 in
  let s = Auth.seal dir ~signer:2 "hello" in
  check_bool "valid signature accepted" true (Auth.check dir s)

let test_auth_rejects_wrong_signer () =
  let dir = Auth.create 4 in
  let s = Auth.seal dir ~signer:2 "hello" in
  check_bool "claiming another signer fails" false (Auth.check dir { s with Auth.signer = 3 })

let test_auth_rejects_tampered_payload () =
  let dir = Auth.create 4 in
  let s = Auth.seal dir ~signer:1 "hello" in
  check_bool "tampered payload fails" false (Auth.check dir { s with Auth.payload = "hellO" })

let test_auth_rejects_forgery () =
  let dir = Auth.create 4 in
  check_bool "forgery rejected" false (Auth.check dir (Auth.forge dir ~claimed:0 "fake"))

let test_auth_rejects_unknown_signer () =
  let dir = Auth.create 4 in
  let s = Auth.seal dir ~signer:0 "x" in
  check_bool "signer out of universe" false (Auth.check dir { s with Auth.signer = 17 });
  check_bool "negative signer" false (Auth.check dir { s with Auth.signer = -1 });
  check_bool "verify: signer out of universe" false (Auth.verify dir ~signer:17 "x" s.signature);
  check_bool "verify: negative signer" false (Auth.verify dir ~signer:(-1) "x" s.signature)

let test_auth_keys_distinct () =
  let dir = Auth.create 3 in
  let t0 = Auth.sign dir ~signer:0 "m" and t1 = Auth.sign dir ~signer:1 "m" in
  check_bool "per-process keys differ" false (t0 = t1)

let test_auth_deterministic () =
  let a = Auth.create 3 and b = Auth.create 3 in
  check_str "directories reproducible"
    (Qs_crypto.Sha256.hex (Auth.sign a ~signer:1 "m"))
    (Qs_crypto.Sha256.hex (Auth.sign b ~signer:1 "m"))

let test_auth_master_changes_keys () =
  let a = Auth.create ~master:"one" 2 and b = Auth.create ~master:"two" 2 in
  check_bool "master secret matters" false (Auth.sign a ~signer:0 "m" = Auth.sign b ~signer:0 "m")

let test_auth_universe () =
  Alcotest.(check int) "universe size" 5 (Auth.universe (Auth.create 5));
  Alcotest.check_raises "empty universe rejected"
    (Invalid_argument "Auth.create: need at least one process") (fun () ->
      ignore (Auth.create 0))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_hmac_roundtrip =
  QCheck.Test.make ~name:"hmac verify accepts own tag" ~count:100
    QCheck.(pair string string)
    (fun (key, msg) -> Hmac.verify ~key msg ~tag:(Hmac.mac ~key msg))

let prop_auth_roundtrip =
  QCheck.Test.make ~name:"auth check accepts seal" ~count:100
    QCheck.(pair (int_range 0 7) string)
    (fun (signer, payload) ->
      let dir = Auth.create 8 in
      Auth.check dir (Auth.seal dir ~signer payload))

let prop_sha_avalanche =
  QCheck.Test.make ~name:"flipping one byte changes the digest" ~count:100
    QCheck.(pair small_string (int_bound 1000))
    (fun (s, i) ->
      let s = if s = "" then "x" else s in
      let i = i mod String.length s in
      let flipped =
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s
      in
      Sha256.digest_string s <> Sha256.digest_string flipped)

(* Satellite: the two properties the evidence plane's soundness rests on.
   A tag never verifies under any key but its signer's (so a forgery can
   only ever incriminate the channel, not the claimed owner), and any
   single-byte mutation of the payload or the tag is rejected (so tampered
   frames cannot masquerade as the owner's equivocation). *)

let flip_byte s i x =
  String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor x) else c) s

let prop_auth_no_cross_signer =
  QCheck.Test.make ~name:"no cross-signer verification" ~count:200
    QCheck.(triple (int_range 0 7) (int_range 0 6) string)
    (fun (i, dj, payload) ->
      let j = (i + 1 + dj) mod 8 in
      let dir = Auth.create 8 in
      not (Auth.verify dir ~signer:j payload (Auth.sign dir ~signer:i payload)))

let prop_auth_payload_mutation =
  QCheck.Test.make ~name:"single-byte payload mutation rejected" ~count:200
    QCheck.(quad (int_range 0 7) string (int_bound 1000) (int_range 1 255))
    (fun (signer, payload, i, x) ->
      let payload = if payload = "" then "x" else payload in
      let dir = Auth.create 8 in
      let s = Auth.seal dir ~signer payload in
      let mutated = flip_byte payload (i mod String.length payload) x in
      not (Auth.check dir { s with Auth.payload = mutated }))

let prop_auth_tag_mutation =
  QCheck.Test.make ~name:"single-byte tag mutation rejected" ~count:200
    QCheck.(quad (int_range 0 7) string (int_bound 1000) (int_range 1 255))
    (fun (signer, payload, i, x) ->
      let dir = Auth.create 8 in
      let s = Auth.seal dir ~signer payload in
      let sg = flip_byte s.Auth.signature (i mod String.length s.Auth.signature) x in
      not (Auth.check dir { s with Auth.signature = sg }))

(* ------------------------------------------------------------------ *)
(* The library against the reference *)

(* Keys of every length class HMAC treats differently: empty, shorter
   than a block (zero-padded), exactly a block, and longer (hashed first
   by [normalize_key]). *)
let key_gen =
  QCheck.Gen.(
    oneof [ return 0; int_range 1 63; return 64; int_range 65 200 ]
    >>= fun n -> string_size (return n))

let payload_gen = QCheck.Gen.(string_size (int_range 0 300))

let prop_sha_matches_reference =
  QCheck.Test.make ~name:"sha256 equals the Int32 reference" ~count:300
    (QCheck.make ~print:String.escaped payload_gen)
    (fun m ->
      let d = Sha256.digest_string m in
      d = Ref_sha256.digest_string m && Sha256.hex d = Ref_sha256.hex d)

let prop_hmac_matches_reference =
  QCheck.Test.make ~name:"hmac equals the per-call reference" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair String.escaped String.escaped)
       QCheck.Gen.(pair key_gen payload_gen))
    (fun (key, m) ->
      let tag = Ref_hmac.mac ~key m in
      Hmac.mac ~key m = tag && Hmac.mac_with (Hmac.midstates key) m = tag)

let test_hmac_key_classes () =
  (* Every length class at least once, whatever the random draws. *)
  List.iter
    (fun len ->
      let key = String.init len (fun i -> Char.chr ((i * 7) land 0xff)) in
      List.iter
        (fun mlen ->
          let m = String.make mlen 'q' in
          check_str
            (Printf.sprintf "key %d, message %d" len mlen)
            (Ref_sha256.hex (Ref_hmac.mac ~key m))
            (Hmac.mac_hex ~key m))
        [ 0; 1; 55; 56; 64; 119; 300 ])
    [ 0; 1; 32; 63; 64; 65; 131 ]

let test_sha_copy_independent () =
  let a = Sha256.init () in
  Sha256.feed a (String.make 70 'a');
  let b = Sha256.copy a in
  Sha256.feed b "tail";
  check_str "copy left the original alone"
    (Sha256.digest_hex (String.make 70 'a'))
    (Sha256.hex (Sha256.finalize a));
  check_str "copy continues from the shared state"
    (Sha256.digest_hex (String.make 70 'a' ^ "tail"))
    (Sha256.hex (Sha256.finalize b))

(* A midstate fed in place instead of copied would make the second tag of
   a (signer, payload) pair depend on what was signed in between. *)
let test_auth_sign_stable_under_interleaving () =
  let dir = Auth.create 5 in
  let pairs = List.init 5 (fun s -> (s, Printf.sprintf "payload-%d" s)) in
  let first = List.map (fun (signer, p) -> Auth.sign dir ~signer p) pairs in
  for i = 1 to 3000 do
    let signer = i mod 5 in
    ignore (Auth.sign dir ~signer (String.make (i mod 150) (Char.chr (i land 0xff))))
  done;
  List.iter2
    (fun (signer, p) tag ->
      check_str (Printf.sprintf "p%d's tag" signer) (Sha256.hex tag)
        (Sha256.hex (Auth.sign dir ~signer p));
      check_bool (Printf.sprintf "p%d's tag verifies" signer) true
        (Auth.verify dir ~signer p tag))
    pairs first

(* One directory shared by two domains: the midstates are read-only, so
   each domain's tags equal the single-domain ones, and each domain's
   counters see exactly its own signs. *)
let test_auth_tags_across_domains () =
  let dir = Auth.create 4 in
  let work =
    List.init 400 (fun i -> (i mod 4, Printf.sprintf "m%d-%s" i (String.make (i mod 90) 'z')))
  in
  let sign_all order =
    let before = Counters.read () in
    let tags = List.map (fun (signer, p) -> Auth.sign dir ~signer p) order in
    (tags, (Counters.since before).Counters.signs)
  in
  let expected, _ = sign_all work in
  let shards =
    Qs_stdx.Domainpool.run ~jobs:2 (fun k ->
        (* The second domain signs in reverse, so the two interleave
           differently over the shared keys. *)
        if k = 0 then sign_all work
        else
          let tags, signs = sign_all (List.rev work) in
          (List.rev tags, signs))
  in
  Array.iteri
    (fun k (tags, signs) ->
      Alcotest.(check (list string))
        (Printf.sprintf "domain %d tags" k)
        (List.map Sha256.hex expected) (List.map Sha256.hex tags);
      Alcotest.(check int) (Printf.sprintf "domain %d counted its own signs" k) 400 signs)
    shards

(* Runtime threads share a domain and may hash at once, and the tick can
   switch threads in the middle of a block: two threads signing for a
   few hundred ms, long enough to be switched many times, must still
   produce every tag the single-threaded pass does. *)
let test_auth_tags_across_threads () =
  let dir = Auth.create 4 in
  let work =
    Array.init 64 (fun i -> (i mod 4, Printf.sprintf "t%d-%s" i (String.make (i * 3) 'y')))
  in
  let expected = Array.map (fun (signer, p) -> Auth.sign dir ~signer p) work in
  let wrong = Atomic.make 0 and passes = Atomic.make 0 in
  let sign_for seconds () =
    let stop = Unix.gettimeofday () +. seconds in
    while Unix.gettimeofday () < stop do
      Array.iteri
        (fun i (signer, p) ->
          if not (String.equal (Auth.sign dir ~signer p) expected.(i)) then Atomic.incr wrong)
        work;
      Atomic.incr passes
    done
  in
  let threads = List.init 2 (fun _ -> Thread.create (sign_for 0.3) ()) in
  List.iter Thread.join threads;
  check_bool "both threads signed" true (Atomic.get passes >= 2);
  Alcotest.(check int) "tags that differ from the single-threaded ones" 0 (Atomic.get wrong)

(* The midstates are the saving: a short message costs 2 compressions
   under a directory key, 4 under a raw key. *)
let test_counters_count_the_work () =
  let dir = Auth.create 2 in
  let before = Counters.read () in
  let tag = Auth.sign dir ~signer:1 "short" in
  ignore (Auth.verify dir ~signer:1 "short" tag);
  let d = Counters.since before in
  Alcotest.(check int) "one sign" 1 d.Counters.signs;
  Alcotest.(check int) "one verify" 1 d.Counters.verifies;
  Alcotest.(check int) "two compressions each" 4 d.Counters.compressions;
  let before = Counters.read () in
  ignore (Hmac.mac ~key:"raw" "short");
  Alcotest.(check int) "raw-key mac absorbs both pads" 4
    (Counters.since before).Counters.compressions

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sha_matches_reference;
      prop_hmac_matches_reference;
      prop_hmac_roundtrip;
      prop_auth_roundtrip;
      prop_sha_avalanche;
      prop_auth_no_cross_signer;
      prop_auth_payload_mutation;
      prop_auth_tag_mutation;
    ]

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty vector" `Quick test_sha_empty;
          Alcotest.test_case "abc vector" `Quick test_sha_abc;
          Alcotest.test_case "two-block vector" `Quick test_sha_two_blocks;
          Alcotest.test_case "896-bit vector" `Quick test_sha_896_bit;
          Alcotest.test_case "million a vector" `Slow test_sha_million_a;
          Alcotest.test_case "streaming equals one-shot" `Quick test_sha_streaming_equals_oneshot;
          Alcotest.test_case "block boundary lengths" `Quick test_sha_block_boundaries;
          Alcotest.test_case "distinct inputs" `Quick test_sha_distinct_inputs;
          Alcotest.test_case "digest length" `Quick test_sha_digest_length;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case 3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 case 6" `Quick test_hmac_rfc4231_case6_long_key;
          Alcotest.test_case "rfc4231 case 7" `Quick
            test_hmac_rfc4231_case7_long_key_long_data;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "auth",
        [
          Alcotest.test_case "sign/verify roundtrip" `Quick test_auth_sign_verify;
          Alcotest.test_case "wrong signer rejected" `Quick test_auth_rejects_wrong_signer;
          Alcotest.test_case "tampered payload rejected" `Quick test_auth_rejects_tampered_payload;
          Alcotest.test_case "forgery rejected" `Quick test_auth_rejects_forgery;
          Alcotest.test_case "unknown signer rejected" `Quick test_auth_rejects_unknown_signer;
          Alcotest.test_case "keys distinct" `Quick test_auth_keys_distinct;
          Alcotest.test_case "deterministic" `Quick test_auth_deterministic;
          Alcotest.test_case "master secret" `Quick test_auth_master_changes_keys;
          Alcotest.test_case "universe" `Quick test_auth_universe;
          Alcotest.test_case "tags stable under interleaving" `Quick
            test_auth_sign_stable_under_interleaving;
          Alcotest.test_case "tags across domains" `Quick test_auth_tags_across_domains;
          Alcotest.test_case "tags across threads" `Quick test_auth_tags_across_threads;
          Alcotest.test_case "counters" `Quick test_counters_count_the_work;
        ] );
      ( "reference",
        [
          Alcotest.test_case "hmac key length classes" `Quick test_hmac_key_classes;
          Alcotest.test_case "sha256 copy is independent" `Quick
            test_sha_copy_independent;
        ] );
      ("properties", qsuite);
    ]
