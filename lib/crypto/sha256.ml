(* FIPS 180-4 SHA-256 over native ints masked to 32 bits. A block
   compression allocates nothing: the message schedule is a 16-word
   rolling window in the context (word t lives at t mod 16 and is
   computed in the round that reads it), and the working variables are
   int refs the compiler keeps unboxed. The window is per context, never
   per domain: runtime threads share a domain and may hash at once. Like
   [Qs_stdx.Bitset] it assumes 63-bit native ints: a sum of five 32-bit
   words, and [dup] below, must fit before they are masked. *)

type digest = string

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;               (* 8 state words *)
  buf : Bytes.t;               (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int;         (* total bytes absorbed *)
  w : int array;               (* message schedule window, 16 words *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 16 0;
  }

let copy ctx =
  let buf = Bytes.create 64 in
  Bytes.blit ctx.buf 0 buf 0 ctx.buf_len;
  {
    h = Array.copy ctx.h;
    buf;
    buf_len = ctx.buf_len;
    total = ctx.total;
    w = Array.make 16 0;
  }

let mask = 0xFFFF_FFFF

(* [dup x] holds the 32-bit word [x] twice, at bits 0-31 and 32-62, so
   [(dup x lsr n) land mask] rotates [x] right by any [n] in 1..31: result
   bit [i] is [x]'s bit [(i + n) mod 32], and the highest bit read,
   [i + n - 32 <= 30], survived the shift into the 63-bit int. One [dup]
   serves all three rotations of a sigma function. *)
let dup x = x lor (x lsl 32)

let process_block ctx block off =
  Counters.compressed ();
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (4 * t) in
    w.(t) <-
      (Char.code (Bytes.get block i) lsl 24)
      lor (Char.code (Bytes.get block (i + 1)) lsl 16)
      lor (Char.code (Bytes.get block (i + 2)) lsl 8)
      lor Char.code (Bytes.get block (i + 3))
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    (* Word t overwrites word t - 16, the oldest in the window. *)
    let wt =
      if t < 16 then w.(t)
      else begin
        let x = w.((t - 15) land 15) and y = w.((t - 2) land 15) in
        let xx = dup x and yy = dup y in
        let s0 = ((xx lsr 7) lxor (xx lsr 18)) land mask lxor (x lsr 3) in
        let s1 = ((yy lsr 17) lxor (yy lsr 19)) land mask lxor (y lsr 10) in
        let v = (w.(t land 15) + s0 + w.((t - 7) land 15) + s1) land mask in
        w.(t land 15) <- v;
        v
      end
    in
    let e' = !e and a' = !a in
    let ee = dup e' and aa = dup a' in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask in
    let ch = !g lxor (e' land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + k.(t) + wt in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask in
    let maj = (a' land !b) lor (!c land (a' lor !b)) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
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
  let bit_len = ctx.total * 8 in
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
    Bytes.set ctx.buf (56 + i) (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  process_block ctx ctx.buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let word = ctx.h.(i) in
    for j = 0 to 3 do
      Bytes.set out ((4 * i) + j) (Char.unsafe_chr ((word lsr (8 * (3 - j))) land 0xFF))
    done
  done;
  Bytes.unsafe_to_string out

let digest_string s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let hex d =
  let out = Bytes.create (2 * String.length d) in
  String.iteri
    (fun i c ->
      let x = Char.code c in
      Bytes.unsafe_set out (2 * i) hex_digits.[x lsr 4];
      Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[x land 0xF])
    d;
  Bytes.unsafe_to_string out

let digest_hex s = hex (digest_string s)
