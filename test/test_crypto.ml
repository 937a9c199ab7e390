(* Crypto substrate tests: FIPS 180-4 / RFC 4231 vectors plus the simulated
   signature directory. *)

open Qs_crypto

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

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

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
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
        ] );
      ("properties", qsuite);
    ]
