type signature = string

(* Per-key HMAC midstates, computed once here and never mutated after:
   sharing one directory between domains is safe. *)
type t = { keys : Hmac.midstates array }

let derive master i = Hmac.mac ~key:master (Printf.sprintf "process-key:%d" i)

let create ?(master = "qsel-reproduction-master-secret") n =
  if n <= 0 then invalid_arg "Auth.create: need at least one process";
  { keys = Array.init n (fun i -> Hmac.midstates (derive master i)) }

let universe t = Array.length t.keys

let key t i =
  if i < 0 || i >= Array.length t.keys then invalid_arg "Auth: unknown process";
  t.keys.(i)

let sign t ~signer payload =
  let k = key t signer in
  Counters.signed ();
  Hmac.mac_with k payload

let verify t ~signer payload tag =
  Counters.verified ();
  signer >= 0
  && signer < Array.length t.keys
  && Hmac.verify_with t.keys.(signer) payload ~tag

type signed = { signer : int; payload : string; signature : signature }

let seal t ~signer payload = { signer; payload; signature = sign t ~signer payload }

let check t s = verify t ~signer:s.signer s.payload s.signature

let forge t ~claimed payload =
  ignore (key t claimed);
  (* A forger has no access to [claimed]'s key; the best it can do is an
     arbitrary tag, which verification rejects with overwhelming probability.
     We make rejection deterministic by tagging with a key outside the
     directory. *)
  { signer = claimed; payload; signature = Hmac.mac ~key:"forged" payload }
