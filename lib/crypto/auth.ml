type signature = string

type t = { keys : string array }

let derive master i = Hmac.mac ~key:master (Printf.sprintf "process-key:%d" i)

let create ?(master = "qsel-reproduction-master-secret") n =
  if n <= 0 then invalid_arg "Auth.create: need at least one process";
  { keys = Array.init n (derive master) }

let universe t = Array.length t.keys

let key t i =
  if i < 0 || i >= Array.length t.keys then invalid_arg "Auth: unknown process";
  t.keys.(i)

let sign t ~signer payload = Hmac.mac ~key:(key t signer) payload

let verify t ~signer payload tag =
  signer >= 0 && signer < Array.length t.keys && Hmac.verify ~key:t.keys.(signer) payload ~tag

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
