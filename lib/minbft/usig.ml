module Auth = Qs_crypto.Auth
module Pid = Qs_core.Pid

type ui = { origin : Pid.t; counter : int; usig_sig : Auth.signature }

(* The trusted components get their own key universe, derived from a master
   secret distinct from the replicas' message keys: compromising a replica
   does not compromise its USIG. *)
type directory = Auth.t

type t = { id : Pid.t; keys : Auth.t; mutable last : int }

let binding ~origin ~counter ~digest =
  Printf.sprintf "USIG|%d|%d|%s" origin counter (Qs_crypto.Sha256.hex digest)

let setup ~n =
  let keys = Auth.create ~master:"qsel-usig-trusted-master" n in
  (keys, Array.init n (fun id -> { id; keys; last = 0 }))

let certify t ~digest =
  t.last <- t.last + 1;
  {
    origin = t.id;
    counter = t.last;
    usig_sig = Auth.sign t.keys ~signer:t.id (binding ~origin:t.id ~counter:t.last ~digest);
  }

let counter t = t.last

let verify directory ~digest ui =
  Auth.verify directory ~signer:ui.origin
    (binding ~origin:ui.origin ~counter:ui.counter ~digest)
    ui.usig_sig

type monitor = { directory : directory; expected : int array }

let monitor directory ~n = { directory; expected = Array.make n 1 }

let expected_next m origin = m.expected.(origin)

let resync m origin counter = m.expected.(origin) <- counter

let accept m ~digest ui =
  if not (verify m.directory ~digest ui) then `Bad_signature
  else if ui.counter < m.expected.(ui.origin) then `Replay
  else if ui.counter > m.expected.(ui.origin) then `Gap
  else begin
    m.expected.(ui.origin) <- ui.counter + 1;
    `Ok
  end
