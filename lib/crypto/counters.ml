(* One mutable record per domain: a domain only ever bumps its own, so
   concurrent signers never race on a shared cell. *)

type t = { signs : int; verifies : int; compressions : int }

type cells = {
  mutable c_signs : int;
  mutable c_verifies : int;
  mutable c_compressions : int;
}

let slot =
  Qs_stdx.Domainpool.local (fun () -> { c_signs = 0; c_verifies = 0; c_compressions = 0 })

let read () =
  let c = Qs_stdx.Domainpool.get slot in
  { signs = c.c_signs; verifies = c.c_verifies; compressions = c.c_compressions }

let since before =
  let now = read () in
  {
    signs = now.signs - before.signs;
    verifies = now.verifies - before.verifies;
    compressions = now.compressions - before.compressions;
  }

let signed () =
  let c = Qs_stdx.Domainpool.get slot in
  c.c_signs <- c.c_signs + 1

let verified () =
  let c = Qs_stdx.Domainpool.get slot in
  c.c_verifies <- c.c_verifies + 1

let compressed () =
  let c = Qs_stdx.Domainpool.get slot in
  c.c_compressions <- c.c_compressions + 1
