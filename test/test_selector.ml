(* The operations Quorum Selection (Algorithm 1) and Follower Selection
   (Algorithm 2) share through Qs_core.Selector_state, written once as a
   table of cases and run against each algorithm: snapshot/restore,
   amnesia/absorb, reconfiguration, exclusion, the create-time auth check
   and wrong-width rows. *)

module Pid = Qs_core.Pid
module QS = Qs_core.Quorum_select
module FS = Qs_follower.Follower_select
module Fmsg = Qs_follower.Fmsg
module Msg = Qs_core.Msg
module Matrix = Qs_core.Suspicion_matrix
module Auth = Qs_crypto.Auth
module Key = Qs_stdx.State_key

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

(* One selector at [me], its broadcasts delivered back to itself until
   quiet (the "to all including self" of both listings), so a single
   instance runs its own UPDATE and FOLLOWERS round trips. *)
module type SEL = sig
  val name : string

  type t

  val create : ?auth:Auth.t -> QS.config -> me:Pid.t -> t
  val suspect : t -> Pid.t list -> unit
  val row : t -> owner:Pid.t -> int array -> unit
  val exclude : t -> Pid.t -> unit
  val excluded : t -> Pid.t list
  val last_quorum : t -> Pid.t list
  val quorums_issued : t -> int
  val rejected : t -> int
  val matrix : t -> Matrix.t
  val reconfigure :
    t -> QS.config -> me:Pid.t -> cepoch:int -> of_new:(int -> Pid.t) -> unit
  val cepoch : t -> int
  val amnesia : t -> unit
  val absorb : t -> matrix:Matrix.t -> epoch:int -> unit
  val dormant : t -> bool
  val write_key : t -> Key.t -> unit

  type snapshot

  val snapshot : t -> snapshot
  val restore : t -> snapshot -> unit
end

let looped ~create ~handle =
  let outbox = Queue.create () in
  let sel = create (fun m -> Queue.push m outbox) in
  let drain () =
    while not (Queue.is_empty outbox) do
      handle sel (Queue.pop outbox)
    done
  in
  (sel, drain)

module Qsel : SEL = struct
  let name = "Quorum_select"

  type t = { sel : QS.t; auth : Auth.t; drain : unit -> unit }

  let create ?auth (cfg : QS.config) ~me =
    let auth = Option.value auth ~default:(Auth.create cfg.n) in
    let sel, drain =
      looped ~handle:QS.handle_update ~create:(fun send ->
          QS.create cfg ~me ~auth ~send ~on_quorum:ignore ())
    in
    { sel; auth; drain }

  let run t f = f t.sel; t.drain ()
  let suspect t s = run t (fun sel -> QS.handle_suspected sel s)

  let row t ~owner row =
    run t (fun sel -> QS.handle_update sel (Msg.seal t.auth { Msg.owner; row }))

  let exclude t p = run t (fun sel -> QS.exclude sel p)
  let excluded t = QS.excluded t.sel
  let last_quorum t = QS.last_quorum t.sel
  let quorums_issued t = QS.quorums_issued t.sel
  let rejected t = QS.rejected_updates t.sel
  let matrix t = QS.matrix t.sel

  let reconfigure t cfg ~me ~cepoch ~of_new =
    run t (fun sel -> QS.reconfigure sel cfg ~me ~cepoch ~of_new)

  let cepoch t = QS.cepoch t.sel
  let amnesia t = QS.amnesia t.sel
  let absorb t ~matrix ~epoch = run t (fun sel -> QS.absorb sel ~matrix ~epoch)
  let dormant t = QS.dormant t.sel
  let write_key t = QS.write_key t.sel

  type snapshot = QS.snapshot

  let snapshot t = QS.snapshot t.sel
  let restore t s = QS.restore t.sel s
end

module Fsel : SEL = struct
  let name = "Follower_select"

  type t = { sel : FS.t; auth : Auth.t; drain : unit -> unit }

  let create ?auth (cfg : QS.config) ~me =
    let auth = Option.value auth ~default:(Auth.create cfg.n) in
    let sel, drain =
      looped ~handle:FS.handle_msg ~create:(fun send ->
          FS.create cfg ~me ~auth ~send ~on_quorum:(fun ~leader:_ _ -> ()) ())
    in
    { sel; auth; drain }

  let run t f = f t.sel; t.drain ()
  let suspect t s = run t (fun sel -> FS.handle_suspected sel s)

  let row t ~owner row =
    run t (fun sel ->
        FS.handle_msg sel (Fmsg.seal t.auth (Fmsg.Update { Msg.owner; row })))

  let exclude t p = run t (fun sel -> FS.exclude sel p)
  let excluded t = FS.excluded t.sel
  let last_quorum t = FS.last_quorum t.sel
  let quorums_issued t = FS.quorums_issued t.sel
  let rejected t = FS.rejected_msgs t.sel
  let matrix t = FS.matrix t.sel

  let reconfigure t cfg ~me ~cepoch ~of_new =
    run t (fun sel -> FS.reconfigure sel cfg ~me ~cepoch ~of_new)

  let cepoch t = FS.cepoch t.sel
  let amnesia t = FS.amnesia t.sel
  let absorb t ~matrix ~epoch = run t (fun sel -> FS.absorb sel ~matrix ~epoch)
  let dormant t = FS.dormant t.sel
  let write_key t = FS.write_key t.sel

  type snapshot = FS.snapshot

  let snapshot t = FS.snapshot t.sel
  let restore t s = FS.restore t.sel s
end

let cfg4 = { QS.n = 4; f = 1 }

(* An UPDATE row suspecting [suspects] at [epoch]. *)
let row_of ~n ~epoch suspects =
  Array.init n (fun j -> if List.mem j suspects then epoch else 0)

module Cases (X : SEL) = struct
  let raises what msg f = Alcotest.check_raises what (Invalid_argument (X.name ^ msg)) f

  (* n = 7 keeps the standing suspicion plus a conviction within f = 2. *)
  let test_snapshot_restore () =
    let t = X.create { QS.n = 7; f = 2 } ~me:1 in
    X.suspect t [ 2 ];
    X.row t ~owner:3 (row_of ~n:7 ~epoch:1 [ 0 ]);
    let key () =
      let k = Key.create () in
      Key.reset k (Array.init 7 Fun.id);
      X.write_key t k;
      k
    in
    let before = key () in
    let snap = X.snapshot t in
    X.row t ~owner:2 (row_of ~n:7 ~epoch:1 [ 3 ]);
    X.exclude t 0;
    X.suspect t [ 0; 3 ];
    X.amnesia t;
    check_bool "operations moved the state" true (Key.compare (key ()) before <> 0);
    X.restore t snap;
    check_int "restored key" 0 (Key.compare (key ()) before)

  let test_amnesia_absorb () =
    let t = X.create cfg4 ~me:0 in
    X.suspect t [ 3 ];
    X.amnesia t;
    check_bool "dormant after amnesia" true (X.dormant t);
    let quorum = X.last_quorum t in
    X.row t ~owner:1 (row_of ~n:4 ~epoch:1 [ 0 ]);
    X.row t ~owner:2 (row_of ~n:4 ~epoch:1 [ 1 ]);
    check_int "rows still merge" 1 (Matrix.get (X.matrix t) ~suspector:1 ~suspect:0);
    check_int "no quorum while dormant" 0 (X.quorums_issued t);
    check_ilist "quorum untouched while dormant" quorum (X.last_quorum t);
    X.absorb t ~matrix:(Matrix.copy (X.matrix t)) ~epoch:1;
    check_bool "absorb wakes" false (X.dormant t);
    check_int "|Q| = n - f" 3 (List.length (X.last_quorum t))

  let test_reconfigure_rejections () =
    let t = X.create cfg4 ~me:0 in
    let cfg5 = { QS.n = 5; f = 1 } in
    raises "cepoch must advance" ".reconfigure: config epoch must advance" (fun () ->
        X.reconfigure t cfg4 ~me:0 ~cepoch:0 ~of_new:Fun.id);
    raises "me out of range" ".reconfigure: me out of range" (fun () ->
        X.reconfigure t cfg4 ~me:4 ~cepoch:1 ~of_new:Fun.id);
    raises "of_new out of range" ".reconfigure: of_new out of range" (fun () ->
        X.reconfigure t cfg4 ~me:0 ~cepoch:1 ~of_new:(fun i -> i + 1));
    raises "auth too small" ".reconfigure: auth universe too small" (fun () ->
        X.reconfigure t cfg5 ~me:0 ~cepoch:1 ~of_new:(fun i -> if i < 4 then i else -1));
    check_int "cepoch unchanged" 0 (X.cepoch t)

  let test_identity_remap () =
    let t = X.create cfg4 ~me:0 in
    X.suspect t [ 2 ];
    X.row t ~owner:3 (row_of ~n:4 ~epoch:1 [ 1 ]);
    let m = Matrix.copy (X.matrix t) in
    X.reconfigure t cfg4 ~me:0 ~cepoch:1 ~of_new:Fun.id;
    check_int "cepoch advanced" 1 (X.cepoch t);
    check_bool "matrix kept" true (Matrix.equal m (X.matrix t))

  let test_exclusion () =
    let t = X.create cfg4 ~me:1 in
    raises "negative pid" ".exclude: out of range" (fun () -> X.exclude t (-1));
    raises "pid = n" ".exclude: out of range" (fun () -> X.exclude t 4);
    X.exclude t 0;
    X.exclude t 1;
    check_ilist "both convictions recorded" [ 0; 1 ] (X.excluded t);
    (* Only the first f = 1 conviction applies: p2 stays eligible. *)
    check_ilist "quorum avoids p1 only" [ 1; 2; 3 ] (X.last_quorum t);
    X.amnesia t;
    X.absorb t ~matrix:(Matrix.create 4) ~epoch:2;
    check_ilist "convictions survive amnesia" [ 0; 1 ] (X.excluded t);
    check_ilist "rejoin quorum avoids p1 only" [ 1; 2; 3 ] (X.last_quorum t)

  let test_wrong_width () =
    let t = X.create cfg4 ~me:0 in
    let m = Matrix.copy (X.matrix t) in
    X.row t ~owner:1 (row_of ~n:5 ~epoch:1 [ 0 ]);
    check_int "rejected and counted" 1 (X.rejected t);
    check_bool "matrix untouched" true (Matrix.equal m (X.matrix t))

  let test_auth_too_small () =
    raises "auth universe below n" ".create: auth universe too small" (fun () ->
        ignore (X.create ~auth:(Auth.create 4) { QS.n = 5; f = 1 } ~me:4))

  let cases =
    List.map
      (fun (name, f) -> Alcotest.test_case name `Quick f)
      [
        ("snapshot/restore round trip", test_snapshot_restore);
        ("amnesia dormant until absorb", test_amnesia_absorb);
        ("reconfigure rejections", test_reconfigure_rejections);
        ("identity remap keeps matrix", test_identity_remap);
        ("exclusion range and f-cap", test_exclusion);
        ("wrong-width row rejected", test_wrong_width);
        ("create rejects small auth", test_auth_too_small);
      ]
end

module Q = Cases (Qsel)
module F = Cases (Fsel)

let () =
  Alcotest.run "selector" [ ("quorum_select", Q.cases); ("follower_select", F.cases) ]
