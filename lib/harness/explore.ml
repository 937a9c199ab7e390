module QS = Qs_core.Quorum_select
module Msg = Qs_core.Msg
module Matrix = Qs_core.Suspicion_matrix

type scenario = { n : int; f : int; injections : (int * int list) list }

type result = {
  states : int;
  quiescent : int;
  max_depth : int;
  agreement_violations : int;
  convergence_violations : int;
}

(* A rebuilt world: nodes plus the in-flight message list (in deterministic
   append order). *)
type world = {
  nodes : QS.t array;
  inflight : (int * Msg.t) list ref; (* (dst, msg), oldest first *)
}

let build scenario =
  let auth = Qs_crypto.Auth.create scenario.n in
  let inflight = ref [] in
  let nodes =
    Array.init scenario.n (fun me ->
        QS.create
          { QS.n = scenario.n; f = scenario.f }
          ~me ~auth
          ~send:(fun msg ->
            for dst = 0 to scenario.n - 1 do
              inflight := !inflight @ [ (dst, msg) ]
            done)
          ~on_quorum:(fun _ -> ())
          ())
  in
  let world = { nodes; inflight } in
  List.iter (fun (at, suspects) -> QS.handle_suspected nodes.(at) suspects) scenario.injections;
  world

(* Replay a prefix of delivery choices. Each choice is an index into the
   current in-flight list. *)
let replay scenario choices =
  let world = build scenario in
  List.iter
    (fun idx ->
      let dst, msg = List.nth !(world.inflight) idx in
      world.inflight :=
        List.filteri (fun i _ -> i <> idx) !(world.inflight);
      QS.handle_update world.nodes.(dst) msg)
    choices;
  world

(* A canonical fingerprint of the global state: per-node (epoch, matrix,
   last quorum) plus the multiset of in-flight messages. *)
let fingerprint world =
  let module K = Qs_stdx.State_key in
  let key = K.create () in
  K.reset key (Array.init (Array.length world.nodes) Fun.id);
  Array.iter
    (fun node ->
      K.add key (QS.epoch node);
      Matrix.write_key (QS.matrix node) key;
      K.add_pids key (QS.last_quorum node))
    world.nodes;
  K.add_multiset key
    (fun (dst, msg) ->
      K.add_pid key dst;
      K.add_pid key msg.Msg.update.Msg.owner;
      K.add_row key msg.Msg.update.Msg.row)
    !(world.inflight);
  K.to_string key

(* Distinct next choices: delivering two identical (dst, msg) entries leads
   to the same state, so keep one representative index per distinct entry. *)
let distinct_choices world =
  let seen = Hashtbl.create 16 in
  let _, indices =
    List.fold_left
      (fun (i, acc) (dst, msg) ->
        let key = (dst, Msg.encode msg.Msg.update) in
        if Hashtbl.mem seen key then (i + 1, acc)
        else begin
          Hashtbl.replace seen key ();
          (i + 1, i :: acc)
        end)
      (0, []) !(world.inflight)
  in
  List.rev indices

let check ?(max_states = 200_000) scenario =
  QS.validate_config { QS.n = scenario.n; f = scenario.f };
  let visited = Hashtbl.create 4096 in
  let states = ref 0 in
  let quiescent = ref 0 in
  let max_depth = ref 0 in
  let agreement_violations = ref 0 in
  let convergence_violations = ref 0 in
  let rec dfs choices =
    let world = replay scenario choices in
    let fp = fingerprint world in
    if not (Hashtbl.mem visited fp) then begin
      Hashtbl.replace visited fp ();
      incr states;
      if !states > max_states then failwith "Explore.check: state budget exceeded";
      max_depth := max !max_depth (List.length choices);
      if !(world.inflight) = [] then begin
        incr quiescent;
        let quorums = Array.to_list (Array.map QS.last_quorum world.nodes) in
        if not (Qs_core.Spec.agreement quorums) then incr agreement_violations;
        let m0 = QS.matrix world.nodes.(0) in
        if
          not
            (Array.for_all (fun node -> Matrix.equal m0 (QS.matrix node)) world.nodes)
        then incr convergence_violations
      end
      else
        List.iter (fun idx -> dfs (choices @ [ idx ])) (distinct_choices world)
    end
  in
  dfs [];
  {
    states = !states;
    quiescent = !quiescent;
    max_depth = !max_depth;
    agreement_violations = !agreement_violations;
    convergence_violations = !convergence_violations;
  }
