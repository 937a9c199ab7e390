module Msg = Qs_core.Msg
module Pid = Qs_core.Pid

type followers = {
  leader : Pid.t;
  epoch : int;
  followers : Pid.t list;
  line : (int * int) list;
}

type payload = Update of Msg.update | Followers of followers

type t = { payload : payload; signature : Qs_crypto.Auth.signature }

let signer = function
  | Update u -> u.Msg.owner
  | Followers f -> f.leader

let encode = function
  | Update u -> Msg.encode u
  | Followers f ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf "FOLLOWERS|";
    Buffer.add_string buf (string_of_int f.leader);
    Buffer.add_char buf '|';
    Buffer.add_string buf (string_of_int f.epoch);
    Buffer.add_char buf '|';
    List.iter
      (fun p ->
        Buffer.add_string buf (string_of_int p);
        Buffer.add_char buf ',')
      f.followers;
    Buffer.add_char buf '|';
    List.iter
      (fun (i, j) ->
        Buffer.add_string buf (string_of_int i);
        Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int j);
        Buffer.add_char buf ',')
      f.line;
    Buffer.contents buf

let seal auth payload =
  { payload; signature = Qs_crypto.Auth.sign auth ~signer:(signer payload) (encode payload) }

let verify auth t =
  Qs_crypto.Auth.verify auth ~signer:(signer t.payload) (encode t.payload) t.signature

let line_graph ~n f = Qs_graph.Graph.of_edges n f.line

let pp ppf t =
  match t.payload with
  | Update u -> Format.fprintf ppf "UPDATE(%a)" Pid.pp u.Msg.owner
  | Followers f ->
    Format.fprintf ppf "FOLLOWERS(leader=%a epoch=%d fw=%a)" Pid.pp f.leader f.epoch
      Pid.pp_set f.followers
