type update = { owner : Pid.t; row : int array }

type t = { update : update; signature : Qs_crypto.Auth.signature }

let encode u =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "UPDATE|";
  Buffer.add_string buf (string_of_int u.owner);
  Buffer.add_char buf '|';
  Array.iter
    (fun v ->
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ',')
    u.row;
  Buffer.contents buf

let seal auth u = { update = u; signature = Qs_crypto.Auth.sign auth ~signer:u.owner (encode u) }

let verify auth t =
  Qs_crypto.Auth.verify auth ~signer:t.update.owner (encode t.update) t.signature

let pp ppf t =
  Format.fprintf ppf "UPDATE(%a: %a)" Pid.pp t.update.owner
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
       Format.pp_print_int)
    (Array.to_list t.update.row)
