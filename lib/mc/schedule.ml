type choice =
  | Deliver of int
  | Step
  | Fire of int
  | Amnesia of int
  | Equivocate of int
  | Churn of int
  | Region of int

type t = choice list

(* The one letter table: printing reads it directly, parsing inverts it
   through [with_arg]. *)
let letter = function
  | Deliver _ -> 'd'
  | Step -> 't'
  | Fire _ -> 'f'
  | Amnesia _ -> 'a'
  | Equivocate _ -> 'e'
  | Churn _ -> 'c'
  | Region _ -> 'r'

let with_arg =
  [ (fun i -> Deliver i); (fun p -> Fire p); (fun p -> Amnesia p); (fun p -> Equivocate p);
    (fun p -> Churn p); (fun i -> Region i) ]

let choice_to_string = function
  | Step -> String.make 1 (letter Step)
  | (Deliver i | Fire i | Amnesia i | Equivocate i | Churn i | Region i) as c ->
    String.make 1 (letter c) ^ string_of_int i

let to_string t = String.concat ";" (List.map choice_to_string t)

let choice_of_string s =
  let fail () = invalid_arg (Printf.sprintf "Schedule.of_string: bad choice %S" s) in
  if s = choice_to_string Step then Step
  else if String.length s < 2 then fail ()
  else
    match
      ( List.find_opt (fun mk -> letter (mk 0) = s.[0]) with_arg,
        int_of_string_opt (String.sub s 1 (String.length s - 1)) )
    with
    | Some mk, Some v when v >= 0 -> mk v
    | _ -> fail ()

let of_string s =
  let s = String.trim s in
  if s = "" then []
  else List.map (fun c -> choice_of_string (String.trim c)) (String.split_on_char ';' s)

let to_json t =
  Qs_obs.Json.List (List.map (fun c -> Qs_obs.Json.String (choice_to_string c)) t)

let pp ppf t = Format.pp_print_string ppf (to_string t)
