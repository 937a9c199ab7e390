type align = Left | Right

type t = {
  title : string;
  columns : (string * align) list;
  mutable rows : string list list;  (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: cell count mismatch";
  t.rows <- cells :: t.rows

let render t =
  let headers = List.map fst t.columns in
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let pad align width s =
    let fill = String.make (max 0 (width - String.length s)) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let aligns = List.map snd t.columns in
  let render_cells cells =
    let parts =
      List.map2 (fun (w, a) s -> pad a w s) (List.combine widths aligns) cells
    in
    "| " ^ String.concat " | " parts ^ " |"
  in
  let rule =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (rule ^ "\n");
  Buffer.add_string buf (render_cells headers ^ "\n");
  Buffer.add_string buf (rule ^ "\n");
  List.iter (fun cells -> Buffer.add_string buf (render_cells cells ^ "\n")) rows;
  Buffer.add_string buf rule;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ();
  print_newline ()
