(** ASCII table rendering for experiment reports.

    The bench harness prints one table per reproduced paper artifact; this
    module keeps the formatting in one place. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t
(** [create ~title ~columns] starts an empty table. *)

val add_row : t -> string list -> unit
(** Row cells must match the number of columns. *)

val render : t -> string
(** Render with a header, column rules, and the title on top. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)
