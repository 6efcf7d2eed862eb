(** Named counter fields of a mutable statistics record.

    A statistics record lists each counter once, as a {!field}: its
    name (the key every rendering shows it under) plus a getter and a
    setter. Reset, pointwise sum and difference, [name=value] printing
    and the report JSON are derived from that one list, so adding a
    counter is one record field plus one [fields] entry. *)

type 'r field =
  | Int of string * ('r -> int) * ('r -> int -> unit)
  | Float of string * ('r -> float) * ('r -> float -> unit)

type value = [ `Int of int | `Float of float ]

let name = function Int (n, _, _) | Float (n, _, _) -> n

(** Zero every field of [r]. *)
let reset fields r =
  List.iter
    (function
      | Int (_, _, set) -> set r 0 | Float (_, _, set) -> set r 0.0)
    fields

(** Write [int a.f b.f] (or [float a.f b.f]) into each field [f] of
    [into], and return [into]. *)
let combine fields ~int ~float a b into =
  List.iter
    (function
      | Int (_, get, set) -> set into (int (get a) (get b))
      | Float (_, get, set) -> set into (float (get a) (get b)))
    fields;
  into

let to_list fields r : (string * value) list =
  List.map
    (function
      | Int (n, get, _) -> (n, `Int (get r))
      | Float (n, get, _) -> (n, `Float (get r)))
    fields

(** A value as a JSON number: floats to one decimal. *)
let value_to_string : value -> string = function
  | `Int i -> string_of_int i
  | `Float f -> Printf.sprintf "%.1f" f

(** [name=value] pairs, space-separated (breakable). *)
let pp_list ppf (l : (string * value) list) =
  let pp_one ppf (n, v) = Fmt.pf ppf "%s=%s" n (value_to_string v) in
  Fmt.(hovbox (list ~sep:sp pp_one)) ppf l

let pp fields ppf r = pp_list ppf (to_list fields r)
