(** The settings that change what a verification request returns.

    Each verdict-affecting knob is one field of {!t} and one entry of
    {!fields}. The daemon's wire encoder and decoder, its verdict-cache
    key and its circuit-breaker digest are all derived from that list,
    so a knob added here reaches every one of them: none can be
    forgotten and serve a stale cached verdict. Budget knobs (deadline,
    retries) are deliberately not options: they decide {e whether} a
    verdict is reached, never {e which} one (DESIGN §10.3). *)

type t = {
  lint : bool;
      (** run the static analyzer first; programs with error-severity
          diagnostics are gated (their procedures report [Failed]
          without touching the solver) *)
  absint : bool;
      (** abstract-interpretation pass: DA018–DA025 in the lint stage
          and the [Valid]-only VC pre-discharge ahead of the solver *)
  seed : int;
      (** interleaving-scheduler seed: permutes the order [par]
          branches are explored in (0 = left-first). Verdicts are
          schedule-independent by construction; keying the verdict
          cache on the seed re-checks that rather than assuming it *)
}

let default = { lint = false; absint = true; seed = 0 }

(** [default] with the given fields overridden. *)
let make ?(lint = default.lint) ?(absint = default.absint)
    ?(seed = default.seed) () =
  { lint;
    absint;
    seed }

type _ kind = Bool : bool kind | Int : int kind

type field =
  | Field : {
      name : string;  (** wire name and key label *)
      kind : 'a kind;
      get : t -> 'a;
      set : t -> 'a -> t;
    }
      -> field

let field name (kind : 'a kind) get set = Field { name; kind; get; set }

(** The canonical field list, in wire and key order. *)
let fields =
  [
    field "lint" Bool (fun o -> o.lint) (fun o lint -> { o with lint });
    field "absint" Bool (fun o -> o.absint) (fun o absint -> { o with absint });
    field "seed" Int (fun o -> o.seed) (fun o seed -> { o with seed });
  ]

let value_string : type a. a kind -> a -> string =
 fun kind v -> match kind with Bool -> string_of_bool v | Int -> string_of_int v

(** The options' share of a verdict-cache key: every field as
    [name=value], NUL-terminated, in canonical order. Names and values
    contain neither [=] nor NUL, so distinct options give distinct
    keys. *)
let key o =
  String.concat ""
    (List.map
       (fun (Field f) -> f.name ^ "=" ^ value_string f.kind (f.get o) ^ "\x00")
       fields)
