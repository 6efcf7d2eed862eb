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
}

let default = { lint = false; absint = true }

(** [default] with the given fields overridden. *)
let make ?(lint = default.lint) ?(absint = default.absint) () =
  { lint; absint }

type field = {
  name : string;  (** wire name and key label *)
  get : t -> bool;
  set : t -> bool -> t;
}

(** The canonical field list, in wire and key order. *)
let fields =
  [
    {
      name = "lint";
      get = (fun o -> o.lint);
      set = (fun o lint -> { o with lint });
    };
    {
      name = "absint";
      get = (fun o -> o.absint);
      set = (fun o absint -> { o with absint });
    };
  ]

(** The options' share of a verdict-cache key: every field as
    [name=value], NUL-terminated, in canonical order. Names and values
    contain neither [=] nor NUL, so distinct options give distinct
    keys. *)
let key o =
  String.concat ""
    (List.map
       (fun f -> f.name ^ "=" ^ string_of_bool (f.get o) ^ "\x00")
       fields)
