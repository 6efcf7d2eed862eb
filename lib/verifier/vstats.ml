(** Verifier-side statistics, feeding tables T1 and T3.

    Instance-passed, not global: every symbolic-execution state carries
    the instance it accumulates into ([State.create ?stats]), so
    concurrent verification jobs in [lib/engine] each own a private
    instance and the engine merges them with {!sum} into one report.
    Sequential drivers pass one shared instance across procedures. *)

type t = {
  mutable obligations : int;
      (** proof obligations discharged; a candidate chunk that the
          context model separates from the sought location is rejected
          without one ([State.same_loc]) and is not counted *)
  mutable chunk_matches : int;  (** spatial chunks consumed *)
  mutable resolutions : int;  (** heap reads resolved (destabilized) *)
  mutable stab_checks : int;  (** stability checks performed *)
  mutable unstable_facts : int;  (** facts dropped at mutation points *)
  mutable branches : int;  (** path splits *)
  mutable loops : int;
  mutable calls : int;
  mutable absint_discharged : int;
      (** obligations the abstract-interpretation pre-discharge proved
          [Valid] without consulting the solver (and infeasible branches
          it pruned) *)
  mutable absint_abstained : int;
      (** obligations the pre-discharge saw but could not decide,
          falling through to the solver *)
  mutable par_branches : int;  (** par branches symbolically executed *)
  mutable inv_opens : int;
      (** named-invariant openings at atomic sections *)
  mutable interference_havocs : int;
      (** interference points where the footprint was havocked
          (par forks/joins) *)
  mutable int_out_of_range : int;
      (** verification attempts refused because an integer left the
          native range ([Resource_out "integer out of range"]) *)
}

let create () =
  {
    obligations = 0;
    chunk_matches = 0;
    resolutions = 0;
    stab_checks = 0;
    unstable_facts = 0;
    branches = 0;
    loops = 0;
    calls = 0;
    absint_discharged = 0;
    absint_abstained = 0;
    par_branches = 0;
    inv_opens = 0;
    interference_havocs = 0;
    int_out_of_range = 0;
  }

(** Every counter, once: [sum], [pp], the report JSON and the daemon's
    [stats] op are derived from this list. *)
let fields : t Stdx.Counters.field list =
  Stdx.Counters.
    [
      Int ("obligations", (fun s -> s.obligations),
           fun s v -> s.obligations <- v);
      Int ("chunk_matches", (fun s -> s.chunk_matches),
           fun s v -> s.chunk_matches <- v);
      Int ("resolutions", (fun s -> s.resolutions),
           fun s v -> s.resolutions <- v);
      Int ("stab_checks", (fun s -> s.stab_checks),
           fun s v -> s.stab_checks <- v);
      Int ("unstable_facts", (fun s -> s.unstable_facts),
           fun s v -> s.unstable_facts <- v);
      Int ("branches", (fun s -> s.branches), fun s v -> s.branches <- v);
      Int ("loops", (fun s -> s.loops), fun s v -> s.loops <- v);
      Int ("calls", (fun s -> s.calls), fun s v -> s.calls <- v);
      Int ("absint_discharged", (fun s -> s.absint_discharged),
           fun s v -> s.absint_discharged <- v);
      Int ("absint_abstained", (fun s -> s.absint_abstained),
           fun s v -> s.absint_abstained <- v);
      Int ("par_branches", (fun s -> s.par_branches),
           fun s v -> s.par_branches <- v);
      Int ("inv_opens", (fun s -> s.inv_opens), fun s v -> s.inv_opens <- v);
      Int ("interference_havocs", (fun s -> s.interference_havocs),
           fun s v -> s.interference_havocs <- v);
      Int ("int_out_of_range", (fun s -> s.int_out_of_range),
           fun s v -> s.int_out_of_range <- v);
    ]

let copy s = { s with obligations = s.obligations }

(** Pointwise sum; used by the engine to merge per-job instances. *)
let sum a b =
  Stdx.Counters.combine fields ~int:( + ) ~float:( +. ) a b (create ())

let pp = Stdx.Counters.pp fields
