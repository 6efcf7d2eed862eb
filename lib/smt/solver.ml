(** The lazy SMT(EUF + LIA) solver.

    Pipeline: int-[ite] elimination → Tseitin CNF over theory atoms →
    CDCL; every propositional model is checked by {!Theory}; theory
    conflicts come back as blocking clauses over a greedily minimized
    core. Equality atoms over integers get eager splitting lemmas
    [a = b ∨ a < b ∨ b < a] so that negated equalities reach the
    arithmetic solver as strict inequalities.

    Lemma store. A caller that asks many related queries (a
    {!Session}'s fallbacks) can hand in the minimized cores earlier
    queries learned ([?lemmas]) and collect the new ones ([?learn]).
    A core is a set of literals the theory refuted, and minimization
    trusts only [Unsat], so its negation is theory-valid under every
    meaning of its variables — including the per-query [%ite] names.
    Adding it as a clause therefore never changes satisfiability; it
    only spares the lazy loop the theory checks and the minimization
    that would rediscover it. A core is seeded only when every atom of
    it occurs in the query: one mentioning anything else cannot block
    any model the query has. *)

open Stdx

type model = { ints : int Smap.t; bools : bool Smap.t }

type result =
  | Sat of model
  | Unsat
  | Unknown  (** genuinely incomplete: the VC left the decided fragment *)
  | Resource_out of Budget.reason
      (** a fuel knob ran dry before an answer; distinct from [Unknown]
          because a retry with a bigger budget may well succeed *)

(* ------------------------------------------------------------------ *)
(* Preprocessing: eliminate integer-sorted ite *)

let elim_ite gensym (ts : Term.t list) : Term.t list =
  let defs = ref [] in
  (* Memo keyed on the intern id: O(1) lookups, no tree hashing. *)
  let memo : (int, Term.t) Hashtbl.t = Hashtbl.create 16 in
  let rec go (t : Term.t) : Term.t =
    match Term.view t with
    | Term.Ite (c, a, b) when Sort.equal (Term.sort_of a) Sort.Int -> (
        match Hashtbl.find_opt memo (Term.id t) with
        | Some v -> v
        | None ->
            let c = go c and a = go a and b = go b in
            let v = Term.var (Gensym.fresh ~hint:"ite" gensym) in
            defs := Term.implies c (Term.eq v a) :: !defs;
            defs := Term.implies (Term.not_ c) (Term.eq v b) :: !defs;
            Hashtbl.add memo (Term.id t) v;
            v)
    | Term.Ite (c, a, b) ->
        (* Boolean ite: expand propositionally. *)
        Term.and_
          [ Term.implies (go c) (go a); Term.implies (Term.not_ (go c)) (go b) ]
    | Term.Var _ | Term.Int_lit _ | Term.True | Term.False -> t
    | Term.App (f, args) -> Term.app f (List.map go args)
    | Term.Pred (f, args) -> Term.pred f (List.map go args)
    | Term.Add (a, b) -> Term.add (go a) (go b)
    | Term.Sub (a, b) -> Term.sub (go a) (go b)
    | Term.Mul (a, b) -> Term.mul (go a) (go b)
    | Term.Eq (a, b) -> Term.eq (go a) (go b)
    | Term.Le (a, b) -> Term.le (go a) (go b)
    | Term.Lt (a, b) -> Term.lt (go a) (go b)
    | Term.Not a -> Term.not_ (go a)
    | Term.And xs -> Term.and_ (List.map go xs)
    | Term.Or xs -> Term.or_ (List.map go xs)
    | Term.Implies (a, b) -> Term.implies (go a) (go b)
    | Term.Iff (a, b) -> Term.iff (go a) (go b)
  in
  let ts = List.map go ts in
  ts @ !defs

(* ------------------------------------------------------------------ *)
(* Tseitin encoding *)

(* All memo tables are keyed on the intern id (hash-consing makes
   structurally equal terms share one id), so lookups cost a word
   hash instead of a tree hash. Ids are process-local, which is fine:
   an encoder never outlives the process. *)
type encoder = {
  sat : Sat.t;
  atom_vars : (int, int) Hashtbl.t;  (* Term.id -> SAT var *)
  mutable atoms : (int * Term.t) list;  (* SAT var -> atom *)
  memo : (int, Sat.lit) Hashtbl.t;  (* Term.id -> encoded literal *)
  mutable split_done : (int, unit) Hashtbl.t;  (* Term.id *)
}

let atom_var enc (t : Term.t) =
  match Hashtbl.find_opt enc.atom_vars (Term.id t) with
  | Some v -> v
  | None ->
      let v = Sat.new_var enc.sat in
      Hashtbl.add enc.atom_vars (Term.id t) v;
      enc.atoms <- (v, t) :: enc.atoms;
      v

let is_atom (t : Term.t) =
  match Term.view t with
  | Term.Eq _ | Term.Le _ | Term.Lt _ | Term.Pred _ -> true
  | Term.Var (_, Sort.Bool) -> true
  | _ -> false

(** Eager integer-equality splitting: [a = b ∨ a < b ∨ b < a]. *)
let rec add_split_lemma enc (t : Term.t) =
  match Term.view t with
  | Term.Eq (a, b)
    when Sort.equal (Term.sort_of a) Sort.Int
         && not (Hashtbl.mem enc.split_done (Term.id t)) ->
      Hashtbl.add enc.split_done (Term.id t) ();
      let v_eq = atom_var enc t in
      (* [Term.lt] cannot fold here: an interned [Eq (a, b)] node
         guarantees a and b are distinct non-literal operands. *)
      let v_lt = atom_var enc (Term.lt a b) in
      let v_gt = atom_var enc (Term.lt b a) in
      ignore
        (Sat.add_clause enc.sat
           [ Sat.lit_of_var v_eq; Sat.lit_of_var v_lt; Sat.lit_of_var v_gt ])
  | _ -> ()

and encode enc (t : Term.t) : Sat.lit =
  match Hashtbl.find_opt enc.memo (Term.id t) with
  | Some l -> l
  | None ->
      let l =
        match Term.view t with
        | _ when is_atom t ->
            add_split_lemma enc t;
            Sat.lit_of_var (atom_var enc t)
        | Term.True ->
            let v = Sat.new_var enc.sat in
            ignore (Sat.add_clause enc.sat [ Sat.lit_of_var v ]);
            Sat.lit_of_var v
        | Term.False ->
            let v = Sat.new_var enc.sat in
            ignore (Sat.add_clause enc.sat [ Sat.lit_of_var ~neg:true v ]);
            Sat.lit_of_var v
        | Term.Not a -> Sat.neg_lit (encode enc a)
        | Term.And ts ->
            let lits = List.map (encode enc) ts in
            let v = Sat.new_var enc.sat in
            let lv = Sat.lit_of_var v in
            List.iter
              (fun li ->
                ignore (Sat.add_clause enc.sat [ Sat.neg_lit lv; li ]))
              lits;
            ignore
              (Sat.add_clause enc.sat (lv :: List.map Sat.neg_lit lits));
            lv
        | Term.Or ts ->
            let lits = List.map (encode enc) ts in
            let v = Sat.new_var enc.sat in
            let lv = Sat.lit_of_var v in
            List.iter
              (fun li ->
                ignore (Sat.add_clause enc.sat [ lv; Sat.neg_lit li ]))
              lits;
            ignore (Sat.add_clause enc.sat (Sat.neg_lit lv :: lits));
            lv
        | Term.Implies (a, b) -> encode enc (Term.or_ [ Term.not_ a; b ])
        | Term.Iff (a, b) ->
            let la = encode enc a and lb = encode enc b in
            let v = Sat.new_var enc.sat in
            let lv = Sat.lit_of_var v in
            ignore
              (Sat.add_clause enc.sat
                 [ Sat.neg_lit lv; Sat.neg_lit la; lb ]);
            ignore
              (Sat.add_clause enc.sat
                 [ Sat.neg_lit lv; la; Sat.neg_lit lb ]);
            ignore (Sat.add_clause enc.sat [ lv; la; lb ]);
            ignore
              (Sat.add_clause enc.sat [ lv; Sat.neg_lit la; Sat.neg_lit lb ]);
            lv
        | _ ->
            invalid_arg (Fmt.str "Solver.encode: unexpected term %a" Term.pp t)
      in
      Hashtbl.add enc.memo (Term.id t) l;
      l

(* ------------------------------------------------------------------ *)
(* Theory interaction *)

(* Read once per process instead of once per theory conflict. *)
let debug = Sys.getenv_opt "SMT_DEBUG" <> None

(** A persistent theory stack: one {!Theory.state} kept alive across
    lazy-loop rounds and minimization probes, with each asserted
    literal in its own push frame. {!sync} re-points the stack at a new
    literal sequence by popping down to the longest common prefix and
    asserting only the suffix — candidate models from consecutive
    rounds (and consecutive deletion probes) agree on long prefixes, so
    most literals are never re-purified or re-asserted. *)
type tstack = { tstate : Theory.state; mutable asserted : Theory.atom list }

let tstack_create () = { tstate = Theory.create (); asserted = [] }

(* Physical term equality suffices: the lazy loop and the minimizer
   rebuild literal lists from the same interned atom terms. A false
   negative only costs a pop/re-assert, never correctness. *)
let same_atom (a : Theory.atom) (b : Theory.atom) =
  a == b || (a.Theory.term == b.Theory.term && a.Theory.pos = b.Theory.pos)

let sync ts (lits : Theory.atom list) =
  let rec lcp n olds news =
    match (olds, news) with
    | o :: os, l :: ls when same_atom o l -> lcp (n + 1) os ls
    | _ -> n
  in
  let k = lcp 0 ts.asserted lits in
  for _ = 1 to List.length ts.asserted - k do
    Theory.pop ts.tstate
  done;
  let kept = Stdx.Listx.take k ts.asserted in
  ts.asserted <- kept;
  let rec grow acc = function
    | [] -> ts.asserted <- kept @ List.rev acc
    | l :: rest -> (
        Theory.push ts.tstate;
        match Theory.assert_literal ts.tstate l with
        | () -> grow (l :: acc) rest
        | exception e ->
            Theory.pop ts.tstate;
            ts.asserted <- kept @ List.rev acc;
            raise e)
  in
  grow [] (Stdx.Listx.drop k lits)

(** Check a literal sequence against the persistent stack. The check
    itself runs under a checkpoint ({!Theory.check_scoped}), so the
    synced literals remain reusable for the next round or probe.
    [None] means the literals left the supported fragment entirely
    (e.g. an unpurifiable term) — genuine incompleteness, not a
    resource exhaustion. *)
let theory_check ?eq_budget ts (lits : Theory.atom list) :
    Theory.result option =
  match sync ts lits with
  | () -> Some (Theory.check_scoped ?eq_budget ts.tstate)
  | exception Invalid_argument _ -> None

(** Unsat-core minimization by chunked deletion: first try dropping
    whole blocks (an eighth of the literals at a time), then refine the
    survivors one by one. Cost is O(k + n/k) theory checks, which pays
    for itself many times over in avoided blocking-clause enumeration
    (see ablation A2 in the benchmarks). Probes run as push/pop
    deletions against the caller's persistent stack — consecutive
    probes share their kept-prefix, so each probe re-asserts only the
    tail it actually varies. *)
let minimize_core ts (lits : Theory.atom list) : Theory.atom list =
  (* Minimization only trusts Unsat, so the cheap bounded-propagation
     theory check suffices: a spurious Sat just keeps a literal. *)
  let check lits = theory_check ~eq_budget:8 ts lits in
  let drop_block kept rest block =
    let remaining = List.filter (fun l -> not (List.memq l block)) rest in
    match check (kept @ remaining) with
    | Some Theory.Unsat -> Some remaining
    | _ -> None
  in
  let rec blocks kept rest size =
    if rest = [] then kept
    else
      let block = Stdx.Listx.take size rest in
      let rest' = Stdx.Listx.drop size rest in
      match drop_block kept rest block with
      | Some remaining -> blocks kept remaining size
      | None -> blocks (kept @ block) rest' size
  in
  let rec singles kept = function
    | [] -> kept
    | l :: rest -> (
        match check (kept @ rest) with
        | Some Theory.Unsat -> singles kept rest
        | _ -> singles (kept @ [ l ]) rest)
  in
  let n = List.length lits in
  let coarse = if n > 12 then blocks [] lits (max 4 (n / 8)) else lits in
  singles [] coarse

(* ------------------------------------------------------------------ *)
(* Main loop *)

(** The blocking clause of a theory conflict [core]; [false] when it
    makes the clause set unsatisfiable. *)
let block enc (core : Theory.atom list) =
  Sat.add_clause enc.sat
    (List.map
       (fun { Theory.term; pos } -> Sat.lit_of_var ~neg:pos (atom_var enc term))
       core)

let solve ?(lemmas = []) ?(learn = ignore) ~max_rounds ~minimize
    (assertions : Term.t list) : result =
  (* Chaos-testing hook: a solver fault crashes the query (caught and
     reported as [Crashed] by the engine), it never alters a verdict. *)
  Fault.inject Fault.Solver;
  let stats = Stats.current () in
  let gensym = Gensym.create ~prefix:"%" () in
  let assertions = elim_ite gensym assertions in
  (* Fast path: no boolean structure and trivially true/false. *)
  if List.exists (Term.equal Term.fls) assertions then Unsat
  else begin
    let enc =
      {
        sat = Sat.create ();
        atom_vars = Hashtbl.create 64;
        atoms = [];
        memo = Hashtbl.create 64;
        split_done = Hashtbl.create 16;
      }
    in
    let ok =
      List.for_all
        (fun t ->
          Term.equal t Term.tru
          || Sat.add_clause enc.sat [ encode enc t ])
        assertions
    in
    let relevant =
      List.for_all (fun (a : Theory.atom) ->
          Hashtbl.mem enc.atom_vars (Term.id a.Theory.term))
    in
    let ok =
      ok
      && List.for_all
           (fun core ->
             (not (relevant core))
             || begin
                  stats.Stats.lemmas_seeded <- stats.Stats.lemmas_seeded + 1;
                  block enc core
                end)
           lemmas
    in
    if not ok then Unsat
    else begin
      (* One theory state for the whole query: each round asserts only
         the literals on which the new candidate model differs from the
         previous one (see {!sync}). *)
      let ts = tstack_create () in
      let result = ref None in
      let rounds = ref 0 in
      while !result = None do
        Budget.poll ();
        incr rounds;
        if !rounds > max_rounds then begin
          stats.Stats.fuel_lazy_rounds <- stats.Stats.fuel_lazy_rounds + 1;
          result := Some (Resource_out (Budget.Fuel "max_rounds"))
        end
        else begin
          match Sat.solve enc.sat with
          | Sat.Unsat -> result := Some Unsat
          | Sat.Unknown -> result := Some Unknown
          | Sat.Resource_out ->
              result := Some (Resource_out (Budget.Fuel "sat_conflicts"))
          | Sat.Sat -> (
              let lits =
                List.filter_map
                  (fun (v, atom) ->
                    Some { Theory.term = atom; pos = Sat.model_value enc.sat v })
                  enc.atoms
              in
              match theory_check ts lits with
              | None -> result := Some Unknown
              | Some (Theory.Resource_out r) ->
                  result := Some (Resource_out r)
              | Some (Theory.Sat m) ->
                  let bools =
                    List.fold_left
                      (fun acc (v, atom) ->
                        match Term.view atom with
                        | Term.Var (x, Sort.Bool) ->
                            Smap.add x (Sat.model_value enc.sat v) acc
                        | _ -> acc)
                      Smap.empty enc.atoms
                  in
                  let ints =
                    Smap.filter (fun x _ -> x.[0] <> '%') m
                  in
                  result := Some (Sat { ints; bools })
              | Some Theory.Unsat ->
                  let core =
                    if minimize then minimize_core ts lits else lits
                  in
                  (if debug then
                     Fmt.epr "core(%d): %a@." (List.length core)
                       (Fmt.list ~sep:Fmt.comma (fun ppf (a : Theory.atom) ->
                            Fmt.pf ppf "%s%a" (if a.Theory.pos then "" else "¬")
                              Term.pp a.Theory.term))
                       core);
                  stats.Stats.blocking_clauses <-
                    stats.Stats.blocking_clauses + 1;
                  learn core;
                  if not (block enc core) then result := Some Unsat)
        end
      done;
      stats.Stats.sat_conflicts <-
        stats.Stats.sat_conflicts + enc.sat.Sat.conflicts;
      stats.Stats.sat_decisions <-
        stats.Stats.sat_decisions + enc.sat.Sat.decisions;
      stats.Stats.sat_propagations <-
        stats.Stats.sat_propagations + enc.sat.Sat.propagations;
      stats.Stats.learnts_deleted <-
        stats.Stats.learnts_deleted + enc.sat.Sat.learnts_deleted;
      stats.Stats.heap_decisions <-
        stats.Stats.heap_decisions + enc.sat.Sat.heap_decisions;
      Option.get !result
    end
  end

(** Public entry: count the query and account wall-clock solving time
    to the calling domain's {!Stats} instance. *)
let check_sat ?lemmas ?learn ?(max_rounds = 5_000) ?(minimize = true)
    (assertions : Term.t list) : result =
  let stats = Stats.current () in
  stats.Stats.queries <- stats.Stats.queries + 1;
  let t0 = Unix.gettimeofday () in
  let r = solve ?lemmas ?learn ~max_rounds ~minimize assertions in
  stats.Stats.solve_ms <-
    stats.Stats.solve_ms +. ((Unix.gettimeofday () -. t0) *. 1000.0);
  r

(* ------------------------------------------------------------------ *)
(* Entailment interface used by the verifier and the kernel *)

type verdict =
  | Valid
  | Invalid of model
  | Undecided
  | Gave_up of Budget.reason
      (** the solver ran out of some resource — says nothing about the
          goal either way, but unlike [Undecided] a retry can help *)

(** Is [goal] entailed by [hyps]? Checks unsatisfiability of
    [hyps ∧ ¬goal]. [?lemmas]/[?learn] are the lemma store (see the
    header); without them the query is lemma-free. *)
let entails ?lemmas ?learn ?(hyps = []) (goal : Term.t) : verdict =
  let t = Term.and_ (hyps @ [ Term.not_ goal ]) in
  if Term.equal t Term.fls then Valid
  else (
      match check_sat ?lemmas ?learn [ t ] with
      | Unsat -> Valid
      | Sat m -> Invalid m
      | Unknown -> Undecided
      | Resource_out r -> Gave_up r)

let entails_bool ?hyps goal =
  match entails ?hyps goal with Valid -> true | _ -> false
