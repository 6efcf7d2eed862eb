(** The combined theory checker: EUF + linear integer arithmetic.

    Given a conjunction of theory literals (atoms with polarity), decide
    satisfiability. Terms are purified on the fly:

    - every application of an uninterpreted symbol becomes a congruence
      node; if it occurs inside arithmetic it is abstracted by a proxy
      variable tied to the node;
    - every arithmetic subterm occurring under an uninterpreted symbol
      is abstracted by a proxy variable defined by a LIA equality;
    - integer equality atoms go to *both* theories, disequalities go to
      EUF and (on demand, through model-guided propagation) to LIA.

    The combination loop alternates the two solvers, propagating
    variable equalities until a fixed point — a model-guided,
    entailment-checked version of Nelson–Oppen for the convex/ish
    fragment our verification conditions live in.

    The state is {e backtrackable}: {!push}/{!pop} checkpoint and
    restore the congruence closure, the simplex, and the purification
    bookkeeping (shared variables, proxies, propagated equalities), so
    a caller can keep one state alive and assert/retract literals
    incrementally. {!check} mutates the state (propagated equalities,
    CC merges); callers that need the state back afterwards use
    {!check_scoped}. *)

open Stdx

type atom = { term : Term.t; pos : bool }

type result =
  | Sat of int Smap.t
  | Unsat
  | Resource_out of Budget.reason
      (** a fuel knob ran out before the combination converged — which
          one is in the {!Budget.reason} *)

(* Read once per process instead of per conflict-loop iteration; the
   environment does not change under the solver. *)
let debug = Sys.getenv_opt "SMT_DEBUG" <> None

type undo =
  | Mark
  | Unshare of string * int  (** remove a shared-variable registration *)
  | Unpropagate of string * string  (** forget a propagated EUF→LIA equality *)

type state = {
  cc : Cc.t;
  lia : Simplex.t;
  gensym : Gensym.t;
  (* proxy variable <-> congruence node for shared terms *)
  shared : (string, int) Hashtbl.t;
  proxy_of_node : (int, string) Hashtbl.t;
  (* LIA equalities implied by EUF already asserted, as canonical
     (min, max) name pairs *)
  propagated : (string * string, unit) Hashtbl.t;
  node_true : int;
  node_false : int;
  mutable trail : undo list;
  mutable lia_snaps : Simplex.snapshot list;
      (* simplex checkpoints for {!push_scoped} frames *)
}

let create () =
  let cc = Cc.create () in
  let node_true = Cc.node_of_term cc (Term.var ~sort:Sort.Int "%true") in
  let node_false = Cc.node_of_term cc (Term.var ~sort:Sort.Int "%false") in
  Cc.assert_neq cc node_true node_false;
  {
    cc;
    lia = Simplex.create ();
    gensym = Gensym.create ~prefix:"%p" ();
    shared = Hashtbl.create 32;
    proxy_of_node = Hashtbl.create 32;
    propagated = Hashtbl.create 32;
    node_true;
    node_false;
    trail = [];
    lia_snaps = [];
  }

let share st name node =
  if not (Hashtbl.mem st.shared name) then begin
    Hashtbl.add st.shared name node;
    Hashtbl.add st.proxy_of_node node name;
    st.trail <- Unshare (name, node) :: st.trail
  end

(* --------------------------------------------------------------- *)
(* Backtracking *)

let push st =
  st.trail <- Mark :: st.trail;
  Cc.push st.cc;
  Simplex.push st.lia

let unwind_trail st =
  let rec undo () =
    match st.trail with
    | [] -> invalid_arg "Theory.pop: no matching push"
    | Mark :: rest -> st.trail <- rest
    | Unshare (name, node) :: rest ->
        Hashtbl.remove st.shared name;
        Hashtbl.remove st.proxy_of_node node;
        st.trail <- rest;
        undo ()
    | Unpropagate (x, y) :: rest ->
        Hashtbl.remove st.propagated (x, y);
        st.trail <- rest;
        undo ()
  in
  undo ()

let pop st =
  unwind_trail st;
  Cc.pop st.cc;
  Simplex.pop st.lia

(** Scoped checkpoints for long-lived session states. {!push}/{!pop}
    undo only bounds in the simplex — variables and rows allocated in
    the scope persist, which is fine within a single query (the slack
    memo makes re-assertion converge) but lets a session's tableau grow
    by a few rows per discharged goal, forever. [push_scoped] takes a
    full simplex snapshot so [pop_scoped] deallocates everything the
    scope purified. Scoped and plain frames may nest, but each pop must
    match its push's flavor. *)
let push_scoped st =
  st.trail <- Mark :: st.trail;
  Cc.push st.cc;
  st.lia_snaps <- Simplex.checkpoint st.lia :: st.lia_snaps

let pop_scoped st =
  unwind_trail st;
  Cc.pop st.cc;
  match st.lia_snaps with
  | [] -> invalid_arg "Theory.pop_scoped: no matching push_scoped"
  | s :: rest ->
      Simplex.restore st.lia s;
      st.lia_snaps <- rest

(* --------------------------------------------------------------- *)
(* Purification *)

(** Translate an int-sorted term into a linear expression, registering
    proxies for uninterpreted applications. *)
let rec linearize st (t : Term.t) : Simplex.Linexp.t * Q.t =
  match Term.view t with
  | Term.Int_lit n -> (Simplex.Linexp.empty, Q.of_int n)
  | Term.Var (x, _) ->
      let node = Cc.node_of_term st.cc (Term.var x) in
      share st x node;
      (Simplex.Linexp.add_term x Q.one Simplex.Linexp.empty, Q.zero)
  | Term.Add (a, b) ->
      let ea, ka = linearize st a and eb, kb = linearize st b in
      (merge_linexp ea eb Q.one, Q.add ka kb)
  | Term.Sub (a, b) ->
      let ea, ka = linearize st a and eb, kb = linearize st b in
      (merge_linexp ea eb Q.minus_one, Q.sub ka kb)
  | Term.Mul (a, b) -> (
      match (constant_of st a, constant_of st b) with
      | Some c, _ ->
          let eb, kb = linearize st b in
          (scale_linexp c eb, Q.mul c kb)
      | _, Some c ->
          let ea, ka = linearize st a in
          (scale_linexp c ea, Q.mul c ka)
      | None, None ->
          (* Nonlinear product: abstract as an uninterpreted term so
             congruence still applies to syntactically equal products. *)
          let node = euf_node st (Term.app "%mul" [ a; b ]) in
          let name = proxy_name st node in
          (Simplex.Linexp.add_term name Q.one Simplex.Linexp.empty, Q.zero))
  | Term.App _ ->
      let node = euf_node st t in
      let name = proxy_name st node in
      (Simplex.Linexp.add_term name Q.one Simplex.Linexp.empty, Q.zero)
  | Term.Ite _ ->
      invalid_arg "Theory.linearize: ite must be eliminated by preprocessing"
  | _ -> invalid_arg (Fmt.str "Theory.linearize: %a" Term.pp t)

and merge_linexp ea eb sign =
  Smap.fold (fun x c acc -> Simplex.Linexp.add_term x (Q.mul sign c) acc) eb ea

and scale_linexp c e = Smap.map (Q.mul c) e

and constant_of _st t =
  match Term.view t with Term.Int_lit n -> Some (Q.of_int n) | _ -> None

(** Intern an int term as a congruence node. Arithmetic below an
    application is abstracted: a proxy variable is created, defined in
    LIA, and the proxy's node is used. *)
and euf_node st (t : Term.t) : int =
  match Term.view t with
  | Term.Var (x, _) ->
      let node = Cc.node_of_term st.cc (Term.var x) in
      share st x node;
      node
  | Term.Int_lit _ -> Cc.node_of_term st.cc t
  | Term.App (f, args) ->
      let args = List.map (euf_node st) args in
      let node =
        (* Build the node from purified argument nodes directly. *)
        cc_app st f args
      in
      node
  | _ ->
      (* Arithmetic term in an EUF position: abstract with a proxy
         defined by a LIA equality. *)
      let e, k = linearize st t in
      let name = Gensym.fresh st.gensym in
      let node = Cc.node_of_term st.cc (Term.var name) in
      share st name node;
      (* name = e + k  ⇒  name - e = k *)
      let lhs =
        Smap.fold
          (fun x c acc -> Simplex.Linexp.add_term x (Q.neg c) acc)
          e
          (Simplex.Linexp.add_term name Q.one Simplex.Linexp.empty)
      in
      Simplex.assert_atom st.lia lhs Simplex.Eq k;
      node

and cc_app st f arg_nodes = Cc.alloc st.cc (Cc.Fapp (f, arg_nodes))

(** [proxy_name st node] returns the LIA variable standing for the
    congruence node, minting one if needed. *)
and proxy_name st node =
  match Hashtbl.find_opt st.proxy_of_node node with
  | Some name -> name
  | None ->
      let name = Gensym.fresh st.gensym in
      share st name node;
      name

(* --------------------------------------------------------------- *)
(* Asserting literals *)

let assert_arith st (a : Term.t) (b : Term.t) (op : Simplex.op) =
  let ea, ka = linearize st a and eb, kb = linearize st b in
  (* ea + ka op eb + kb  ⇒  ea - eb op kb - ka *)
  let e = merge_linexp ea eb Q.minus_one in
  Simplex.assert_atom st.lia e op (Q.sub kb ka)

let assert_literal st ({ term; pos } : atom) =
  match (Term.view term, pos) with
  | Term.Eq (a, b), true when Sort.equal (Term.sort_of a) Sort.Int ->
      assert_arith st a b Simplex.Eq;
      Cc.assert_eq st.cc (euf_node st a) (euf_node st b)
  | Term.Eq (a, b), false when Sort.equal (Term.sort_of a) Sort.Int ->
      (* EUF records the disequality; on the LIA side the eager
         splitting lemma Eq ∨ Lt ∨ Gt (added in preprocessing) forces
         the SAT solver to pick a strict separation, so no arithmetic
         disequality handling is needed here. *)
      Cc.assert_neq st.cc (euf_node st a) (euf_node st b)
  | Term.Le (a, b), true -> assert_arith st a b Simplex.Le
  | Term.Le (a, b), false -> assert_arith st a b Simplex.Gt
  | Term.Lt (a, b), true -> assert_arith st a b Simplex.Lt
  | Term.Lt (a, b), false -> assert_arith st a b Simplex.Ge
  | Term.Pred (f, args), pos ->
      let args = List.map (euf_node st) args in
      let node = cc_app st f args in
      Cc.assert_eq st.cc node (if pos then st.node_true else st.node_false)
  | Term.Var (x, Sort.Bool), pos ->
      let node = Cc.node_of_term st.cc (Term.var ("%b" ^ x)) in
      Cc.assert_eq st.cc node (if pos then st.node_true else st.node_false)
  | Term.Eq (a, b), pos ->
      (* Boolean equality between atoms should have been removed by
         Tseitin (encoded as Iff); defensive fallback. *)
      ignore (a, b, pos);
      invalid_arg "Theory.assert_literal: boolean equality atom"
  | _, _ -> invalid_arg (Fmt.str "Theory.assert_literal: %a" Term.pp term)

(* --------------------------------------------------------------- *)
(* The combination loop *)

(** LIA entailment of [x = y] under the current constraints: UNSAT of
    both strict separations, each probed under a push/pop instead of
    copying the tableau.

    A feasible live assignment that puts [x] and [y] at least 1 apart
    refutes the pair without a probe ({!Simplex.apart}). The bound is
    1, not 0: the probes are integer-tightened to [x - y ≤ -1] and
    [x - y ≥ 1], and such an assignment satisfies one of the two with
    every other bound, so that probe would answer [Sat] — the shortcut
    returns exactly what the probes would. *)
let lia_entails_eq stats st x y =
  let test op =
    Simplex.push st.lia;
    let e =
      Simplex.Linexp.add_term x Q.one
        (Simplex.Linexp.add_term y Q.minus_one Simplex.Linexp.empty)
    in
    Simplex.assert_atom st.lia e op Q.zero;
    stats.Stats.lia_checks <- stats.Stats.lia_checks + 1;
    let r = Simplex.check_rational st.lia in
    Simplex.pop st.lia;
    match r with Simplex.Unsat -> true | Simplex.Sat -> false
  in
  if Simplex.apart st.lia x y then begin
    stats.Stats.lia_eq_witnessed <- stats.Stats.lia_eq_witnessed + 1;
    false
  end
  else test Simplex.Lt && test Simplex.Gt

(** Run the combined check on the literals already asserted.

    [eq_budget] caps the number of model-guided cross-theory equality
    entailment tests. With the default (unbounded) budget the check is
    complete for our fragment; with a small budget a [Sat] answer may
    be spurious, which is fine for callers (unsat-core minimization)
    that only trust [Unsat]. Every incomplete exit — combination fuel
    out, simplex branch-and-bound fuel out, or an eq-budget-starved
    [Sat] — bumps [Stats.combination_timeouts] so incompleteness is
    observable without [SMT_DEBUG]. *)
let check ?(eq_budget = max_int) st : result =
  let stats = Stats.current () in
  let eq_budget = ref eq_budget in
  let budget_hit = ref false in
  stats.Stats.theory_checks <- stats.Stats.theory_checks + 1;
  (* Cross-theory propagation only concerns variables the arithmetic
     solver actually constrains; in pure-EUF problems the LIA state is
     empty and no propagation pass must run at all. *)
  let lia_relevant () =
    Hashtbl.fold
      (fun x node acc ->
        if Hashtbl.mem st.lia.Simplex.names x then (x, node) :: acc else acc)
      st.shared []
  in
  let rec loop fuel =
    Budget.poll ();
    if fuel <= 0 then begin
      stats.Stats.combination_timeouts <- stats.Stats.combination_timeouts + 1;
      stats.Stats.fuel_combination <- stats.Stats.fuel_combination + 1;
      if debug then prerr_endline "DEBUG: combination fuel out";
      Resource_out (Budget.Fuel "combination")
    end
    else begin
      stats.Stats.euf_checks <- stats.Stats.euf_checks + 1;
      if not (Cc.consistent st.cc) then Unsat
      else begin
        (* EUF → LIA: merged shared variables become LIA equalities.
           Bucket the shared variables by congruence class and link
           each class along a spanning tree anchored at its minimal
           name — linear in the class size, instead of asserting (and
           membership-testing) every quadratic pair. *)
        let shared = lia_relevant () in
        let classes : (int, (string * int) list) Hashtbl.t =
          Hashtbl.create 16
        in
        List.iter
          (fun (x, nx) ->
            let r = Cc.find st.cc nx in
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt classes r)
            in
            Hashtbl.replace classes r ((x, nx) :: prev))
          shared;
        Hashtbl.iter
          (fun _ members ->
            match List.sort compare members with
            | [] | [ _ ] -> ()
            | (anchor, _) :: rest ->
                List.iter
                  (fun (y, _) ->
                    let key = (anchor, y) in
                    if not (Hashtbl.mem st.propagated key) then begin
                      Hashtbl.add st.propagated key ();
                      st.trail <- Unpropagate (anchor, y) :: st.trail;
                      stats.Stats.eq_propagations <-
                        stats.Stats.eq_propagations + 1;
                      let e =
                        Simplex.Linexp.add_term anchor Q.one
                          (Simplex.Linexp.add_term y Q.minus_one
                             Simplex.Linexp.empty)
                      in
                      Simplex.assert_atom st.lia e Simplex.Eq Q.zero
                    end)
                  rest)
          classes;
        stats.Stats.lia_checks <- stats.Stats.lia_checks + 1;
        match Simplex.check_int st.lia with
        | Simplex.IUnsat -> Unsat
        | Simplex.IResource_out ->
            stats.Stats.combination_timeouts <-
              stats.Stats.combination_timeouts + 1;
            if debug then
              prerr_endline "DEBUG: check_int out of fuel";
            Resource_out (Budget.Fuel "simplex_fuel")
        | Simplex.IModel m ->
            (* LIA → EUF: model-guided entailed equalities. Only pairs
               the model already makes equal can be entailed, and
               within a model-value bucket one representative per CC
               class stands for its whole class (after the EUF→LIA
               pass above, entailment is class-invariant). *)
            let by_value : (int, (string * int) list) Hashtbl.t =
              Hashtbl.create 16
            in
            List.iter
              (fun (x, nx) ->
                match Smap.find_opt x m with
                | Some v ->
                    let prev =
                      Option.value ~default:[] (Hashtbl.find_opt by_value v)
                    in
                    Hashtbl.replace by_value v ((x, nx) :: prev)
                | None -> ())
              (lia_relevant ());
            let merged = ref false in
            Hashtbl.iter
              (fun _ members ->
                (* One representative per congruence class: the member
                   with the minimal name, for determinism. *)
                let reps : (int, string * int) Hashtbl.t = Hashtbl.create 8 in
                List.iter
                  (fun (x, nx) ->
                    let r = Cc.find st.cc nx in
                    match Hashtbl.find_opt reps r with
                    | Some (x', _) when x' <= x -> ()
                    | _ -> Hashtbl.replace reps r (x, nx))
                  members;
                let rep_list =
                  Hashtbl.fold (fun _ rep acc -> rep :: acc) reps []
                  |> List.sort compare
                in
                List.iter
                  (fun ((x, nx), (y, ny)) ->
                    if not (Cc.are_equal st.cc nx ny) then begin
                      if !eq_budget > 0 then begin
                        decr eq_budget;
                        if lia_entails_eq stats st x y then begin
                          merged := true;
                          stats.Stats.eq_propagations <-
                            stats.Stats.eq_propagations + 1;
                          Cc.assert_eq st.cc nx ny
                        end
                      end
                      else budget_hit := true
                    end)
                  (Listx.all_pairs rep_list))
              by_value;
            if !merged then loop (fuel - 1)
            else begin
              if !budget_hit then begin
                stats.Stats.combination_timeouts <-
                  stats.Stats.combination_timeouts + 1;
                stats.Stats.fuel_eq_budget <- stats.Stats.fuel_eq_budget + 1
              end;
              (* An eq-budget-starved [Sat] stays [Sat]: callers that
                 set a small budget (unsat-core minimization) only
                 trust [Unsat], and the starvation is now counted. *)
              Sat m
            end
      end
    end
  in
  loop 64

(** {!check} under a checkpoint: the state is exactly as before the
    call when it returns, so callers holding a persistent session can
    probe freely. *)
let check_scoped ?eq_budget st : result =
  push st;
  match check ?eq_budget st with
  | r ->
      pop st;
      r
  | exception e ->
      pop st;
      raise e
