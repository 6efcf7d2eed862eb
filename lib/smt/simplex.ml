(** Linear integer arithmetic via general simplex with branch-and-bound.

    The rational core is the Dutertre–de Moura "general simplex" used
    in DPLL(T) solvers: every constraint [Σ cᵢ·xᵢ ⋈ k] is turned into a
    slack variable [s = Σ cᵢ·xᵢ] (a tableau row) plus a bound on [s].
    Strict bounds are handled with δ-rationals (pairs [v + k·δ] for an
    infinitesimal δ). Integrality is recovered by branch-and-bound on
    the rational relaxation.

    The assignment β is {e incremental}. One invariant holds between
    all operations: every basic variable's β equals its row evaluated
    at the current β. {!slack_for} computes β for each new row, a pivot
    adds [a·θ] to every basic variable whose row mentions the entering
    variable, and a snapshot carries β together with the rows it
    matches. A check therefore starts from the last assignment instead
    of a cold one: it moves only the nonbasic variables that violate a
    bound (recomputing the basics only if one moved) and pivots from
    there, so a check close to the previous one costs a few pivots.

    The [feasible] flag records that β satisfies every current bound.
    A [Sat] from {!check_rational} sets it. It is cleared by an
    [Unsat], by a tightened bound that the current β violates, by
    {!set_trivially_unsat}, and by {!restore}, whose β need not fit
    the restored bounds. {!pop} keeps it: popping only loosens bounds.
    While the flag is set, β is a rational witness for the current
    constraints, which {!apart} reads to settle equality probes
    without a check.

    The solver is {e backtrackable}: {!push} records a mark and {!pop}
    undoes every bound change (and the trivially-unsat flag) since the
    matching mark. Only bounds need undoing — pivoting is a
    solution-space-preserving change of basis, so accumulated pivots
    survive backtracking (and so does β, which satisfies every row
    under any basis), and tableau rows / variables allocated inside
    a popped scope simply linger unconstrained (a slack with no bounds
    restricts nothing; identical expressions reuse their slack through
    a memo table, so sessions do not grow rows per re-assertion).
    Branch-and-bound itself runs on push/pop instead of copying the
    tableau per branch. *)

open Stdx

(* δ-rationals: v + d·δ, ordered lexicographically. *)
module Dq = struct
  type t = { v : Q.t; d : Q.t }

  let of_q v = { v; d = Q.zero }
  let zero = of_q Q.zero
  let make v d = { v; d }
  let is_real a = Q.equal a.d Q.zero

  (* Most values carry no δ part; skip its arithmetic for them. *)
  let add a b =
    if is_real a && is_real b then of_q (Q.add a.v b.v)
    else { v = Q.add a.v b.v; d = Q.add a.d b.d }

  let sub a b =
    if is_real a && is_real b then of_q (Q.sub a.v b.v)
    else { v = Q.sub a.v b.v; d = Q.sub a.d b.d }

  let scale c a =
    if is_real a then of_q (Q.mul c a.v) else { v = Q.mul c a.v; d = Q.mul c a.d }

  let compare a b =
    let c = Q.compare a.v b.v in
    if c <> 0 then c else Q.compare a.d b.d

  let leq a b = compare a b <= 0
  let lt a b = compare a b < 0
  let pp ppf a =
    if is_real a then Q.pp ppf a.v
    else Fmt.pf ppf "%a+(%a)δ" Q.pp a.v Q.pp a.d
end

type op = Le | Lt | Ge | Gt | Eq

(* A linear expression: coefficient map over variable ids. *)
module Linexp = struct
  type t = Q.t Smap.t

  let empty : t = Smap.empty

  let add_term x c (e : t) : t =
    Smap.update x
      (function
        | None -> if Q.equal c Q.zero then None else Some c
        | Some c' ->
            let s = Q.add c c' in
            if Q.equal s Q.zero then None else Some s)
      e

  let of_list l = List.fold_left (fun e (x, c) -> add_term x c e) empty l
  let is_empty (e : t) = Smap.is_empty e
end

type undo =
  | Mark
  | Lower of int * Dq.t option  (** restore a lower bound *)
  | Upper of int * Dq.t option  (** restore an upper bound *)
  | Triv  (** clear [trivially_unsat] (only the false→true edge is trailed) *)

type t = {
  mutable n : int;  (* number of solver variables *)
  names : (string, int) Hashtbl.t;
  slack_memo : ((string * Q.t) list, int) Hashtbl.t;
      (* canonical expression -> its slack row, so re-asserting the
         same expression in a session reuses the row *)
  mutable rows : (int * Q.t) list array;  (* basic var -> row over nonbasics *)
  mutable is_basic : bool array;
  mutable lower : Dq.t option array;
  mutable upper : Dq.t option array;
  mutable beta : Dq.t array;
      (* the assignment; a basic variable's β is always its row's value *)
  mutable feasible : bool;
      (* β satisfies every current bound (see the module comment) *)
  mutable trivially_unsat : bool;
  mutable trail : undo list;
}

let create () =
  {
    n = 0;
    names = Hashtbl.create 16;
    slack_memo = Hashtbl.create 16;
    rows = Array.make 16 [];
    is_basic = Array.make 16 false;
    lower = Array.make 16 None;
    upper = Array.make 16 None;
    beta = Array.make 16 Dq.zero;
    feasible = false;
    trivially_unsat = false;
    trail = [];
  }

let grow t n =
  if n >= Array.length t.is_basic then begin
    let cap = max (n + 1) (2 * Array.length t.is_basic) in
    let copy a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 t.n;
      a'
    in
    t.rows <- copy t.rows [];
    t.is_basic <- copy t.is_basic false;
    t.lower <- copy t.lower None;
    t.upper <- copy t.upper None;
    t.beta <- copy t.beta Dq.zero
  end

let fresh_var t =
  let id = t.n in
  grow t id;
  t.n <- id + 1;
  id

let var_of_name t x =
  match Hashtbl.find_opt t.names x with
  | Some id -> id
  | None ->
      let id = fresh_var t in
      Hashtbl.add t.names x id;
      id

let tighten_lower t x b =
  match t.lower.(x) with
  | Some l when Dq.leq b l -> ()
  | old ->
      t.trail <- Lower (x, old) :: t.trail;
      t.lower.(x) <- Some b;
      if Dq.lt t.beta.(x) b then t.feasible <- false

let tighten_upper t x b =
  match t.upper.(x) with
  | Some u when Dq.leq u b -> ()
  | old ->
      t.trail <- Upper (x, old) :: t.trail;
      t.upper.(x) <- Some b;
      if Dq.lt b t.beta.(x) then t.feasible <- false

let set_trivially_unsat t =
  t.feasible <- false;
  if not t.trivially_unsat then begin
    t.trail <- Triv :: t.trail;
    t.trivially_unsat <- true
  end

(* --------------------------------------------------------------- *)
(* Backtracking *)

let push t = t.trail <- Mark :: t.trail

(** Undo every bound change back to the latest {!push} mark. Rows,
    variables, pivots and β persist, and so does [feasible]: every
    undo loosens a bound — see the module comment. *)
let rec pop t =
  match t.trail with
  | [] -> invalid_arg "Simplex.pop: no matching push"
  | Mark :: rest -> t.trail <- rest
  | Lower (x, old) :: rest ->
      t.lower.(x) <- old;
      t.trail <- rest;
      pop t
  | Upper (x, old) :: rest ->
      t.upper.(x) <- old;
      t.trail <- rest;
      pop t
  | Triv :: rest ->
      t.trivially_unsat <- false;
      t.trail <- rest;
      pop t

(* --------------------------------------------------------------- *)
(* Heavyweight checkpoints *)

(** Trail-based {!push}/{!pop} undoes only bounds — variables, rows and
    pivots accumulated inside the scope persist (harmless within one
    query, where the slack memo makes re-assertion converge). A
    long-lived {e session} state cannot afford that: every popped goal
    probe would leave its purification variables behind and the tableau
    would grow without bound, making each subsequent check pay for all
    previous ones. A {!snapshot} captures the full tableau shape so
    {!restore} deallocates everything the scope created — including
    pivots that substituted scope-local variables into outer rows.

    Snapshots must be restored LIFO: restoring an outer snapshot
    discards any inner scopes still notionally open. *)
type snapshot = {
  s_n : int;
  s_rows : (int * Q.t) list array;
  s_is_basic : bool array;
  s_lower : Dq.t option array;
  s_upper : Dq.t option array;
  s_beta : Dq.t array;
  s_names : (string, int) Hashtbl.t;
  s_memo : ((string * Q.t) list, int) Hashtbl.t;
  s_triv : bool;
  s_trail : undo list;
}

let checkpoint t : snapshot =
  {
    s_n = t.n;
    s_rows = Array.sub t.rows 0 t.n;
    s_is_basic = Array.sub t.is_basic 0 t.n;
    s_lower = Array.sub t.lower 0 t.n;
    s_upper = Array.sub t.upper 0 t.n;
    s_beta = Array.sub t.beta 0 t.n;
    s_names = Hashtbl.copy t.names;
    s_memo = Hashtbl.copy t.slack_memo;
    s_triv = t.trivially_unsat;
    s_trail = t.trail;
  }

let restore t (s : snapshot) =
  (* Clear slots allocated since the checkpoint so reallocation starts
     from clean state, then reinstate the saved prefix (pivots inside
     the scope may have rewritten outer rows). *)
  for x = s.s_n to t.n - 1 do
    t.rows.(x) <- [];
    t.is_basic.(x) <- false;
    t.lower.(x) <- None;
    t.upper.(x) <- None;
    t.beta.(x) <- Dq.zero
  done;
  Array.blit s.s_rows 0 t.rows 0 s.s_n;
  Array.blit s.s_is_basic 0 t.is_basic 0 s.s_n;
  Array.blit s.s_lower 0 t.lower 0 s.s_n;
  Array.blit s.s_upper 0 t.upper 0 s.s_n;
  Array.blit s.s_beta 0 t.beta 0 s.s_n;
  t.n <- s.s_n;
  Hashtbl.reset t.names;
  Hashtbl.iter (Hashtbl.add t.names) s.s_names;
  Hashtbl.reset t.slack_memo;
  Hashtbl.iter (Hashtbl.add t.slack_memo) s.s_memo;
  t.trivially_unsat <- s.s_triv;
  t.feasible <- false;
  t.trail <- s.s_trail

(** The value of a row (a linear combination of variables) at β. *)
let eval_row t row =
  List.fold_left
    (fun acc (y, c) -> Dq.add acc (Dq.scale c t.beta.(y)))
    Dq.zero row

let row_coeff row y =
  match List.assoc_opt y row with Some c -> c | None -> Q.zero

(** [add_scaled base c extra] is the linear combination
    [base + c·extra] as an association list without zero entries. *)
let add_scaled base c extra =
  List.fold_left
    (fun acc (z, cz) ->
      let cz = Q.mul c cz in
      let merged = Q.add (row_coeff acc z) cz in
      let acc = List.filter (fun (w, _) -> w <> z) acc in
      if Q.equal merged Q.zero then acc else (z, merged) :: acc)
    base extra

(** The tableau row [s = e] for a slack [s]; memoized per expression so
    sessions that re-assert the same expression after a pop reuse the
    existing row instead of growing the tableau.

    In a persistent tableau the basis may have pivoted before a new
    constraint arrives, so variables of [e] can be {e basic}; they are
    expanded through their defining rows to keep every row expressed
    over nonbasics — the invariant pivoting relies on. (The one-shot
    solver never hit this: all asserts preceded the first pivot.) The
    slack's β is its row's value, which keeps the β invariant. *)
let slack_for t (e : Linexp.t) =
  let key = Smap.bindings e in
  match Hashtbl.find_opt t.slack_memo key with
  | Some s -> s
  | None ->
      let s = fresh_var t in
      let row =
        List.fold_left
          (fun acc (x, c) ->
            let x = var_of_name t x in
            if t.is_basic.(x) then add_scaled acc c t.rows.(x)
            else add_scaled acc c [ (x, Q.one) ])
          [] key
      in
      t.is_basic.(s) <- true;
      t.rows.(s) <- row;
      t.beta.(s) <- eval_row t row;
      Hashtbl.add t.slack_memo key s;
      s

(** Assert [e ⋈ k]. Single-variable expressions bound the variable
    directly; general expressions go through a slack variable. *)
let assert_atom t (e : Linexp.t) (op : op) (k : Q.t) =
  if Linexp.is_empty e then begin
    (* Constant constraint: 0 ⋈ k. *)
    let holds =
      match op with
      | Le -> Q.leq Q.zero k
      | Lt -> Q.lt Q.zero k
      | Ge -> Q.geq Q.zero k
      | Gt -> Q.gt Q.zero k
      | Eq -> Q.equal Q.zero k
    in
    if not holds then set_trivially_unsat t
  end
  else begin
    (* GCD normalization: an expression with integer coefficients
       sharing a factor [g] takes only multiples of [g], so [e ⋈ k] is
       [e/g ⋈ k/g], whose constant the integer tightening below then
       rounds. Branch-and-bound cannot do that rounding itself: on
       [2z - 2y = 1] over unbounded [z], [y] every branch moves the
       other variable to a fresh half-integer, and it diverges. *)
    let e, k =
      let g =
        Smap.fold
          (fun _ c g -> if Q.is_int c then Q.gcd (abs (Q.num c)) g else 1)
          e 0
      in
      if g > 1 then
        let g = Q.of_int g in
        (Smap.map (fun c -> Q.div c g) e, Q.div k g)
      else (e, k)
    in
    let x, unit_coeff =
      match Smap.bindings e with
      | [ (x, c) ] -> (Some (var_of_name t x), c)
      | _ -> (None, Q.one)
    in
    let target, scale =
      match x with
      | Some x -> (x, unit_coeff)
      | None -> (slack_for t e, Q.one)
    in
    (* target·scale ⋈ k, i.e. target ⋈ k/scale (flipping on negative). *)
    let k = Q.div k scale in
    let op =
      if Q.lt scale Q.zero then
        match op with Le -> Ge | Lt -> Gt | Ge -> Le | Gt -> Lt | Eq -> Eq
      else op
    in
    (* Integer tightening: every solver variable is integral (problem
       variables by sorting, slacks as integer combinations when the
       expression has integer coefficients), so strict bounds tighten
       to non-strict ones on the adjacent integer and fractional
       constants round inward. Without this, branch-and-bound cannot
       refute facts like [x < n ∧ x + 1 > n] (no integer strictly
       between consecutive integers) and diverges. *)
    let integral =
      (* A problem variable is integral by sorting; a slack is integral
         when the expression's coefficients all are. *)
      match x with
      | Some _ -> true
      | None -> Smap.for_all (fun _ c -> Q.is_int c) e
    in
    if integral then
      match op with
      | Le -> tighten_upper t target (Dq.of_q (Q.of_int (Q.floor k)))
      | Lt ->
          let b = if Q.is_int k then Q.num k - 1 else Q.floor k in
          tighten_upper t target (Dq.of_q (Q.of_int b))
      | Ge -> tighten_lower t target (Dq.of_q (Q.of_int (Q.ceil k)))
      | Gt ->
          let b = if Q.is_int k then Q.num k + 1 else Q.ceil k in
          tighten_lower t target (Dq.of_q (Q.of_int b))
      | Eq ->
          if Q.is_int k then begin
            tighten_lower t target (Dq.of_q k);
            tighten_upper t target (Dq.of_q k)
          end
          else set_trivially_unsat t
    else
      match op with
      | Le -> tighten_upper t target (Dq.of_q k)
      | Lt -> tighten_upper t target (Dq.make k Q.minus_one)
      | Ge -> tighten_lower t target (Dq.of_q k)
      | Gt -> tighten_lower t target (Dq.make k Q.one)
      | Eq ->
          tighten_lower t target (Dq.of_q k);
          tighten_upper t target (Dq.of_q k)
  end

(* ------------------------------------------------------------------ *)
(* The simplex core *)

(** Warm start: move each nonbasic variable that violates a bound onto
    that bound and keep every other value, then restore the β
    invariant, which only a move can have broken. *)
let init_assignment t =
  let moved = ref false in
  for x = 0 to t.n - 1 do
    if not t.is_basic.(x) then
      match (t.lower.(x), t.upper.(x)) with
      | Some l, _ when Dq.lt t.beta.(x) l ->
          t.beta.(x) <- l;
          moved := true
      | _, Some u when Dq.lt u t.beta.(x) ->
          t.beta.(x) <- u;
          moved := true
      | _ -> ()
  done;
  if !moved then
    for x = 0 to t.n - 1 do
      if t.is_basic.(x) then t.beta.(x) <- eval_row t t.rows.(x)
    done

let out_of_bounds t x =
  (match t.lower.(x) with Some l -> Dq.lt t.beta.(x) l | None -> false)
  || match t.upper.(x) with Some u -> Dq.lt u t.beta.(x) | None -> false

(** Pivot basic [x] with nonbasic [y] (occurring in x's row) and move
    β(x) to [v]: β(y) moves by [θ = (v - β(x))/a_xy], and every other
    basic [b] by [a_by·θ] in the loop that substitutes y's new row into
    b's, so the β invariant holds without re-evaluating any row. *)
let pivot_and_update t x y v =
  let row_x = t.rows.(x) in
  let a_xy = row_coeff row_x y in
  (* Solve x's row for y: y = x/a_xy - Σ_{z≠y} (a_xz/a_xy)·z. *)
  let inv = Q.inv a_xy in
  let row_y =
    (x, inv)
    :: List.filter_map
         (fun (z, c) ->
           if z = y then None else Some (z, Q.neg (Q.mul c inv)))
         row_x
  in
  let theta = Dq.scale inv (Dq.sub v t.beta.(x)) in
  t.beta.(x) <- v;
  t.beta.(y) <- Dq.add t.beta.(y) theta;
  t.is_basic.(x) <- false;
  t.is_basic.(y) <- true;
  t.rows.(x) <- [];
  t.rows.(y) <- row_y;
  (* Substitute y's definition into every other row. *)
  for b = 0 to t.n - 1 do
    if t.is_basic.(b) && b <> y then begin
      let row = t.rows.(b) in
      let c_y = row_coeff row y in
      if not (Q.equal c_y Q.zero) then begin
        t.beta.(b) <- Dq.add t.beta.(b) (Dq.scale c_y theta);
        let base = List.filter (fun (z, _) -> z <> y) row in
        t.rows.(b) <- add_scaled base c_y row_y
      end
    end
  done

type check_result = Sat | Unsat

let bounds_consistent t =
  let ok = ref true in
  for x = 0 to t.n - 1 do
    match (t.lower.(x), t.upper.(x)) with
    | Some l, Some u when Dq.lt u l -> ok := false
    | _ -> ()
  done;
  !ok

(** Rational feasibility check (Bland's rule for termination), warm
    started from the current β. Sets [feasible] on [Sat] and clears it
    on [Unsat]. *)
let check_rational t =
  if t.trivially_unsat || not (bounds_consistent t) then begin
    t.feasible <- false;
    Unsat
  end
  else begin
    let stats = Stats.current () in
    init_assignment t;
    let result = ref None in
    let steps = ref 0 in
    while !result = None do
      incr steps;
      Budget.poll ();
      (* Bland's rule (smallest index both for the leaving and the
         entering variable) guarantees termination; the assertion
         guards against implementation bugs, not theory. *)
      if !steps > 2_000_000 then failwith "Simplex.check_rational: cycling"
      else begin
        (* Smallest-index out-of-bounds basic variable. *)
        let x = ref (-1) in
        (try
           for i = 0 to t.n - 1 do
             if t.is_basic.(i) && out_of_bounds t i then begin
               x := i;
               raise Exit
             end
           done
         with Exit -> ());
        if !x < 0 then result := Some Sat
        else begin
          let x = !x in
          let below =
            match t.lower.(x) with
            | Some l -> Dq.lt t.beta.(x) l
            | None -> false
          in
          let target =
            if below then Option.get t.lower.(x) else Option.get t.upper.(x)
          in
          (* Find a suitable nonbasic variable (smallest index). *)
          let row = List.sort (fun (a, _) (b, _) -> compare a b) t.rows.(x) in
          let suitable (y, c) =
            if below then
              (Q.gt c Q.zero
              && (match t.upper.(y) with
                 | None -> true
                 | Some u -> Dq.lt t.beta.(y) u))
              || (Q.lt c Q.zero
                 && match t.lower.(y) with
                    | None -> true
                    | Some l -> Dq.lt l t.beta.(y))
            else
              (Q.lt c Q.zero
              && (match t.upper.(y) with
                 | None -> true
                 | Some u -> Dq.lt t.beta.(y) u))
              || (Q.gt c Q.zero
                 && match t.lower.(y) with
                    | None -> true
                    | Some l -> Dq.lt l t.beta.(y))
          in
          match List.find_opt suitable row with
          | None -> result := Some Unsat
          | Some (y, _) ->
              stats.simplex_pivots <- stats.simplex_pivots + 1;
              pivot_and_update t x y target
        end
      end
    done;
    let r = Option.get !result in
    t.feasible <- r = Sat;
    r
  end

(** [apart t x y]: [feasible] is set and β puts the problem variables
    [x] and [y] at least 1 apart. β then satisfies one of the integer
    separations [x - y ≤ -1] and [x - y ≥ 1] together with every
    current bound, so a {!check_rational} under either would say [Sat]. *)
let apart t x y =
  t.feasible
  &&
  match (Hashtbl.find_opt t.names x, Hashtbl.find_opt t.names y) with
  | Some i, Some j ->
      let d = Dq.sub t.beta.(i) t.beta.(j) in
      Dq.leq (Dq.of_q Q.one) d || Dq.leq d (Dq.of_q Q.minus_one)
  | _ -> false

(** For tests: the β invariant holds (every basic β equals its row's
    value), and β satisfies every bound while [feasible] is set. *)
let invariant_ok t =
  let ok = ref true in
  for x = 0 to t.n - 1 do
    if t.is_basic.(x) && Dq.compare t.beta.(x) (eval_row t t.rows.(x)) <> 0
    then ok := false;
    if t.feasible && out_of_bounds t x then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Concrete models and integrality *)

(** Choose a concrete rational value for δ small enough that every
    satisfied δ-rational bound stays satisfied concretely, then read
    off the model. *)
let concrete_model t =
  let delta = ref Q.one in
  (* [lo ≤ hi] holds lexicographically; make it hold for concrete δ:
     lo.v + lo.d·δ ≤ hi.v + hi.d·δ, i.e. (lo.d - hi.d)·δ ≤ hi.v - lo.v.
     Binding only when lo.d > hi.d, in which case hi.v - lo.v > 0. *)
  let constrain (lo : Dq.t) (hi : Dq.t) =
    let num = Q.sub hi.Dq.v lo.Dq.v and den = Q.sub lo.Dq.d hi.Dq.d in
    if Q.gt den Q.zero && Q.gt num Q.zero then
      delta := Q.min !delta (Q.div num den)
  in
  for x = 0 to t.n - 1 do
    (match t.lower.(x) with Some l -> constrain l t.beta.(x) | None -> ());
    match t.upper.(x) with Some u -> constrain t.beta.(x) u | None -> ()
  done;
  let d = !delta in
  Array.init t.n (fun x ->
      let b = t.beta.(x) in
      Q.add b.Dq.v (Q.mul b.Dq.d d))

type int_result = IModel of int Smap.t | IUnsat | IResource_out

(** Integer feasibility by branch-and-bound on the named (problem)
    variables. With integer coefficients, integrality of the problem
    variables forces integrality of slacks, so branching on problem
    variables is complete. Running out of [fuel] reports
    [IResource_out] — never silently [IUnsat], since the caller uses
    unsatisfiability to claim entailments.

    Branches are explored by tightening a bound under {!push} and
    undoing it with {!pop}, so the caller's bounds are intact on
    return (the basis may have moved, which is semantics-preserving). *)
let check_int ?(fuel = 10_000) t : int_result =
  let fuel = Budget.Fuel.create ~knob:"simplex_fuel" fuel in
  let rec go () =
    Budget.poll ();
    if not (Budget.Fuel.spend fuel) then begin
      (Stats.current ()).fuel_simplex <- (Stats.current ()).fuel_simplex + 1;
      IResource_out
    end
    else begin
      match check_rational t with
      | Unsat -> IUnsat
      | Sat -> (
          let model = concrete_model t in
          (* The fractional variables, least id first. Not hash order:
             that order can keep picking variables the relaxation then
             moves to fresh half-integers, while the one fractional
             value that blocks integrality is never branched on and
             the search runs down an infinite chain. *)
          let fracs =
            Hashtbl.fold
              (fun _ id acc -> if Q.is_int model.(id) then acc else id :: acc)
              t.names []
            |> List.sort compare
          in
          let down id () =
            tighten_upper t id (Dq.of_q (Q.of_int (Q.floor model.(id))))
          and up id () =
            tighten_lower t id (Dq.of_q (Q.of_int (Q.ceil model.(id))))
          in
          let under bound k =
            push t;
            bound ();
            let r = k () in
            pop t;
            r
          in
          let refuted bound = under bound (fun () -> check_rational t = Unsat) in
          match fracs with
          | [] ->
              let m = ref Smap.empty in
              Hashtbl.iter
                (fun name id -> m := Smap.add name (Q.floor model.(id)) !m)
                t.names;
              IModel !m
          | _
            when List.exists
                   (fun id -> refuted (down id) && refuted (up id))
                   fracs ->
              (* A variable with no integer value between its bounds
                 refutes the node. Left to branching it would be found
                 only under every branch on the variables before it,
                 and those may have no end ([2z = -3] next to
                 unbounded [y]). *)
              IUnsat
          | id :: _ -> (
              (* Round toward zero first: relaxations of unbounded
                 problems drift away from the origin branch after
                 branch, while small integer models are the common
                 case. *)
              let first, second =
                if Q.lt model.(id) Q.zero then (up id, down id)
                else (down id, up id)
              in
              match under first go with
              | IModel m -> IModel m
              | IUnsat -> under second go
              | IResource_out -> IResource_out))
    end
  in
  go ()
