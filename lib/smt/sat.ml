(** A CDCL SAT solver.

    Classic architecture: two-watched-literal propagation, first-UIP
    conflict analysis with clause learning, VSIDS activity ordering
    served by an indexed binary heap, learnt-clause database reduction,
    Luby restarts, and phase saving. The solver is incremental in the
    sense needed by lazy SMT: after a model is found, new (blocking)
    clauses may be added and solving resumed.

    Literal encoding: variable [v] yields literals [2*v] (positive) and
    [2*v+1] (negative). *)

type lit = int

let lit_of_var ?(neg = false) v = (2 * v) lor if neg then 1 else 0
let var_of_lit l = l lsr 1
let neg_lit l = l lxor 1
let is_pos l = l land 1 = 0

type result =
  | Sat
  | Unsat
  | Unknown
  | Resource_out  (** stopped by the [max_conflicts] fuel knob *)

type clause = {
  lits : lit array;
  mutable activity : float;
  learnt : bool;
  mutable deleted : bool;
      (** set by [reduce_db]; watch lists drop marked clauses on their
          next traversal *)
}

let dummy_clause = { lits = [||]; activity = 0.0; learnt = false; deleted = false }

(* Growable clause vector — watch lists and the clause databases. The
   seed kept cons lists and rebuilt them on every propagation; vectors
   make traversal cache-friendly and in-place compaction free. *)
type cvec = { mutable data : clause array; mutable sz : int }

let cvec_make () = { data = [||]; sz = 0 }

let cvec_push v c =
  if v.sz = Array.length v.data then begin
    let cap = max 4 (2 * v.sz) in
    let data = Array.make cap dummy_clause in
    Array.blit v.data 0 data 0 v.sz;
    v.data <- data
  end;
  v.data.(v.sz) <- c;
  v.sz <- v.sz + 1

type t = {
  mutable n_vars : int;
  clauses : cvec;
  learnts : cvec;
  mutable watches : cvec array;  (* indexed by literal *)
  mutable assign : int array;  (* var -> -1 unassigned / 0 false / 1 true *)
  mutable level : int array;  (* var -> decision level *)
  mutable reason : clause option array;  (* var -> antecedent clause *)
  mutable phase : bool array;  (* var -> saved phase *)
  mutable activity : float array;  (* var -> VSIDS activity *)
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable heap : int array;  (* binary max-heap of vars by activity *)
  mutable heap_sz : int;
  mutable hindex : int array;  (* var -> heap position, -1 if absent *)
  mutable seen : bool array;  (* var -> scratch flag for analyze *)
  mutable trail : lit array;
  mutable trail_len : int;
  mutable trail_lim : int array;  (* level -> trail length at its start *)
  mutable n_levels : int;
  mutable prop_head : int;
  mutable max_learnts : int;  (* reduce_db threshold, grows geometrically *)
  mutable ok : bool;  (* false once toplevel conflict found *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable learnts_deleted : int;
  mutable heap_decisions : int;  (* heap pops serving branch selection *)
}

let create () =
  {
    n_vars = 0;
    clauses = cvec_make ();
    learnts = cvec_make ();
    watches = Array.init 16 (fun _ -> cvec_make ());
    assign = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 None;
    phase = Array.make 8 false;
    activity = Array.make 8 0.0;
    var_inc = 1.0;
    cla_inc = 1.0;
    heap = Array.make 8 0;
    heap_sz = 0;
    hindex = Array.make 8 (-1);
    seen = Array.make 8 false;
    trail = Array.make 8 0;
    trail_len = 0;
    trail_lim = Array.make 8 0;
    n_levels = 0;
    prop_head = 0;
    max_learnts = 256;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    learnts_deleted = 0;
    heap_decisions = 0;
  }

(* ------------------------------------------------------------------ *)
(* Variable activity heap *)

(* Indexed binary max-heap: [heap.(0..heap_sz)] holds variables ordered
   by activity, [hindex] maps a variable to its position (-1 when
   absent) so bumps re-sift in O(log n). Every unassigned variable is
   in the heap: variables leave only through [pick_branch_var] (and are
   immediately assigned) and re-enter on backtracking. *)

let heap_swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.hindex.(b) <- i;
  t.hindex.(a) <- j

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if t.activity.(t.heap.(i)) > t.activity.(t.heap.(p)) then begin
      heap_swap t i p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_sz && t.activity.(t.heap.(l)) > t.activity.(t.heap.(!best))
  then best := l;
  if r < t.heap_sz && t.activity.(t.heap.(r)) > t.activity.(t.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.hindex.(v) < 0 then begin
    t.heap.(t.heap_sz) <- v;
    t.hindex.(v) <- t.heap_sz;
    t.heap_sz <- t.heap_sz + 1;
    heap_up t t.hindex.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_sz <- t.heap_sz - 1;
  let last = t.heap.(t.heap_sz) in
  t.heap.(0) <- last;
  t.hindex.(last) <- 0;
  t.hindex.(v) <- -1;
  if t.heap_sz > 0 then heap_down t 0;
  v

(* ------------------------------------------------------------------ *)
(* Variable allocation *)

let grow_arrays t n =
  let cap a fill =
    let len = Array.length a in
    if n <= len then a
    else begin
      let a' = Array.make (max n (2 * len)) fill in
      Array.blit a 0 a' 0 len;
      a'
    end
  in
  t.assign <- cap t.assign (-1);
  t.level <- cap t.level 0;
  t.reason <- cap t.reason None;
  t.phase <- cap t.phase false;
  t.activity <- cap t.activity 0.0;
  t.heap <- cap t.heap 0;
  t.hindex <- cap t.hindex (-1);
  t.seen <- cap t.seen false;
  t.trail <- cap t.trail 0;
  t.trail_lim <- cap t.trail_lim 0;
  let wlen = Array.length t.watches in
  if 2 * n > wlen then begin
    let w = Array.init (max (2 * n) (2 * wlen)) (fun _ -> cvec_make ()) in
    Array.blit t.watches 0 w 0 wlen;
    t.watches <- w
  end

(** Allocate variables up to id [v]. *)
let ensure_var t v =
  if v >= t.n_vars then begin
    grow_arrays t (v + 1);
    for i = t.n_vars to v do
      heap_insert t i
    done;
    t.n_vars <- v + 1
  end

let new_var t =
  let v = t.n_vars in
  ensure_var t v;
  v

let value_lit t l =
  let a = t.assign.(var_of_lit l) in
  if a < 0 then -1 else if is_pos l then a else 1 - a

let enqueue t l reason =
  let v = var_of_lit l in
  t.assign.(v) <- (if is_pos l then 1 else 0);
  t.level.(v) <- t.n_levels;
  t.reason.(v) <- reason;
  t.phase.(v) <- is_pos l;
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

let bump_var t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    (* Uniform rescale preserves the heap order; no re-sift needed. *)
    for i = 0 to t.n_vars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.hindex.(v) >= 0 then heap_up t t.hindex.(v)

let decay_var_activity t = t.var_inc <- t.var_inc /. 0.95

let bump_clause t (c : clause) =
  c.activity <- c.activity +. t.cla_inc;
  if c.activity > 1e20 then begin
    for i = 0 to t.learnts.sz - 1 do
      let c' = t.learnts.data.(i) in
      c'.activity <- c'.activity *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let decay_cla_activity t = t.cla_inc <- t.cla_inc /. 0.999

(* ------------------------------------------------------------------ *)
(* Propagation *)

let watch t l c = cvec_push t.watches.(l) c

(** Attach a clause of length >= 2 to the watch lists. *)
let attach t c =
  watch t (neg_lit c.lits.(0)) c;
  watch t (neg_lit c.lits.(1)) c

let propagate t =
  let confl = ref None in
  while !confl = None && t.prop_head < t.trail_len do
    let l = t.trail.(t.prop_head) in
    t.prop_head <- t.prop_head + 1;
    t.propagations <- t.propagations + 1;
    (* [l] became true; visit clauses watching [neg l]. Surviving
       watchers are compacted in place at [j]; clauses that move to a
       new watch or were deleted are dropped. *)
    let ws = t.watches.(l) in
    let n = ws.sz in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = ws.data.(!i) in
      incr i;
      if not c.deleted then begin
        let lits = c.lits in
        let falsified = neg_lit l in
        (* Normalize: the false watch sits at position 1. *)
        if lits.(0) = falsified then begin
          lits.(0) <- lits.(1);
          lits.(1) <- falsified
        end;
        if value_lit t lits.(0) = 1 then begin
          (* Clause already satisfied; keep watching. *)
          ws.data.(!j) <- c;
          incr j
        end
        else begin
          (* Find a new literal to watch. *)
          let len = Array.length lits in
          let k = ref 2 and found = ref (-1) in
          while !found < 0 && !k < len do
            if value_lit t lits.(!k) <> 0 then found := !k;
            incr k
          done;
          if !found >= 0 then begin
            lits.(1) <- lits.(!found);
            lits.(!found) <- falsified;
            watch t (neg_lit lits.(1)) c
          end
          else begin
            (* Unit or conflicting; stays on this watch list. *)
            ws.data.(!j) <- c;
            incr j;
            if value_lit t lits.(0) = 0 then begin
              (* Conflict: keep the unvisited tail of the watch list. *)
              while !i < n do
                ws.data.(!j) <- ws.data.(!i);
                incr j;
                incr i
              done;
              confl := Some c
            end
            else enqueue t lits.(0) (Some c)
          end
        end
      end
    done;
    ws.sz <- !j
  done;
  !confl

(* ------------------------------------------------------------------ *)
(* Conflict analysis (first UIP) *)

let analyze t confl =
  let learnt = ref [] in
  let touched = ref [] in
  let counter = ref 0 in
  let p = ref (-1) (* literal being resolved on; -1 = conflict clause *) in
  let confl = ref (Some confl) in
  let idx = ref (t.trail_len - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    (match !confl with
    | None -> invalid_arg "analyze: missing antecedent"
    | Some c ->
        if c.learnt then bump_clause t c;
        Array.iter
          (fun q ->
            if q <> !p then
              let v = var_of_lit q in
              if (not t.seen.(v)) && t.level.(v) > 0 then begin
                t.seen.(v) <- true;
                touched := v :: !touched;
                bump_var t v;
                if t.level.(v) >= t.n_levels then incr counter
                else begin
                  learnt := q :: !learnt;
                  btlevel := max !btlevel t.level.(v)
                end
              end)
          c.lits);
    (* Find next literal on the trail to resolve. *)
    let rec next () =
      let l = t.trail.(!idx) in
      decr idx;
      if t.seen.(var_of_lit l) then l else next ()
    in
    let l = next () in
    decr counter;
    if !counter = 0 then begin
      learnt := neg_lit l :: !learnt;
      continue := false
    end
    else begin
      p := l;
      t.seen.(var_of_lit l) <- false;
      confl := t.reason.(var_of_lit l)
    end
  done;
  List.iter (fun v -> t.seen.(v) <- false) !touched;
  (* The asserting literal must be first. *)
  let lits =
    match !learnt with
    | uip :: rest -> Array.of_list (uip :: rest)
    | [] -> invalid_arg "analyze: empty learnt clause"
  in
  (lits, !btlevel)

let cancel_until t lvl =
  if t.n_levels > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_len - 1 downto bound do
      let v = var_of_lit t.trail.(i) in
      t.assign.(v) <- -1;
      t.reason.(v) <- None;
      heap_insert t v
    done;
    t.trail_len <- bound;
    t.prop_head <- bound;
    t.n_levels <- lvl
  end

(* ------------------------------------------------------------------ *)
(* Learnt-clause database reduction *)

(** A clause is locked while it is the antecedent of an assignment: its
    asserting literal sits at position 0 for as long as it is a
    reason, so the check is one array read. Locked clauses are never
    deleted. *)
let locked t c =
  Array.length c.lits > 0
  &&
  match t.reason.(var_of_lit c.lits.(0)) with
  | Some c' -> c' == c
  | None -> false

(** Delete the lower-activity half of the learnt database (skipping
    locked and binary clauses), then purge the watch lists. Deleted
    clauses are marked so any stale watcher reference is dropped on its
    next traversal. *)
let reduce_db t =
  let n = t.learnts.sz in
  let arr = Array.sub t.learnts.data 0 n in
  Array.sort
    (fun (a : clause) (b : clause) -> Float.compare a.activity b.activity)
    arr;
  for i = 0 to (n / 2) - 1 do
    let c = arr.(i) in
    if Array.length c.lits > 2 && not (locked t c) then begin
      c.deleted <- true;
      t.learnts_deleted <- t.learnts_deleted + 1
    end
  done;
  let j = ref 0 in
  for i = 0 to n - 1 do
    let c = t.learnts.data.(i) in
    if not c.deleted then begin
      t.learnts.data.(!j) <- c;
      incr j
    end
  done;
  for i = !j to n - 1 do
    t.learnts.data.(i) <- dummy_clause
  done;
  t.learnts.sz <- !j;
  Array.iter
    (fun ws ->
      let k = ref 0 in
      for i = 0 to ws.sz - 1 do
        let c = ws.data.(i) in
        if not c.deleted then begin
          ws.data.(!k) <- c;
          incr k
        end
      done;
      for i = !k to ws.sz - 1 do
        ws.data.(i) <- dummy_clause
      done;
      ws.sz <- !k)
    t.watches

(* ------------------------------------------------------------------ *)
(* Clause addition *)

(** Add a clause; returns [false] if the solver became trivially
    inconsistent. May be called between [solve] invocations (blocking
    clauses); the solver backtracks to level 0 first. *)
let add_clause t lits =
  if not t.ok then false
  else begin
    cancel_until t 0;
    List.iter (fun l -> ensure_var t (var_of_lit l)) lits;
    (* Sort, then simplify in one linear scan: duplicates land adjacent,
       and with the [2v]/[2v+1] encoding a literal and its negation
       differ only in the low bit, so they land adjacent too —
       [l lxor l' = 1] detects a tautology without the quadratic
       membership test. *)
    let arr = Array.of_list lits in
    Array.sort compare arr;
    let n = Array.length arr in
    let taut = ref false in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let l = arr.(i) in
      if !j > 0 && arr.(!j - 1) = l then () (* duplicate *)
      else begin
        if !j > 0 && arr.(!j - 1) lxor l = 1 then taut := true;
        arr.(!j) <- l;
        incr j
      end
    done;
    let keep = ref [] in
    let sat_at_root = ref false in
    for i = !j - 1 downto 0 do
      match value_lit t arr.(i) with
      | 1 -> sat_at_root := true
      | 0 -> () (* false at level 0: drop *)
      | _ -> keep := arr.(i) :: !keep
    done;
    if !taut || !sat_at_root then true
    else
      match !keep with
      | [] ->
          t.ok <- false;
          false
      | [ l ] ->
          enqueue t l None;
          (match propagate t with
          | Some _ ->
              t.ok <- false;
              false
          | None -> true)
      | lits ->
          let c =
            { lits = Array.of_list lits; activity = 0.0; learnt = false;
              deleted = false }
          in
          cvec_push t.clauses c;
          attach t c;
          true
  end

(* ------------------------------------------------------------------ *)
(* Search *)

let rec pick_branch_var t =
  if t.heap_sz = 0 then -1
  else begin
    t.heap_decisions <- t.heap_decisions + 1;
    let v = heap_pop t in
    if t.assign.(v) < 0 then v else pick_branch_var t
  end

let luby i =
  (* Luby restart sequence. *)
  let rec go k i =
    if i = (1 lsl k) - 1 then 1 lsl (k - 1)
    else if i < (1 lsl (k - 1)) - 1 then go (k - 1) i
    else go (k - 1) (i - ((1 lsl (k - 1)) - 1))
  in
  let rec find_k k = if (1 lsl k) - 1 > i then k else find_k (k + 1) in
  go (find_k 1) i

(** Solve the current clause set. *)
let solve ?(max_conflicts = max_int) t =
  if not t.ok then Unsat
  else begin
    let restart_count = ref 0 in
    let result = ref None in
    while !result = None do
      let budget = 64 * luby !restart_count in
      incr restart_count;
      let conflicts_here = ref 0 in
      while !result = None && !conflicts_here < budget do
        Stdx.Budget.poll ();
        match propagate t with
        | Some confl ->
            t.conflicts <- t.conflicts + 1;
            incr conflicts_here;
            if t.conflicts > max_conflicts then begin
              (Stats.current ()).fuel_sat_conflicts <-
                (Stats.current ()).fuel_sat_conflicts + 1;
              result := Some Resource_out
            end
            else if t.n_levels = 0 then begin
              t.ok <- false;
              result := Some Unsat
            end
            else begin
              let lits, btlevel = analyze t confl in
              cancel_until t btlevel;
              decay_var_activity t;
              decay_cla_activity t;
              if Array.length lits = 1 then enqueue t lits.(0) None
              else begin
                let c =
                  { lits; activity = t.cla_inc; learnt = true;
                    deleted = false }
                in
                cvec_push t.learnts c;
                attach t c;
                enqueue t lits.(0) (Some c)
              end
            end
        | None ->
            if t.learnts.sz >= t.max_learnts then begin
              reduce_db t;
              (* Geometric schedule: each reduction raises the cap, so
                 the database grows but stays bounded relative to the
                 search effort. *)
              t.max_learnts <- t.max_learnts * 13 / 10
            end;
            let v = pick_branch_var t in
            if v < 0 then result := Some Sat
            else begin
              t.decisions <- t.decisions + 1;
              t.trail_lim.(t.n_levels) <- t.trail_len;
              t.n_levels <- t.n_levels + 1;
              enqueue t (lit_of_var ~neg:(not t.phase.(v)) v) None
            end
      done;
      if !result = None then cancel_until t 0 (* restart *)
    done;
    Option.get !result
  end

(** Value of a variable in the current (SAT) assignment. *)
let model_value t v = t.assign.(v) = 1
