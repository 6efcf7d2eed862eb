(** The proof kernel of the destabilized logic.

    [theorem] is abstract: the only way to obtain one is through the
    rule constructors below, so every theorem is derivable in the
    logic. Two components are trusted beyond the rules themselves:

    - the SMT solver, reached through {!pure_entail} and the
      side-condition checks of the ghost rules (the paper's system
      trusts Z3 in exactly the same place);
    - the syntactic stability judgment {!Assertion.stable} used by
      [stabilize_intro].

    Every rule is model-checked for soundness against
    {!Semantics.eval} in the test suite.

    Theorems are entailments [P ⊢ Q] relative to a predicate
    environment. Entailment is semantically: for all (step, global σ,
    valid local resource a compatible with σ), [P] implies [Q]. *)

type theorem

val penv : theorem -> Assertion.pred_env
val lhs : theorem -> Assertion.t
val rhs : theorem -> Assertion.t
val pp : theorem Fmt.t

exception Rule_error of string

(** Number of kernel-rule applications since startup (proof-size
    accounting for the benchmarks). *)
val rule_count : unit -> int
val reset_rule_count : unit -> unit

(* --- Structural rules --- *)

val refl : ?penv:Assertion.pred_env -> Assertion.t -> theorem
val trans : theorem -> theorem -> theorem

(* --- Separating conjunction (affine BI) --- *)

val sep_comm : ?penv:Assertion.pred_env -> Assertion.t -> Assertion.t -> theorem
(** [P ∗ Q ⊢ Q ∗ P] *)

val sep_assoc_r : ?penv:Assertion.pred_env -> Assertion.t -> Assertion.t -> Assertion.t -> theorem
(** [(P ∗ Q) ∗ R ⊢ P ∗ (Q ∗ R)] *)

val sep_assoc_l : ?penv:Assertion.pred_env -> Assertion.t -> Assertion.t -> Assertion.t -> theorem
(** [P ∗ (Q ∗ R) ⊢ (P ∗ Q) ∗ R] *)

val sep_mono : theorem -> theorem -> theorem
(** from [P1 ⊢ Q1] and [P2 ⊢ Q2], [P1 ∗ P2 ⊢ Q1 ∗ Q2] *)

val sep_weaken_l : ?penv:Assertion.pred_env -> Assertion.t -> Assertion.t -> theorem
(** [P ∗ Q ⊢ Q] (affinity) *)

val emp_sep_intro : ?penv:Assertion.pred_env -> Assertion.t -> theorem
(** [P ⊢ emp ∗ P] *)

val emp_sep_elim : ?penv:Assertion.pred_env -> Assertion.t -> theorem
(** [emp ∗ P ⊢ P] *)

val wand_intro : theorem -> theorem
(** from [P ∗ Q ⊢ R], [P ⊢ Q -∗ R] *)

val wand_elim : ?penv:Assertion.pred_env -> Assertion.t -> Assertion.t -> theorem
(** [(Q -∗ R) ∗ Q ⊢ R] *)

(* --- Plain conjunction / disjunction --- *)

val and_intro : theorem -> theorem -> theorem
val and_elim_l : ?penv:Assertion.pred_env -> Assertion.t -> Assertion.t -> theorem
val and_elim_r : ?penv:Assertion.pred_env -> Assertion.t -> Assertion.t -> theorem
val or_intro_l : ?penv:Assertion.pred_env -> Assertion.t -> Assertion.t -> theorem
val or_intro_r : ?penv:Assertion.pred_env -> Assertion.t -> Assertion.t -> theorem
val or_elim : theorem -> theorem -> theorem
(** from [P ⊢ R] and [Q ⊢ R], [P ∨ Q ⊢ R] *)

val or_classical :
  Assertion.t list -> Smt.Term.t -> Assertion.t -> theorem -> theorem
(** [or_classical hyps φ R th]: from [th : seps (hyps @ \[⌜¬φ⌝\]) ⊢ R],
    conclude [seps hyps ⊢ ⌜φ⌝ ∨ R]. *)

(* --- Pure assertions (SMT gateway) --- *)

val pure_intro : ?penv:Assertion.pred_env -> Assertion.t -> Smt.Term.t -> theorem
(** [P ⊢ ⌜φ⌝] when the solver proves φ valid. *)

val pure_entail : ?penv:Assertion.pred_env -> hyps:Smt.Term.t list -> Smt.Term.t -> theorem
(** [⌜φ1⌝ ∗ … ∗ ⌜φn⌝ ⊢ ⌜ψ⌝] when the solver proves φ₁ ∧ … ∧ φₙ ⊨ ψ.
    Heap reads are treated as uninterpreted, which is sound: the
    entailment then holds for every global heap. *)

val pure_false_elim : ?penv:Assertion.pred_env -> Assertion.t -> theorem
(** [⌜false⌝ ⊢ Q] *)

val emp_intro : ?penv:Assertion.pred_env -> Assertion.t -> theorem
(** [P ⊢ emp] — the logic is affine. *)

(* --- Automated entailment (macro rules) --- *)

val entail_auto :
  ?penv:Assertion.pred_env ->
  ?witnesses:(string * Smt.Term.t) list ->
  Assertion.t list -> Assertion.t -> theorem
(** [entail_auto hyps goal : seps hyps ⊢ goal] by frame matching:
    chunks are consumed syntactically up to SMT-provable equality,
    fractional permissions split, ghost state weakened along camera
    inclusion, heap reads in pure goals resolved against owned
    points-to chunks, and existentials instantiated from [witnesses]
    or by unification against the available chunks. Each internal
    match counts as one rule application. *)

val scrub : Assertion.t list -> Assertion.t list
(** Stabilize a hypothesis list: resolve heap-dependent pure
    hypotheses against the owned chunks (or drop them), drop other
    unstable hypotheses. Bridge with [entail_auto hyps (seps (scrub
    hyps))]. *)

val focus_points_to :
  ?penv:Assertion.pred_env ->
  Assertion.t list -> Smt.Term.t ->
  theorem * Stdx.Q.t * Smt.Term.t * Assertion.t list
(** [focus_points_to hyps l] = ([seps hyps ⊢ l ↦{q} v ∗ seps rest], q,
    v, rest) for the first chunk whose location provably equals [l]. *)

val focus_ghost :
  ?penv:Assertion.pred_env ->
  Assertion.t list -> string ->
  theorem * Ghost_val.t * Assertion.t list

val focus_pred :
  ?penv:Assertion.pred_env ->
  Assertion.t list -> string -> Smt.Term.t list ->
  theorem * Smt.Term.t list * Assertion.t list

(* --- Quantifiers --- *)

val exists_intro : ?penv:Assertion.pred_env -> string -> Assertion.t -> Smt.Term.t -> theorem
(** [P\[t/x\] ⊢ ∃ x. P] *)

val exists_elim : string -> theorem -> theorem
(** from [P ⊢ Q] (where x may occur in P), [∃ x. P ⊢ Q], provided
    x ∉ fv(Q) *)

val exists_elim_ctx :
  before:Assertion.t list -> string -> string -> Assertion.t ->
  after:Assertion.t list -> theorem -> theorem
(** [exists_elim_ctx ~before x y p ~after th]: from
    [th : seps (before @ \[P\[y/x\]\] @ after) ⊢ Q] with [y] fresh,
    conclude [seps (before @ \[∃x.P\] @ after) ⊢ Q]. *)

val forall_elim : ?penv:Assertion.pred_env -> string -> Assertion.t -> Smt.Term.t -> theorem
(** [∀ x. P ⊢ P\[t/x\]] *)

val forall_intro : string -> theorem -> theorem
(** from [P ⊢ Q], [P ⊢ ∀ x. Q], provided x ∉ fv(P) *)

(* --- Heap assertions --- *)

val points_to_agree : ?penv:Assertion.pred_env -> Stdx.Q.t -> Stdx.Q.t -> Smt.Term.t -> Smt.Term.t -> Smt.Term.t -> theorem
(** [l ↦{q} v ∗ l ↦{q'} w ⊢ ⌜v = w⌝] *)

val points_to_split : ?penv:Assertion.pred_env -> Smt.Term.t -> Stdx.Q.t -> Stdx.Q.t -> Smt.Term.t -> theorem
(** [l ↦{q+q'} v ⊢ l ↦{q} v ∗ l ↦{q'} v] *)

val points_to_join : ?penv:Assertion.pred_env -> Smt.Term.t -> Stdx.Q.t -> Stdx.Q.t -> Smt.Term.t -> theorem
(** [l ↦{q} v ∗ l ↦{q'} v ⊢ l ↦{q+q'} v], provided q+q' ≤ 1 *)

val deref_resolve : ?penv:Assertion.pred_env -> Stdx.Q.t -> Smt.Term.t -> Smt.Term.t -> Smt.Term.t -> theorem
(** The destabilized logic's signature rule:
    [l ↦{q} v ∗ ⌜φ(!l)⌝ ⊢ l ↦{q} v ∗ ⌜φ(v)⌝] — a heap read covered by
    a points-to resolves to the owned value (in both directions; see
    [deref_intro]). *)

val deref_intro : ?penv:Assertion.pred_env -> Stdx.Q.t -> Smt.Term.t -> Smt.Term.t -> Smt.Term.t -> theorem
(** [l ↦{q} v ∗ ⌜φ(v)⌝ ⊢ l ↦{q} v ∗ ⌜φ(!l)⌝] *)

(* --- Ghost state --- *)

val ghost_op_split : ?penv:Assertion.pred_env -> string -> Ghost_val.t -> Ghost_val.t -> theorem
(** [own γ (a⋅b) ⊢ own γ a ∗ own γ b] when the symbolic composition is
    defined *)

val ghost_op_join : ?penv:Assertion.pred_env -> string -> Ghost_val.t -> Ghost_val.t -> theorem
(** [own γ a ∗ own γ b ⊢ own γ (a⋅b) ∗ ⌜fact⌝] where [fact] is the pure
    consequence of composition (e.g. agreement) *)

val ghost_valid : ?penv:Assertion.pred_env -> string -> Ghost_val.t -> theorem
(** [own γ a ⊢ own γ a ∗ ⌜✓ a⌝] *)

val ghost_update : ?penv:Assertion.pred_env -> hyps:Smt.Term.t list -> string -> Ghost_val.t -> Ghost_val.t -> theorem
(** [⌜hyps⌝ ∗ own γ a ⊢ |==> own γ b] when [a ~~> b] is a recognized
    update pattern whose side condition follows from [hyps] by SMT *)

val ghost_alloc : ?penv:Assertion.pred_env -> hyps:Smt.Term.t list -> string -> Ghost_val.t -> theorem
(** [⌜hyps⌝ ⊢ |==> own γ a] for a fresh name γ with [✓ a] under hyps *)

(* --- Persistence --- *)

val persistently_elim : ?penv:Assertion.pred_env -> Assertion.t -> theorem
val persistently_intro : theorem -> theorem
(** from [P ⊢ Q] with [P] persistent, [P ⊢ □ Q] *)

val persistent_dup : ?penv:Assertion.pred_env -> Assertion.t -> theorem
(** [P ⊢ P ∗ P] for syntactically persistent [P] *)

(* --- Later --- *)

val later_intro : ?penv:Assertion.pred_env -> Assertion.t -> theorem
val later_mono : theorem -> theorem

(* --- Update modality --- *)

val upd_intro : ?penv:Assertion.pred_env -> Assertion.t -> theorem
val upd_mono : theorem -> theorem
val upd_trans : ?penv:Assertion.pred_env -> Assertion.t -> theorem
val upd_frame : ?penv:Assertion.pred_env -> Assertion.t -> Assertion.t -> theorem
(** [P ∗ |==> Q ⊢ |==> (P ∗ Q)] *)

(* --- Stabilization --- *)

val stabilize_elim : ?penv:Assertion.pred_env -> Assertion.t -> theorem
(** [⌊P⌋ ⊢ P] *)

val stabilize_intro : ?penv:Assertion.pred_env -> Assertion.t -> theorem
(** [P ⊢ ⌊P⌋] when [P] is syntactically stable *)

val stabilize_mono : theorem -> theorem

val stabilize_sep : ?penv:Assertion.pred_env -> Assertion.t -> Assertion.t -> theorem
(** [⌊P⌋ ∗ ⌊Q⌋ ⊢ ⌊P ∗ Q⌋] *)

(* --- Predicates --- *)

val pred_unfold : penv:Assertion.pred_env -> string -> Smt.Term.t list -> theorem
(** [p(ts) ⊢ ▷ body\[ts/params\]] *)

val pred_fold : penv:Assertion.pred_env -> string -> Smt.Term.t list -> theorem
(** [▷ body\[ts/params\] ⊢ p(ts)] — with the guarded-unfolding
    semantics of predicates, folding re-establishes the predicate one
    step later; at the top level the step budget absorbs the later. *)

(* --- Weakest preconditions --- *)

val value_term : Heaplang.Ast.value -> Smt.Term.t option
(** Term encoding of a first-order program value ([Sym x] ↦ the
    variable [x], booleans 0/1-encoded). *)

val binop_term :
  Heaplang.Ast.bin_op -> Smt.Term.t -> Smt.Term.t -> Smt.Term.t option
(** Symbolic meaning of a binary operator (division and remainder have
    none and are handled on concrete values only). *)

val divrem_term :
  Heaplang.Ast.bin_op -> Smt.Term.t -> Smt.Term.t -> Smt.Term.t option
(** Division or remainder of two literals with a non-zero divisor;
    [None] otherwise. Raises [Stdx.Checked.Overflow] on [min_int / -1].
    No kernel rule uses it. *)

val wp_value : ?penv:Assertion.pred_env -> Heaplang.Ast.value -> string -> Assertion.t -> theorem
(** [Q\[v/x\] ⊢ WP v {x. Q}] *)

val wp_mono :
  Heaplang.Ast.expr -> string -> string -> Assertion.t -> Assertion.t ->
  theorem -> theorem
(** [wp_mono e x y Q1 Q2 th]: from [th : Q1\[y/x\] ⊢ Q2\[y/x\]] with [y]
    fresh, conclude [WP e {x.Q1} ⊢ WP e {x.Q2}] *)

val wp_frame : ?penv:Assertion.pred_env -> Assertion.t -> Heaplang.Ast.expr -> string -> Assertion.t -> theorem
(** [P ∗ WP e {x.Q} ⊢ WP e {x. P ∗ Q}], provided x ∉ fv(P) *)

val pure_head_step : Heaplang.Ast.expr -> Heaplang.Ast.expr option
(** The deterministic, heap-free head reduction used by
    [wp_pure_step] — exposed so tactics can compute the reduct. *)

val wp_pure_step : ?penv:Assertion.pred_env -> Heaplang.Ast.expr -> Heaplang.Ast.expr -> string -> Assertion.t -> theorem
(** [WP e' {x.Q} ⊢ WP e {x.Q}] when [e] deterministically head-reduces
    to [e'] without touching the heap (β, let, seq, fst/snd, case,
    if-on-concrete-boolean, arithmetic on concrete integers) *)

val wp_binop : ?penv:Assertion.pred_env -> Heaplang.Ast.bin_op -> Smt.Term.t -> Smt.Term.t -> string -> Assertion.t -> theorem
(** [Q\[⟦op⟧(a,b)/x\] ⊢ WP (BinOp (op, ?a, ?b)) {x. Q}] for symbolic
    operands, with the boolean results 0/1-encoded *)

val wp_if_sym : ?penv:Assertion.pred_env -> Smt.Term.t -> Heaplang.Ast.expr -> Heaplang.Ast.expr -> string -> Assertion.t -> theorem
(** [(⌜b ≠ 0⌝ ∨ WP e2 {x.Q}) ∧ (⌜b = 0⌝ ∨ WP e1 {x.Q})
     ⊢ WP (if ?b then e1 else e2) {x.Q}] — classical case split on a
    symbolic boolean *)

val wp_load : ?penv:Assertion.pred_env -> Stdx.Q.t -> string -> Smt.Term.t -> string -> Assertion.t -> theorem
(** [?l ↦{q} v ∗ (?l ↦{q} v -∗ Q\[v/x\]) ⊢ WP !?l {x. Q}] where the
    location is the symbolic value named by the string *)

val wp_store : ?penv:Assertion.pred_env -> string -> Smt.Term.t -> Heaplang.Ast.value -> Smt.Term.t -> string -> Assertion.t -> theorem
(** [?l ↦ v ∗ (?l ↦ w -∗ Q\[0/x\]) ⊢ WP (?l <- w) {x. Q}] where [w]
    is the stored value and its term encoding is supplied *)

val wp_alloc : ?penv:Assertion.pred_env -> Heaplang.Ast.value -> Smt.Term.t -> string -> string -> Assertion.t -> theorem
(** [(∀ l. l ↦ v -∗ Q\[l/x\]) ⊢ WP (ref v) {x. Q}] *)

val wp_free : ?penv:Assertion.pred_env -> string -> Smt.Term.t -> string -> Assertion.t -> theorem
(** [?l ↦ v ∗ Q\[0/x\] ⊢ WP (free ?l) {x. Q}] *)

val wp_faa : ?penv:Assertion.pred_env -> string -> Smt.Term.t -> Smt.Term.t -> string -> Assertion.t -> theorem
(** [?l ↦ v ∗ (?l ↦ (v+d) -∗ Q\[v/x\]) ⊢ WP (FAA (?l, ?d)) {x. Q}] *)

val wp_let : ?penv:Assertion.pred_env -> string -> Heaplang.Ast.expr -> Heaplang.Ast.expr -> string -> string -> Assertion.t -> theorem
(** [WP e1 {y. WP (e2\[?y/x\]) {r.Q}} ⊢ WP (let x = e1 in e2) {r.Q}]
    — the bind rule specialised to [Let]; [y] is a fresh symbol name *)

val wp_seq : ?penv:Assertion.pred_env -> Heaplang.Ast.expr -> Heaplang.Ast.expr -> string -> string -> Assertion.t -> theorem
(** [WP e1 {y. WP e2 {r.Q}} ⊢ WP (e1; e2) {r.Q}] *)

val wp_assert : ?penv:Assertion.pred_env -> Smt.Term.t -> string -> Assertion.t -> theorem
(** [⌜b ≠ 0⌝ ∧ Q\[0/x\] ⊢ WP (assert ?b) {x. Q}] *)

(* Named variants: the continuation receives the result through a
   fresh name and its defining equation —
   [∀z. ⌜z = t⌝ -∗ Q[z/x]] — so the proof layers never substitute a
   compound term into program syntax. *)

val wp_binop_n :
  ?penv:Assertion.pred_env -> Heaplang.Ast.bin_op -> Smt.Term.t ->
  Smt.Term.t -> string -> string -> Assertion.t -> theorem

val wp_load_n :
  ?penv:Assertion.pred_env -> Stdx.Q.t -> string -> Smt.Term.t -> string ->
  string -> Assertion.t -> theorem

val wp_faa_n :
  ?penv:Assertion.pred_env -> string -> Smt.Term.t -> Smt.Term.t -> string ->
  string -> Assertion.t -> theorem

val wp_if_wand :
  ?penv:Assertion.pred_env -> Smt.Term.t -> Heaplang.Ast.expr ->
  Heaplang.Ast.expr -> string -> Assertion.t -> theorem
(** [(⌜b≠0⌝ -∗ WP e1 {x.Q}) ∧ (⌜b=0⌝ -∗ WP e2 {x.Q})
     ⊢ WP (if ?b then e1 else e2) {x.Q}] *)

val wp_while :
  penv:Assertion.pred_env -> inv:Assertion.t -> body_pre:Assertion.t ->
  cond:Heaplang.Ast.expr -> body:Heaplang.Ast.expr ->
  cond_thm:theorem -> body_thm:theorem ->
  string -> Assertion.t -> theorem
(** The invariant rule for loops (soundness is Löb induction in the
    model). Given
    - [cond_thm : inv ⊢ WP cond {b. (⌜b=0⌝ ∨ body_pre) ∧ (⌜b≠0⌝ ∨ Q\[0/x\])}]
    - [body_thm : body_pre ⊢ WP body {_. inv}]
    conclude [inv ⊢ WP (while cond body) {x. Q}]. *)
