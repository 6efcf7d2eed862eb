(** Exact integer arithmetic over native [int].

    The logic's and HeapLang's integers are unbounded (Iris's [Z]); a
    native [int] holds only [min_int .. max_int]. Every integer
    operation whose exact result may not fit goes through this module,
    which raises {!Overflow} instead of wrapping. Callers refuse what
    they cannot represent: the machine gets stuck, [Smt.Term] keeps the
    node symbolic, [Q] passes the exception on, the abstract domain
    gives up on the term, and an [Overflow] that reaches the verifier becomes
    [Resource_out "integer out of range"]. *)

exception Overflow

(* The sum overflowed iff both operands have the sign opposite to it. *)
let add a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then raise Overflow else s

(* The difference overflowed iff the operands' signs differ and the
   result's sign differs from [a]'s. *)
let sub a b =
  let d = a - b in
  if (a lxor b) land (a lxor d) < 0 then raise Overflow else d

let neg a = if a = min_int then raise Overflow else -a

(* [min_int * -1] wraps to [min_int], and [min_int / -1] wraps back to
   [min_int], so the division test alone misses that one product. *)
let mul a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a || (b = -1 && a = min_int) then raise Overflow else p

(** Truncating division, as OCaml's [/]. Raises [Division_by_zero] on
    a zero divisor and [Overflow] on [min_int / -1]. *)
let div a b = if b = -1 then neg a else a / b

(** The remainder of {!div}, sign of [a]; always representable. Raises
    [Division_by_zero] on a zero divisor. *)
let rem a b = a mod b

(** The integer [s] spells in OCaml's integer syntax; [None] when it is
    malformed or out of range. *)
let of_string_opt = int_of_string_opt
