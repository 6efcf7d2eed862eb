(** Arbitrary-precision-free rational numbers over native [int].

    The solver (Simplex/Fourier-Motzkin) and the fractional-permission
    camera both need exact rational arithmetic. The sealed container has
    no [zarith], so we normalize aggressively ([gcd] after every
    operation) and keep magnitudes small; the verification conditions we
    generate stay far away from [max_int]. Overflow raises [Overflow]
    rather than wrapping silently. *)

exception Overflow

type t = { num : int; den : int }
(** Invariant: [den > 0] and [gcd (abs num) den = 1]. *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let add_checked a b =
  let s = a + b in
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
    raise Overflow
  else s

let sub_checked a b =
  let d = a - b in
  if (a >= 0 && b < 0 && d < 0) || (a < 0 && b >= 0 && d >= 0) then
    raise Overflow
  else d

(* [min_int * -1] wraps to [min_int], and [min_int / -1] wraps back to
   [min_int], so the division test alone misses that one product. *)
let mul_checked a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a || (b = -1 && a = min_int) then raise Overflow else p

let mk num den =
  if den = 0 then invalid_arg "Q.mk: zero denominator";
  let sign = if den < 0 then -1 else 1 in
  let num = mul_checked num sign and den = abs den in
  if num = 0 then { num = 0; den = 1 }
  else
    let g = gcd (abs num) den in
    { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)
let half = mk 1 2

let num t = t.num
let den t = t.den

(* [add], [mul] and [compare] take an integer fast path when both
   denominators are 1: the solver's coefficients, bounds and most
   assignments are integers, and the general path's cross products and
   [gcd] would change nothing. The overflow checks stay. *)
let add a b =
  if a.den = 1 && b.den = 1 then { num = add_checked a.num b.num; den = 1 }
  else
    mk
      (add_checked (mul_checked a.num b.den) (mul_checked b.num a.den))
      (mul_checked a.den b.den)

let neg a = { a with num = -a.num }
let sub a b = add a (neg b)
let mul a b =
  if a.den = 1 && b.den = 1 then { num = mul_checked a.num b.num; den = 1 }
  else mk (mul_checked a.num b.num) (mul_checked a.den b.den)

let inv a =
  if a.num = 0 then invalid_arg "Q.inv: division by zero";
  mk a.den a.num

let div a b = mul a (inv b)

let compare a b =
  if a.den = 1 && b.den = 1 then Int.compare a.num b.num
  else
    (* Cross-multiplication; denominators are positive. *)
    Int.compare (mul_checked a.num b.den) (mul_checked b.num a.den)

let equal a b = a.num = b.num && a.den = b.den
let sign a = compare a zero
let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let gt a b = compare a b > 0
let geq a b = compare a b >= 0
let min a b = if leq a b then a else b
let max a b = if geq a b then a else b
let abs a = { a with num = Stdlib.abs a.num }
let is_int a = a.den = 1

let floor a =
  if a.num >= 0 then a.num / a.den
  else if a.num mod a.den = 0 then a.num / a.den
  else (a.num / a.den) - 1

let ceil a = -floor (neg a)

let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Fmt.int ppf a.num
  else Fmt.pf ppf "%d/%d" a.num a.den

let to_string a = Fmt.str "%a" pp a

let hash a = (a.num * 65599) + a.den
