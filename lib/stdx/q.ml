(** Rational numbers over native [int].

    The solver (Simplex/Fourier-Motzkin) and the fractional-permission
    camera both need exact rational arithmetic. The sealed container has
    no [zarith], so we normalize aggressively ([gcd] after every
    operation). Every integer operation goes through {!Checked}: a
    result a native [int] cannot hold raises [Checked.Overflow] rather
    than wrapping. *)

type t = { num : int; den : int }
(** Invariant: [den > 0] and [gcd (abs num) den = 1]. *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let mk num den =
  if den = 0 then invalid_arg "Q.mk: zero denominator";
  let num, den =
    if den < 0 then (Checked.neg num, Checked.neg den) else (num, den)
  in
  if num = 0 then { num = 0; den = 1 }
  else
    (* [gcd (abs num) den], without taking [abs min_int]:
       [abs (num mod den)] is below [den]. *)
    let g = gcd den (abs (num mod den)) in
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
  if a.den = 1 && b.den = 1 then { num = Checked.add a.num b.num; den = 1 }
  else
    mk
      (Checked.add (Checked.mul a.num b.den) (Checked.mul b.num a.den))
      (Checked.mul a.den b.den)

let neg a = { a with num = Checked.neg a.num }
let sub a b = add a (neg b)
let mul a b =
  if a.den = 1 && b.den = 1 then { num = Checked.mul a.num b.num; den = 1 }
  else mk (Checked.mul a.num b.num) (Checked.mul a.den b.den)

let inv a =
  if a.num = 0 then invalid_arg "Q.inv: division by zero";
  mk a.den a.num

let div a b = mul a (inv b)

let compare a b =
  if a.den = 1 && b.den = 1 then Int.compare a.num b.num
  else
    (* Cross-multiplication; denominators are positive. *)
    Int.compare (Checked.mul a.num b.den) (Checked.mul b.num a.den)

let equal a b = a.num = b.num && a.den = b.den
let sign a = compare a zero
let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let gt a b = compare a b > 0
let geq a b = compare a b >= 0
let min a b = if leq a b then a else b
let max a b = if geq a b then a else b
let abs a = if a.num < 0 then neg a else a
let is_int a = a.den = 1

let floor a =
  if a.num >= 0 then a.num / a.den
  else if a.num mod a.den = 0 then a.num / a.den
  else (a.num / a.den) - 1

let ceil a = -floor (neg a)

let pp ppf a =
  if a.den = 1 then Fmt.int ppf a.num
  else Fmt.pf ppf "%d/%d" a.num a.den

let to_string a = Fmt.str "%a" pp a

let hash a = (a.num * 65599) + a.den
