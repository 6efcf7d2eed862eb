(** An exact integer reference for the checked-arithmetic tests. It
    shares no code with {!Stdx.Checked}: a native [int] has 63 bits, so
    sums, differences, quotients and remainders of two of them are
    exact in [Int64], and products are split into 31-bit limbs. [None]
    means the exact result does not fit in a native [int]. *)

let of64 x =
  if
    Int64.compare x (Int64.of_int min_int) >= 0
    && Int64.compare x (Int64.of_int max_int) <= 0
  then Some (Int64.to_int x)
  else None

let lift f a b = of64 (f (Int64.of_int a) (Int64.of_int b))
let add = lift Int64.add
let sub = lift Int64.sub
let neg = sub 0

(** Truncating, as OCaml's [/] and [mod]; the divisor is non-zero. *)
let div = lift Int64.div

let rem = lift Int64.rem

(* |x| = xh·2^31 + xl with both limbs at most 2^31 (|min_int| = 2^62
   gives xh = 2^31), so every partial product fits in [Int64].
   |a·b| = hi·2^62 + mid·2^31 + lo exceeds 2^62 = |min_int| when hi > 1,
   when hi = 1 beside any other part, or when mid > 2^31; otherwise the
   sum is below 2^63 and exact. *)
let mul a b =
  let split x =
    let m = Int64.abs (Int64.of_int x) in
    (Int64.shift_right_logical m 31, Int64.logand m 0x7FFF_FFFFL)
  in
  let ah, al = split a and bh, bl = split b in
  let hi = Int64.mul ah bh
  and mid = Int64.add (Int64.mul ah bl) (Int64.mul al bh)
  and lo = Int64.mul al bl in
  if hi > 1L || (hi = 1L && (mid > 0L || lo > 0L)) || mid > 0x8000_0000L
  then None
  else
    let m =
      Int64.add
        (Int64.add (Int64.shift_left hi 62) (Int64.shift_left mid 31))
        lo
    in
    of64 (if a < 0 <> (b < 0) then Int64.neg m else m)

(** Operands biased to the values where native arithmetic goes wrong:
    0, ±1, ±2^31 (where products cross the bound), [min_int] and
    [max_int], and their neighbourhoods. *)
let operand =
  let open QCheck.Gen in
  let near c = map (fun k -> c + k) (int_range (-64) 64) in
  frequency
    [
      (2, oneofl [ 0; 1; -1; 1 lsl 31; -(1 lsl 31); min_int; max_int ]);
      (2, small_signed_int);
      (2, near (1 lsl 31));
      (2, near (-(1 lsl 31)));
      (1, map (fun k -> max_int - k) (int_bound 64));
      (1, map (fun k -> min_int + k) (int_bound 64));
      (1, int);
    ]

(** Five procedures that are false over unbounded integers and that a
    wrapping implementation verified. Each must be refused as
    [Resource_out "integer out of range"]: never verified, never a
    crash. *)
let out_of_range_source =
  {|procedure wrap() requires [true] ensures [4611686018427387903 + 1 < 0] { 0 }
procedure add_wrap() requires [true] ensures [result < 0] { 4611686018427387903 + 1 }
procedure mul_wrap() requires [true] ensures [result < 0] { 2147483648 * 2147483648 }
procedure div_wrap() requires [true] ensures [result < 0] { (0 - 4611686018427387903 - 1) / (0 - 1) }
procedure neg_min(x) requires [x == 0 - 4611686018427387903 - 1] ensures [result == 0 - x && result < 0] { 0 - x }
|}
