(** Natural numbers under maximum — the monotone-counter camera.

    [MaxNat n] is persistent knowledge of a lower bound: composition
    takes the maximum, and every element is its own core.

    As in {!Nat_add}, the carrier is [int] but only naturals are
    elements: every negative integer stands for the one invalid element
    ⊥, which absorbs whatever it is composed with. So validity stays
    down-closed, and nothing valid includes a negative. *)

type t = int

let pp = Fmt.int
let equal a b = a = b || (a < 0 && b < 0)
let valid n = n >= 0
let op a b = if a < 0 || b < 0 then -1 else max a b
let pcore n = Some n
let included a b = b < 0 || (0 <= a && a <= b)
let unit = 0
