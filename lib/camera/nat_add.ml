(** Natural numbers under addition — the contribution camera.

    Used as the fragment camera of authoritative counters: each party
    owns its contribution, and the sum of contributions is bounded by
    the authoritative total. Unital with unit [0].

    The carrier is [int], but only naturals are elements: every
    negative integer stands for the one invalid element ⊥, which
    absorbs whatever it is composed with. So a negative operand makes
    a composite invalid (validity stays down-closed), and nothing
    valid includes a negative. *)

type t = int

let pp = Fmt.int
let equal a b = a = b || (a < 0 && b < 0)
let valid n = n >= 0
let op a b = if a < 0 || b < 0 then -1 else a + b
let pcore _ = Some 0
let included a b = b < 0 || (0 <= a && a <= b)
let unit = 0
