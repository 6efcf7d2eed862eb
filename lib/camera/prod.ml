(** The product camera: componentwise composition.

    The core exists only when both components have cores (partial cores
    compose pointwise in the partial-function sense — here we follow
    Iris: the product core is defined iff both cores are). *)

module Make (A : Camera_intf.S) (B : Camera_intf.S) = struct
  type t = A.t * B.t

  let pp ppf (a, b) = Fmt.pf ppf "(%a, %a)" A.pp a B.pp b
  let equal (a1, b1) (a2, b2) = A.equal a1 a2 && B.equal b1 b2
  let valid (a, b) = A.valid a && B.valid b
  let op (a1, b1) (a2, b2) = (A.op a1 a2, B.op b1 b2)

  let pcore (a, b) =
    match (A.pcore a, B.pcore b) with
    | Some ca, Some cb -> Some (ca, cb)
    | _ -> None

  let included (a1, b1) (a2, b2) =
    (A.included a1 a2 || A.equal a1 a2) && (B.included b1 b2 || B.equal b1 b2)
  (* Inclusion in a product without units requires a witness per
     component; allowing reflexivity per component matches inclusion in
     the unital completion, which is what the logic uses. With units it
     is the genuine extension order. *)
end

module MakeUnital (A : Camera_intf.UNITAL) (B : Camera_intf.UNITAL) = struct
  include Make (A) (B)

  let unit = (A.unit, B.unit)
end
