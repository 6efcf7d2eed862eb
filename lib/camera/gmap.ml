(** The finite-map camera [gmap K A]: pointwise composition.

    Absent keys act as units, so the map camera is unital with the empty
    map even when the value camera is not. The functor takes the key's
    map module itself, so a map of cells stays a map of the caller's
    keys (ghost names in a [Smap], locations in an [Imap]). *)

module type MAP = sig
  include Map.S

  val pp_key : key Fmt.t
end

module Make (M : MAP) (C : Camera_intf.S) = struct
  type t = C.t M.t

  let pp ppf m =
    Fmt.pf ppf "{@[%a@]}"
      (Fmt.list ~sep:(Fmt.any ";@ ") (fun ppf (k, v) ->
           Fmt.pf ppf "%a ↦ %a" M.pp_key k C.pp v))
      (M.bindings m)

  let equal a b = M.equal C.equal a b
  let valid m = M.for_all (fun _ v -> C.valid v) m
  let op a b = M.union (fun _ x y -> Some (C.op x y)) a b

  exception Invalid

  (** [Some (a ⋅ b)] when [a ⋅ b] is valid, for valid [a] and [b]: only
      the keys they share can make the composite invalid, so the others
      are neither composed nor checked again. *)
  let op_if_valid a b =
    let f _ x y =
      let z = C.op x y in
      if C.valid z then Some z else raise_notrace Invalid
    in
    match M.union f a b with m -> Some m | exception Invalid -> None

  let pcore m =
    (* Pointwise cores; keys without a core simply drop out (their core
       is the absent-key unit). *)
    Some (M.filter_map (fun _ v -> C.pcore v) m)

  let included a b =
    M.for_all
      (fun k va ->
        match M.find_opt k b with
        | None -> false
        | Some vb -> C.included va vb || C.equal va vb)
      a

  let unit = M.empty
end
