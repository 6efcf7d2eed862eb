(** The authoritative camera [Auth M] over a unital camera [M].

    [auth a] (written [● a]) is the unique authoritative element;
    [frag b] (written [◯ b]) is a fragment. As in Iris, the
    authoritative part lives in [option (excl M)], so two of them
    compose to the invalid [Some Bot]. Validity of a composition
    requires at most one authoritative part, with every fragment
    included in it. This is the workhorse for connecting ghost state to
    physical state (heaps, counters, monotone logs). *)

module Make (M : Camera_intf.UNITAL) = struct
  module E = Excl.Make (M)
  module Part = Option_ra.Make (E)

  type t = { auth : Part.t; frag : M.t }

  let pp ppf t =
    match t.auth with
    | None -> Fmt.pf ppf "◯ %a" M.pp t.frag
    | Some (E.Excl a) -> Fmt.pf ppf "● %a ⋅ ◯ %a" M.pp a M.pp t.frag
    | Some E.Bot -> Fmt.string ppf "auth:⊥"

  let equal x y = Part.equal x.auth y.auth && M.equal x.frag y.frag
  let auth a = { auth = Some (E.Excl a); frag = M.unit }
  let frag b = { auth = None; frag = b }
  let both a b = { auth = Some (E.Excl a); frag = b }

  let valid t =
    match t.auth with
    | None -> M.valid t.frag
    | Some (E.Excl a) -> M.valid a && (M.included t.frag a || M.equal t.frag a)
    | Some E.Bot -> false

  let op x y = { auth = Part.op x.auth y.auth; frag = M.op x.frag y.frag }

  (* The core drops the authoritative part and keeps the fragment's
     core; with a unital M the fragment core is total. *)
  let pcore t =
    Some { auth = None; frag = Option.value (M.pcore t.frag) ~default:M.unit }

  let included x y =
    Part.included x.auth y.auth
    && (M.included x.frag y.frag || M.equal x.frag y.frag)
end
