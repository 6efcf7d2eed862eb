(** A registry of cameras and the resulting global ghost camera.

    Iris's global resource is a finite map from ghost names to elements
    of *any registered camera*. OCaml has no open-world sums, so we use
    an extensible variant: registering a camera mints a fresh
    constructor of [univ] (generative functor application guarantees
    freshness) and records, under a dense integer id, the camera
    operations lifted to [univ].

    The resulting [Ghost_map] module is a unital camera whose elements
    map ghost names to packed values; composing packed values from
    different registrations is invalid (it cannot happen through the
    typed [inject]/[project] API, but the raw camera must still be
    total). *)

open Stdx

type univ = ..

type packed = Pack of { cell : int; v : univ } | PackBot

module type CELL_OPS = sig
  val name : string
  val pp : univ Fmt.t
  val equal : univ -> univ -> bool
  val valid : univ -> bool
  val op : univ -> univ -> univ
  val pcore : univ -> univ option
  val included : univ -> univ -> bool
end

(** A camera with the name its packed elements print under. *)
module type REGISTRABLE = sig
  include Camera_intf.S

  val name : string
end

(* Thread-safety invariant: the cell table is written only under
   [registry_lock], by [Register] functor applications — which in
   practice all run at module-initialization time, before any worker
   domain exists. Lookups ([cell_ops]) are unsynchronized reads; they
   are safe because registration never shrinks the table and worker
   domains only ever read cells that were published before they were
   spawned. Do not register cameras from inside engine jobs. *)
let registry_lock = Mutex.create ()
let cells : (module CELL_OPS) option array ref = ref (Array.make 8 None)
let n_cells = ref 0

let cell_ops i : (module CELL_OPS) =
  match !cells.(i) with
  | Some ops -> ops
  | None -> invalid_arg "Registry.cell_ops: unregistered cell"

(** Register a camera. Generative: each application mints a distinct
    [univ] constructor, so the same underlying module can be registered
    twice and the two registrations will not mix. *)
module Register (C : REGISTRABLE) () = struct
  type univ += U of C.t

  let prj = function U x -> x | _ -> invalid_arg ("Registry cell " ^ C.name)

  let cell =
    Mutex.lock registry_lock;
    let id = !n_cells in
    incr n_cells;
    if id >= Array.length !cells then begin
      let bigger = Array.make (2 * Array.length !cells) None in
      Array.blit !cells 0 bigger 0 (Array.length !cells);
      cells := bigger
    end;
    let module Ops = struct
      let name = C.name
      let pp ppf u = C.pp ppf (prj u)
      let equal a b = C.equal (prj a) (prj b)
      let valid a = C.valid (prj a)
      let op a b = U (C.op (prj a) (prj b))
      let pcore a = Option.map (fun c -> U c) (C.pcore (prj a))
      let included a b = C.included (prj a) (prj b)
    end in
    !cells.(id) <- Some (module Ops : CELL_OPS);
    Mutex.unlock registry_lock;
    id

  let inject x = Pack { cell; v = U x }

  let project = function
    | Pack { cell = c; v = U x } when c = cell -> Some x
    | _ -> None
end

module Packed = struct
  type t = packed

  let pp ppf = function
    | PackBot -> Fmt.string ppf "pack:⊥"
    | Pack { cell; v } ->
        let module Ops = (val cell_ops cell) in
        Fmt.pf ppf "%s:%a" Ops.name Ops.pp v

  let equal a b =
    match (a, b) with
    | PackBot, PackBot -> true
    | Pack a, Pack b when a.cell = b.cell ->
        let module Ops = (val cell_ops a.cell) in
        Ops.equal a.v b.v
    | _ -> false

  let valid = function
    | PackBot -> false
    | Pack { cell; v } ->
        let module Ops = (val cell_ops cell) in
        Ops.valid v

  let op a b =
    match (a, b) with
    | Pack x, Pack y when x.cell = y.cell ->
        let module Ops = (val cell_ops x.cell) in
        Pack { cell = x.cell; v = Ops.op x.v y.v }
    | _ -> PackBot

  let pcore = function
    | PackBot -> Some PackBot
    | Pack { cell; v } ->
        let module Ops = (val cell_ops cell) in
        Option.map (fun c -> Pack { cell; v = c }) (Ops.pcore v)

  let included a b =
    match (a, b) with
    | _, PackBot -> true
    | PackBot, _ -> false
    | Pack x, Pack y ->
        x.cell = y.cell
        &&
        let module Ops = (val cell_ops x.cell) in
        Ops.included x.v y.v || Ops.equal x.v y.v
end

(** The global ghost camera: ghost names to packed camera elements. *)
module Ghost_map =
  Gmap.Make
    (struct
      include Smap

      let pp_key = Fmt.string
    end)
    (Packed)
