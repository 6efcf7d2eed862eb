(** Frame-preserving updates.

    A frame-preserving update [a ~~> b] permits replacing ownership of
    [a] by ownership of [b] under the update modality: for every frame
    [f] (including the absent frame), validity of [a ⋅? f] implies
    validity of [b ⋅? f]. The definition quantifies over all frames, so
    it is not decidable in general; this module provides

    - a brute-force checker for finite cameras (used in tests as ground
      truth), and
    - sound decision procedures for the update patterns the verifier
      relies on (exclusive overwrite, authoritative/local updates).

    The base-logic kernel takes an update oracle as a parameter; the
    oracles below are the building blocks of the one used by the
    verifier, and the test suite cross-checks each against the
    brute-force checker on finite sub-models. *)

(** Ground truth on finite cameras: check every frame in [elements],
    plus the missing frame. *)
let brute_force (type a) (module C : Camera_intf.FINITE with type t = a)
    (a : a) (b : a) =
  let no_frame_ok = C.valid b || not (C.valid a) in
  no_frame_ok
  && List.for_all
       (fun f -> (not (C.valid (C.op a f))) || C.valid (C.op b f))
       C.elements

(** Local update on [nat_add]: [(n, m) ~l~> (n + k, m + k)]. Lifted to
    the authoritative camera this is the counter-increment update
    [● n ⋅ ◯ m ~~> ● (n+k) ⋅ ◯ (m+k)]. *)
let auth_nat_local_update ~auth ~frag ~auth' ~frag' =
  auth >= 0 && frag >= 0 && frag <= auth && auth' - auth = frag' - frag
  && frag' >= 0
