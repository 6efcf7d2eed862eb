(** Frame-preserving updates.

    A frame-preserving update [a ~~> b] permits replacing ownership of
    [a] by ownership of [b] under the update modality: for every frame
    [f] (including the absent frame), validity of [a ⋅? f] implies
    validity of [b ⋅? f]. The definition quantifies over all frames, so
    it is not decidable in general; this module gives the brute-force
    ground truth on finite cameras. The symbolic update patterns the
    verifier relies on ([Baselogic.Ghost_val.update]) are checked
    against it by QCheck in [test/test_baselogic.ml]. *)

(** Ground truth on finite cameras: check every frame in [elements],
    plus the missing frame. *)
let brute_force (type a) (module C : Camera_intf.FINITE with type t = a)
    (a : a) (b : a) =
  let no_frame_ok = C.valid b || not (C.valid a) in
  no_frame_ok
  && List.for_all
       (fun f -> (not (C.valid (C.op a f))) || C.valid (C.op b f))
       C.elements
