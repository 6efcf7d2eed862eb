(** Camera (resource algebra) interfaces.

    A camera is the Iris notion of a resource: a partial commutative
    monoid with a validity predicate and a partial "core" extracting the
    duplicable part of an element. This development uses *discrete*
    cameras — validity and equality do not depend on the step index —
    which is the fragment needed for the ghost state of the verifier.
    Step-indexing lives entirely in the base logic ([Baselogic]), where
    the later modality counts down a semantic step index.

    Laws (checked on finite carriers in [test/test_camera.ml]):
    - [op] is associative and commutative;
    - validity is down-closed: [valid (op a b)] implies [valid a];
    - if [pcore a = Some ca] then [op ca a = a], [pcore ca = Some ca],
      and the core is monotone w.r.t. inclusion;
    - [included a b] decides the extension order [∃ c. b ≡ op a c]. *)

module type S = sig
  type t

  val pp : t Fmt.t
  val equal : t -> t -> bool

  val valid : t -> bool
  (** Validity. Composition of conflicting resources (two full
      fractions, two different exclusive values, …) yields an invalid
      element rather than being undefined. *)

  val op : t -> t -> t
  (** Resource composition [a ⋅ b]. Total; invalidity marks conflicts. *)

  val pcore : t -> t option
  (** The partial core [|a|]: the maximal duplicable part, if any. *)

  val included : t -> t -> bool
  (** [included a b] iff [∃ c. b ≡ op a c]. Every instance implements
      this directly (and tests cross-check it against enumeration on
      finite sub-models). *)
end

module type UNITAL = sig
  include S

  val unit : t
  (** [valid unit], [op unit a = a], and [pcore unit = Some unit]. *)
end

(** A camera together with a finite enumeration of (a subset of) its
    elements, used to model-check logic rules in tests and to validate
    frame-preserving updates by brute force. *)
module type FINITE = sig
  include S

  val elements : t list
end
