(** Camera-law tests: every instance satisfies the RA axioms, the
    decidable inclusion agrees with witness search on finite carriers,
    and the exclusive overwrite is frame-preserving by brute force. *)

open Camera
open Stdx

(* A generic law-checker over a finite carrier. *)
module Laws (C : Camera.FINITE) = struct
  let elements = C.elements

  let for_all2 f = List.for_all (fun a -> List.for_all (f a) elements) elements

  let for_all3 f =
    List.for_all
      (fun a ->
        List.for_all
          (fun b -> List.for_all (fun c -> f a b c) elements)
          elements)
      elements

  let assoc () = for_all3 (fun a b c -> C.equal (C.op a (C.op b c)) (C.op (C.op a b) c))
  let comm () = for_all2 (fun a b -> C.equal (C.op a b) (C.op b a))

  let valid_op () =
    for_all2 (fun a b -> (not (C.valid (C.op a b))) || C.valid a)

  let core_idem () =
    List.for_all
      (fun a ->
        match C.pcore a with
        | None -> true
        | Some ca -> (
            C.equal (C.op ca a) a
            && match C.pcore ca with Some cca -> C.equal cca ca | None -> false))
      elements

  let included_correct () =
    for_all2 (fun a b ->
        let witness = List.exists (fun c -> C.equal (C.op a c) b) elements in
        (* decidable inclusion must cover every witnessed extension *)
        (not witness) || C.included a b || C.equal a b)

  let all name =
    [
      (name ^ "-assoc", assoc);
      (name ^ "-comm", comm);
      (name ^ "-valid-op", valid_op);
      (name ^ "-core-idem", core_idem);
      (name ^ "-included", included_correct);
    ]
end

(* Finite instances *)

module ExclBool = struct
  include Excl.Make (struct
    type t = bool

    let pp = Fmt.bool
    let equal = Bool.equal
  end)

  let elements = [ Excl true; Excl false; Bot ]
end

module AgreeInt = struct
  include Agree.Make (struct
    type t = int

    let pp = Fmt.int
    let equal = Int.equal
    let compare = Int.compare
  end)

  let elements =
    [ of_elt 0; of_elt 1; of_elt 2; op (of_elt 0) (of_elt 1);
      op (of_elt 1) (of_elt 2) ]
end

module FracF = struct
  include Frac

  let elements = Stdx.Q.[ mk 1 4; half; mk 3 4; one; mk 5 4; mk 3 2 ]
end

module NatF = struct
  include Nat_add

  let elements = [ -1; 0; 1; 2; 3 ]
end

module MaxF = struct
  include Max_nat

  let elements = [ 0; 1; 2; 3 ]
end

module ProdF = struct
  include Prod.Make (FracF) (MaxF)

  let elements =
    List.concat_map
      (fun a -> List.map (fun b -> (a, b)) [ 0; 1; 2 ])
      Stdx.Q.[ half; one; mk 3 2 ]
end

module OptF = struct
  include Option_ra.Make (ExclBool)

  let elements = None :: List.map (fun e -> Some e) ExclBool.elements
end

module AuthNatF = struct
  include Auth.Make (NatF)

  let elements =
    let frags = [ -1; 0; 1; 2 ] in
    List.map frag frags
    @ List.concat_map (fun a -> List.map (fun f -> both a f) frags) [ 0; 1; 2 ]
end

module GmapF = struct
  include
    Gmap.Make
      (struct
        include Smap

        let pp_key = Fmt.string
      end)
      (ExclBool)

  let elements =
    Smap.
      [
        unit;
        singleton "x" (ExclBool.Excl true);
        singleton "x" (ExclBool.Excl false);
        singleton "y" (ExclBool.Excl true);
        op (singleton "x" (ExclBool.Excl true))
          (singleton "y" (ExclBool.Excl false));
        singleton "x" ExclBool.Bot;
      ]
end

(* On valid operands, the composite-when-valid shortcut is [op] then
   [valid]. *)
let gmap_op_if_valid () =
  let valid = List.filter GmapF.valid GmapF.elements in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          let ab = GmapF.op a b in
          Option.equal GmapF.equal (GmapF.op_if_valid a b)
            (if GmapF.valid ab then Some ab else None))
        valid)
    valid

let law_cases =
  let module L1 = Laws (ExclBool) in
  let module L2 = Laws (AgreeInt) in
  let module L3 = Laws (FracF) in
  let module L4 = Laws (NatF) in
  let module L5 = Laws (MaxF) in
  let module L6 = Laws (ProdF) in
  let module L7 = Laws (OptF) in
  let module L8 = Laws (AuthNatF) in
  let module L9 = Laws (GmapF) in
  List.concat
    [
      L1.all "excl"; L2.all "agree"; L3.all "frac"; L4.all "nat";
      L5.all "maxnat"; L6.all "prod"; L7.all "option"; L8.all "auth";
      L9.all "gmap";
      [ ("gmap-op-if-valid", gmap_op_if_valid) ];
    ]
  |> List.map (fun (name, f) ->
         Alcotest.test_case name `Quick (fun () ->
             Alcotest.(check bool) name true (f ())))

(* Frame-preserving updates: the exclusive overwrite vs brute force. The
   symbolic update patterns are checked against brute force in
   test_baselogic. *)

let test_excl_update () =
  (* Excl a ~~> Excl b unconditionally. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let expected =
            Updates.brute_force (module ExclBool) a b
          in
          let oracle = ExclBool.valid b || not (ExclBool.valid a) in
          Alcotest.(check bool) "excl fpu" expected oracle)
        ExclBool.elements)
    ExclBool.elements

(* Registry: typed injection, cross-camera isolation. *)

module RegNat = Registry.Register (struct
  include Nat_add

  let name = "nat"
end) ()

module RegExcl = Registry.Register (struct
  include ExclBool

  let name = "excl"
end) ()

let test_registry () =
  let p1 = RegNat.inject 3 in
  let p2 = RegExcl.inject (ExclBool.Excl true) in
  Alcotest.(check (option int)) "roundtrip" (Some 3) (RegNat.project p1);
  Alcotest.(check bool) "cross-project" true (RegNat.project p2 = None);
  Alcotest.(check bool) "cross-op invalid" false
    (Registry.Packed.valid (Registry.Packed.op p1 p2));
  Alcotest.(check bool) "same-cell op" true
    (Registry.Packed.valid (Registry.Packed.op p1 (RegNat.inject 2)));
  Alcotest.(check (option int)) "op value" (Some 5)
    (RegNat.project (Registry.Packed.op p1 (RegNat.inject 2)))

let test_ghost_map () =
  let module GM = Registry.Ghost_map in
  let m1 = Smap.singleton "γ1" (RegNat.inject 1) in
  let m2 = Smap.singleton "γ1" (RegNat.inject 2) in
  let m3 = Smap.singleton "γ2" (RegExcl.inject (ExclBool.Excl true)) in
  Alcotest.(check bool) "disjoint valid" true (GM.valid (GM.op m1 m3));
  Alcotest.(check bool) "same-key nat adds" true (GM.valid (GM.op m1 m2));
  Alcotest.(check (option int)) "pointwise op" (Some 3)
    (Option.bind (Smap.find_opt "γ1" (GM.op m1 m2)) RegNat.project);
  Alcotest.(check bool) "same-key excl invalid" false
    (GM.valid (GM.op m3 m3))

let () =
  Alcotest.run "camera"
    [
      ("laws", law_cases);
      ( "updates",
        [
          Alcotest.test_case "excl" `Quick test_excl_update;
        ] );
      ( "registry",
        [
          Alcotest.test_case "inject-project" `Quick test_registry;
          Alcotest.test_case "ghost-map" `Quick test_ghost_map;
        ] );
    ]
