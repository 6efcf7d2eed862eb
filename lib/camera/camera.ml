(** Cameras (resource algebras): the semantic model of Iris ghost state.

    See {!Camera_intf} for the interfaces and laws. *)

module Intf = Camera_intf

module type S = Camera_intf.S
module type UNITAL = Camera_intf.UNITAL
module type FINITE = Camera_intf.FINITE

module Excl = Excl
module Agree = Agree
module Frac = Frac
module Nat_add = Nat_add
module Max_nat = Max_nat
module Option_ra = Option_ra
module Prod = Prod
module Gmap = Gmap
module Auth = Auth
module Updates = Updates
module Registry = Registry
