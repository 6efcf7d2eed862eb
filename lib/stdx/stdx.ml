(** Entry point for the utility substrate. *)

module Budget = Budget
module Checked = Checked
module Counters = Counters
module Fault = Fault
module Watchdog = Watchdog
module Iox = Iox
module Loc = Loc
module Q = Q
module Union_find = Union_find
module Gensym = Gensym
module Listx = Listx
module Smap = Smap
