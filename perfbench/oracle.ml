(** Known answers for the [examples/*.hl] programs, as verified with
    ["lint":true] (the daemon_edit request shape).

    Written by hand from each file's own header comment, not taken from
    the verifier: a verdict that moves is a failure of the run. With
    lint on, a program carrying an error-severity diagnostic is gated
    and every procedure reports [Failed], so the DA error twins count
    as negatives even where the verifier alone would succeed
    (da020's contradictory precondition verifies vacuously). *)

type answer = Verifies | Fails

let table : (string * answer) list =
  [
    ("bad_swap.hl", Fails) (* wrong postcondition *);
    ("bank.hl", Verifies);
    ("broken.hl", Fails) (* DA001: undefined predicate *);
    ("clamp.hl", Verifies);
    ("count.hl", Verifies);
    ("da018_div_zero.hl", Fails) (* DA018 error *);
    ("da019_dead_branch.hl", Verifies) (* DA019 is a warning *);
    ("da020_contradictory.hl", Fails) (* DA020 error gates it *);
    ("da021_false_ensures.hl", Fails) (* DA021 error *);
    ("da022_weak_inv.hl", Verifies);
    ("da023_redundant_stab.hl", Verifies);
    ("da024_unused_param.hl", Verifies);
    ("da025_no_variant.hl", Verifies);
    ("da026_nested_atomic.hl", Fails) (* DA026 error *);
    ("da027_racy_par.hl", Fails) (* branches own nothing *);
    ("da028_unstable_inv.hl", Fails) (* DA028 error *);
    ("list_length.hl", Verifies);
    ("lock_noinv.hl", Fails) (* the CAS has no invariant to open *);
    ("max3.hl", Verifies);
    ("shared_read.hl", Verifies);
    ("spinlock.hl", Verifies);
    ("swap.hl", Verifies);
    ("swap_client.hl", Verifies);
    ("ticket_lock.hl", Verifies);
    ("treiber.hl", Verifies);
  ]

(** [.hl] files in [dir] that the table does not cover, and table rows
    whose file is gone. Both must be empty. *)
let coverage dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".hl")
  in
  ( List.filter (fun f -> not (List.mem_assoc f table)) files,
    List.filter (fun (f, _) -> not (List.mem f files)) table |> List.map fst )
