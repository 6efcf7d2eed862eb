(** Report rendering shared by the CLI and the daemon.

    Lifted out of [bin/daenerys.ml] so that [daenerys suite --json],
    [daenerys verify --json] and the daemon's [verify] responses are
    produced by literally the same code — a client talking to the
    daemon sees the same JSON the CLI would print, and the daemon's
    pretty [output] field matches the CLI's report lines. *)

module V = Verifier.Exec
module E = Engine

(** How one entry behaved against its expectation. [Gave_up] is
    neither good nor bad: the verifier abstained (timeout, resource
    exhaustion, crash) without finding anything wrong, so neither
    "verified" nor "rejected" may be claimed. *)
type status = Good | Bad | Gave_up

let status_string = function
  | Good -> "ok"
  | Bad -> "misbehaved"
  | Gave_up -> "gave_up"

let entry_status ~expect_fail (g : E.group_result) =
  let failed =
    List.exists
      (fun (_, o) -> match o with V.Failed _ -> true | _ -> false)
      g.E.outcomes
  in
  if failed then if expect_fail then Good else Bad
  else if E.group_ok g then if expect_fail then Bad else Good
  else Gave_up

(* Exit codes (also in the README): the program is wrong vs. the
   verifier gave up. *)
let exit_ok = 0
let exit_wrong = 1
let exit_gave_up = 2

(** Fold entry statuses into an exit code: any [Bad] means the run
    found (or wrongly produced) a failure — exit 1; otherwise any
    [Gave_up] taints completeness — exit 2. *)
let exit_of_statuses statuses =
  if List.mem Bad statuses then exit_wrong
  else if List.mem Gave_up statuses then exit_gave_up
  else exit_ok

let exit_of_status = function
  | Good -> exit_ok
  | Bad -> exit_wrong
  | Gave_up -> exit_gave_up

(* ------------------------------------------------------------------ *)
(* JSON *)

let json_of_outcome (o : V.outcome) =
  let kind, msg =
    match o with
    | V.Verified -> ("verified", None)
    | V.Failed m -> ("failed", Some m)
    | V.Timeout m -> ("timeout", Some m)
    | V.Resource_out m -> ("resource_out", Some m)
    | V.Crashed { V.exn; _ } -> ("crashed", Some exn)
  in
  match msg with
  | None -> Printf.sprintf {|{"kind":"%s"}|} kind
  | Some m ->
      Printf.sprintf {|{"kind":"%s","message":"%s"}|} kind (Json.escape m)

(** [rows]: one (name, expect_fail, status) triple per report group.
    The stats block is every counter of the run ({!Engine.counters}),
    including the ones the daemon's acceptance test watches: a warm
    repeat request must show [queries = 0] with the group answered by a
    verdict-cache tier. *)
let json_of_report (report : E.report) rows =
  let entries =
    List.map2
      (fun (name, expect_fail, status) g ->
        let procs =
          List.map
            (fun (p, o) ->
              Printf.sprintf {|{"proc":"%s","outcome":%s}|} (Json.escape p)
                (json_of_outcome o))
            g.E.outcomes
        in
        Printf.sprintf
          {|{"entry":"%s","expect_fail":%b,"status":"%s","ms":%.1f,"procs":[%s]}|}
          (Json.escape name) expect_fail (status_string status) g.E.ms
          (String.concat "," procs))
      rows report.E.groups
  in
  (* Every daemon reply, cache hits included, renders ~40 counters:
     into one buffer, without [Printf], and single digits (most of them
     on a hit) without any conversion. *)
  let b = Buffer.create 1024 in
  Buffer.add_string b {|{"entries":[|};
  Buffer.add_string b (String.concat "," entries);
  Buffer.add_string b {|],"stats":{|};
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Buffer.add_string b k;
      Buffer.add_string b {|":|};
      match v with
      | `Int n when n >= 0 && n < 10 -> Buffer.add_char b (Char.chr (48 + n))
      | v -> Buffer.add_string b (Stdx.Counters.value_to_string v))
    (E.counters report.E.stats);
  Buffer.add_string b "}}";
  Buffer.contents b

(** Compact (single-line) diagnostics array, for the wire.
    [Diag.list_to_json] pretty-prints across lines; the protocol is
    newline-delimited. *)
let json_of_diags ds =
  Printf.sprintf "[%s]" (String.concat "," (List.map Diag.to_json ds))

(* ------------------------------------------------------------------ *)
(* Pretty text (the daemon's [output] field = the CLI's report lines) *)

let verdict_line ~expect_fail status =
  match (status, expect_fail) with
  | Good, false -> "VERIFIED"
  | Good, true -> "rejected (as expected)"
  | Bad, true -> "VERIFIED — BUT THIS ENTRY MUST FAIL"
  | Bad, false -> "FAILED"
  | Gave_up, _ -> "GAVE UP"

let pp_group_outcomes ppf (g : E.group_result) =
  List.iter
    (fun (p, o) -> Fmt.pf ppf "  proc %-12s %a@." p V.pp_outcome o)
    g.E.outcomes

(** One entry's report block: per-procedure outcomes, then the verdict
    line. *)
let group_text ~name ~expect_fail status (g : E.group_result) =
  Fmt.str "%a%-14s %-24s %6.1fms@." pp_group_outcomes g name
    (verdict_line ~expect_fail status)
    g.E.ms
