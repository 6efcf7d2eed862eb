(** The daemon's wire protocol.

    One JSON object per line, in both directions, over a Unix-domain
    socket. Four operations:

    {v
    {"op":"verify","name":"swap","id":1}
    {"op":"verify","file":"swap.hl","source":"...","id":2,
     "lint":true,"timeout_ms":500,"retries":2,"seed":7}
    {"op":"lint","name":"swap","id":3,"absint":false}
    {"op":"stats","id":4}
    {"op":"shutdown","id":5}
    v}

    [verify]/[lint] name either a suite entry ([name]) or carry an
    annotated surface program inline ([file] for diagnostics spans +
    [source] text) — the client ships the file's contents, so daemon
    and client need not share a working directory. [id] is an opaque
    client token echoed in the response.

    The optional fields are typed: [lint] and [absint] are booleans,
    [seed] and [retries] integers, [timeout_ms] a number. [lint],
    [absint] and [seed] are the {!Engine.Options} fields and are read
    on both ops ([lint] uses only [absint]); [timeout_ms]/[retries]
    override the daemon's per-request budget on [verify]. An absent
    field takes its default ([lint:false], [absint:true], [seed:0], the
    daemon's budget). A present field of the wrong type is rejected
    with an error response, never defaulted: ["lint":"true"],
    ["absint":0], a fractional or out-of-range integer (beyond ±2^53),
    [retries < 0], and a [timeout_ms] that is not a finite number
    greater than 0.

    Responses always carry ["ok"] and echo ["id"]:

    {v
    {"id":1,"ok":true,"exit":0,"status":"ok","report":{...},"output":"..."}
    {"id":9,"ok":false,"busy":true,"error":"queue full"}
    {"id":3,"ok":false,"error":"unknown entry nope"}
    {"id":4,"ok":true,"stats":{...}}
    {"id":5,"ok":true,"shutdown":true}
    v}

    ["report"] is exactly the CLI's [--json] document ({!Render});
    ["output"] is the CLI's pretty report text; ["exit"] is the CLI's
    0/1/2 exit-code taxonomy (as-expected / program-wrong / gave-up),
    which [daenerys client] propagates. A [busy] response is
    backpressure: the client's queue is full and the request was {e
    not} enqueued — resubmit later. *)

module Options = Engine.Options

type target =
  | Entry of string  (** a suite entry, by name *)
  | Source of { file : string; source : string }
      (** an annotated surface program, shipped inline *)

type verify = {
  id : Json.t;  (** echoed verbatim; [Null] if absent *)
  target : target;
  options : Options.t;
  timeout_ms : float option;  (** per-request deadline override *)
  retries : int option;  (** per-request retry override *)
}

type lint = { id : Json.t; target : target; options : Options.t }

type request =
  | Verify of verify
  | Lint of lint
  | Stats of { id : Json.t }
  | Shutdown of { id : Json.t }

let request_id = function
  | Verify { id; _ } | Lint { id; _ } | Stats { id } | Shutdown { id } -> id

(* --------------------------------------------------------------- *)
(* Decoding *)

let target_of_json v : (target, string) result =
  match (Json.str_member "name" v, Json.str_member "source" v) with
  | Some n, None -> Ok (Entry n)
  | None, Some source ->
      let file = Option.value ~default:"<inline>" (Json.str_member "file" v) in
      Ok (Source { file; source })
  | Some _, Some _ -> Error "request carries both \"name\" and \"source\""
  | None, None -> Error "request needs \"name\" or \"source\""

(** An optional field: [Ok None] when absent, [Error] when present but
    [conv] rejects it. *)
let field k conv ~expected v =
  match Json.member k v with
  | None -> Ok None
  | Some j -> (
      match conv j with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S must be %s" k expected))

(** The JSON shape of each {!Options.kind}: decoder, encoder, and the
    type named in rejection messages. *)
let json_kind : type a.
    a Options.kind -> (Json.t -> a option) * (a -> Json.t) * string =
  function
  | Options.Bool -> (Json.to_bool, (fun b -> Json.Bool b), "a boolean")
  | Options.Int ->
      (Json.to_int, (fun n -> Json.Num (float_of_int n)), "an integer")

let options_of_json v : (Options.t, string) result =
  List.fold_left
    (fun acc (Options.Field f) ->
      let decode, _, expected = json_kind f.kind in
      Result.bind acc (fun o ->
          Result.map
            (Option.fold ~none:o ~some:(f.set o))
            (field f.name decode ~expected v)))
    (Ok Options.default) Options.fields

let where conv ok j =
  Option.bind (conv j) (fun x -> if ok x then Some x else None)

let ( let* ) = Result.bind

let request_of_line line : (request, string) result =
  match Json.parse line with
  | Error m -> Error ("bad JSON: " ^ m)
  | Ok v -> (
      let id = Option.value ~default:Json.Null (Json.member "id" v) in
      match Json.str_member "op" v with
      | Some "verify" ->
          let* target = target_of_json v in
          let* options = options_of_json v in
          let* timeout_ms =
            field "timeout_ms" ~expected:"a finite number > 0"
              (where Json.to_num (fun ms -> Float.is_finite ms && ms > 0.0))
              v
          in
          let* retries =
            field "retries" ~expected:"an integer >= 0"
              (where Json.to_int (fun r -> r >= 0))
              v
          in
          Ok (Verify { id; target; options; timeout_ms; retries })
      | Some "lint" ->
          let* target = target_of_json v in
          let* options = options_of_json v in
          Ok (Lint { id; target; options })
      | Some "stats" -> Ok (Stats { id })
      | Some "shutdown" -> Ok (Shutdown { id })
      | Some op -> Error (Printf.sprintf "unknown op %S" op)
      | None -> Error "request needs an \"op\" field")

(* --------------------------------------------------------------- *)
(* Encoding (client side) *)

let target_fields = function
  | Entry n -> [ ("name", Json.Str n) ]
  | Source { file; source } ->
      [ ("file", Json.Str file); ("source", Json.Str source) ]

(** Only the fields that differ from {!Options.default}: the decoder
    fills the rest back in. *)
let options_fields (o : Options.t) =
  List.filter_map
    (fun (Options.Field f) ->
      let v = f.get o in
      if v = f.get Options.default then None
      else
        let _, encode, _ = json_kind f.kind in
        Some (f.name, encode v))
    Options.fields

let optional k encode = function Some x -> [ (k, encode x) ] | None -> []

let json_of_request req =
  let op name id rest =
    Json.Obj (("op", Json.Str name) :: ("id", id) :: rest)
  in
  match req with
  | Verify { id; target; options; timeout_ms; retries } ->
      op "verify" id
        (target_fields target @ options_fields options
        @ optional "timeout_ms" (fun ms -> Json.Num ms) timeout_ms
        @ optional "retries" (fun r -> Json.Num (float_of_int r)) retries)
  | Lint { id; target; options } ->
      op "lint" id (target_fields target @ options_fields options)
  | Stats { id } -> op "stats" id []
  | Shutdown { id } -> op "shutdown" id []

let verify_request ?(id = Json.Null) ?lint ?absint ?seed ?timeout_ms ?retries
    target =
  let options = Options.make ?lint ?absint ?seed () in
  json_of_request (Verify { id; target; options; timeout_ms; retries })

let lint_request ?(id = Json.Null) ?absint target =
  json_of_request (Lint { id; target; options = Options.make ?absint () })

let stats_request ?(id = Json.Null) () = json_of_request (Stats { id })
let shutdown_request ?(id = Json.Null) () = json_of_request (Shutdown { id })

(* --------------------------------------------------------------- *)
(* Response construction (daemon side) *)

let response ~id fields = Json.Obj (("id", id) :: fields)

(** Error responses carry machine-readable retry metadata alongside
    the message: [busy] marks backpressure (the request was not
    enqueued), [retryable] marks transient daemon-side failures (an
    injected fault, a crashed or preempted worker, a quarantined
    digest in cooldown) that an idempotent resubmission may well
    succeed at, and [retry_after_ms] hints how long to back off first.
    Errors without [busy]/[retryable] — unknown entry, parse error —
    are judgements about the request and retrying them is pointless. *)
let error_response ~id ?(busy = false) ?(retryable = false) ?retry_after_ms msg
    =
  response ~id
    ([ ("ok", Json.Bool false) ]
    @ (if busy then [ ("busy", Json.Bool true) ] else [])
    @ (if retryable || busy then [ ("retryable", Json.Bool true) ] else [])
    @ (match retry_after_ms with
      | Some ms -> [ ("retry_after_ms", Json.Num (Float.max 0.0 ms)) ]
      | None -> [])
    @ [ ("error", Json.Str msg) ])

let line v = Json.to_string v ^ "\n"
