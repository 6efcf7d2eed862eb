(** Client side of the daemon protocol.

    Thin by design: connect, send one JSON line, read one JSON line.
    The CLI's [daenerys client], the test suite, and the benchmark
    harness all drive the daemon through this module, so "the client"
    in every claim below is one piece of code.

    The {!session} layer adds resilience on top of the bare
    connection: reconnect with jittered exponential backoff, and
    idempotent retry of [busy]/[retryable]/transport failures — see
    {!request}. *)

type t = {
  fd : Unix.file_descr;
  rd : Stdx.Iox.line_reader;
}

let connect path : (t, string) result =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; rd = Stdx.Iox.line_reader fd }
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))

(** Connect, retrying while the daemon is still starting up (tests and
    the benchmark harness race the daemon's bind). *)
let rec connect_retry ?(attempts = 100) ?(delay = 0.05) path =
  match connect path with
  | Ok _ as ok -> ok
  | Error _ as e ->
      if attempts <= 1 then e
      else begin
        Unix.sleepf delay;
        connect_retry ~attempts:(attempts - 1) ~delay path
      end

let close t = try Unix.close t.fd with _ -> ()

let send t (req : Json.t) = Stdx.Iox.write_all t.fd (Protocol.line req)

let recv t : (Json.t, string) result =
  match Stdx.Iox.read_line t.rd with
  | None -> Error "connection closed by daemon"
  | Some l -> (
      match Json.parse l with
      | Ok _ as v -> v
      | Error m -> Error ("bad response: " ^ m))

(** One round trip. Requests pipelined with bare {!send}/{!recv} come
    back in FIFO order per connection (verify/lint; [stats] and error
    responses are answered inline and may overtake — correlate by
    [id]). *)
let rpc t req : (Json.t, string) result =
  match send t req with
  | () -> recv t
  | exception Unix.Unix_error (e, _, _) ->
      Error ("send: " ^ Unix.error_message e)

(* --------------------------------------------------------------- *)
(* Resilient sessions: reconnect + idempotent retry *)

(** Retry policy for a {!session}. [attempts] bounds total tries per
    request (1 = no retry); between tries the client sleeps an
    exponentially growing, jittered backoff from [base_delay_ms]
    (doubling per attempt, capped at [max_delay_ms]), or the daemon's
    own [retry_after_ms] hint when that is larger. *)
type retry = {
  attempts : int;
  base_delay_ms : float;
  max_delay_ms : float;
}

let default_retry = { attempts = 5; base_delay_ms = 50.0; max_delay_ms = 2_000.0 }

(** A lazily-connected, self-healing connection. The protocol's
    requests are idempotent — verdicts are deterministic and cached,
    so re-asking is always safe — which makes blind retry of [busy],
    [retryable] and transport failures correct: a retried request
    converges to the same response a fault-free run would have
    produced. *)
type session = {
  path : string;
  retry : retry;
  mutable conn : t option;
  mutable draws : int;  (** jitter counter (deterministic, seedless) *)
}

let open_session ?(retry = default_retry) path =
  { path; retry; conn = None; draws = 0 }

let close_session s =
  (match s.conn with Some c -> close c | None -> ());
  s.conn <- None

let session_conn s =
  match s.conn with
  | Some c -> Ok c
  | None -> (
      match connect s.path with
      | Ok c ->
          s.conn <- Some c;
          Ok c
      | Error _ as e -> e)

(* Full-jitter-ish backoff without a global RNG: the jitter draw is a
   hash of the session's draw counter (the same trick as
   [Stdx.Fault]), so two clients hammering a busy daemon desynchronize
   while each stays reproducible. *)
let backoff_ms s ~attempt ~hint =
  s.draws <- s.draws + 1;
  let base = s.retry.base_delay_ms *. (2.0 ** float_of_int (attempt - 1)) in
  let jitter =
    float_of_int (Hashtbl.hash (s.draws, attempt, s.path) land 0xff) /. 255.0
  in
  Float.max hint (Float.min s.retry.max_delay_ms (base *. (0.5 +. jitter)))

(** How a {!request} ultimately fails. *)
type session_error =
  | Fatal of string
      (** the daemon's judgement about the request (unknown entry,
          parse error) — retrying is pointless, the program is wrong *)
  | Unavailable of string
      (** transport failure or transient daemon-side failure that
          outlived the retry budget — nothing was judged; the honest
          exit code is "gave up", not "wrong" *)

let retryable_resp resp =
  Option.value ~default:false (Json.bool_member "retryable" resp)
  || Option.value ~default:false (Json.bool_member "busy" resp)

(** One request with the session's retry policy: reconnects after
    connection resets (and a daemon restart — the disk cache makes the
    new daemon answer like the old one), backs off and resubmits on
    [busy]/[retryable] responses, honouring the daemon's
    [retry_after_ms] hint. Returns the first [ok] response, [Fatal]
    for a non-retryable error response, or [Unavailable] once the
    attempt budget is spent. *)
let request s req : (Json.t, session_error) result =
  let attempts = max 1 s.retry.attempts in
  let rec go attempt =
    let outcome =
      match session_conn s with
      | Error m -> `Down m
      | Ok c -> (
          match rpc c req with
          | Ok resp ->
              if Option.value ~default:false (Json.bool_member "ok" resp) then
                `Ok resp
              else
                let msg =
                  Option.value ~default:"daemon error"
                    (Json.str_member "error" resp)
                in
                if retryable_resp resp then
                  `Retry
                    ( msg,
                      Option.value ~default:0.0
                        (Json.num_member "retry_after_ms" resp) )
                else `Fatal msg
          | Error m ->
              (* The stream is unusable mid-request (reset, torn line):
                 drop it so the next attempt reconnects fresh. *)
              close c;
              s.conn <- None;
              `Down m)
    in
    match outcome with
    | `Ok resp -> Ok resp
    | `Fatal m -> Error (Fatal m)
    | (`Retry _ | `Down _) as r ->
        let msg, hint =
          match r with `Retry (m, h) -> (m, h) | `Down m -> (m, 0.0)
        in
        if attempt >= attempts then Error (Unavailable msg)
        else begin
          Unix.sleepf (backoff_ms s ~attempt ~hint /. 1000.0);
          go (attempt + 1)
        end
  in
  go 1
