(** Spans recorded by the benchmark around its own calls into the
    verifier's layers.

    A span is a name, the domain that ran it, a start and stop time,
    and the counter deltas observed at its boundaries. Spans are kept
    in memory and written out once, as Chrome trace-event JSON that
    Perfetto opens. When recording is off, {!with_} costs one atomic
    read. *)

type t = {
  name : string;
  tid : int;  (** the recording domain *)
  start : float;  (** seconds since the epoch *)
  stop : float;
  args : (string * float) list;  (** counter deltas across the span *)
}

(** Whether a domain records spans until it calls {!set_recording}. *)
let default = Atomic.make false

let recording = Domain.DLS.new_key (fun () -> ref (Atomic.get default))

(** Turn recording on or off for the calling domain. *)
let set_recording b = Domain.DLS.get recording := b

let lock = Mutex.create ()
let spans : t list ref = ref []

let record s = Mutex.protect lock (fun () -> spans := s :: !spans)

(** [with_ name f] runs [f] inside a span. [args] is called with the
    result once [f] returns, to attach counter deltas. *)
let with_ ?(args = fun _ -> []) name f =
  if not !(Domain.DLS.get recording) then f ()
  else begin
    let start = Unix.gettimeofday () in
    let r = f () in
    let stop = Unix.gettimeofday () in
    record
      {
        name;
        tid = (Domain.self () :> int);
        start;
        stop;
        args = args r;
      };
    r
  end

let all () = Mutex.protect lock (fun () -> List.rev !spans)

(** Self time of each span: its duration minus the part covered by its
    direct children (spans of the same domain nested inside it).
    Returned in {!all} order. *)
let self_times (ss : t list) : (t * float) list =
  let by_tid = Hashtbl.create 4 in
  List.iteri
    (fun i s ->
      Hashtbl.replace by_tid s.tid
        ((i, s) :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    ss;
  let child = Array.make (List.length ss) 0.0 in
  Hashtbl.iter
    (fun _ lst ->
      let sorted =
        List.sort
          (fun (_, a) (_, b) ->
            match compare a.start b.start with
            | 0 -> compare b.stop a.stop
            | c -> c)
          lst
      in
      let stack = ref [] in
      List.iter
        (fun (i, s) ->
          let rec pop () =
            match !stack with
            | (_, p) :: rest when p.stop <= s.start ->
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (pi, _) :: _ -> child.(pi) <- child.(pi) +. (s.stop -. s.start)
          | [] -> ());
          stack := (i, s) :: !stack)
        sorted)
    by_tid;
  List.mapi (fun i s -> (s, s.stop -. s.start -. child.(i))) ss

(** Chrome trace-event JSON ("X" complete events, microseconds). *)
let to_chrome (ss : t list) : Server.Json.t =
  let module J = Server.Json in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity ss in
  let us x = J.Raw (Printf.sprintf "%.3f" (x *. 1e6)) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.Str s.name);
                   ("cat", J.Str "perfbench");
                   ("ph", J.Str "X");
                   ("pid", J.Num 1.0);
                   ("tid", J.Num (float_of_int s.tid));
                   ("ts", us (s.start -. t0));
                   ("dur", us (s.stop -. s.start));
                   ( "args",
                     J.Obj
                       (List.map
                          (fun (k, v) -> (k, J.Raw (Printf.sprintf "%.17g" v)))
                          s.args) );
                 ])
             ss) );
      ("displayTimeUnit", J.Str "ms");
    ]
