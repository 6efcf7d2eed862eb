(** A two-tier content-addressed cache of whole-group verdicts.

    An entry is everything a warm reply needs: the per-procedure
    outcomes of one verification group and the rendered lint-findings
    text that preceded them (empty when lint is off). Entries are
    keyed on {e request content} (a suite entry's name, a surface
    program's file name and source text); we address them by the MD5
    digest of that key. This is the daemon's warm path: a repeat
    request for an unchanged program is answered here before any of
    the front end runs — no parse, elaboration, lint or abstract
    interpretation, no symbolic execution, no solver work at all.

    {b Tier 1} is an in-memory table: a mutex-guarded hashtable shared
    by every worker domain. {b Tier 2} is an optional persistent
    on-disk store (one file per digest under a cache directory), so
    verdicts survive process restarts — the substrate of the
    [daenerys serve] daemon, where a repeat request must be a pure
    cache hit even across daemon generations. A memory miss probes the
    disk; a disk hit is promoted into memory, so the second probe is a
    memory hit.

    Disk entries are defensive on three axes:

    - {b torn writes}: entries are written to a temp file and
      published with an atomic [rename], so a concurrent daemon (or a
      crash mid-write) never observes a partial entry;
    - {b corruption}: the file carries the payload's digest; a read
      that fails re-digesting, unmarshalling, or decoding is {e
      evicted and counted as a miss} (the [corrupt] counter makes such
      events visible), exactly like the in-memory validation —
      corruption can cost a re-verification but can never resurface
      as a wrong verdict;
    - {b stale builds}: the binary's build fingerprint (digest of the
      executable) is folded into the on-disk file name {e and} stored
      in the entry, so a rebuilt verifier never replays verdicts
      produced by different code.

    The disk tier is size-bounded: an in-memory index (rebuilt from
    the directory at [create]) tracks per-entry sizes and a logical
    LRU clock; stores that push the total over [max_bytes] evict the
    least-recently-used entries. Eviction and loads tolerate files
    vanishing underneath them — several daemons may share a directory.

    Hit, miss and corruption counters are per-instance atomics that
    accumulate for the cache's lifetime (the daemon's [stats] request
    reports these). *)

type entry = {
  payload : string;  (** [Marshal]ed {!verdicts} *)
  digest : string;  (** MD5 of [payload], checked on every read *)
}

(* --------------------------------------------------------------- *)
(* The on-disk tier *)

(** The running binary's build fingerprint: a digest of the executable
    itself, so any rebuild — even one that only changes solver
    internals — keys a disjoint set of on-disk entries. *)
let build_fingerprint =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with _ -> "unknown-build")

type disk_meta = { size : int; mutable stamp : int (* LRU clock *) }

(** What the startup recovery scan found and repaired. A kill -9 can
    interrupt the store protocol at two points — after the temp write
    but before the [rename] (orphaned [.tmp.*] litter), and between an
    eviction's journal write and its deletes (a journal left behind) —
    and although [rename] itself is atomic, entries can still be torn
    by the filesystem or by siblings writing the path directly. All
    three are detected and repaired before the cache serves its first
    probe. *)
type recovery = {
  mutable tmp_swept : int;  (** orphaned temp files removed *)
  mutable torn_quarantined : int;  (** undecodable entries moved aside *)
  mutable journal_replayed : int;  (** eviction intents completed *)
}

let no_recovery () = { tmp_swept = 0; torn_quarantined = 0; journal_replayed = 0 }

type disk = {
  dir : string;
  max_bytes : int;
  fingerprint : string;
  dlock : Mutex.t;  (** guards [index], [total], [clock] *)
  index : (string, disk_meta) Hashtbl.t;  (** hex file key -> meta *)
  mutable total : int;  (** bytes accounted in [index] *)
  mutable clock : int;
  tmp_seq : int Atomic.t;  (** unique temp-file names within a process *)
  recovery : recovery;  (** what the startup scan repaired *)
}

type t = {
  tbl : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  hits : int Atomic.t;
  disk_hits : int Atomic.t;
  misses : int Atomic.t;
  corrupt : int Atomic.t;
  disk : disk option;
}

let suffix = ".vc"

(** The on-disk key folds the build fingerprint into the address, so a
    rebuilt binary cannot even {e name} a stale entry. *)
let disk_key (d : disk) key =
  Digest.to_hex (Digest.string (d.fingerprint ^ "\x00" ^ key))

let disk_path (d : disk) hex = Filename.concat d.dir (hex ^ suffix)

(** Rebuild the size/LRU index by scanning the directory; entry mtimes
    seed the LRU order across restarts. Unreadable files are skipped
    (a sibling daemon may be mid-eviction). *)
let scan_dir dir (index : (string, disk_meta) Hashtbl.t) =
  let files =
    match Sys.readdir dir with exception _ -> [||] | fs -> fs
  in
  let stamped =
    Array.to_list files
    |> List.filter_map (fun f ->
           if not (Filename.check_suffix f suffix) then None
           else
             match Unix.stat (Filename.concat dir f) with
             | { Unix.st_size; st_mtime; _ } ->
                 Some (Filename.chop_suffix f suffix, st_size, st_mtime)
             | exception _ -> None)
    |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
  in
  let total = ref 0 and clock = ref 0 in
  List.iter
    (fun (hex, size, _) ->
      incr clock;
      total := !total + size;
      Hashtbl.replace index hex { size; stamp = !clock })
    stamped;
  (!total, !clock)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(** Does the entry's payload still match the digest it was stored
    with? *)
let valid (e : entry) = String.equal (Digest.string e.payload) e.digest

(* --- disk primitives ------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Drop [hex] from the directory and the index. Tolerates the file
    already being gone (another daemon evicted it first). *)
let disk_remove (d : disk) hex =
  Mutex.protect d.dlock (fun () ->
      match Hashtbl.find_opt d.index hex with
      | Some m ->
          Hashtbl.remove d.index hex;
          d.total <- d.total - m.size
      | None -> ());
  try Sys.remove (disk_path d hex) with _ -> ()

(** Evict least-recently-used entries until the accounted total fits.
    Called with fresh stores; the just-written entry carries the
    highest stamp, so it is evicted only if it alone exceeds the
    bound.

    The pass is {e journaled}: the full victim list is computed under
    the lock, written to an [evict.<pid>.<seq>.journal] file (published
    atomically, like entries), and only then deleted. A crash anywhere
    in the window leaves either no journal (nothing lost) or a journal
    whose replay at the next startup completes exactly the deletes
    that were already condemned — the index and the directory can
    never silently disagree. *)
let disk_evict_to_bound (d : disk) =
  let victims =
    Mutex.protect d.dlock (fun () ->
        if d.total <= d.max_bytes then []
        else begin
          let entries =
            Hashtbl.fold (fun hex m acc -> (hex, m) :: acc) d.index []
            |> List.sort (fun (_, a) (_, b) -> compare a.stamp b.stamp)
          in
          let rec condemn acc total = function
            | [] -> acc
            | _ when total <= d.max_bytes -> acc
            | (hex, m) :: rest -> condemn (hex :: acc) (total - m.size) rest
          in
          condemn [] d.total entries
        end)
  in
  if victims <> [] then begin
    let jpath =
      Filename.concat d.dir
        (Printf.sprintf "evict.%d.%d.journal" (Unix.getpid ())
           (Atomic.fetch_and_add d.tmp_seq 1))
    in
    let jtmp =
      Filename.concat d.dir
        (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
           (Atomic.fetch_and_add d.tmp_seq 1))
    in
    (match
       let oc = open_out_bin jtmp in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () ->
           List.iter (fun hex -> output_string oc (hex ^ "\n")) victims);
       Sys.rename jtmp jpath
     with
    | () -> ()
    | exception _ -> ( try Sys.remove jtmp with _ -> ()));
    List.iter (disk_remove d) victims;
    try Sys.remove jpath with _ -> ()
  end

(* On-disk framing. Deliberately NOT [Marshal]: unmarshalling
   corrupted bytes can crash the runtime, and disk entries are exactly
   the bytes we must assume corrupted. Every field is length-checked,
   so a malformed file can only ever parse to [None] — the payload is
   unmarshalled only after its digest validates. *)
let magic = "DAEVC1\n"

let encode_entry fp (e : entry) =
  String.concat ""
    [
      magic;
      string_of_int (String.length fp);
      "\n";
      fp;
      Digest.to_hex e.digest;
      "\n";
      string_of_int (String.length e.payload);
      "\n";
      e.payload;
    ]

(** Parse a disk file into (fingerprint, entry); [None] on any
    malformation — bad magic, bad lengths, non-hex digest, trailing or
    missing bytes. *)
let decode_entry bytes : (string * entry) option =
  let n = String.length bytes in
  let m = String.length magic in
  try
    if n < m || not (String.equal (String.sub bytes 0 m) magic) then None
    else begin
      let pos = ref m in
      let read_line () =
        let i = String.index_from bytes !pos '\n' in
        let s = String.sub bytes !pos (i - !pos) in
        pos := i + 1;
        s
      in
      let fp_len = int_of_string (read_line ()) in
      if fp_len < 0 || !pos + fp_len > n then None
      else begin
        let fp = String.sub bytes !pos fp_len in
        pos := !pos + fp_len;
        let digest = Digest.from_hex (read_line ()) in
        let payload_len = int_of_string (read_line ()) in
        if payload_len < 0 || !pos + payload_len <> n then None
        else Some (fp, { payload = String.sub bytes !pos payload_len; digest })
      end
    end
  with _ -> None

(* --- crash recovery --------------------------------------------- *)

let quarantine_subdir = "quarantine"
let tmp_prefix = ".tmp."
let journal_prefix = "evict."
let journal_suffix = ".journal"

let is_journal f =
  String.starts_with ~prefix:journal_prefix f
  && Filename.check_suffix f journal_suffix

(* Temp files are named [.tmp.<pid>.<seq>]; the pid tells recovery
   whether the writer can still publish it. *)
let tmp_owner_pid f =
  match String.split_on_char '.' f with
  | "" :: "tmp" :: pid :: _ -> int_of_string_opt pid
  | _ -> None

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception _ -> true (* EPERM and friends: someone owns it *)

(** Move a damaged entry aside rather than deleting it: torn files are
    evidence of a crash or a bad disk, and an operator may want to
    inspect them. Deletion is the fallback when the move fails. *)
let quarantine_file dir f =
  let src = Filename.concat dir f in
  let qdir = Filename.concat dir quarantine_subdir in
  try
    mkdir_p qdir;
    Sys.rename src (Filename.concat qdir f);
    true
  with _ -> ( try Sys.remove src; true with _ -> false)

(** The startup recovery pass over a cache directory, in publication
    order: complete interrupted evictions (their journals record
    exactly which entries were condemned), sweep temp files whose
    writer is gone, then validate every remaining entry end-to-end —
    framing, digest — and quarantine the torn ones. Only files that
    survive all three are indexed. *)
let recover_dir dir (r : recovery) =
  let files = match Sys.readdir dir with exception _ -> [||] | fs -> fs in
  Array.iter
    (fun f ->
      if is_journal f then begin
        let path = Filename.concat dir f in
        (match read_file path with
        | exception _ -> ()
        | bytes ->
            String.split_on_char '\n' bytes
            |> List.iter (fun hex ->
                   let hex = String.trim hex in
                   if hex <> "" then begin
                     (try Sys.remove (Filename.concat dir (hex ^ suffix))
                      with _ -> ());
                     r.journal_replayed <- r.journal_replayed + 1
                   end));
        try Sys.remove path with _ -> ()
      end)
    files;
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:tmp_prefix f then begin
        let orphaned =
          match tmp_owner_pid f with
          | Some pid when pid = Unix.getpid () -> false
          | Some pid -> not (pid_alive pid)
          | None -> true
        in
        if orphaned then begin
          (try Sys.remove (Filename.concat dir f) with _ -> ());
          r.tmp_swept <- r.tmp_swept + 1
        end
      end)
    files;
  Array.iter
    (fun f ->
      if Filename.check_suffix f suffix then begin
        let torn =
          match read_file (Filename.concat dir f) with
          | exception _ -> false (* vanished or unreadable: skip, don't judge *)
          | bytes -> (
              match decode_entry bytes with
              | None -> true
              | Some (_, e) -> not (valid e))
        in
        if torn && quarantine_file dir f then
          r.torn_quarantined <- r.torn_quarantined + 1
      end)
    files

(** [create ()] is a memory-only cache. [create ~disk_dir ()] adds
    the persistent tier; [max_bytes] bounds it (default 256 MB) and
    [fingerprint] overrides the build digest (tests use this to
    simulate a rebuild). [recover] (default on)
    runs the crash-recovery pass before the directory is indexed;
    turning it off reproduces the pre-recovery behavior for tests. *)
let create ?disk_dir ?(max_bytes = 256 * 1024 * 1024) ?fingerprint
    ?(recover = true) () =
  let disk =
    Option.map
      (fun dir ->
        mkdir_p dir;
        let recovery = no_recovery () in
        if recover then recover_dir dir recovery;
        let index = Hashtbl.create 1024 in
        let total, clock = scan_dir dir index in
        {
          dir;
          max_bytes;
          fingerprint =
            (match fingerprint with
            | Some f -> f
            | None -> Lazy.force build_fingerprint);
          dlock = Mutex.create ();
          index;
          total;
          clock;
          tmp_seq = Atomic.make 0;
          recovery;
        })
      disk_dir
  in
  {
    tbl = Hashtbl.create 4096;
    lock = Mutex.create ();
    hits = Atomic.make 0;
    disk_hits = Atomic.make 0;
    misses = Atomic.make 0;
    corrupt = Atomic.make 0;
    disk;
  }

(** Publish an entry: temp file in the same directory, then an atomic
    [rename] — a reader (this daemon or a sibling sharing the
    directory) sees the whole entry or nothing. IO errors are
    swallowed: a full or read-only disk degrades the cache to
    memory-only, never breaks verification. *)
let disk_store (d : disk) key (e : entry) =
  let hex = disk_key d key in
  let bytes = encode_entry d.fingerprint e in
  let tmp =
    Filename.concat d.dir
      (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
         (Atomic.fetch_and_add d.tmp_seq 1))
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc bytes);
    (* Chaos-testing hook: a disk fault is a crash in the publication
       window — the temp file was written but the rename never
       happens. The store is lost (a later probe re-verifies) and the
       litter is exactly what the startup recovery sweep collects. *)
    Stdx.Fault.inject Stdx.Fault.Disk;
    Sys.rename tmp (disk_path d hex)
  with
  | () ->
      Mutex.protect d.dlock (fun () ->
          d.clock <- d.clock + 1;
          let size = String.length bytes in
          (match Hashtbl.find_opt d.index hex with
          | Some m -> d.total <- d.total - m.size
          | None -> ());
          Hashtbl.replace d.index hex { size; stamp = d.clock };
          d.total <- d.total + size);
      disk_evict_to_bound d
  | exception Stdx.Fault.Injected _ -> () (* leave the tmp litter *)
  | exception _ -> ( try Sys.remove tmp with _ -> ())

(** Probe the disk tier. [Ok e] is a validated entry; [Corrupt] means
    a file existed but failed validation (already evicted here);
    [Absent] is a plain miss. *)
let disk_load (d : disk) key =
  let hex = disk_key d key in
  match read_file (disk_path d hex) with
  | exception _ -> `Absent
  | bytes -> (
      let corrupt () =
        disk_remove d hex;
        `Corrupt
      in
      (* Chaos-testing hook: an injected cache fault garbles the read,
         exercising the promise that disk corruption is absorbed. *)
      if Stdx.Fault.fires Stdx.Fault.Cache then corrupt ()
      else
        match decode_entry bytes with
        | None -> corrupt ()
        | Some (fp, e) ->
            if not (String.equal fp d.fingerprint) then begin
              (* A hash collision across builds — address says ours,
                 content says otherwise. Treat as a plain miss. *)
              disk_remove d hex;
              `Absent
            end
            else if not (valid e) then corrupt ()
            else begin
                Mutex.protect d.dlock (fun () ->
                    d.clock <- d.clock + 1;
                    match Hashtbl.find_opt d.index hex with
                    | Some m -> m.stamp <- d.clock
                    | None ->
                        (* Written by a sibling daemon after our scan. *)
                        Hashtbl.replace d.index hex
                          { size = String.length bytes; stamp = d.clock });
                `Ok e
              end)

(* --- the two-tier lookup/store -------------------------------- *)

(** One whole verification group, as a reply replays it. Only {e
    decided} groups (every outcome [Verified] or [Failed]) are stored:
    abstentions — timeout, fuel exhaustion, crash — are
    budget-dependent, and replaying them would deny a later request
    the retry its escalated budget exists to buy. *)
type verdicts = {
  outcomes : (string * Verifier.Exec.outcome) list;  (** per procedure *)
  findings : string;  (** rendered lint findings; [""] when lint is off *)
}

let decided (v : verdicts) =
  List.for_all
    (fun (_, o) ->
      match o with
      | Verifier.Exec.Verified | Verifier.Exec.Failed _ -> true
      | Verifier.Exec.Timeout _ | Verifier.Exec.Resource_out _
      | Verifier.Exec.Crashed _ ->
          false)
    v.outcomes

(** Two-tier probe: memory, then disk (promoting a disk hit into
    memory). Returns the validated entry and the tier that answered. *)
let lookup_verdicts t key : (verdicts * [ `Memory | `Disk ]) option =
  let key = Digest.string key in
  let mem = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl key) in
  let miss () =
    Atomic.incr t.misses;
    None
  in
  let from_disk () =
    match Option.map (fun d -> disk_load d key) t.disk with
    | None | Some `Absent -> miss ()
    | Some `Corrupt ->
        Atomic.incr t.corrupt;
        miss ()
    | Some (`Ok e) ->
        (* Promote: the next probe for this key is a memory hit. *)
        Mutex.protect t.lock (fun () -> Hashtbl.replace t.tbl key e);
        Atomic.incr t.disk_hits;
        Some (e.payload, `Disk)
  in
  let found =
    match mem with
    | None -> from_disk ()
    | Some e when valid e ->
        Atomic.incr t.hits;
        Some (e.payload, `Memory)
    | Some _ ->
        (* Corrupt memory entry: evict so the re-verified result
           replaces it, count, and fall back to the disk tier (its
           copy validates independently). *)
        Mutex.protect t.lock (fun () -> Hashtbl.remove t.tbl key);
        Atomic.incr t.corrupt;
        from_disk ()
  in
  Option.bind found (fun (payload, tier) ->
      match (Marshal.from_string payload 0 : verdicts) with
      | v -> Some (v, tier)
      | exception _ -> None)

(** Store a group's entry under [key] in both tiers; silently skipped
    when the group contains an abstention. *)
let store_verdicts t key (v : verdicts) =
  if decided v then begin
    let key = Digest.string key in
    let payload = Marshal.to_string v [] in
    let entry = { payload; digest = Digest.string payload } in
    let entry =
      (* Chaos-testing hook: an injected cache fault corrupts the
         stored bytes *after* the digest was computed, exactly the
         failure the read-side validation exists to absorb (both tiers
         see the same corrupted bytes, so both validation paths are
         exercised). *)
      if Stdx.Fault.fires Stdx.Fault.Cache then
        { entry with payload = payload ^ "\xde\xad" }
      else entry
    in
    Mutex.protect t.lock (fun () -> Hashtbl.replace t.tbl key entry);
    Option.iter (fun d -> disk_store d key entry) t.disk
  end

(** Deliberately corrupt the stored in-memory entry for [key],
    for regression tests. [`Flip] flips a payload bit; [`Truncate]
    drops the payload's tail. Returns [false] when no entry exists. *)
let corrupt_entry ?(mode = `Flip) t key =
  let key = Digest.string key in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> false
      | Some e ->
          let payload =
            match mode with
            | `Flip ->
                let b = Bytes.of_string e.payload in
                let i = Bytes.length b / 2 in
                Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
                Bytes.to_string b
            | `Truncate ->
                String.sub e.payload 0 (String.length e.payload / 2)
          in
          Hashtbl.replace t.tbl key { e with payload };
          true)

(** Corrupt the {e on-disk} entry for [key] (and forget the
    in-memory copy, so the next lookup must go to disk). For
    regression tests of the disk-validation path. *)
let corrupt_disk_entry ?(mode = `Flip) t key =
  match t.disk with
  | None -> false
  | Some d -> (
      let key = Digest.string key in
      Mutex.protect t.lock (fun () -> Hashtbl.remove t.tbl key);
      let path = disk_path d (disk_key d key) in
      match read_file path with
      | exception _ -> false
      | bytes ->
          let bytes =
            match mode with
            | `Flip ->
                let b = Bytes.of_string bytes in
                let i = Bytes.length b / 2 in
                Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
                Bytes.to_string b
            | `Truncate -> String.sub bytes 0 (String.length bytes / 2)
          in
          let oc = open_out_bin path in
          output_string oc bytes;
          close_out oc;
          true)

let hits t = Atomic.get t.hits
let disk_hits t = Atomic.get t.disk_hits
let misses t = Atomic.get t.misses
let corrupt t = Atomic.get t.corrupt
let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)

let disk_entries t =
  match t.disk with
  | None -> 0
  | Some d -> Mutex.protect d.dlock (fun () -> Hashtbl.length d.index)

let disk_bytes t =
  match t.disk with
  | None -> 0
  | Some d -> Mutex.protect d.dlock (fun () -> d.total)

let fingerprint t =
  match t.disk with None -> None | Some d -> Some d.fingerprint

(** What the startup recovery pass repaired; all-zero for memory-only
    caches and for [create ~recover:false]. *)
let recovery_stats t =
  match t.disk with None -> no_recovery () | Some d -> d.recovery

let recovered_tmp t = (recovery_stats t).tmp_swept
let recovered_torn t = (recovery_stats t).torn_quarantined
let journal_replayed t = (recovery_stats t).journal_replayed
