(** A minimal JSON layer for the daemon protocol.

    The sealed package set has no JSON library; the repo already {e
    emits} JSON by hand (the [--json] renderers, [Diag.to_json]) but
    the daemon must also {e parse} requests, so this module adds the
    missing half: a small recursive-descent parser plus a single-line
    printer. [Raw] lets responses splice the existing renderers'
    pre-formatted output verbatim instead of re-encoding it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string  (** pre-rendered JSON, spliced by the printer *)

(* --------------------------------------------------------------- *)
(* Printing (always a single line — the protocol is line-delimited) *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** Integers up to this magnitude are exact in a double: the range a
    JSON number can carry an [int] in (both ways, see {!to_int}). *)
let max_safe_int = 9007199254740992.0 (* 2^53 *)

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f ->
      if Float.is_integer f && Float.abs f <= max_safe_int then
        Buffer.add_string b (Printf.sprintf "%.0f" f)
      else Buffer.add_string b (Printf.sprintf "%g" f)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write b (Str k);
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'
  | Raw s ->
      (* Trusted pre-rendered JSON; newlines would break the
         line-delimited framing, so squash them to spaces (JSON
         whitespace — string literals already escape theirs). *)
      String.iter
        (fun c -> Buffer.add_char b (if c = '\n' || c = '\r' then ' ' else c))
        s

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* --------------------------------------------------------------- *)
(* Parsing *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let error c msg = raise (Bad (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> error c (Printf.sprintf "expected %c" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else error c (Printf.sprintf "expected %s" word)

(** Encode a Unicode scalar (from [\uXXXX]) as UTF-8. *)
let add_utf8 b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string c =
  expect c '"';
  (* Fast path: no escape before the closing quote (every key). *)
  let n = String.length c.s in
  let i = ref c.pos in
  while !i < n && c.s.[!i] <> '"' && c.s.[!i] <> '\\' do incr i done;
  if !i < n && c.s.[!i] = '"' then begin
    let str = String.sub c.s c.pos (!i - c.pos) in
    c.pos <- !i + 1;
    str
  end
  else
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then error c "unterminated string";
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents b
    | '\\' -> (
        if c.pos >= String.length c.s then error c "bad escape";
        let e = c.s.[c.pos] in
        c.pos <- c.pos + 1;
        match e with
        | '"' | '\\' | '/' ->
            Buffer.add_char b e;
            go ()
        | 'n' -> Buffer.add_char b '\n'; go ()
        | 't' -> Buffer.add_char b '\t'; go ()
        | 'r' -> Buffer.add_char b '\r'; go ()
        | 'b' -> Buffer.add_char b '\b'; go ()
        | 'f' -> Buffer.add_char b '\012'; go ()
        | 'u' ->
            if c.pos + 4 > String.length c.s then error c "bad \\u escape";
            let hex = String.sub c.s c.pos 4 in
            c.pos <- c.pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | Some u -> add_utf8 b u
            | None -> error c "bad \\u escape");
            go ()
        | _ -> error c "bad escape")
    | ch ->
        Buffer.add_char b ch;
        go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let numeric ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.s && numeric c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  match float_of_string_opt (String.sub c.s start (c.pos - start)) with
  | Some f -> Num f
  | None -> error c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else
        let rec fields acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> error c "expected , or }"
        in
        fields []
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List (List.rev (v :: acc))
          | _ -> error c "expected , or ]"
        in
        items []
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s : (t, string) result =
  let c = { s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then error c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m

(* --------------------------------------------------------------- *)
(* Accessors *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_num = function Num f -> Some f | _ -> None

(** [None] unless the number is integral and within ±2^53: a
    fractional or huge number is a malformed integer, not one to round. *)
let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= max_safe_int ->
      Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let str_member k v = Option.bind (member k v) to_str
let num_member k v = Option.bind (member k v) to_num
let int_member k v = Option.bind (member k v) to_int
let bool_member k v = Option.bind (member k v) to_bool
