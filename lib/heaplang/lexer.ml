(** A hand-rolled lexer for the surface syntax (menhir/ocamllex are not
    available in the sealed environment, and the token language is
    small enough that a direct scanner is clearer anyway).

    Every token carries a {!Stdx.Loc.t} span — file, 1-based line and
    column, and the byte extent — which the parser unions into node
    spans and threads all the way to diagnostics. The token set covers
    both the programming language and the specification language of
    annotated programs (assertions, points-to, stabilization
    brackets). *)

open Stdx

type token =
  | INT of int
  | IDENT of string
  | SYM of string  (** [?x] — a specification-level symbol *)
  | KW of string  (** keywords: let, in, while, procedure, requires, … *)
  | LPAREN
  | RPAREN
  | LBRACKET  (** [ — opens a pure assertion *)
  | RBRACKET  (** ] *)
  | LBRACE  (** { — procedure bodies, fraction annotations *)
  | RBRACE  (** } *)
  | COMMA
  | SEMI  (** ; *)
  | DOT  (** . — closes an [exists] binder list *)
  | BAR  (** | — match arms *)
  | ARROW  (** -> *)
  | LARROW  (** <- *)
  | MAPSTO  (** |-> — points-to *)
  | LSTAB  (** |_ — opens a stabilization bracket ⌊ *)
  | RSTAB  (** _| — closes a stabilization bracket ⌋ *)
  | BANG  (** ! *)
  | OP of string  (** infix operators *)
  | EOF

let pp_token ppf = function
  | INT n -> Fmt.pf ppf "%d" n
  | IDENT x -> Fmt.pf ppf "%s" x
  | SYM x -> Fmt.pf ppf "?%s" x
  | KW k -> Fmt.pf ppf "%s" k
  | LPAREN -> Fmt.string ppf "("
  | RPAREN -> Fmt.string ppf ")"
  | LBRACKET -> Fmt.string ppf "["
  | RBRACKET -> Fmt.string ppf "]"
  | LBRACE -> Fmt.string ppf "{"
  | RBRACE -> Fmt.string ppf "}"
  | COMMA -> Fmt.string ppf ","
  | SEMI -> Fmt.string ppf ";"
  | DOT -> Fmt.string ppf "."
  | BAR -> Fmt.string ppf "|"
  | ARROW -> Fmt.string ppf "->"
  | LARROW -> Fmt.string ppf "<-"
  | MAPSTO -> Fmt.string ppf "|->"
  | LSTAB -> Fmt.string ppf "|_"
  | RSTAB -> Fmt.string ppf "_|"
  | BANG -> Fmt.string ppf "!"
  | OP s -> Fmt.string ppf s
  | EOF -> Fmt.string ppf "<eof>"

exception Lex_error of string * Loc.t  (** message, source span *)

let keywords =
  [
    (* programs *)
    "let"; "in"; "while"; "do"; "done"; "if"; "then"; "else"; "fun"; "rec";
    "ref"; "free"; "assert"; "ghost"; "true"; "false"; "fst"; "snd"; "inl";
    "inr"; "match"; "with"; "end"; "CAS"; "FAA"; "par"; "atomic";
    (* annotated programs and specifications *)
    "predicate"; "procedure"; "requires"; "ensures"; "invariant"; "emp";
    "exists"; "fold"; "unfold";
  ]

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_alpha c || is_digit c || c = '\''

(** Tokenize a whole string. [file] names the buffer in spans (defaults
    to anonymous, for inline sources). *)
let tokenize ?(file = "") (src : string) : (token * Loc.t) list =
  let ix = Loc.index src in
  let span start stop = Loc.span ix ~file start stop in
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  (* [emit t start] stamps the token with the span [start .. !i). *)
  let emit t start = toks := (t, span start !i) :: !toks in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      (* comment: scan to closing, no nesting *)
      let j = ref (!i + 2) in
      while
        !j + 1 < n && not (src.[!j] = '*' && src.[!j + 1] = ')')
      do
        incr j
      done;
      if !j + 1 >= n then
        raise (Lex_error ("unterminated comment", span pos (pos + 2)));
      i := !j + 2
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit src.[!j] do incr j done;
      let lit = String.sub src !i (!j - !i) in
      i := !j;
      match Checked.of_string_opt lit with
      | Some n -> emit (INT n) pos
      | None ->
          raise
            (Lex_error
               ( Printf.sprintf "integer literal %s out of range (max %d)" lit
                   max_int,
                 span pos !j ))
    end
    else if c = '_' && !i + 1 < n && src.[!i + 1] = '|' then begin
      (* _| closes a stabilization bracket; checked before identifiers
         because '_' also starts one *)
      i := !i + 2;
      emit RSTAB pos
    end
    else if is_alpha c then begin
      let j = ref !i in
      while !j < n && is_ident src.[!j] do incr j done;
      let word = String.sub src !i (!j - !i) in
      i := !j;
      emit (if List.mem word keywords then KW word else IDENT word) pos
    end
    else if c = '?' && !i + 1 < n && is_alpha src.[!i + 1] then begin
      let j = ref (!i + 1) in
      while !j < n && is_ident src.[!j] do incr j done;
      let name = String.sub src (!i + 1) (!j - !i - 1) in
      i := !j;
      emit (SYM name) pos
    end
    else begin
      (* punctuation and operators, longest match first *)
      let three = if !i + 2 < n then String.sub src !i 3 else "" in
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      if three = "|->" then begin
        i := !i + 3;
        emit MAPSTO pos
      end
      else
        match two with
        | "->" -> i := !i + 2; emit ARROW pos
        | "<-" -> i := !i + 2; emit LARROW pos
        | "|_" -> i := !i + 2; emit LSTAB pos
        | "==" | "!=" | "<=" | ">=" | "&&" | "||" ->
            i := !i + 2;
            emit (OP two) pos
        | _ -> (
            match c with
            | '(' -> incr i; emit LPAREN pos
            | ')' -> incr i; emit RPAREN pos
            | '[' -> incr i; emit LBRACKET pos
            | ']' -> incr i; emit RBRACKET pos
            | '{' -> incr i; emit LBRACE pos
            | '}' -> incr i; emit RBRACE pos
            | ',' -> incr i; emit COMMA pos
            | ';' -> incr i; emit SEMI pos
            | '.' -> incr i; emit DOT pos
            | '|' -> incr i; emit BAR pos
            | '!' -> incr i; emit BANG pos
            | '+' | '-' | '*' | '/' | '%' | '<' | '>' | '=' ->
                incr i;
                emit (OP (String.make 1 c)) pos
            | _ ->
                raise
                  (Lex_error
                     ( Printf.sprintf "unexpected character %c" c,
                       span pos (pos + 1) )))
    end
  done;
  List.rev ((EOF, span n n) :: !toks)
