(** Lexer for the C subset, including the two preprocessor features the
    corpus and the managed libc rely on: [#include <...>] lines are
    skipped (libc declarations are injected by the loader instead of read
    from headers), and object-like [#define NAME tokens] macros are
    expanded at the token level, from the [#define] line on.  Anything
    fancier (function-like macros, conditionals) is rejected: all sources
    in this repository are under our control and avoid them. *)

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  macros : (string, Token.t list) Hashtbl.t;
}

let peek_char st =
  if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek_char2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek_char st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let current_pos st : Token.pos = { line = st.line; col = st.col }

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_ws_and_comments st =
  match peek_char st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws_and_comments st
  | Some '/' when peek_char2 st = Some '/' ->
    while peek_char st <> None && peek_char st <> Some '\n' do
      advance st
    done;
    skip_ws_and_comments st
  | Some '/' when peek_char2 st = Some '*' ->
    advance st;
    advance st;
    let rec inside () =
      match peek_char st with
      | None -> Diag.error (current_pos st) "unterminated comment"
      | Some '*' when peek_char2 st = Some '/' ->
        advance st;
        advance st
      | Some _ ->
        advance st;
        inside ()
    in
    inside ();
    skip_ws_and_comments st
  | Some _ | None -> ()

let read_while st pred =
  let start = st.pos in
  while (match peek_char st with Some c -> pred c | None -> false) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Integer and float literals.  A leading 0x is hex; a lone leading 0
   followed by digits is octal.  Suffixes: l/L (long), u/U (unsigned),
   f/F (float), in any order/case for the integer ones. *)
let lex_number st pos =
  let body =
    read_while st (fun c ->
        is_hex_digit c || c = '.' || c = 'x' || c = 'X' || c = '+' || c = '-'
        || c = 'u' || c = 'U' || c = 'l' || c = 'L')
  in
  (* read_while above is too eager for '+'/'-': they belong to a literal
     only right after an exponent marker.  Back off if we swallowed an
     operator. *)
  let body, backoff =
    let is_hex =
      String.length body > 1 && (body.[1] = 'x' || body.[1] = 'X')
    in
    let valid_sign i =
      (not is_hex) && i > 0 && (body.[i - 1] = 'e' || body.[i - 1] = 'E')
    in
    let rec find i =
      if i >= String.length body then (body, 0)
      else if (body.[i] = '+' || body.[i] = '-') && not (valid_sign i) then
        (String.sub body 0 i, String.length body - i)
      else find (i + 1)
    in
    find 0
  in
  for _ = 1 to backoff do
    st.pos <- st.pos - 1;
    st.col <- st.col - 1
  done;
  let is_float_lit =
    String.contains body '.'
    || ((not (String.length body > 1 && (body.[1] = 'x' || body.[1] = 'X')))
       && (String.contains body 'e' || String.contains body 'E'))
  in
  if is_float_lit then begin
    let fkind, body =
      let n = String.length body in
      if n > 0 && (body.[n - 1] = 'f' || body.[n - 1] = 'F') then
        (Ctype.FFloat, String.sub body 0 (n - 1))
      else (Ctype.FDouble, body)
    in
    match float_of_string_opt body with
    | Some f -> Token.FLOAT_LIT (f, fkind)
    | None -> Diag.error pos "malformed float literal %S" body
  end
  else begin
    let rec strip_suffix body unsigned long =
      let n = String.length body in
      if n = 0 then (body, unsigned, long)
      else
        match body.[n - 1] with
        | 'u' | 'U' -> strip_suffix (String.sub body 0 (n - 1)) true long
        | 'l' | 'L' -> strip_suffix (String.sub body 0 (n - 1)) unsigned true
        | _ -> (body, unsigned, long)
    in
    let digits, unsigned, long = strip_suffix body false false in
    let value =
      if String.length digits > 1 && (digits.[1] = 'x' || digits.[1] = 'X')
      then Int64.of_string_opt digits
      else if String.length digits > 1 && digits.[0] = '0' then
        Int64.of_string_opt ("0o" ^ String.sub digits 1 (String.length digits - 1))
      else Int64.of_string_opt digits
    in
    match value with
    | Some v ->
      (* C11 6.4.4.1p5: the literal's type is the first in its list that
         can represent the value.  Decimal unsuffixed literals only ever
         go signed (int -> long); hex/octal ones may land on the
         unsigned variant of each width.  A hex value above 2^63-1 wraps
         negative in the int64 carrier and is unsigned long. *)
      let hexoct = String.length digits > 1 && digits.[0] = '0' in
      let fits_int = v >= 0L && v <= 0x7FFF_FFFFL in
      let fits_uint = v >= 0L && v <= 0xFFFF_FFFFL in
      let fits_long = v >= 0L in
      let ikind, sign =
        if long then
          (Ctype.ILong,
           if unsigned || ((not fits_long) && hexoct) then Ctype.Unsigned
           else Ctype.Signed)
        else if unsigned then
          ((if fits_uint then Ctype.IInt else Ctype.ILong), Ctype.Unsigned)
        else if fits_int then (Ctype.IInt, Ctype.Signed)
        else if hexoct && fits_uint then (Ctype.IInt, Ctype.Unsigned)
        else if fits_long then (Ctype.ILong, Ctype.Signed)
        else (Ctype.ILong, Ctype.Unsigned)
      in
      Token.INT_LIT (v, ikind, sign)
    | None -> Diag.error pos "malformed integer literal %S" body
  end

let lex_escape st pos =
  advance st;
  (* past the backslash *)
  match peek_char st with
  | None -> Diag.error pos "unterminated escape"
  | Some c -> begin
    advance st;
    match c with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | '\\' -> '\\'
    | '\'' -> '\''
    | '"' -> '"'
    | 'a' -> '\007'
    | 'b' -> '\b'
    | 'f' -> '\012'
    | 'v' -> '\011'
    | 'x' ->
      let hex = read_while st is_hex_digit in
      if hex = "" then Diag.error pos "malformed \\x escape"
      else Char.chr (int_of_string ("0x" ^ hex) land 0xff)
    | '0' .. '7' ->
      (* C11 6.4.4.4: one to three octal digits; a value above 0xff keeps
         its low byte, like \x *)
      let v = ref (Char.code c - Char.code '0') and digits = ref 1 in
      while
        !digits < 3
        && match peek_char st with Some ('0' .. '7') -> true | _ -> false
      do
        v := (!v * 8) + Char.code st.src.[st.pos] - Char.code '0';
        advance st;
        incr digits
      done;
      Char.chr (!v land 0xff)
    | c -> Diag.error pos "unknown escape \\%c" c
  end

let lex_string st pos =
  advance st;
  (* past opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char st with
    | None | Some '\n' -> Diag.error pos "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' ->
      Buffer.add_char buf (lex_escape st pos);
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let lex_char st pos =
  advance st;
  (* past opening quote *)
  let c =
    match peek_char st with
    | None -> Diag.error pos "unterminated char literal"
    | Some '\\' -> lex_escape st pos
    | Some c ->
      advance st;
      c
  in
  (match peek_char st with
  | Some '\'' -> advance st
  | _ -> Diag.error pos "unterminated char literal");
  c

(* The punctuator starting at the current position, longest match first
   (C11 6.4.6p1).  Dispatches on its first characters: no copy of the
   source is made, and each result is a shared constant. *)
let try_punct st =
  let at k =
    if st.pos + k < String.length st.src then st.src.[st.pos + k] else '\000'
  in
  (* [c] alone, or [c] followed by '=' *)
  let with_eq one two = if at 1 = '=' then Some two else Some one in
  match at 0 with
  | '.' -> if at 1 = '.' && at 2 = '.' then Some "..." else Some "."
  | '<' -> (
    match at 1 with
    | '<' -> if at 2 = '=' then Some "<<=" else Some "<<"
    | '=' -> Some "<="
    | _ -> Some "<")
  | '>' -> (
    match at 1 with
    | '>' -> if at 2 = '=' then Some ">>=" else Some ">>"
    | '=' -> Some ">="
    | _ -> Some ">")
  | '-' -> (
    match at 1 with
    | '>' -> Some "->"
    | '-' -> Some "--"
    | '=' -> Some "-="
    | _ -> Some "-")
  | '+' -> (
    match at 1 with '+' -> Some "++" | '=' -> Some "+=" | _ -> Some "+")
  | '&' -> (
    match at 1 with '&' -> Some "&&" | '=' -> Some "&=" | _ -> Some "&")
  | '|' -> (
    match at 1 with '|' -> Some "||" | '=' -> Some "|=" | _ -> Some "|")
  | '=' -> with_eq "=" "=="
  | '!' -> with_eq "!" "!="
  | '*' -> with_eq "*" "*="
  | '/' -> with_eq "/" "/="
  | '%' -> with_eq "%" "%="
  | '^' -> with_eq "^" "^="
  | '~' -> Some "~"
  | '?' -> Some "?"
  | ':' -> Some ":"
  | ';' -> Some ";"
  | ',' -> Some ","
  | '(' -> Some "("
  | ')' -> Some ")"
  | '[' -> Some "["
  | ']' -> Some "]"
  | '{' -> Some "{"
  | '}' -> Some "}"
  | _ -> None

(* Preprocessor directive at start of a '#' line.  The '#' has already
   been peeked (not consumed). *)
let lex_directive st expand_text =
  let pos = current_pos st in
  advance st;
  (* '#' *)
  let _ = read_while st (fun c -> c = ' ' || c = '\t') in
  let name = read_while st is_ident_char in
  let rest_of_line () =
    let s = read_while st (fun c -> c <> '\n') in
    s
  in
  match name with
  | "include" ->
    let _ = rest_of_line () in
    ()
  | "define" ->
    let _ = read_while st (fun c -> c = ' ' || c = '\t') in
    let macro_name = read_while st is_ident_char in
    if macro_name = "" then Diag.error pos "#define without a name";
    (match peek_char st with
    | Some '(' -> Diag.error pos "function-like macros are not supported"
    | _ -> ());
    let body = rest_of_line () in
    Hashtbl.replace st.macros macro_name (expand_text body)
  | other -> Diag.error pos "unsupported preprocessor directive #%s" other

(* One raw token (before macro expansion). *)
let rec next_raw st : Token.spanned option =
  skip_ws_and_comments st;
  let pos = current_pos st in
  match peek_char st with
  | None -> None
  | Some '#' when pos.col = 1 || at_line_start st ->
    lex_directive st (tokens_of_text st.macros);
    next_raw st
  | Some c when is_digit c -> Some { tok = lex_number st pos; pos }
  | Some '.' when (match peek_char2 st with Some d -> is_digit d | None -> false)
    -> Some { tok = lex_number st pos; pos }
  | Some c when is_ident_start c ->
    let name = read_while st is_ident_char in
    let tok = if Token.is_keyword name then Token.KW name else Token.IDENT name in
    Some { tok; pos }
  | Some '"' ->
    (* Adjacent string literals concatenate. *)
    let buf = Buffer.create 16 in
    Buffer.add_string buf (lex_string st pos);
    let rec more () =
      skip_ws_and_comments st;
      match peek_char st with
      | Some '"' ->
        Buffer.add_string buf (lex_string st (current_pos st));
        more ()
      | Some _ | None -> ()
    in
    more ();
    Some { tok = Token.STR_LIT (Buffer.contents buf); pos }
  | Some '\'' -> Some { tok = Token.CHAR_LIT (lex_char st pos); pos }
  | Some c -> begin
    match try_punct st with
    | Some p ->
      for _ = 1 to String.length p do
        advance st
      done;
      Some { tok = Token.PUNCT p; pos }
    | None -> Diag.error pos "unexpected character %C" c
  end

(* '#' directives must start a line (possibly after whitespace). *)
and at_line_start st =
  let rec back i =
    if i < 0 then true
    else
      match st.src.[i] with
      | ' ' | '\t' -> back (i - 1)
      | '\n' -> true
      | _ -> false
  in
  back (st.pos - 1)

(* Tokenize a macro body in the context of the current macro table. *)
and tokens_of_text macros text : Token.t list =
  let sub = { src = text; pos = 0; line = 1; col = 1; macros } in
  let rec go acc =
    match next_raw sub with
    | None -> List.rev acc
    | Some { tok; _ } -> go (tok :: acc)
  in
  go []

(** Tokenize a full translation unit.  [start_line] renumbers the first
    line (it may be zero or negative: the loader lexes the libc prelude
    from below 1 so user code compiled behind it still reports its own
    1-based lines).  Each raw token is macro-expanded as it is produced,
    with the macro table as it stands at that point (C11 6.10.3): a
    [#define] takes effect from its own line on.  A macro's body is
    rescanned at each use, with a depth limit to stop accidental
    recursion.  [macros] (default: a fresh, empty table) is the table
    the unit starts from; its [#define]s update it in place, so a unit
    lexed after a prefix ([Parser.parse_after]) starts from a copy of
    the table the prefix left. *)
let tokenize ?(start_line = 1) ?(macros = Hashtbl.create 16) src :
    Token.spanned list =
  let st = { src; pos = 0; line = start_line; col = 1; macros } in
  let rec expand depth (t : Token.spanned) acc =
    match t.tok with
    | Token.IDENT name when depth < 8 && Hashtbl.mem st.macros name ->
      List.fold_left
        (fun acc tok -> expand (depth + 1) { Token.tok; pos = t.pos } acc)
        acc (Hashtbl.find st.macros name)
    | _ -> t :: acc
  in
  let rec go acc =
    match next_raw st with
    | None -> List.rev ({ Token.tok = Token.EOF; pos = current_pos st } :: acc)
    | Some t -> go (expand 0 t acc)
  in
  go []
