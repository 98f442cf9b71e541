(** Front-end tests: lexer, parser, type checker, layout. *)

let lex src = Lexer.tokenize src
let toks src = List.map (fun t -> t.Token.tok) (lex src)

let token = Alcotest.testable (fun ppf t -> Fmt.string ppf (Token.to_string t)) ( = )

let check_tokens msg expected src =
  Alcotest.(check (list token)) msg (expected @ [ Token.EOF ]) (toks src)

(* ---------------- lexer ---------------- *)

let test_lex_ints () =
  check_tokens "decimal" [ Token.INT_LIT (42L, Ctype.IInt, Ctype.Signed) ] "42";
  check_tokens "hex" [ Token.INT_LIT (255L, Ctype.IInt, Ctype.Signed) ] "0xFF";
  check_tokens "octal" [ Token.INT_LIT (8L, Ctype.IInt, Ctype.Signed) ] "010";
  check_tokens "long suffix" [ Token.INT_LIT (7L, Ctype.ILong, Ctype.Signed) ] "7L";
  check_tokens "unsigned suffix"
    [ Token.INT_LIT (7L, Ctype.IInt, Ctype.Unsigned) ] "7u";
  check_tokens "ul suffix"
    [ Token.INT_LIT (7L, Ctype.ILong, Ctype.Unsigned) ] "7UL";
  (* C11 6.4.4.1p5: the type is the first in the list that fits the
     value — decimal unsuffixed goes int -> long (signed only), hex may
     land on the unsigned variant of each width. *)
  check_tokens "decimal beyond int is long"
    [ Token.INT_LIT (5000000000L, Ctype.ILong, Ctype.Signed) ] "5000000000";
  check_tokens "hex beyond int is unsigned int"
    [ Token.INT_LIT (0x80000000L, Ctype.IInt, Ctype.Unsigned) ] "0x80000000";
  check_tokens "hex beyond unsigned int is long"
    [ Token.INT_LIT (0x100000001L, Ctype.ILong, Ctype.Signed) ] "0x100000001";
  check_tokens "hex beyond long is unsigned long"
    [ Token.INT_LIT (-1L, Ctype.ILong, Ctype.Unsigned) ] "0xFFFFFFFFFFFFFFFF"

let test_lex_floats () =
  check_tokens "double" [ Token.FLOAT_LIT (1.5, Ctype.FDouble) ] "1.5";
  check_tokens "float suffix" [ Token.FLOAT_LIT (2.0, Ctype.FFloat) ] "2.0f";
  check_tokens "exponent" [ Token.FLOAT_LIT (1e5, Ctype.FDouble) ] "1e5";
  check_tokens "negative exponent" [ Token.FLOAT_LIT (1.5e-3, Ctype.FDouble) ] "1.5e-3"

let test_lex_minus_not_part_of_number () =
  check_tokens "subtraction"
    [
      Token.INT_LIT (1L, Ctype.IInt, Ctype.Signed);
      Token.PUNCT "-";
      Token.INT_LIT (2L, Ctype.IInt, Ctype.Signed);
    ]
    "1-2"

let test_lex_strings_chars () =
  check_tokens "string" [ Token.STR_LIT "hi\n" ] {|"hi\n"|};
  check_tokens "concat" [ Token.STR_LIT "ab" ] {|"a" "b"|};
  check_tokens "char" [ Token.CHAR_LIT 'x' ] "'x'";
  check_tokens "escaped char" [ Token.CHAR_LIT '\n' ] {|'\n'|};
  check_tokens "nul escape" [ Token.CHAR_LIT '\000' ] {|'\0'|};
  check_tokens "hex escape" [ Token.CHAR_LIT '\065' ] {|'\x41'|}

(* C11 6.4.4.4: an octal escape is one to three octal digits. *)
let test_lex_octal_escapes () =
  check_tokens "three digits" [ Token.CHAR_LIT 'A' ] {|'\101'|};
  check_tokens "inside a string" [ Token.STR_LIT "a\nb" ] {|"a\012b"|};
  check_tokens "at most three digits" [ Token.STR_LIT "S4" ] {|"\1234"|};
  check_tokens "stops at a non-octal digit" [ Token.STR_LIT "\0018" ] {|"\18"|};
  check_tokens "bare \\0 is NUL" [ Token.STR_LIT "\000x" ] {|"\0x"|};
  let r =
    Cases.sulong
      {|int main(void) { printf("a\012b"); return sizeof("\012"); }|}
  in
  Alcotest.(check string) "printf prints the newline and what follows" "a\nb"
    r.Interp.output;
  Alcotest.(check int) "sizeof(\"\\012\") == 2" 2 r.Interp.exit_code

let test_lex_comments () =
  check_tokens "line comment" [ Token.KW "int" ] "int // trailing\n";
  check_tokens "block comment" [ Token.KW "int"; Token.KW "int" ]
    "int /* a \n b */ int"

let test_lex_punct_longest_match () =
  check_tokens "shift assign" [ Token.PUNCT "<<=" ] "<<=";
  check_tokens "a+++b"
    [ Token.IDENT "a"; Token.PUNCT "++"; Token.PUNCT "+"; Token.IDENT "b" ]
    "a+++b";
  check_tokens "x->y" [ Token.IDENT "x"; Token.PUNCT "->"; Token.IDENT "y" ] "x->y";
  check_tokens "two dots are two punctuators" [ Token.PUNCT "."; Token.PUNCT "." ] "..";
  check_tokens "shift then assign" [ Token.PUNCT ">>"; Token.PUNCT "=" ] ">> =";
  check_tokens "arrow" [ Token.IDENT "a"; Token.PUNCT "->"; Token.IDENT "b" ] "a->b";
  check_tokens "decrement"
    [ Token.IDENT "a"; Token.PUNCT "--"; Token.PUNCT "-"; Token.IDENT "b" ]
    "a-- -b";
  check_tokens "ellipsis" [ Token.PUNCT "..." ] "..."

let test_lex_keyword_boundaries () =
  check_tokens "keyword" [ Token.KW "int" ] "int";
  check_tokens "keyword prefix" [ Token.IDENT "int_" ] "int_";
  check_tokens "longer identifier" [ Token.IDENT "integer" ] "integer";
  check_tokens "keyword then punctuator" [ Token.KW "int"; Token.PUNCT "*" ] "int*"

let test_lex_define () =
  check_tokens "object macro"
    [
      Token.KW "int"; Token.IDENT "a"; Token.PUNCT "[";
      Token.INT_LIT (10L, Ctype.IInt, Ctype.Signed); Token.PUNCT "]";
      Token.PUNCT ";";
    ]
    "#define N 10\nint a[N];";
  check_tokens "macro in macro"
    [ Token.INT_LIT (4L, Ctype.IInt, Ctype.Signed);
      Token.PUNCT "+";
      Token.INT_LIT (4L, Ctype.IInt, Ctype.Signed) ]
    "#define A 4\n#define B A\nB+B";
  (* C11 6.10.3: a macro takes effect from its #define on *)
  check_tokens "use before #define"
    [
      Token.KW "int"; Token.IDENT "N"; Token.PUNCT "=";
      Token.INT_LIT (3L, Ctype.IInt, Ctype.Signed); Token.PUNCT ";";
      Token.IDENT "x"; Token.PUNCT "=";
      Token.INT_LIT (5L, Ctype.IInt, Ctype.Signed); Token.PUNCT "*"; Token.IDENT "N";
    ]
    "int N = 3;\n#define M 5 * N\nx = M";
  check_tokens "redefinition applies from its line on"
    [ Token.INT_LIT (1L, Ctype.IInt, Ctype.Signed);
      Token.INT_LIT (2L, Ctype.IInt, Ctype.Signed) ]
    "#define K 1\nK\n#define K 2\nK";
  (* the body is rescanned at each use, with the table at that point *)
  check_tokens "body names a later macro"
    [ Token.INT_LIT (7L, Ctype.IInt, Ctype.Signed) ]
    "#define B A\n#define A 7\nB";
  (* the libc prelude, lexed before the user's source, keeps its own
     parameter names *)
  let r =
    Cases.sulong
      "#define size 3\nint main(void) { char *p = malloc(size); free(p); return size; }"
  in
  Alcotest.(check int) "user #define leaves the prelude alone" 3 r.Interp.exit_code

let test_lex_include_skipped () =
  check_tokens "include line ignored" [ Token.KW "int" ] "#include <stdio.h>\nint"

let test_lex_errors () =
  let expect_error src =
    try
      ignore (lex src);
      Alcotest.fail "expected lexer error"
    with Diag.Error _ -> ()
  in
  expect_error "\"unterminated";
  expect_error "'a";
  expect_error "#define F(x) x";
  expect_error "#pragma once";
  expect_error "@"

(* ---------------- lexer vs. a reference lexer ---------------- *)

(* A slow specification of the lexer on keywords, identifiers, decimal
   integers, char and string literals, punctuators, whitespace and
   comments.  Punctuators are matched by brute force, longest first: a
   copy of the next 3, 2, then 1 characters looked up in a list. *)
let spec_keywords =
  [
    "void"; "char"; "short"; "int"; "long"; "float"; "double"; "signed";
    "unsigned"; "struct"; "enum"; "union"; "typedef"; "if"; "else"; "while";
    "do"; "for"; "return"; "break"; "continue"; "switch"; "case"; "default";
    "sizeof"; "const"; "static"; "extern"; "volatile";
  ]

let spec_puncts3 = [ "..."; "<<="; ">>=" ]

let spec_puncts2 =
  [
    "->"; "++"; "--"; "<<"; ">>"; "<="; ">="; "=="; "!="; "&&"; "||"; "+=";
    "-="; "*="; "/="; "%="; "&="; "|="; "^=";
  ]

let spec_puncts1 =
  [
    "+"; "-"; "*"; "/"; "%"; "="; "<"; ">"; "!"; "~"; "&"; "|"; "^"; "?"; ":";
    ";"; ","; "."; "("; ")"; "["; "]"; "{"; "}";
  ]

let spec_punct src i =
  let try_at n candidates =
    if i + n <= String.length src then begin
      let s = String.sub src i n in
      if List.mem s candidates then Some s else None
    end
    else None
  in
  match try_at 3 spec_puncts3 with
  | Some s -> Some s
  | None -> (
    match try_at 2 spec_puncts2 with
    | Some s -> Some s
    | None -> try_at 1 spec_puncts1)

let spec_tokenize src : Token.spanned list =
  let n = String.length src in
  let i = ref 0 and line = ref 1 and col = ref 1 in
  let at k = if !i + k < n then src.[!i + k] else '\000' in
  let adv () =
    if src.[!i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col;
    incr i
  in
  let take pred =
    let start = !i in
    while !i < n && pred src.[!i] do
      adv ()
    done;
    String.sub src start (!i - start)
  in
  let is_digit c = c >= '0' && c <= '9' in
  let is_word c =
    is_digit c || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let rec skip () =
    match (at 0, at 1) with
    | (' ' | '\t' | '\r' | '\n'), _ ->
      adv ();
      skip ()
    | '/', '/' ->
      ignore (take (fun c -> c <> '\n'));
      skip ()
    | '/', '*' ->
      adv ();
      adv ();
      while not (at 0 = '*' && at 1 = '/') do
        adv ()
      done;
      adv ();
      adv ();
      skip ()
    | _ -> ()
  in
  (* one character of a literal, escapes decoded *)
  let lit_char () =
    if at 0 <> '\\' then begin
      let c = at 0 in
      adv ();
      c
    end
    else begin
      adv ();
      let e = at 0 in
      adv ();
      match e with
      | 'n' -> '\n'
      | 't' -> '\t'
      | 'x' ->
        let hex = take (String.contains "0123456789abcdefABCDEF") in
        Char.chr (int_of_string ("0x" ^ hex) land 0xff)
      | '0' .. '7' ->
        let digits = ref (String.make 1 e) in
        while String.length !digits < 3 && at 0 >= '0' && at 0 <= '7' do
          digits := !digits ^ String.make 1 (at 0);
          adv ()
        done;
        Char.chr (int_of_string ("0o" ^ !digits) land 0xff)
      | c -> c
    end
  in
  let string_lit () =
    adv ();
    let buf = Buffer.create 8 in
    while at 0 <> '"' do
      Buffer.add_char buf (lit_char ())
    done;
    adv ();
    Buffer.contents buf
  in
  let rec go acc =
    skip ();
    let pos = { Token.line = !line; col = !col } in
    if !i >= n then List.rev ({ Token.tok = Token.EOF; pos } :: acc)
    else
      let tok =
        match at 0 with
        | c when is_digit c ->
          Token.INT_LIT (Int64.of_string (take is_digit), Ctype.IInt, Ctype.Signed)
        | c when is_word c ->
          let w = take is_word in
          if List.mem w spec_keywords then Token.KW w else Token.IDENT w
        | '\'' ->
          adv ();
          let c = lit_char () in
          adv ();
          Token.CHAR_LIT c
        | '"' ->
          (* adjacent string literals concatenate *)
          let s = ref (string_lit ()) in
          skip ();
          while at 0 = '"' do
            s := !s ^ string_lit ();
            skip ()
          done;
          Token.STR_LIT !s
        | c -> (
          match spec_punct src !i with
          | Some p ->
            for _ = 1 to String.length p do
              adv ()
            done;
            Token.PUNCT p
          | None -> Alcotest.failf "reference lexer: unexpected %C" c)
      in
      go ({ Token.tok; pos } :: acc)
  in
  go []

(* Random token texts, each tagged by what may not follow it directly. *)
type piece = Word | Number | Literal | Punct of string

let gen_piece =
  let open QCheck.Gen in
  let word =
    oneofl
      ([ "x"; "y1"; "_t"; "int_"; "integer"; "iff"; "do2"; "for_"; "whilex";
         "sizeof_"; "Long"; "a" ] @ spec_keywords)
  in
  let chars = "ab z09+/*#{" in
  let plain =
    map (String.make 1) (oneofl (List.init (String.length chars) (String.get chars)))
  in
  let escape =
    oneofl
      [ {|\n|}; {|\t|}; {|\0|}; {|\7|}; {|\12|}; {|\101|}; {|\x41|}; {|\\|};
        {|\'|}; {|\"|} ]
  in
  let lit_char = frequency [ (3, plain); (1, escape) ] in
  (* an escape that stops after three octal digits *)
  let str_char =
    frequency [ (6, lit_char); (1, oneofl [ {|\0123|}; {|\1018|} ]) ]
  in
  frequency
    [
      (3, map (fun w -> (w, Word)) word);
      (2, map (fun v -> (string_of_int v, Number)) (int_bound 99999));
      (1, map (fun c -> ("'" ^ c ^ "'", Literal)) lit_char);
      (1, map (fun cs -> ("\"" ^ String.concat "" cs ^ "\"", Literal))
            (list_size (int_bound 4) str_char));
      (6, map (fun p -> (p, Punct p))
            (oneofl (spec_puncts3 @ spec_puncts2 @ spec_puncts1)));
    ]

let gen_sep =
  QCheck.Gen.oneofl
    [ ""; ""; ""; " "; "  "; "\t"; "\n"; "\r\n"; " \n\t "; "/* c */";
      "/* two\n lines */"; "// line\n"; " /**/ "; "\n// a\n/* b */\n" ]

(* Joins (separator, piece) pairs, adding a space wherever gluing a
   piece to the one before would make other tokens: two words or numbers,
   a number and a dot, or a slash and a comment. *)
let render pieces trailer =
  let buf = Buffer.create 64 in
  let ends_with c s = s <> "" && s.[String.length s - 1] = c in
  let starts_with c s = s <> "" && s.[0] = c in
  ignore
    (List.fold_left
       (fun prev (sep, (text, kind)) ->
         let space =
           match (prev, kind) with
           | Some (Punct p), _ when ends_with '/' p -> true
           | _ when sep <> "" -> false
           | Some (Word | Number), (Word | Number) -> true
           | Some Number, Punct p -> starts_with '.' p
           | Some (Punct p), Number -> ends_with '.' p
           | _ -> false
         in
         if space then Buffer.add_char buf ' ';
         Buffer.add_string buf sep;
         Buffer.add_string buf text;
         Some kind)
       None pieces);
  Buffer.add_string buf trailer;
  Buffer.contents buf

let prop_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"tokens and line:col match the reference lexer"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         map2 render (list_size (int_bound 30) (pair gen_sep gen_piece)) gen_sep))
    (fun src ->
      let spanned = List.map (fun t -> (t.Token.tok, t.Token.pos)) in
      spanned (lex src) = spanned (spec_tokenize src))

(* ---------------- parser ---------------- *)

let parse src = Parser.parse_string src

let expect_parse_error msg src =
  try
    ignore (parse src);
    Alcotest.fail ("expected parse error: " ^ msg)
  with Diag.Error _ -> ()

let test_parse_globals () =
  let prog = parse "int x = 4; double d; char *s = \"hi\";" in
  let vars =
    List.filter_map (function Ast.Gvar d -> Some d.Ast.d_name | _ -> None) prog
  in
  Alcotest.(check (list string)) "globals" [ "x"; "d"; "s" ] vars

let test_parse_function_pointer_decl () =
  let prog = parse "int (*cmp)(const void *, const void *);" in
  match prog with
  | [ Ast.Gvar d ] -> begin
    match d.Ast.d_ty with
    | Ctype.Ptr (Ctype.Func fsig) ->
      Alcotest.(check int) "two params" 2 (List.length fsig.Ctype.params)
    | t -> Alcotest.fail ("expected function pointer, got " ^ Ctype.to_string t)
  end
  | _ -> Alcotest.fail "expected a single declaration"

let test_parse_array_of_function_pointers () =
  let prog = parse "int (*hooks[4])(int);" in
  match prog with
  | [ Ast.Gvar d ] -> begin
    match d.Ast.d_ty with
    | Ctype.Array (Ctype.Ptr (Ctype.Func _), Some 4) -> ()
    | t -> Alcotest.fail ("unexpected type " ^ Ctype.to_string t)
  end
  | _ -> Alcotest.fail "expected a single declaration"

let test_parse_enum_constants () =
  let prog = parse "enum color { RED, GREEN = 5, BLUE }; int x[BLUE];" in
  let sizes =
    List.filter_map
      (function
        | Ast.Gvar d -> (match d.Ast.d_ty with
          | Ctype.Array (_, Some n) -> Some n
          | _ -> None)
        | _ -> None)
      prog
  in
  Alcotest.(check (list int)) "BLUE = 6" [ 6 ] sizes

let test_parse_typedef () =
  let prog = parse "typedef unsigned short u16; u16 x;" in
  let tys =
    List.filter_map (function Ast.Gvar d -> Some d.Ast.d_ty | _ -> None) prog
  in
  Alcotest.(check bool) "typedef resolved" true
    (tys = [ Ctype.Int (Ctype.IShort, Ctype.Unsigned) ])

let test_parse_size_t_unsigned () =
  (* regression: typedef signedness must survive decl-spec resolution *)
  let prog = parse "size_t n;" in
  match prog with
  | [ Ast.Gvar d ] ->
    Alcotest.(check bool) "size_t is unsigned long" true
      (Ctype.equal d.Ast.d_ty Ctype.ulong_t)
  | _ -> Alcotest.fail "expected one declaration"

let test_parse_struct_def () =
  let prog = parse "struct point { int x; int y; char tag[8]; };" in
  match prog with
  | [ Ast.Gstruct ("point", fields) ] ->
    Alcotest.(check (list string)) "fields" [ "x"; "y"; "tag" ]
      (List.map (fun (f : Ast.field) -> f.Ast.f_name) fields)
  | _ -> Alcotest.fail "expected struct definition"

let test_parse_const_expr_sizes () =
  let prog = parse "int a[3 + 4 * 2]; int b[(1 << 4) | 1];" in
  let sizes =
    List.filter_map
      (function
        | Ast.Gvar d -> (match d.Ast.d_ty with
          | Ctype.Array (_, Some n) -> Some n
          | _ -> None)
        | _ -> None)
      prog
  in
  Alcotest.(check (list int)) "const arithmetic" [ 11; 17 ] sizes

(* A global initializer folds in the parser's constant evaluator; one
   that is not a constant keeps the lowering's message. *)
let test_global_init_not_constant () =
  match Loader.compile_user "int x = 3;\nint g = x;\nint main(void) { return g; }" with
  | _ -> Alcotest.fail "expected the initializer to be rejected"
  | exception Lower.Unsupported (_, msg) ->
    Alcotest.(check string) "message" "global initializer is not constant" msg

let test_parse_errors () =
  expect_parse_error "missing semicolon" "int x";
  expect_parse_error "bad declarator" "int 4x;";
  expect_parse_error "unbalanced" "int f( { }";
  expect_parse_error "nonconst array size" "int x; int a[x];"

(* ---------------- the prelude, parsed once ---------------- *)

(* [Loader.compile_user] parses the libc prelude once per process and
   continues from a copy of its state for each program.  The law: the
   continued parse is the parse of [prelude ^ src] with the prelude's
   lines numbered below 1, positions included; and since every program
   shares the prelude's AST nodes, running Sema and Lower on one program
   must leave nothing behind that the next one sees. *)

let prelude_lines =
  String.fold_left
    (fun n c -> if c = '\n' then n + 1 else n)
    0 Libc_src.prelude

let prelude_start = 1 - prelude_lines

let full_parse src =
  Parser.parse_string ~start_line:prelude_start (Libc_src.prelude ^ src)

(* The C sources embedded in the five example programs. *)
let example_sources () =
  let find text pat from =
    let n = String.length pat in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = pat then Some i
      else go (i + 1)
    in
    go from
  in
  let rec literals text from acc =
    match find text "{|" from with
    | None -> List.rev acc
    | Some i -> (
      match find text "|}" (i + 2) with
      | None -> List.rev acc
      | Some j -> literals text (j + 2) (String.sub text (i + 2) (j - i - 2) :: acc))
  in
  List.concat_map
    (fun name ->
      let text =
        In_channel.with_open_bin ("../examples/" ^ name) In_channel.input_all
      in
      literals text 0 [])
    [ "quickstart.ml"; "bug_hunting.ml"; "sanitizer_comparison.ml";
      "warmup_curve.ml"; "ir_tooling.ml" ]

(* The outcome of a front end as a comparable value: the module's text,
   or the diagnostic's position and message. *)
let front_end_outcome f =
  match f () with
  | m -> Ok (Irprint.module_to_string m)
  | exception Diag.Error (pos, msg) -> Error (pos, msg)
  | exception Lower.Unsupported (pos, msg) -> Error (pos, msg)

let test_prelude_parsed_once () =
  let pre = Parser.parse_prefix ~start_line:prelude_start Libc_src.prelude in
  let programs =
    List.concat_map
      (fun (p : Groundtruth.program) ->
        p.Groundtruth.source :: Option.to_list p.Groundtruth.fixed)
      Corpus.all
    @ List.init 500 (fun seed -> Cprog.render (Cgen.generate ~seed ()))
    @ example_sources ()
  in
  Alcotest.(check bool) "examples found" true (List.length (example_sources ()) >= 5);
  List.iteri
    (fun i src ->
      match full_parse src with
      | exception Diag.Error _ -> Alcotest.failf "program %d does not parse" i
      | expected ->
        let continued = Parser.parse_after pre src in
        if compare continued expected <> 0 then
          Alcotest.failf "program %d: the continued parse differs" i;
        (* Sema and Lower write into the continued AST, shared prelude
           nodes included; the next program's comparison sees any leak. *)
        ignore (Lower.check_and_lower continued);
        let loaded = front_end_outcome (fun () -> Loader.compile_user src) in
        let fresh =
          front_end_outcome (fun () ->
              fst (Lower.check_and_lower ~file:"<input>" (full_parse src)))
        in
        if loaded <> fresh then
          Alcotest.failf "program %d: Loader.compile_user differs" i)
    programs

let test_prelude_errors_agree () =
  List.iter
    (fun src ->
      let loaded = front_end_outcome (fun () -> Loader.compile_user src) in
      let fresh =
        front_end_outcome (fun () ->
            fst (Lower.check_and_lower ~file:"<input>" (full_parse src)))
      in
      (match loaded with
      | Ok _ -> Alcotest.failf "expected a diagnostic for %S" src
      | Error _ -> ());
      if loaded <> fresh then Alcotest.failf "diagnostics differ for %S" src)
    [
      "int x";
      "int main(void) { return 0; ";
      "int main(void) { int x = ; return x; }";
      "\nint 4x;";
      "int main(void) { return 0; } @";
      "/* never closed";
      "#if 0\nint x;\n";
      "  #define\nint x;";
      "int x = 3;\nint g = x;\nint main(void) { return g; }";
    ]

(* ---------------- sema ---------------- *)

let check_src src =
  let prog = parse src in
  ignore (Sema.check prog)

let expect_sema_error msg src =
  try
    check_src src;
    Alcotest.fail ("expected sema error: " ^ msg)
  with Diag.Error _ -> ()

let test_sema_accepts () =
  check_src "int main(void) { int a[2] = {1, 2}; return a[0] + a[1]; }";
  check_src "double f(double x) { return x * 2.0; } int main(void) { return (int)f(1.0); }";
  check_src
    "struct s { int v; }; int main(void) { struct s x; x.v = 1; struct s *p = &x; return p->v; }";
  check_src "int main(void) { char buf[4] = \"abc\"; return buf[0]; }"

let test_sema_rejects () =
  expect_sema_error "undeclared" "int main(void) { return nope; }";
  expect_sema_error "call arity" "int f(int a) { return a; } int main(void) { return f(); }";
  expect_sema_error "too many args"
    "int f(int a) { return a; } int main(void) { return f(1, 2); }";
  expect_sema_error "bad member" "struct s { int v; }; int main(void) { struct s x; return x.w; }";
  expect_sema_error "member of non-struct" "int main(void) { int x; return x.v; }";
  expect_sema_error "deref non-pointer" "int main(void) { int x; return *x; }";
  expect_sema_error "assign to rvalue" "int main(void) { 1 = 2; return 0; }";
  expect_sema_error "return value from void"
    "void f(void) { return 1; } int main(void) { return 0; }";
  expect_sema_error "struct/int assignment"
    "struct s { int v; }; int main(void) { struct s x; x = 3; return 0; }";
  expect_sema_error "struct parameter by value"
    "struct s { int v; }; int f(struct s x) { return x.v; } int main(void) { return 0; }";
  expect_sema_error "struct return by value"
    "struct s { int v; }; struct s f(void) { struct s x; return x; } int main(void) { return 0; }";
  (* an array takes a brace list, or a string literal if it holds chars *)
  expect_sema_error "array from an integer" "int a[2] = 5; int main(void) { return a[0]; }";
  expect_sema_error "local array from a pointer"
    "int main(void) { int x = 1; int a[2] = &x; return a[0]; }"

(* A function neither the program nor the runtime (the libc's
   functions, the host builtins) defines is a link error of the shared
   front end, reported at the reference, under every engine. *)
let test_undefined_references () =
  let rejects what src (line, col) =
    match Loader.compile_user src with
    | _ -> Alcotest.failf "%s: undefined reference accepted" what
    | exception Diag.Error (pos, msg) ->
      Alcotest.(check string) what "undefined reference to function foo" msg;
      Alcotest.(check (pair int int))
        (what ^ ": position") (line, col) (pos.Token.line, pos.Token.col)
  in
  let call = "int foo(int);\nint main(void) { return foo(3); }\n" in
  rejects "call" call (2, 18);
  rejects "address in a global initializer"
    "int foo(int);\nint (*fp)(int) = foo;\nint main(void) { return fp(3); }\n"
    (2, 5);
  rejects "address in a local initializer"
    "int foo(int);\nint main(void) {\n  int (*fp)(int) = foo;\n  return fp(3);\n}\n"
    (3, 7);
  List.iter
    (fun tool ->
      match Engine.run tool call with
      | _ -> Alcotest.failf "%s ran an undefined reference" (Engine.tool_name tool)
      | exception Diag.Error _ -> ())
    [ Engine.Safe_sulong; Engine.Clang Pipeline.O0; Engine.Asan Pipeline.O0;
      Engine.Valgrind Pipeline.O0 ];
  (* declared and never referenced, a libc function, a host builtin *)
  List.iter
    (fun src -> ignore (Loader.compile_user src))
    [
      "int foo(int);\nint main(void) { return 0; }\n";
      "int main(void) { return (int)strlen(\"abc\"); }\n";
      "int __sulong_putchar(int c);\n\
       int main(void) { int (*p)(int) = __sulong_putchar; return p(65) - 65; }\n";
    ]

let test_sema_array_completion () =
  let prog = parse "int xs[] = {1, 2, 3, 4}; char s[] = \"hello\";" in
  ignore (Sema.check prog);
  let sizes =
    List.filter_map
      (function
        | Ast.Gvar d -> (match d.Ast.d_ty with
          | Ctype.Array (_, n) -> n
          | _ -> None)
        | _ -> None)
      prog
  in
  Alcotest.(check (list int)) "completed sizes" [ 4; 6 ] sizes

let test_usual_arith () =
  Alcotest.(check bool) "int+uint is unsigned" true
    (Ctype.usual_arith Ctype.int_t Ctype.uint_t = Ctype.uint_t);
  Alcotest.(check bool) "char promotes to int" true
    (Ctype.usual_arith Ctype.char_t Ctype.char_t = Ctype.int_t);
  Alcotest.(check bool) "int+double is double" true
    (Ctype.usual_arith Ctype.int_t Ctype.double_t = Ctype.double_t);
  Alcotest.(check bool) "long+uint is long" true
    (Ctype.usual_arith Ctype.long_t Ctype.uint_t = Ctype.long_t)

(* ---------------- layout ---------------- *)

let layout_env_of src =
  let prog = parse src in
  let env = Sema.check prog in
  env.Sema.layout

let test_layout_scalars () =
  let lenv = Layout.make_env () in
  Alcotest.(check int) "char" 1 (Layout.size lenv Ctype.char_t);
  Alcotest.(check int) "short" 2 (Layout.size lenv Ctype.short_t);
  Alcotest.(check int) "int" 4 (Layout.size lenv Ctype.int_t);
  Alcotest.(check int) "long" 8 (Layout.size lenv Ctype.long_t);
  Alcotest.(check int) "pointer" 8 (Layout.size lenv (Ctype.Ptr Ctype.Void));
  Alcotest.(check int) "array" 40 (Layout.size lenv (Ctype.Array (Ctype.int_t, Some 10)))

let test_layout_struct_padding () =
  let lenv = layout_env_of "struct s { char c; int i; char d; };" in
  (* c at 0, 3 bytes padding, i at 4, d at 8, tail padding to align 4 *)
  Alcotest.(check int) "size with padding" 12 (Layout.size lenv (Ctype.Struct "s"));
  Alcotest.(check int) "align" 4 (Layout.align lenv (Ctype.Struct "s"));
  let off_i, ty_i = Layout.field_offset lenv "s" "i" in
  Alcotest.(check int) "i offset" 4 off_i;
  Alcotest.(check bool) "i type" true (Ctype.equal ty_i Ctype.int_t);
  let off_d, _ = Layout.field_offset lenv "s" "d" in
  Alcotest.(check int) "d offset" 8 off_d

let test_layout_nested () =
  let lenv =
    layout_env_of
      "struct inner { long l; char c; }; struct outer { char tag; struct inner in; int k; };"
  in
  Alcotest.(check int) "inner size" 16 (Layout.size lenv (Ctype.Struct "inner"));
  let off_in, _ = Layout.field_offset lenv "outer" "in" in
  Alcotest.(check int) "inner aligned to 8" 8 off_in;
  Alcotest.(check int) "outer size" 32 (Layout.size lenv (Ctype.Struct "outer"))

let test_layout_field_index () =
  let lenv = layout_env_of "struct s { int a; int b; int c; };" in
  Alcotest.(check int) "index of b" 1 (Layout.field_index lenv "s" "b");
  Alcotest.(check int) "index of c" 2 (Layout.field_index lenv "s" "c")

let () =
  Alcotest.run "cfront"
    [
      ( "lexer",
        [
          Alcotest.test_case "ints" `Quick test_lex_ints;
          Alcotest.test_case "floats" `Quick test_lex_floats;
          Alcotest.test_case "minus binds as operator" `Quick
            test_lex_minus_not_part_of_number;
          Alcotest.test_case "strings and chars" `Quick test_lex_strings_chars;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "punct longest match" `Quick
            test_lex_punct_longest_match;
          Alcotest.test_case "keyword boundaries" `Quick
            test_lex_keyword_boundaries;
          Alcotest.test_case "octal escapes" `Quick test_lex_octal_escapes;
          Alcotest.test_case "#define" `Quick test_lex_define;
          Alcotest.test_case "#include skipped" `Quick test_lex_include_skipped;
          Alcotest.test_case "errors" `Quick test_lex_errors;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
      ( "parser",
        [
          Alcotest.test_case "globals" `Quick test_parse_globals;
          Alcotest.test_case "function pointer" `Quick
            test_parse_function_pointer_decl;
          Alcotest.test_case "array of function pointers" `Quick
            test_parse_array_of_function_pointers;
          Alcotest.test_case "enum constants" `Quick test_parse_enum_constants;
          Alcotest.test_case "typedef" `Quick test_parse_typedef;
          Alcotest.test_case "size_t is unsigned" `Quick test_parse_size_t_unsigned;
          Alcotest.test_case "struct definition" `Quick test_parse_struct_def;
          Alcotest.test_case "constant array sizes" `Quick
            test_parse_const_expr_sizes;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "non-constant global initializer" `Quick
            test_global_init_not_constant;
          Alcotest.test_case "prelude parsed once: same AST and module" `Quick
            test_prelude_parsed_once;
          Alcotest.test_case "prelude parsed once: same diagnostics" `Quick
            test_prelude_errors_agree;
        ] );
      ( "sema",
        [
          Alcotest.test_case "accepts valid programs" `Quick test_sema_accepts;
          Alcotest.test_case "rejects invalid programs" `Quick test_sema_rejects;
          Alcotest.test_case "undefined references are link errors" `Quick
            test_undefined_references;
          Alcotest.test_case "array completion" `Quick test_sema_array_completion;
          Alcotest.test_case "usual arithmetic conversions" `Quick
            test_usual_arith;
        ] );
      ( "layout",
        [
          Alcotest.test_case "scalars" `Quick test_layout_scalars;
          Alcotest.test_case "struct padding" `Quick test_layout_struct_padding;
          Alcotest.test_case "nested structs" `Quick test_layout_nested;
          Alcotest.test_case "field index" `Quick test_layout_field_index;
        ] );
    ]
