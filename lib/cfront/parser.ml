(** Recursive-descent parser for the C subset.

    Typedef names are tracked in the parser (the classic lexer-feedback
    problem solved at the parser level: an identifier that names a typedef
    starts a declaration).  Enum constants are tracked too so that array
    sizes and case labels can be evaluated as constant expressions while
    parsing.

    A parse can stop at the end of a source prefix and continue over
    several suffixes ([parse_prefix], [parse_after]): the loader parses
    the libc prelude once per process and each user program after it. *)

type p = {
  toks : Token.spanned array;
  mutable idx : int;
  typedefs : (string, Ctype.t) Hashtbl.t;
  enums : (string, int64) Hashtbl.t;
  mutable anon_count : int;
  mutable structs : (string * Ast.field list) list;  (* reversed *)
  mutable decls : Ast.global list;  (* reversed *)
}

let make_state toks =
  let typedefs = Hashtbl.create 16 in
  (* Predefined typedefs, in place of the system headers we skip. *)
  Hashtbl.replace typedefs "size_t" Ctype.size_t;
  Hashtbl.replace typedefs "ssize_t" Ctype.long_t;
  Hashtbl.replace typedefs "ptrdiff_t" Ctype.long_t;
  Hashtbl.replace typedefs "intptr_t" Ctype.long_t;
  Hashtbl.replace typedefs "uintptr_t" Ctype.ulong_t;
  Hashtbl.replace typedefs "int8_t" Ctype.char_t;
  Hashtbl.replace typedefs "uint8_t" Ctype.uchar_t;
  Hashtbl.replace typedefs "int16_t" Ctype.short_t;
  Hashtbl.replace typedefs "uint16_t" (Ctype.Int (Ctype.IShort, Ctype.Unsigned));
  Hashtbl.replace typedefs "int32_t" Ctype.int_t;
  Hashtbl.replace typedefs "uint32_t" Ctype.uint_t;
  Hashtbl.replace typedefs "int64_t" Ctype.long_t;
  Hashtbl.replace typedefs "uint64_t" Ctype.ulong_t;
  Hashtbl.replace typedefs "FILE" (Ctype.Struct "__file");
  Hashtbl.replace typedefs "va_list" (Ctype.Ptr (Ctype.Struct "__varargs"));
  {
    toks = Array.of_list toks;
    idx = 0;
    typedefs;
    enums = Hashtbl.create 16;
    anon_count = 0;
    structs = [];
    decls = [];
  }

let cur p = p.toks.(p.idx)
let cur_tok p = (cur p).Token.tok
let cur_pos p = (cur p).Token.pos
let advance p = if p.idx < Array.length p.toks - 1 then p.idx <- p.idx + 1

let peek_tok p n =
  let i = min (p.idx + n) (Array.length p.toks - 1) in
  p.toks.(i).Token.tok

let err p fmt = Diag.error (cur_pos p) fmt

let expect_punct p s =
  match cur_tok p with
  | Token.PUNCT x when x = s -> advance p
  | t -> err p "expected %S, found %s" s (Token.to_string t)

let expect_kw p s =
  match cur_tok p with
  | Token.KW x when x = s -> advance p
  | t -> err p "expected %S, found %s" s (Token.to_string t)

let accept_punct p s =
  match cur_tok p with
  | Token.PUNCT x when x = s ->
    advance p;
    true
  | _ -> false

let accept_kw p s =
  match cur_tok p with
  | Token.KW x when x = s ->
    advance p;
    true
  | _ -> false

let expect_ident p =
  match cur_tok p with
  | Token.IDENT s ->
    advance p;
    s
  | t -> err p "expected identifier, found %s" (Token.to_string t)

let is_typedef_name p name = Hashtbl.mem p.typedefs name

(* A token sequence starts a type when it begins with a type keyword, a
   struct/enum/union keyword, a qualifier, or a typedef name. *)
let starts_type p tok =
  match tok with
  | Token.KW
      ( "void" | "char" | "short" | "int" | "long" | "float" | "double"
      | "signed" | "unsigned" | "struct" | "enum" | "union" | "const"
      | "static" | "extern" | "volatile" | "typedef" ) ->
    true
  | Token.IDENT name -> is_typedef_name p name
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Declaration specifiers                                              *)
(* ------------------------------------------------------------------ *)

(* Consume decl specifiers; returns (base type, saw_typedef_keyword). *)
let rec parse_decl_specs p : Ctype.t * bool =
  let saw_typedef = ref false in
  let signed = ref None in
  let base = ref None in
  let long_count = ref 0 in
  let set_base ty =
    match !base with
    | None -> base := Some ty
    | Some _ -> err p "conflicting type specifiers"
  in
  let continue_loop = ref true in
  while !continue_loop do
    match cur_tok p with
    | Token.KW "typedef" ->
      saw_typedef := true;
      advance p
    | Token.KW ("const" | "static" | "extern" | "volatile") -> advance p
    | Token.KW "void" ->
      set_base Ctype.Void;
      advance p
    | Token.KW "char" ->
      set_base (Ctype.Int (Ctype.IChar, Ctype.Signed));
      advance p
    | Token.KW "short" ->
      set_base (Ctype.Int (Ctype.IShort, Ctype.Signed));
      advance p
    | Token.KW "int" ->
      (match !base with
      | Some (Ctype.Int _) -> ()  (* "short int", "long int" *)
      | Some _ -> err p "conflicting type specifiers"
      | None -> if !long_count = 0 then base := Some Ctype.int_t);
      advance p
    | Token.KW "long" ->
      incr long_count;
      advance p
    | Token.KW "float" ->
      set_base Ctype.float_t;
      advance p
    | Token.KW "double" ->
      set_base Ctype.double_t;
      advance p
    | Token.KW "signed" ->
      signed := Some Ctype.Signed;
      advance p
    | Token.KW "unsigned" ->
      signed := Some Ctype.Unsigned;
      advance p
    | Token.KW "struct" | Token.KW "union" -> set_base (parse_struct_spec p)
    | Token.KW "enum" -> set_base (parse_enum_spec p)
    | Token.IDENT name when is_typedef_name p name && !base = None
                            && !long_count = 0 && !signed = None ->
      set_base (Hashtbl.find p.typedefs name);
      advance p
    | _ -> continue_loop := false
  done;
  let ty =
    match (!base, !long_count, !signed) with
    | Some (Ctype.Int (k, base_sign)), n, s ->
      let k = if n > 0 then Ctype.ILong else k in
      Ctype.Int (k, Option.value s ~default:base_sign)
    | Some ty, 0, None -> ty
    | Some _, _, _ -> err p "conflicting type specifiers"
    | None, n, s when n > 0 || s <> None ->
      let k = if n > 0 then Ctype.ILong else Ctype.IInt in
      Ctype.Int (k, Option.value s ~default:Ctype.Signed)
    | None, _, _ -> err p "expected type specifier"
  in
  (ty, !saw_typedef)

and parse_struct_spec p : Ctype.t =
  advance p;
  (* struct/union; unions are parsed but rejected later if used *)
  let tag =
    match cur_tok p with
    | Token.IDENT name ->
      advance p;
      name
    | _ ->
      p.anon_count <- p.anon_count + 1;
      Printf.sprintf "__anon%d" p.anon_count
  in
  if accept_punct p "{" then begin
    let fields = ref [] in
    while not (accept_punct p "}") do
      let base, _ = parse_decl_specs p in
      let rec field_loop () =
        let name, ty = parse_declarator p base in
        (match name with
        | Some n -> fields := { Ast.f_name = n; f_ty = ty } :: !fields
        | None -> err p "struct field needs a name");
        if accept_punct p "," then field_loop ()
      in
      field_loop ();
      expect_punct p ";"
    done;
    p.structs <- (tag, List.rev !fields) :: p.structs
  end;
  Ctype.Struct tag

and parse_enum_spec p : Ctype.t =
  advance p;
  (match cur_tok p with
  | Token.IDENT _ -> advance p
  | _ -> ());
  if accept_punct p "{" then begin
    let next = ref 0L in
    let rec enum_loop () =
      match cur_tok p with
      | Token.PUNCT "}" -> advance p
      | Token.IDENT name ->
        advance p;
        let value =
          if accept_punct p "=" then const_expr p else !next
        in
        Hashtbl.replace p.enums name value;
        next := Int64.add value 1L;
        if accept_punct p "," then enum_loop ()
        else begin
          expect_punct p "}"
        end
      | t -> err p "expected enumerator, found %s" (Token.to_string t)
    in
    enum_loop ()
  end;
  Ctype.int_t

(* ------------------------------------------------------------------ *)
(* Declarators                                                         *)
(* ------------------------------------------------------------------ *)

(* Returns (optional name, complete type). *)
and parse_declarator p (base : Ctype.t) : string option * Ctype.t =
  (* Pointers wrap the base type from the inside out. *)
  let base = ref base in
  while accept_punct p "*" do
    while accept_kw p "const" || accept_kw p "volatile" do
      ()
    done;
    base := Ctype.Ptr !base
  done;
  parse_direct_declarator p !base

and parse_direct_declarator p base : string option * Ctype.t =
  (* The inner part: a name, a parenthesized declarator, or nothing
     (abstract declarator).  Suffixes ([n], (params)) then apply from the
     outside in; parenthesized inner declarators bind tighter, which we
     implement by deferring the inner parse's type transformation. *)
  let inner : [ `Name of string option | `Paren of int ] =
    match cur_tok p with
    | Token.IDENT name when not (is_typedef_name p name) ->
      advance p;
      `Name (Some name)
    | Token.PUNCT "(" when is_declarator_paren p ->
      advance p;
      let start = p.idx in
      skip_balanced_parens p;
      `Paren start
    | _ -> `Name None
  in
  (* Suffixes. *)
  let rec suffixes ty =
    if accept_punct p "[" then begin
      let size = if cur_tok p = Token.PUNCT "]" then None
        else Some (Int64.to_int (const_expr p))
      in
      expect_punct p "]";
      let elem = suffixes ty in
      Ctype.Array (elem, size)
    end
    else if accept_punct p "(" then begin
      let params, variadic = parse_params p in
      let ret = suffixes ty in
      Ctype.Func { Ctype.ret; params; variadic }
    end
    else ty
  in
  let full = suffixes base in
  match inner with
  | `Name name -> (name, full)
  | `Paren start ->
    (* Re-parse the parenthesized declarator with the suffixed type as
       its base. *)
    let save = p.idx in
    p.idx <- start;
    let name, ty = parse_declarator p full in
    expect_punct p ")";
    p.idx <- save;
    (name, ty)

(* A '(' after the pointer part starts an inner declarator — as in a
   function-pointer declaration "int ( *f )(int)" — rather than a
   parameter list, when the next token is '*', '(' or an identifier that
   is not a typedef name. *)
and is_declarator_paren p =
  match peek_tok p 1 with
  | Token.PUNCT "*" | Token.PUNCT "(" -> true
  | Token.IDENT name -> not (is_typedef_name p name)
  | _ -> false

and skip_balanced_parens p =
  (* We are just past the opening '('; skip to just past its ')'. *)
  let depth = ref 1 in
  while !depth > 0 do
    (match cur_tok p with
    | Token.PUNCT "(" -> incr depth
    | Token.PUNCT ")" -> decr depth
    | Token.EOF -> err p "unbalanced parentheses in declarator"
    | _ -> ());
    if !depth > 0 then advance p
  done;
  advance p (* past the final ')' *)

and parse_params p : Ctype.t list * bool =
  if accept_punct p ")" then ([], false)
  else if cur_tok p = Token.KW "void" && peek_tok p 1 = Token.PUNCT ")" then begin
    advance p;
    advance p;
    ([], false)
  end
  else begin
    let params = ref [] in
    let variadic = ref false in
    let rec loop () =
      if accept_punct p "..." then begin
        variadic := true;
        expect_punct p ")"
      end
      else begin
        let base, _ = parse_decl_specs p in
        let _, ty = parse_declarator p base in
        (* Parameters of array/function type adjust to pointers. *)
        params := Ctype.decay ty :: !params;
        if accept_punct p "," then loop () else expect_punct p ")"
      end
    in
    loop ();
    (List.rev !params, !variadic)
  end

(* Like parse_params but also records parameter names (for function
   definitions). *)
and parse_named_params p : (string * Ctype.t) list * bool =
  if accept_punct p ")" then ([], false)
  else if cur_tok p = Token.KW "void" && peek_tok p 1 = Token.PUNCT ")" then begin
    advance p;
    advance p;
    ([], false)
  end
  else begin
    let params = ref [] in
    let variadic = ref false in
    let rec loop () =
      if accept_punct p "..." then begin
        variadic := true;
        expect_punct p ")"
      end
      else begin
        let base, _ = parse_decl_specs p in
        let name, ty = parse_declarator p base in
        let name = Option.value name ~default:(Printf.sprintf "__arg%d" (List.length !params)) in
        params := (name, Ctype.decay ty) :: !params;
        if accept_punct p "," then loop () else expect_punct p ")"
      end
    in
    loop ();
    (List.rev !params, !variadic)
  end

(* A constant expression (array size, case label, enum value), folded
   by [Cscalar]. *)
and const_expr p : int64 = Cscalar.eval_const (parse_conditional p)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and parse_expr p : Ast.expr =
  let e = parse_assignment p in
  if accept_punct p "," then begin
    let rest = parse_expr p in
    Ast.mk e.Ast.pos (Ast.Comma (e, rest))
  end
  else e

and parse_assignment p : Ast.expr =
  let lhs = parse_conditional p in
  let pos = cur_pos p in
  let mk_assign op =
    advance p;
    let rhs = parse_assignment p in
    Ast.mk pos (Ast.Assign (op, lhs, rhs))
  in
  match cur_tok p with
  | Token.PUNCT "=" -> mk_assign None
  | Token.PUNCT "+=" -> mk_assign (Some Ast.Add)
  | Token.PUNCT "-=" -> mk_assign (Some Ast.Sub)
  | Token.PUNCT "*=" -> mk_assign (Some Ast.Mul)
  | Token.PUNCT "/=" -> mk_assign (Some Ast.Div)
  | Token.PUNCT "%=" -> mk_assign (Some Ast.Mod)
  | Token.PUNCT "<<=" -> mk_assign (Some Ast.Shl)
  | Token.PUNCT ">>=" -> mk_assign (Some Ast.Shr)
  | Token.PUNCT "&=" -> mk_assign (Some Ast.Band)
  | Token.PUNCT "|=" -> mk_assign (Some Ast.Bor)
  | Token.PUNCT "^=" -> mk_assign (Some Ast.Bxor)
  | _ -> lhs

and parse_conditional p : Ast.expr =
  let cond = parse_binary p 0 in
  if accept_punct p "?" then begin
    let then_e = parse_expr p in
    expect_punct p ":";
    let else_e = parse_conditional p in
    Ast.mk cond.Ast.pos (Ast.Cond (cond, then_e, else_e))
  end
  else cond

(* Precedence-climbing for binary operators; level 0 is '||'. *)
and binop_of_punct level s : Ast.binop option =
  match (level, s) with
  | 0, "||" -> Some Ast.Logor
  | 1, "&&" -> Some Ast.Logand
  | 2, "|" -> Some Ast.Bor
  | 3, "^" -> Some Ast.Bxor
  | 4, "&" -> Some Ast.Band
  | 5, "==" -> Some Ast.Eq
  | 5, "!=" -> Some Ast.Ne
  | 6, "<" -> Some Ast.Lt
  | 6, ">" -> Some Ast.Gt
  | 6, "<=" -> Some Ast.Le
  | 6, ">=" -> Some Ast.Ge
  | 7, "<<" -> Some Ast.Shl
  | 7, ">>" -> Some Ast.Shr
  | 8, "+" -> Some Ast.Add
  | 8, "-" -> Some Ast.Sub
  | 9, "*" -> Some Ast.Mul
  | 9, "/" -> Some Ast.Div
  | 9, "%" -> Some Ast.Mod
  | _ -> None

and parse_binary p level : Ast.expr =
  if level > 9 then parse_cast p
  else begin
    let lhs = ref (parse_binary p (level + 1)) in
    let continue_loop = ref true in
    while !continue_loop do
      match cur_tok p with
      | Token.PUNCT s -> begin
        match binop_of_punct level s with
        | Some op ->
          let pos = cur_pos p in
          advance p;
          let rhs = parse_binary p (level + 1) in
          lhs := Ast.mk pos (Ast.Binop (op, !lhs, rhs))
        | None -> continue_loop := false
      end
      | _ -> continue_loop := false
    done;
    !lhs
  end

and parse_cast p : Ast.expr =
  match cur_tok p with
  | Token.PUNCT "(" when starts_type p (peek_tok p 1) ->
    let pos = cur_pos p in
    advance p;
    let base, _ = parse_decl_specs p in
    let _, ty = parse_declarator p base in
    expect_punct p ")";
    let e = parse_cast p in
    Ast.mk pos (Ast.Cast (ty, e))
  | _ -> parse_unary p

and parse_unary p : Ast.expr =
  let pos = cur_pos p in
  match cur_tok p with
  | Token.PUNCT "-" ->
    advance p;
    Ast.mk pos (Ast.Unop (Ast.Neg, parse_cast p))
  | Token.PUNCT "+" ->
    advance p;
    parse_cast p
  | Token.PUNCT "!" ->
    advance p;
    Ast.mk pos (Ast.Unop (Ast.Lognot, parse_cast p))
  | Token.PUNCT "~" ->
    advance p;
    Ast.mk pos (Ast.Unop (Ast.Bitnot, parse_cast p))
  | Token.PUNCT "*" ->
    advance p;
    Ast.mk pos (Ast.Deref (parse_cast p))
  | Token.PUNCT "&" ->
    advance p;
    Ast.mk pos (Ast.Addrof (parse_cast p))
  | Token.PUNCT "++" ->
    advance p;
    Ast.mk pos (Ast.PreIncr (parse_unary p))
  | Token.PUNCT "--" ->
    advance p;
    Ast.mk pos (Ast.PreDecr (parse_unary p))
  | Token.KW "sizeof" ->
    advance p;
    if cur_tok p = Token.PUNCT "(" && starts_type p (peek_tok p 1) then begin
      advance p;
      let base, _ = parse_decl_specs p in
      let _, ty = parse_declarator p base in
      expect_punct p ")";
      Ast.mk pos (Ast.SizeofTy ty)
    end
    else Ast.mk pos (Ast.SizeofE (parse_unary p))
  | _ -> parse_postfix p

and parse_postfix p : Ast.expr =
  let e = ref (parse_primary p) in
  let continue_loop = ref true in
  while !continue_loop do
    let pos = cur_pos p in
    match cur_tok p with
    | Token.PUNCT "[" ->
      advance p;
      let idx = parse_expr p in
      expect_punct p "]";
      e := Ast.mk pos (Ast.Index (!e, idx))
    | Token.PUNCT "(" ->
      advance p;
      let args = ref [] in
      if not (accept_punct p ")") then begin
        let rec args_loop () =
          args := parse_assignment p :: !args;
          if accept_punct p "," then args_loop () else expect_punct p ")"
        in
        args_loop ()
      end;
      e := Ast.mk pos (Ast.Call (!e, List.rev !args))
    | Token.PUNCT "." ->
      advance p;
      let f = expect_ident p in
      e := Ast.mk pos (Ast.Member (!e, f))
    | Token.PUNCT "->" ->
      advance p;
      let f = expect_ident p in
      e := Ast.mk pos (Ast.Arrow (!e, f))
    | Token.PUNCT "++" ->
      advance p;
      e := Ast.mk pos (Ast.PostIncr !e)
    | Token.PUNCT "--" ->
      advance p;
      e := Ast.mk pos (Ast.PostDecr !e)
    | _ -> continue_loop := false
  done;
  !e

and parse_primary p : Ast.expr =
  let pos = cur_pos p in
  match cur_tok p with
  | Token.INT_LIT (v, k, s) ->
    advance p;
    Ast.mk pos (Ast.IntLit (v, k, s))
  | Token.FLOAT_LIT (f, k) ->
    advance p;
    Ast.mk pos (Ast.FloatLit (f, k))
  | Token.CHAR_LIT c ->
    advance p;
    Ast.mk pos (Ast.CharLit c)
  | Token.STR_LIT s ->
    advance p;
    Ast.mk pos (Ast.StrLit s)
  | Token.IDENT name ->
    advance p;
    if Hashtbl.mem p.enums name then
      Ast.mk pos (Ast.IntLit (Hashtbl.find p.enums name, Ctype.IInt, Ctype.Signed))
    else Ast.mk pos (Ast.Ident name)
  | Token.PUNCT "(" ->
    advance p;
    let e = parse_expr p in
    expect_punct p ")";
    e
  | t -> err p "expected expression, found %s" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Initializers, statements                                            *)
(* ------------------------------------------------------------------ *)

and parse_initializer p : Ast.init =
  if accept_punct p "{" then begin
    let items = ref [] in
    if not (accept_punct p "}") then begin
      let rec init_loop () =
        items := parse_initializer p :: !items;
        if accept_punct p "," then begin
          if cur_tok p = Token.PUNCT "}" then expect_punct p "}" else init_loop ()
        end
        else expect_punct p "}"
      in
      init_loop ()
    end;
    Ast.Ilist (List.rev !items)
  end
  else Ast.Iexpr (parse_assignment p)

and parse_local_decls p : Ast.decl list =
  let base, saw_typedef = parse_decl_specs p in
  if saw_typedef then err p "typedef inside a function is not supported";
  let decls = ref [] in
  let rec decl_loop () =
    let d_pos = cur_pos p in
    let name, ty = parse_declarator p base in
    let name =
      match name with Some n -> n | None -> err p "declaration needs a name"
    in
    let init = if accept_punct p "=" then Some (parse_initializer p) else None in
    decls := { Ast.d_name = name; d_ty = ty; d_init = init; d_pos } :: !decls;
    if accept_punct p "," then decl_loop ()
  in
  decl_loop ();
  expect_punct p ";";
  List.rev !decls

and parse_stmt p : Ast.stmt =
  let pos = cur_pos p in
  match cur_tok p with
  | Token.PUNCT ";" ->
    advance p;
    Ast.Sempty
  | Token.PUNCT "{" -> Ast.Sblock (parse_block p)
  | Token.KW "if" ->
    advance p;
    expect_punct p "(";
    let cond = parse_expr p in
    expect_punct p ")";
    let then_s = parse_stmt p in
    let else_s = if accept_kw p "else" then Some (parse_stmt p) else None in
    Ast.Sif (cond, then_s, else_s)
  | Token.KW "while" ->
    advance p;
    expect_punct p "(";
    let cond = parse_expr p in
    expect_punct p ")";
    Ast.Swhile (cond, parse_stmt p)
  | Token.KW "do" ->
    advance p;
    let body = parse_stmt p in
    expect_kw p "while";
    expect_punct p "(";
    let cond = parse_expr p in
    expect_punct p ")";
    expect_punct p ";";
    Ast.Sdo (body, cond)
  | Token.KW "for" ->
    advance p;
    expect_punct p "(";
    let init =
      if accept_punct p ";" then None
      else if starts_type p (cur_tok p) then Some (Ast.Sdecl (parse_local_decls p))
      else begin
        let e = parse_expr p in
        expect_punct p ";";
        Some (Ast.Sexpr e)
      end
    in
    let cond = if cur_tok p = Token.PUNCT ";" then None else Some (parse_expr p) in
    expect_punct p ";";
    let step = if cur_tok p = Token.PUNCT ")" then None else Some (parse_expr p) in
    expect_punct p ")";
    Ast.Sfor (init, cond, step, parse_stmt p)
  | Token.KW "return" ->
    advance p;
    let e = if cur_tok p = Token.PUNCT ";" then None else Some (parse_expr p) in
    expect_punct p ";";
    Ast.Sreturn (e, pos)
  | Token.KW "break" ->
    advance p;
    expect_punct p ";";
    Ast.Sbreak pos
  | Token.KW "continue" ->
    advance p;
    expect_punct p ";";
    Ast.Scontinue pos
  | Token.KW "switch" ->
    advance p;
    expect_punct p "(";
    let e = parse_expr p in
    expect_punct p ")";
    let body = parse_block p in
    Ast.Sswitch (e, body, pos)
  | Token.KW "case" ->
    advance p;
    let v = const_expr p in
    expect_punct p ":";
    Ast.Scase (v, pos)
  | Token.KW "default" ->
    advance p;
    expect_punct p ":";
    Ast.Sdefault pos
  | t when starts_type p t -> Ast.Sdecl (parse_local_decls p)
  | _ ->
    let e = parse_expr p in
    expect_punct p ";";
    Ast.Sexpr e

and parse_block p : Ast.stmt list =
  expect_punct p "{";
  let stmts = ref [] in
  while not (accept_punct p "}") do
    stmts := parse_stmt p :: !stmts
  done;
  List.rev !stmts

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let parse_external p =
  let base, saw_typedef = parse_decl_specs p in
  if saw_typedef then begin
    let name, ty = parse_declarator p base in
    (match name with
    | Some n ->
      Hashtbl.replace p.typedefs n ty;
      p.decls <- Ast.Gtypedef (n, ty) :: p.decls
    | None -> err p "typedef needs a name");
    expect_punct p ";"
  end
  else if cur_tok p = Token.PUNCT ";" then
    (* struct/enum definition alone: already registered during specs *)
    advance p
  else begin
    let d_pos = cur_pos p in
    let name, ty = parse_declarator p base in
    let name =
      match name with Some n -> n | None -> err p "declaration needs a name"
    in
    match ty with
    | Ctype.Func fsig when cur_tok p = Token.PUNCT "{" ->
      (* Function definition: re-parse the parameter list for names.  We
         saved no parameter names in the type, so reconstruct from the
         declarator.  To keep things simple we require the common form
         [ret name(params) { ... }]: find the parameter names by
         re-walking the tokens is avoided by parsing definitions
         directly below in [parse_program]. *)
      ignore fsig;
      err p "internal: function definitions handled in parse_program"
    | Ctype.Func fsig ->
      p.decls <- Ast.Gfundecl (name, fsig) :: p.decls;
      expect_punct p ";"
    | _ ->
      let rec global_var name ty d_pos =
        let init =
          if accept_punct p "=" then Some (parse_initializer p) else None
        in
        p.decls <-
          Ast.Gvar { Ast.d_name = name; d_ty = ty; d_init = init; d_pos }
          :: p.decls;
        if accept_punct p "," then begin
          let d_pos = cur_pos p in
          let name2, ty2 = parse_declarator p base in
          match name2 with
          | Some n -> global_var n ty2 d_pos
          | None -> err p "declaration needs a name"
        end
        else expect_punct p ";"
      in
      global_var name ty d_pos
  end

(* Detect a function definition at the current position: decl-specs
   declarator '('...')' '{'.  We do this by trial parse with rollback. *)
let is_function_definition p =
  let save = p.idx in
  let save_structs = p.structs in
  let save_anon = p.anon_count in
  let result =
    try
      let base, saw_typedef = parse_decl_specs p in
      if saw_typedef then false
      else begin
        let _name, ty = parse_declarator p base in
        match (ty, cur_tok p) with
        | Ctype.Func _, Token.PUNCT "{" -> true
        | _ -> false
      end
    with Diag.Error _ -> false
  in
  p.idx <- save;
  p.structs <- save_structs;
  p.anon_count <- save_anon;
  result

let parse_function_definition p : Ast.func =
  let fn_pos = cur_pos p in
  let base, _ = parse_decl_specs p in
  (* Declarator of the form: ptr* name ( named-params ) *)
  let base = ref base in
  while accept_punct p "*" do
    base := Ctype.Ptr !base
  done;
  let fn_name = expect_ident p in
  expect_punct p "(";
  let fn_params, variadic = parse_named_params p in
  let fn_sig =
    { Ctype.ret = !base; params = List.map snd fn_params; variadic }
  in
  let fn_body = parse_block p in
  { Ast.fn_name; fn_sig; fn_params; fn_body; fn_pos }

(* Parse the remaining tokens' top-level declarations. *)
let parse_externals p =
  while cur_tok p <> Token.EOF do
    if is_function_definition p then
      p.decls <- Ast.Gfunc (parse_function_definition p) :: p.decls
    else parse_external p
  done

(* Struct definitions collected during parsing come first so that Sema
   knows the fields before any use. *)
let program p : Ast.program =
  List.rev_map (fun (tag, fields) -> Ast.Gstruct (tag, fields)) p.structs
  @ List.rev p.decls

(** Parse a complete translation unit. *)
let parse (toks : Token.spanned list) : Ast.program =
  let p = make_state toks in
  parse_externals p;
  program p

(** Convenience: parse a source string. *)
let parse_string ?start_line src = parse (Lexer.tokenize ?start_line src)

(** What lexing and parsing a source prefix left behind: the parser
    state at its end (typedef, enum and struct tables, the
    anonymous-struct counter, the declarations so far), the lexer's
    macro table, and the line the next source starts on. *)
type prefix = {
  pre_parser : p;
  pre_macros : (string, Token.t list) Hashtbl.t;
  pre_next_line : int;
}

(** Lex and parse [src], which must end with a newline (so no token or
    directive spans the seam), and keep the state it leaves. *)
let parse_prefix ?start_line src : prefix =
  if src <> "" && src.[String.length src - 1] <> '\n' then
    invalid_arg "Parser.parse_prefix: the prefix must end with a newline";
  let macros = Hashtbl.create 16 in
  let p = make_state (Lexer.tokenize ?start_line ~macros src) in
  parse_externals p;
  { pre_parser = p; pre_macros = macros; pre_next_line = (cur_pos p).line }

(** [parse_after pre src] is [parse_string ?start_line (prefix ^ src)]
    for the [prefix] and [start_line] [pre] was made from, positions
    included, but lexes and parses only [src].  It works on copies of
    [pre]'s tables, so [pre] can be continued any number of times. *)
let parse_after (pre : prefix) src : Ast.program =
  let q = pre.pre_parser in
  let toks =
    Lexer.tokenize ~start_line:pre.pre_next_line
      ~macros:(Hashtbl.copy pre.pre_macros) src
  in
  let p =
    {
      q with
      toks = Array.of_list toks;
      idx = 0;
      typedefs = Hashtbl.copy q.typedefs;
      enums = Hashtbl.copy q.enums;
    }
  in
  parse_externals p;
  program p
