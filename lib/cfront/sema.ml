(** Type checker for the C subset.

    [check] walks the program, fills every expression's [ty] annotation
    in place, completes unsized array declarations from their
    initializers, and builds the program environment (struct layouts,
    globals, function signatures) used by the lowering and by the
    engines.

    The checker is deliberately permissive where real-world C is
    permissive (implicit pointer conversions, int/pointer comparisons
    against 0) — the *dynamic* checks are the point of this system, and
    the paper's §3.2 even relaxes type rules at run time. *)

type env = {
  layout : Layout.env;
  globals : (string, Ctype.t) Hashtbl.t;
  funcs : (string, Ctype.fsig) Hashtbl.t;
  mutable scopes : (string, Ctype.t) Hashtbl.t list;  (* innermost first *)
  mutable current_ret : Ctype.t;
}

let make_env () =
  {
    layout = Layout.make_env ();
    globals = Hashtbl.create 64;
    funcs = Hashtbl.create 64;
    scopes = [];
    current_ret = Ctype.Void;
  }

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes

let pop_scope env =
  match env.scopes with
  | _ :: rest -> env.scopes <- rest
  | [] -> failwith "sema: scope underflow"

let add_local env name ty =
  match env.scopes with
  | scope :: _ -> Hashtbl.replace scope name ty
  | [] -> failwith "sema: no scope"

let lookup env name : Ctype.t option =
  let rec in_scopes = function
    | [] -> None
    | scope :: rest -> begin
      match Hashtbl.find_opt scope name with
      | Some ty -> Some ty
      | None -> in_scopes rest
    end
  in
  match in_scopes env.scopes with
  | Some ty -> Some ty
  | None -> begin
    match Hashtbl.find_opt env.globals name with
    | Some ty -> Some ty
    | None -> begin
      match Hashtbl.find_opt env.funcs name with
      | Some fsig -> Some (Ctype.Func fsig)
      | None -> None
    end
  end

let err pos fmt = Diag.error pos fmt

(* Can a value of type [src] be used where [dst] is expected?  Loose:
   arithmetic-to-arithmetic always (implicit conversion), pointers to
   pointers (warn-free as C compilers only warn), integer literals to
   pointers (NULL), pointer to integer of full width. *)
let assignable ~dst ~src =
  let dst = Ctype.decay dst and src = Ctype.decay src in
  match (dst, src) with
  | d, s when Ctype.equal d s -> true
  | d, s when Ctype.is_arith d && Ctype.is_arith s -> true
  | Ctype.Ptr _, Ctype.Ptr _ -> true
  | Ctype.Ptr _, Ctype.Int _ -> true (* 0 literals and real-world casts *)
  | Ctype.Int (Ctype.ILong, _), Ctype.Ptr _ -> true
  | Ctype.Struct a, Ctype.Struct b -> a = b
  | _ -> false

let rec is_lvalue (e : Ast.expr) =
  match e.desc with
  | Ast.Ident _ | Ast.Index _ | Ast.Deref _ | Ast.Member _ | Ast.Arrow _ -> true
  | Ast.StrLit _ -> true
  | Ast.Cast (_, inner) -> is_lvalue inner (* tolerated extension *)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec check_expr env (e : Ast.expr) : Ctype.t =
  let ty = infer env e in
  e.ty <- ty;
  ty

and infer env (e : Ast.expr) : Ctype.t =
  let module A = Ast in
  match e.desc with
  | A.IntLit (_, k, s) -> Ctype.Int (k, s)
  | A.FloatLit (_, k) -> Ctype.Float k
  | A.CharLit _ -> Ctype.int_t
  | A.StrLit s -> Ctype.Array (Ctype.char_t, Some (String.length s + 1))
  | A.Ident name -> begin
    match lookup env name with
    | Some ty -> ty
    | None -> err e.pos "undeclared identifier %S" name
  end
  | A.Unop (A.Neg, a) ->
    let t = Ctype.decay (check_expr env a) in
    if not (Ctype.is_arith t) then err e.pos "unary - needs arithmetic operand";
    Ctype.promote t
  | A.Unop (A.Bitnot, a) ->
    let t = Ctype.decay (check_expr env a) in
    if not (Ctype.is_integer t) then err e.pos "~ needs integer operand";
    Ctype.promote t
  | A.Unop (A.Lognot, a) ->
    let t = Ctype.decay (check_expr env a) in
    if not (Ctype.is_scalar t) then err e.pos "! needs scalar operand";
    Ctype.int_t
  | A.Binop (op, a, b) -> check_binop env e.pos op a b
  | A.Assign (op, lhs, rhs) ->
    let lt = check_expr env lhs in
    let rt = check_expr env rhs in
    if not (is_lvalue lhs) then err e.pos "assignment target is not an lvalue";
    (match op with
    | None ->
      if not (assignable ~dst:lt ~src:rt) then
        err e.pos "cannot assign %s to %s" (Ctype.to_string rt)
          (Ctype.to_string lt)
    | Some bop ->
      (* Compound assignment: lhs op rhs must be well-typed. *)
      ignore (binop_result env e.pos bop lt rt));
    lt
  | A.Cond (c, t, f) ->
    let ct = Ctype.decay (check_expr env c) in
    if not (Ctype.is_scalar ct) then err e.pos "?: condition must be scalar";
    let tt = Ctype.decay (check_expr env t) in
    let ft = Ctype.decay (check_expr env f) in
    if Ctype.is_arith tt && Ctype.is_arith ft then Ctype.usual_arith tt ft
    else if Ctype.equal tt ft then tt
    else if Ctype.is_pointer tt then tt
    else if Ctype.is_pointer ft then ft
    else err e.pos "incompatible branches of ?:"
  | A.Cast (ty, a) ->
    ignore (check_expr env a);
    ty
  | A.Call (callee, args) -> check_call env e.pos callee args
  | A.Index (a, idx) -> begin
    let at = Ctype.decay (check_expr env a) in
    let it = Ctype.decay (check_expr env idx) in
    match (at, it) with
    | Ctype.Ptr elem, t when Ctype.is_integer t -> elem
    | t, Ctype.Ptr elem when Ctype.is_integer t -> elem
    | _ -> err e.pos "invalid subscript: %s[%s]" (Ctype.to_string at)
             (Ctype.to_string it)
  end
  | A.Member (a, f) -> begin
    match check_expr env a with
    | Ctype.Struct tag -> begin
      try snd (Layout.field_offset env.layout tag f)
      with Failure _ -> err e.pos "struct %s has no field %S" tag f
    end
    | t -> err e.pos ".%s on non-struct %s" f (Ctype.to_string t)
  end
  | A.Arrow (a, f) -> begin
    match Ctype.decay (check_expr env a) with
    | Ctype.Ptr (Ctype.Struct tag) -> begin
      try snd (Layout.field_offset env.layout tag f)
      with Failure _ -> err e.pos "struct %s has no field %S" tag f
    end
    | t -> err e.pos "->%s on non-struct-pointer %s" f (Ctype.to_string t)
  end
  | A.Deref a -> begin
    match Ctype.decay (check_expr env a) with
    | Ctype.Ptr elem -> elem
    | t -> err e.pos "dereference of non-pointer %s" (Ctype.to_string t)
  end
  | A.Addrof a ->
    let t = check_expr env a in
    if not (is_lvalue a) && not (Ctype.is_func t) then
      err e.pos "& needs an lvalue";
    (match t with Ctype.Func _ -> Ctype.Ptr t | _ -> Ctype.Ptr t)
  | A.SizeofTy _ -> Ctype.size_t
  | A.SizeofE a ->
    ignore (check_expr env a);
    Ctype.size_t
  | A.PreIncr a | A.PreDecr a | A.PostIncr a | A.PostDecr a ->
    let t = check_expr env a in
    if not (is_lvalue a) then err e.pos "++/-- needs an lvalue";
    let d = Ctype.decay t in
    if not (Ctype.is_arith d || Ctype.is_pointer d) then
      err e.pos "++/-- needs arithmetic or pointer operand";
    t
  | A.Comma (a, b) ->
    ignore (check_expr env a);
    check_expr env b

and check_binop env pos op a b : Ctype.t =
  let ta = check_expr env a in
  let tb = check_expr env b in
  binop_result env pos op ta tb

and binop_result env pos (op : Ast.binop) ta tb : Ctype.t =
  ignore env;
  let module A = Ast in
  let ta = Ctype.decay ta and tb = Ctype.decay tb in
  match op with
  | A.Add -> begin
    match (ta, tb) with
    | t, i when Ctype.is_pointer t && Ctype.is_integer i -> ta
    | i, t when Ctype.is_pointer t && Ctype.is_integer i -> tb
    | a, b when Ctype.is_arith a && Ctype.is_arith b -> Ctype.usual_arith a b
    | _ -> err pos "invalid operands to +"
  end
  | A.Sub -> begin
    match (ta, tb) with
    | t, i when Ctype.is_pointer t && Ctype.is_integer i -> ta
    | Ctype.Ptr _, Ctype.Ptr _ -> Ctype.long_t
    | a, b when Ctype.is_arith a && Ctype.is_arith b -> Ctype.usual_arith a b
    | _ -> err pos "invalid operands to -"
  end
  | A.Mul | A.Div ->
    if Ctype.is_arith ta && Ctype.is_arith tb then Ctype.usual_arith ta tb
    else err pos "invalid operands to multiplicative operator"
  | A.Mod | A.Band | A.Bor | A.Bxor ->
    if Ctype.is_integer ta && Ctype.is_integer tb then Ctype.usual_arith ta tb
    else err pos "invalid operands to integer operator"
  | A.Shl | A.Shr ->
    if Ctype.is_integer ta && Ctype.is_integer tb then Ctype.promote ta
    else err pos "invalid operands to shift"
  | A.Lt | A.Gt | A.Le | A.Ge | A.Eq | A.Ne ->
    if
      (Ctype.is_arith ta && Ctype.is_arith tb)
      || (Ctype.is_pointer ta && Ctype.is_pointer tb)
      || (Ctype.is_pointer ta && Ctype.is_integer tb)
      || (Ctype.is_integer ta && Ctype.is_pointer tb)
    then Ctype.int_t
    else err pos "invalid comparison"
  | A.Logand | A.Logor ->
    if Ctype.is_scalar ta && Ctype.is_scalar tb then Ctype.int_t
    else err pos "invalid operands to logical operator"

and check_call env pos callee args : Ctype.t =
  let fsig =
    match callee.Ast.desc with
    | Ast.Ident name -> begin
      match Hashtbl.find_opt env.funcs name with
      | Some fsig ->
        callee.Ast.ty <- Ctype.Func fsig;
        fsig
      | None -> begin
        match lookup env name with
        | Some ty -> begin
          callee.Ast.ty <- ty;
          match Ctype.decay ty with
          | Ctype.Ptr (Ctype.Func fsig) -> fsig
          | _ -> err pos "called object %S is not a function" name
        end
        | None -> err pos "call to undeclared function %S" name
      end
    end
    | _ -> begin
      match Ctype.decay (check_expr env callee) with
      | Ctype.Ptr (Ctype.Func fsig) -> fsig
      | Ctype.Func fsig -> fsig
      | t -> err pos "called object has type %s" (Ctype.to_string t)
    end
  in
  let nparams = List.length fsig.Ctype.params in
  let nargs = List.length args in
  if nargs < nparams then err pos "too few arguments (%d < %d)" nargs nparams;
  if nargs > nparams && not fsig.Ctype.variadic then
    err pos "too many arguments (%d > %d)" nargs nparams;
  List.iteri
    (fun i arg ->
      let at = check_expr env arg in
      if i < nparams then begin
        let pt = List.nth fsig.Ctype.params i in
        if not (assignable ~dst:pt ~src:at) then
          err arg.Ast.pos "argument %d: cannot pass %s as %s" (i + 1)
            (Ctype.to_string at) (Ctype.to_string pt)
      end)
    args;
  fsig.Ctype.ret

(* ------------------------------------------------------------------ *)
(* Initializers, declarations, statements                              *)
(* ------------------------------------------------------------------ *)

(* Complete [int a[] = {...}] and [char s[] = "..."] array sizes. *)
let complete_array_type (d : Ast.decl) =
  match (d.d_ty, d.d_init) with
  | Ctype.Array (elem, None), Some (Ast.Ilist items) ->
    d.d_ty <- Ctype.Array (elem, Some (List.length items))
  | Ctype.Array (elem, None), Some (Ast.Iexpr { desc = Ast.StrLit s; _ }) ->
    d.d_ty <- Ctype.Array (elem, Some (String.length s + 1))
  | _ -> ()

let rec check_init env pos (ty : Ctype.t) (init : Ast.init) =
  match (ty, init) with
  | _, Ast.Iexpr e ->
    let et = check_expr env e in
    (* A string literal can initialize a char array in place; any other
       array takes a brace list. *)
    let ok =
      match (ty, e.desc) with
      | Ctype.Array (Ctype.Int (Ctype.IChar, _), _), Ast.StrLit _ -> true
      | Ctype.Array _, _ -> false
      | _ -> assignable ~dst:ty ~src:et
    in
    if not ok then
      err pos "cannot initialize %s with %s" (Ctype.to_string ty)
        (Ctype.to_string et)
  | Ctype.Array (elem, size), Ast.Ilist items ->
    (match size with
    | Some n when List.length items > n ->
      err pos "too many initializers for array of %d" n
    | _ -> ());
    List.iter (check_init env pos elem) items
  | Ctype.Struct tag, Ast.Ilist items ->
    let fields = Layout.struct_fields env.layout tag in
    if List.length items > List.length fields then
      err pos "too many initializers for struct %s" tag;
    List.iteri
      (fun i item ->
        let f = List.nth fields i in
        check_init env pos f.Ast.f_ty item)
      items
  | _, Ast.Ilist _ -> err pos "brace initializer for scalar %s" (Ctype.to_string ty)

let rec check_stmt env (s : Ast.stmt) =
  let module A = Ast in
  match s with
  | A.Sexpr e -> ignore (check_expr env e)
  | A.Sdecl decls ->
    List.iter
      (fun (d : A.decl) ->
        complete_array_type d;
        (match d.d_init with
        | Some init -> check_init env d.d_pos d.d_ty init
        | None -> ());
        add_local env d.d_name d.d_ty)
      decls
  | A.Sif (c, t, f) ->
    ignore (check_expr env c);
    check_stmt env t;
    Option.iter (check_stmt env) f
  | A.Swhile (c, body) ->
    ignore (check_expr env c);
    check_stmt env body
  | A.Sdo (body, c) ->
    check_stmt env body;
    ignore (check_expr env c)
  | A.Sfor (init, cond, step, body) ->
    push_scope env;
    Option.iter (check_stmt env) init;
    Option.iter (fun e -> ignore (check_expr env e)) cond;
    Option.iter (fun e -> ignore (check_expr env e)) step;
    check_stmt env body;
    pop_scope env
  | A.Sreturn (e, pos) -> begin
    match (e, env.current_ret) with
    | None, Ctype.Void -> ()
    | None, _ -> err pos "return without a value in non-void function"
    | Some e, ret ->
      let t = check_expr env e in
      if Ctype.is_void ret then err pos "return with a value in void function"
      else if not (assignable ~dst:ret ~src:t) then
        err pos "cannot return %s as %s" (Ctype.to_string t)
          (Ctype.to_string ret)
  end
  | A.Sbreak _ | A.Scontinue _ | A.Sempty | A.Scase _ | A.Sdefault _ -> ()
  | A.Sblock stmts ->
    push_scope env;
    List.iter (check_stmt env) stmts;
    pop_scope env
  | A.Sswitch (e, body, _) ->
    ignore (check_expr env e);
    (* C11 6.8.4.2p1: the controlling expression shall have integer
       type (it then undergoes integer promotion in the lowering). *)
    if not (Ctype.is_integer (Ctype.decay e.A.ty)) then
      err e.A.pos "switch controlling expression must have integer type";
    push_scope env;
    List.iter (check_stmt env) body;
    pop_scope env

let check_func env (f : Ast.func) =
  (* Structs by value are outside the supported subset (pass pointers);
     reject with a source position instead of failing in the lowering. *)
  List.iter
    (fun (name, ty) ->
      if Ctype.is_struct ty then
        err f.fn_pos "parameter %S: struct parameters must be passed by pointer"
          name)
    f.fn_params;
  if Ctype.is_struct f.fn_sig.Ctype.ret then
    err f.fn_pos "function %S: returning a struct by value is not supported"
      f.fn_name;
  env.current_ret <- f.fn_sig.Ctype.ret;
  push_scope env;
  List.iter (fun (name, ty) -> add_local env name ty) f.fn_params;
  List.iter (check_stmt env) f.fn_body;
  pop_scope env

(** Type-check a program; returns the environment for lowering. *)
let check (prog : Ast.program) : env =
  let env = make_env () in
  (* First pass: collect structs, typedefs resolved already, globals and
     function signatures so that forward references work. *)
  List.iter
    (fun g ->
      match g with
      | Ast.Gstruct (tag, fields) -> Layout.add_struct env.layout tag fields
      | Ast.Gfunc f -> Hashtbl.replace env.funcs f.fn_name f.fn_sig
      | Ast.Gfundecl (name, fsig) ->
        if not (Hashtbl.mem env.funcs name) then
          Hashtbl.replace env.funcs name fsig
      | Ast.Gvar d ->
        complete_array_type d;
        Hashtbl.replace env.globals d.d_name d.d_ty
      | Ast.Gtypedef _ | Ast.Genum _ -> ())
    prog;
  (* Second pass: check bodies and global initializers. *)
  List.iter
    (fun g ->
      match g with
      | Ast.Gvar d -> begin
        match d.d_init with
        | Some init -> check_init env d.d_pos d.d_ty init
        | None -> ()
      end
      | Ast.Gfunc f -> check_func env f
      | Ast.Gstruct _ | Ast.Gfundecl _ | Ast.Gtypedef _ | Ast.Genum _ -> ())
    prog;
  env
