(** Lowering of the typed C AST to the IR, in the style of Clang -O0:
    every local variable becomes an [Alloca]; all reads and writes go
    through memory; no optimization is applied (the paper compiles all
    programs with -O0 "to lower the risk that bugs are optimized away").

    Short-circuit operators and the conditional operator are lowered with
    temporary allocas rather than phis — exactly the shape unoptimized
    Clang output has; [Opt.Mem2reg] cleans this up for the optimizing
    pipelines. *)

module A = Ast

exception Unsupported of Token.pos * string

let unsupported pos fmt =
  Format.kasprintf (fun msg -> raise (Unsupported (pos, msg))) fmt

(* ------------------------------------------------------------------ *)
(* Type mapping                                                        *)
(* ------------------------------------------------------------------ *)

let scalar_of_ctype pos (ty : Ctype.t) : Irtype.scalar =
  match (Cscalar.scalar ty, ty) with
  | Some s, _ -> s
  | None, Ctype.Struct tag ->
    unsupported pos "struct %s by value is not supported" tag
  | None, _ -> unsupported pos "void value in scalar position"

let ret_scalar pos (ty : Ctype.t) : Irtype.scalar option =
  match ty with Ctype.Void -> None | _ -> Some (scalar_of_ctype pos ty)

let rec mty_of_ctype (lenv : Layout.env) (ty : Ctype.t) : Irtype.mty =
  match ty with
  | Ctype.Void -> Irtype.MScalar Irtype.I8
  | Ctype.Int (Ctype.IChar, _) -> Irtype.MScalar Irtype.I8
  | Ctype.Int (Ctype.IShort, _) -> Irtype.MScalar Irtype.I16
  | Ctype.Int (Ctype.IInt, _) -> Irtype.MScalar Irtype.I32
  | Ctype.Int (Ctype.ILong, _) -> Irtype.MScalar Irtype.I64
  | Ctype.Float Ctype.FFloat -> Irtype.MScalar Irtype.F32
  | Ctype.Float Ctype.FDouble -> Irtype.MScalar Irtype.F64
  | Ctype.Ptr _ | Ctype.Func _ -> Irtype.MScalar Irtype.Ptr
  | Ctype.Array (elem, Some n) -> Irtype.MArray (mty_of_ctype lenv elem, n)
  | Ctype.Array (elem, None) -> Irtype.MArray (mty_of_ctype lenv elem, 0)
  | Ctype.Struct tag ->
    let fields =
      List.map
        (fun (name, fty, off) ->
          { Irtype.mf_name = name; mf_ty = mty_of_ctype lenv fty; mf_off = off })
        (Layout.fields_with_offsets lenv tag)
    in
    Irtype.MStruct
      {
        Irtype.s_tag = tag;
        s_fields = fields;
        s_size = Layout.size lenv (Ctype.Struct tag);
        s_align = Layout.align lenv (Ctype.Struct tag);
      }

(* ------------------------------------------------------------------ *)
(* Lowering state                                                      *)
(* ------------------------------------------------------------------ *)

type ctx = {
  env : Sema.env;
  m : Irmod.t;
  mutable b : Builder.t;
  mutable locals : (string * (Instr.value * Ctype.t)) list list;
      (** scope stack of (name -> alloca pointer, declared type) *)
  mutable break_labels : string list;
  mutable continue_labels : string list;
  strings : (string, string) Hashtbl.t;  (** literal -> global name *)
  string_prefix : string;
  mutable string_count : int;
  mutable ret_ty : Ctype.t;
  src_file : string;  (** display name stamped on every emitted function *)
}

(** Emit a [Srcloc] provenance marker for the statement at [pos]: the
    interpreter updates the frame's current line from it, so run-time
    errors can name the faulting C statement. *)
let emit_loc ctx (pos : Token.pos) =
  Builder.emit ctx.b (Instr.Srcloc (pos.Token.line, pos.Token.col))

let push_locals ctx = ctx.locals <- [] :: ctx.locals

let pop_locals ctx =
  match ctx.locals with
  | _ :: rest -> ctx.locals <- rest
  | [] -> failwith "lower: scope underflow"

let add_local ctx name v ty =
  match ctx.locals with
  | scope :: rest -> ctx.locals <- ((name, (v, ty)) :: scope) :: rest
  | [] -> failwith "lower: no scope"

let find_local ctx name =
  let rec go = function
    | [] -> None
    | scope :: rest -> begin
      match List.assoc_opt name scope with
      | Some x -> Some x
      | None -> go rest
    end
  in
  go ctx.locals

(** Intern a string literal as a global byte array (with NUL). *)
let intern_string ctx s =
  match Hashtbl.find_opt ctx.strings s with
  | Some name -> name
  | None ->
    ctx.string_count <- ctx.string_count + 1;
    let name = Printf.sprintf "%s.%d" ctx.string_prefix ctx.string_count in
    Hashtbl.replace ctx.strings s name;
    Irmod.add_global ctx.m
      {
        Irmod.g_name = name;
        g_ty = Irtype.MArray (Irtype.MScalar Irtype.I8, String.length s + 1);
        g_init = Irmod.Gstring (s ^ "\000");
      };
    name

(* ------------------------------------------------------------------ *)
(* Conversions                                                        *)
(* ------------------------------------------------------------------ *)

(** When false, immediate conversions lower to real cast instructions
    instead of folding here.  All production pipelines keep this on (as
    Clang does even at -O0); the differential-testing oracle flips it to
    cross-check front-end folding against the engines' cast semantics. *)
let fold_immediates = ref true

(** Convert value [v] of C type [from_ty] to C type [to_ty], emitting
    cast instructions as needed. *)
let coerce ctx pos ~(from_ty : Ctype.t) ~(to_ty : Ctype.t) (v : Instr.value) :
    Instr.value =
  let from_ty = Ctype.decay from_ty and to_ty = Ctype.decay to_ty in
  if Ctype.equal from_ty to_ty then v
  else begin
    let fs = scalar_of_ctype pos from_ty in
    let ts = scalar_of_ctype pos to_ty in
    let op =
      try Cscalar.cast ~from_ty ~to_ty
      with Invalid_argument _ ->
        unsupported pos "cannot convert %s to %s" (Ctype.to_string from_ty)
          (Ctype.to_string to_ty)
    in
    (* Immediate conversions fold in the front end — Clang does this
       even at -O0, which is what lets its backend delete constant-index
       out-of-bounds accesses (paper case study 3). *)
    let folded =
      match v with
      | (Instr.ImmInt _ | Instr.ImmFloat _) when !fold_immediates -> (
        match (v, Cscalar.conversion ~from_ty ~to_ty) with
        | Instr.ImmInt (x, _), Scalar.Int_to_int f
          when Irtype.is_int_scalar fs && Irtype.is_int_scalar ts ->
          Some (Instr.ImmInt (f x, ts))
        | Instr.ImmInt (x, _), Scalar.Int_to_float f ->
          Some (Instr.ImmFloat (f x, ts))
        | Instr.ImmFloat (x, _), Scalar.Float_to_float f ->
          Some (Instr.ImmFloat (f x, ts))
        | _ -> None)
      | _ -> None
    in
    match (folded, v, op) with
    | Some c, _, _ -> c
    | None, Instr.ImmInt (0L, _), _ when ts = Irtype.Ptr -> Instr.Null
    | None, _, None -> v
    | None, _, Some op -> Builder.cast ctx.b op ~from:fs ~into:ts v
  end

(** Produce an i1 "is true" flag from a scalar C value. *)
let truth ctx pos (ty : Ctype.t) (v : Instr.value) : Instr.value =
  let ty = Ctype.decay ty in
  let s = scalar_of_ctype pos ty in
  match s with
  | Irtype.F32 | Irtype.F64 ->
    Builder.fcmp ctx.b Instr.Fne s v (Instr.ImmFloat (0.0, s))
  | Irtype.Ptr -> Builder.icmp ctx.b Instr.Ine s v Instr.Null
  | _ -> Builder.icmp ctx.b Instr.Ine s v (Instr.ImmInt (0L, s))

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let imm_int v s = Instr.ImmInt (Scalar.normalize_int s v, s)

let rec lower_lvalue ctx (e : A.expr) : Instr.value =
  match e.A.desc with
  | A.Ident name -> begin
    match find_local ctx name with
    | Some (ptr, _) -> ptr
    | None ->
      if Hashtbl.mem ctx.env.Sema.globals name then Instr.GlobalAddr name
      else if Hashtbl.mem ctx.env.Sema.funcs name then Instr.FuncAddr name
      else unsupported e.A.pos "unknown identifier %S" name
  end
  | A.Deref inner -> lower_rvalue ctx inner
  | A.Index (base, idx) ->
    let elem_ty = e.A.ty in
    let elem_size = Layout.size ctx.env.Sema.layout elem_ty in
    let base_ty = Ctype.decay base.A.ty in
    let base_v, idx_v =
      (* C allows idx[base] too; Sema already typed the element. *)
      if Ctype.is_pointer base_ty then
        (lower_rvalue ctx base, lower_index_value ctx idx)
      else (lower_rvalue ctx idx, lower_index_value ctx base)
    in
    Builder.gep ctx.b base_v [ Instr.Gindex (idx_v, elem_size) ]
  | A.Member (base, fname) -> begin
    match Ctype.decay base.A.ty with
    | Ctype.Struct tag ->
      let off, _ = Layout.field_offset ctx.env.Sema.layout tag fname in
      let idx = Layout.field_index ctx.env.Sema.layout tag fname in
      let base_v = lower_lvalue ctx base in
      Builder.gep ctx.b base_v [ Instr.Gfield (idx, off) ]
    | t -> unsupported e.A.pos "member of non-struct %s" (Ctype.to_string t)
  end
  | A.Arrow (base, fname) -> begin
    match Ctype.decay base.A.ty with
    | Ctype.Ptr (Ctype.Struct tag) ->
      let off, _ = Layout.field_offset ctx.env.Sema.layout tag fname in
      let idx = Layout.field_index ctx.env.Sema.layout tag fname in
      let base_v = lower_rvalue ctx base in
      Builder.gep ctx.b base_v [ Instr.Gfield (idx, off) ]
    | t -> unsupported e.A.pos "arrow on %s" (Ctype.to_string t)
  end
  | A.StrLit s -> Instr.GlobalAddr (intern_string ctx s)
  | A.Cast (_, inner) -> lower_lvalue ctx inner
  | _ -> unsupported e.A.pos "expression is not an lvalue"

(* Indexes and pointer-arithmetic offsets are widened to i64. *)
and lower_index_value ctx (e : A.expr) : Instr.value =
  let v = lower_rvalue ctx e in
  coerce ctx e.A.pos ~from_ty:e.A.ty ~to_ty:Ctype.long_t v

and lower_rvalue ctx (e : A.expr) : Instr.value =
  match e.A.desc with
  | A.IntLit (v, k, s) -> imm_int v (scalar_of_ctype e.A.pos (Ctype.Int (k, s)))
  | A.CharLit c -> imm_int (Int64.of_int (Char.code c)) Irtype.I32
  | A.FloatLit (f, k) ->
    (* A `float` literal denotes the nearest binary32 value: the lexer
       parses to double, so round here (16777217.0f must be 16777216). *)
    let s = scalar_of_ctype e.A.pos (Ctype.Float k) in
    Instr.ImmFloat (Scalar.round_result s f, s)
  | A.StrLit s -> Instr.GlobalAddr (intern_string ctx s)
  | A.Ident name -> begin
    match Ctype.decay e.A.ty <> e.A.ty, e.A.ty with
    | _, Ctype.Func _ -> Instr.FuncAddr name
    | true, _ ->
      (* Array-typed: the value is the object's address. *)
      lower_lvalue ctx e
    | false, _ ->
      let ptr = lower_lvalue ctx e in
      Builder.load ctx.b (scalar_of_ctype e.A.pos e.A.ty) ptr
  end
  | A.Index _ | A.Member _ | A.Arrow _ | A.Deref _ ->
    if Ctype.is_array e.A.ty then lower_lvalue ctx e
    else begin
      let ptr = lower_lvalue ctx e in
      Builder.load ctx.b (scalar_of_ctype e.A.pos e.A.ty) ptr
    end
  | A.Addrof inner -> lower_lvalue ctx inner
  | A.Unop (op, a) -> lower_unop ctx e op a
  | A.Binop (op, a, b) -> lower_binop ctx e op a b
  | A.Assign (op, lhs, rhs) -> lower_assign ctx e op lhs rhs
  | A.Cond (c, t, f) -> lower_cond ctx e c t f
  | A.Cast (ty, a) ->
    let v = lower_rvalue ctx a in
    if Ctype.is_void ty then v
    else coerce ctx e.A.pos ~from_ty:a.A.ty ~to_ty:ty v
  | A.Call (callee, args) -> begin
    match lower_call ctx e callee args with
    | Some v -> v
    | None ->
      (* void call in value position only occurs behind a Comma/Sexpr *)
      imm_int 0L Irtype.I32
  end
  | A.SizeofTy ty ->
    imm_int (Int64.of_int (Layout.size ctx.env.Sema.layout ty)) Irtype.I64
  | A.SizeofE a ->
    imm_int (Int64.of_int (Layout.size ctx.env.Sema.layout a.A.ty)) Irtype.I64
  | A.PreIncr a -> lower_incdec ctx e a ~delta:1L ~post:false
  | A.PreDecr a -> lower_incdec ctx e a ~delta:(-1L) ~post:false
  | A.PostIncr a -> lower_incdec ctx e a ~delta:1L ~post:true
  | A.PostDecr a -> lower_incdec ctx e a ~delta:(-1L) ~post:true
  | A.Comma (a, b) ->
    ignore (lower_discard ctx a);
    lower_rvalue ctx b

and lower_discard ctx (e : A.expr) =
  (* Evaluate for side effects only; void calls are legal here. *)
  match e.A.desc with
  | A.Call (callee, args) -> ignore (lower_call ctx e callee args)
  | _ -> ignore (lower_rvalue ctx e)

and lower_unop ctx (e : A.expr) op (a : A.expr) : Instr.value =
  let pos = e.A.pos in
  match op with
  | A.Neg ->
    let ty = e.A.ty in
    let s = scalar_of_ctype pos ty in
    let v = coerce ctx pos ~from_ty:a.A.ty ~to_ty:ty (lower_rvalue ctx a) in
    let zero =
      if Irtype.is_float_scalar s then Instr.ImmFloat (0.0, s) else imm_int 0L s
    in
    Builder.binop ctx.b (Option.get (Cscalar.binop A.Sub ty)) s zero v
  | A.Bitnot ->
    let ty = e.A.ty in
    let s = scalar_of_ctype pos ty in
    let v = coerce ctx pos ~from_ty:a.A.ty ~to_ty:ty (lower_rvalue ctx a) in
    Builder.binop ctx.b Instr.Xor s v (imm_int (-1L) s)
  | A.Lognot ->
    let v = lower_rvalue ctx a in
    let t = truth ctx pos a.A.ty v in
    (* !x is 1 when x is 0 *)
    let inverted = Builder.binop ctx.b Instr.Xor Irtype.I1 t (imm_int 1L Irtype.I1) in
    Builder.cast ctx.b Instr.Zext ~from:Irtype.I1 ~into:Irtype.I32 inverted

and lower_binop ctx (e : A.expr) op (a : A.expr) (b : A.expr) : Instr.value =
  let pos = e.A.pos in
  let lenv = ctx.env.Sema.layout in
  let ta = Ctype.decay a.A.ty and tb = Ctype.decay b.A.ty in
  match op with
  | A.Logand | A.Logor -> lower_shortcircuit ctx e op a b
  | A.Add when Ctype.is_pointer ta && Ctype.is_integer tb ->
    let elem = match ta with Ctype.Ptr t -> t | _ -> assert false in
    let base = lower_rvalue ctx a in
    let idx = lower_index_value ctx b in
    Builder.gep ctx.b base [ Instr.Gindex (idx, Layout.size lenv elem) ]
  | A.Add when Ctype.is_integer ta && Ctype.is_pointer tb ->
    let elem = match tb with Ctype.Ptr t -> t | _ -> assert false in
    let base = lower_rvalue ctx b in
    let idx = lower_index_value ctx a in
    Builder.gep ctx.b base [ Instr.Gindex (idx, Layout.size lenv elem) ]
  | A.Sub when Ctype.is_pointer ta && Ctype.is_integer tb ->
    let elem = match ta with Ctype.Ptr t -> t | _ -> assert false in
    let base = lower_rvalue ctx a in
    let idx = lower_index_value ctx b in
    let neg =
      Builder.binop ctx.b Instr.Sub Irtype.I64 (imm_int 0L Irtype.I64) idx
    in
    Builder.gep ctx.b base [ Instr.Gindex (neg, Layout.size lenv elem) ]
  | A.Sub when Ctype.is_pointer ta && Ctype.is_pointer tb ->
    let elem = match ta with Ctype.Ptr t -> t | _ -> assert false in
    let va = lower_rvalue ctx a and vb = lower_rvalue ctx b in
    let ia = Builder.cast ctx.b Instr.Ptrtoint ~from:Irtype.Ptr ~into:Irtype.I64 va in
    let ib = Builder.cast ctx.b Instr.Ptrtoint ~from:Irtype.Ptr ~into:Irtype.I64 vb in
    let diff = Builder.binop ctx.b Instr.Sub Irtype.I64 ia ib in
    let esize = max 1 (Layout.size lenv elem) in
    Builder.binop ctx.b Instr.Sdiv Irtype.I64 diff (imm_int (Int64.of_int esize) Irtype.I64)
  | A.Lt | A.Gt | A.Le | A.Ge | A.Eq | A.Ne -> lower_comparison ctx e op a b
  | _ ->
    (* Plain arithmetic: both operands convert to the result type. *)
    let ty = e.A.ty in
    let s = scalar_of_ctype pos ty in
    let va = coerce ctx pos ~from_ty:a.A.ty ~to_ty:ty (lower_rvalue ctx a) in
    let vb =
      (* Shift counts keep their own promoted type in C; converting to
         the result type is harmless for the widths we support. *)
      coerce ctx pos ~from_ty:b.A.ty ~to_ty:ty (lower_rvalue ctx b)
    in
    Builder.binop ctx.b (Option.get (Cscalar.binop op ty)) s va vb

and lower_comparison ctx (e : A.expr) op (a : A.expr) (b : A.expr) :
    Instr.value =
  let pos = e.A.pos in
  let ta = Ctype.decay a.A.ty and tb = Ctype.decay b.A.ty in
  let common =
    if Ctype.is_pointer ta || Ctype.is_pointer tb then
      if Ctype.is_pointer ta then ta else tb
    else Ctype.usual_arith ta tb
  in
  let va = coerce ctx pos ~from_ty:a.A.ty ~to_ty:common (lower_rvalue ctx a) in
  let vb = coerce ctx pos ~from_ty:b.A.ty ~to_ty:common (lower_rvalue ctx b) in
  let s = scalar_of_ctype pos common in
  let flag =
    if Irtype.is_float_scalar s then Builder.fcmp ctx.b (Cscalar.fcmp op) s va vb
    else Builder.icmp ctx.b (Cscalar.icmp op common) s va vb
  in
  Builder.cast ctx.b Instr.Zext ~from:Irtype.I1 ~into:Irtype.I32 flag

(* Short-circuit via a temporary alloca, as unoptimized Clang does. *)
and lower_shortcircuit ctx (e : A.expr) op (a : A.expr) (b : A.expr) :
    Instr.value =
  let bld = ctx.b in
  let tmp = Builder.alloca bld (Irtype.MScalar Irtype.I32) in
  let rhs_l = Builder.fresh_label bld "sc.rhs" in
  let end_l = Builder.fresh_label bld "sc.end" in
  let va = lower_rvalue ctx a in
  let fa = truth ctx a.A.pos a.A.ty va in
  let fa32 = Builder.cast bld Instr.Zext ~from:Irtype.I1 ~into:Irtype.I32 fa in
  Builder.store bld Irtype.I32 fa32 tmp;
  (match op with
  | A.Logand -> Builder.terminate bld (Instr.Condbr (fa, rhs_l, end_l))
  | A.Logor -> Builder.terminate bld (Instr.Condbr (fa, end_l, rhs_l))
  | _ -> assert false);
  let rhs_b = Builder.new_block bld rhs_l in
  Builder.switch_to bld rhs_b;
  let vb = lower_rvalue ctx b in
  let fb = truth ctx b.A.pos b.A.ty vb in
  let fb32 = Builder.cast bld Instr.Zext ~from:Irtype.I1 ~into:Irtype.I32 fb in
  Builder.store bld Irtype.I32 fb32 tmp;
  Builder.terminate bld (Instr.Br end_l);
  let end_b = Builder.new_block bld end_l in
  Builder.switch_to bld end_b;
  ignore e;
  Builder.load bld Irtype.I32 tmp

and lower_cond ctx (e : A.expr) (c : A.expr) (t : A.expr) (f : A.expr) :
    Instr.value =
  let bld = ctx.b in
  let is_void = Ctype.is_void e.A.ty in
  let s = if is_void then Irtype.I32 else scalar_of_ctype e.A.pos e.A.ty in
  let tmp = Builder.alloca bld (Irtype.MScalar s) in
  let then_l = Builder.fresh_label bld "cond.t" in
  let else_l = Builder.fresh_label bld "cond.f" in
  let end_l = Builder.fresh_label bld "cond.end" in
  let vc = lower_rvalue ctx c in
  let fc = truth ctx c.A.pos c.A.ty vc in
  Builder.terminate bld (Instr.Condbr (fc, then_l, else_l));
  let then_b = Builder.new_block bld then_l in
  Builder.switch_to bld then_b;
  if is_void then lower_discard ctx t
  else begin
    let vt = coerce ctx t.A.pos ~from_ty:t.A.ty ~to_ty:e.A.ty (lower_rvalue ctx t) in
    Builder.store bld s vt tmp
  end;
  Builder.terminate bld (Instr.Br end_l);
  let else_b = Builder.new_block bld else_l in
  Builder.switch_to bld else_b;
  if is_void then lower_discard ctx f
  else begin
    let vf = coerce ctx f.A.pos ~from_ty:f.A.ty ~to_ty:e.A.ty (lower_rvalue ctx f) in
    Builder.store bld s vf tmp
  end;
  Builder.terminate bld (Instr.Br end_l);
  let end_b = Builder.new_block bld end_l in
  Builder.switch_to bld end_b;
  Builder.load bld s tmp

and lower_assign ctx (e : A.expr) op (lhs : A.expr) (rhs : A.expr) :
    Instr.value =
  let pos = e.A.pos in
  (match Ctype.decay lhs.A.ty with
  | Ctype.Struct tag ->
    unsupported pos "assignment of struct %s by value is not supported" tag
  | _ -> ());
  let ptr = lower_lvalue ctx lhs in
  let s = scalar_of_ctype pos lhs.A.ty in
  let value =
    match op with
    | None -> coerce ctx pos ~from_ty:rhs.A.ty ~to_ty:lhs.A.ty (lower_rvalue ctx rhs)
    | Some bop ->
      (* lhs op= rhs  ==>  lhs = (T)(lhs op rhs) *)
      let lt = Ctype.decay lhs.A.ty and rt = Ctype.decay rhs.A.ty in
      if Ctype.is_pointer lt then begin
        (* p += n / p -= n *)
        let elem = match lt with Ctype.Ptr t -> t | _ -> assert false in
        let cur = Builder.load ctx.b s ptr in
        let idx = lower_index_value ctx rhs in
        let idx =
          match bop with
          | A.Add -> idx
          | A.Sub ->
            Builder.binop ctx.b Instr.Sub Irtype.I64 (imm_int 0L Irtype.I64) idx
          | _ -> unsupported pos "invalid pointer compound assignment"
        in
        Builder.gep ctx.b cur
          [ Instr.Gindex (idx, Layout.size ctx.env.Sema.layout elem) ]
      end
      else begin
        let opty = Ctype.usual_arith lt rt in
        let os = scalar_of_ctype pos opty in
        let cur = Builder.load ctx.b s ptr in
        let cur = coerce ctx pos ~from_ty:lt ~to_ty:opty cur in
        let rv = coerce ctx pos ~from_ty:rhs.A.ty ~to_ty:opty (lower_rvalue ctx rhs) in
        let iop =
          match Cscalar.binop bop opty with
          | Some iop -> iop
          | None -> unsupported pos "invalid compound assignment operator"
        in
        let res = Builder.binop ctx.b iop os cur rv in
        coerce ctx pos ~from_ty:opty ~to_ty:lhs.A.ty res
      end
  in
  Builder.store ctx.b s value ptr;
  value

and lower_incdec ctx (e : A.expr) (a : A.expr) ~delta ~post : Instr.value =
  let pos = e.A.pos in
  let ptr = lower_lvalue ctx a in
  let ty = Ctype.decay a.A.ty in
  let s = scalar_of_ctype pos ty in
  let old_v = Builder.load ctx.b s ptr in
  let new_v =
    if Ctype.is_pointer ty then begin
      let elem = match ty with Ctype.Ptr t -> t | _ -> assert false in
      Builder.gep ctx.b old_v
        [ Instr.Gindex (imm_int delta Irtype.I64, Layout.size ctx.env.Sema.layout elem) ]
    end
    else if Irtype.is_float_scalar s then
      Builder.binop ctx.b Instr.FAdd s old_v
        (Instr.ImmFloat (Int64.to_float delta, s))
    else Builder.binop ctx.b Instr.Add s old_v (imm_int delta s)
  in
  Builder.store ctx.b s new_v ptr;
  if post then old_v else new_v

and lower_call ctx (e : A.expr) (callee : A.expr) (args : A.expr list) :
    Instr.value option =
  let pos = e.A.pos in
  let fsig =
    match Ctype.decay callee.A.ty with
    | Ctype.Ptr (Ctype.Func fsig) -> fsig
    | Ctype.Func fsig -> fsig
    | t -> unsupported pos "call of non-function %s" (Ctype.to_string t)
  in
  let target =
    match callee.A.desc with
    | A.Ident name when Hashtbl.mem ctx.env.Sema.funcs name
                        && find_local ctx name = None ->
      Instr.Direct name
    | _ -> Instr.Indirect (lower_rvalue ctx callee)
  in
  let nparams = List.length fsig.Ctype.params in
  let lowered_args =
    List.mapi
      (fun i (arg : A.expr) ->
        if i < nparams then begin
          let pt = List.nth fsig.Ctype.params i in
          let v = coerce ctx pos ~from_ty:arg.A.ty ~to_ty:pt (lower_rvalue ctx arg) in
          (scalar_of_ctype pos pt, v)
        end
        else begin
          (* Default argument promotions for variadic extras. *)
          let at = Ctype.decay arg.A.ty in
          let promoted =
            match at with
            | Ctype.Float Ctype.FFloat -> Ctype.double_t
            | Ctype.Int (k, _) when Ctype.rank k < Ctype.rank Ctype.IInt ->
              Ctype.promote at
            | t -> t
          in
          let v =
            coerce ctx pos ~from_ty:arg.A.ty ~to_ty:promoted (lower_rvalue ctx arg)
          in
          (scalar_of_ctype pos promoted, v)
        end)
      args
  in
  Builder.call ctx.b (ret_scalar_opt pos fsig.Ctype.ret) target lowered_args

and ret_scalar_opt pos ty = ret_scalar pos ty

(* ------------------------------------------------------------------ *)
(* Initializers                                                        *)
(* ------------------------------------------------------------------ *)

(* Store initializer [init] into the object at [ptr] of type [ty],
   zero-filling the tail that a partial brace list leaves out (C11
   6.7.9p21). *)
let rec lower_local_init ctx pos (ty : Ctype.t) (init : A.init)
    (ptr : Instr.value) =
  let lenv = ctx.env.Sema.layout in
  match (ty, init) with
  | Ctype.Array (Ctype.Int (Ctype.IChar, _), Some n), A.Iexpr { A.desc = A.StrLit s; _ } ->
    (* char s[n] = "..." : bytes plus NUL, zero-fill the rest. *)
    for i = 0 to n - 1 do
      let byte = if i < String.length s then Char.code s.[i] else 0 in
      let cell = Builder.gep ctx.b ptr [ Instr.Gindex (imm_int (Int64.of_int i) Irtype.I64, 1) ] in
      Builder.store ctx.b Irtype.I8 (imm_int (Int64.of_int byte) Irtype.I8) cell
    done
  | Ctype.Array (elem, Some n), A.Ilist items ->
    let esize = Layout.size lenv elem in
    List.iteri
      (fun i item ->
        let cell =
          Builder.gep ctx.b ptr
            [ Instr.Gindex (imm_int (Int64.of_int i) Irtype.I64, esize) ]
        in
        lower_local_init ctx pos elem item cell)
      items;
    (* zero-fill the tail *)
    let filled = List.length items in
    if filled < n then
      zero_fill ctx elem ptr ~from_idx:filled ~to_idx:n ~esize
  | Ctype.Struct tag, A.Ilist items ->
    let fields = Layout.fields_with_offsets lenv tag in
    List.iteri
      (fun i item ->
        let fname, fty, off = List.nth fields i in
        let idx = Layout.field_index lenv tag fname in
        let cell = Builder.gep ctx.b ptr [ Instr.Gfield (idx, off) ] in
        lower_local_init ctx pos fty item cell)
      items;
    (* zero-fill remaining fields *)
    List.iteri
      (fun i (fname, fty, off) ->
        if i >= List.length items then begin
          let idx = Layout.field_index lenv tag fname in
          let cell = Builder.gep ctx.b ptr [ Instr.Gfield (idx, off) ] in
          zero_init ctx pos fty cell
        end)
      fields
  | _, A.Iexpr rhs ->
    let v = coerce ctx pos ~from_ty:rhs.A.ty ~to_ty:ty (lower_rvalue ctx rhs) in
    Builder.store ctx.b (scalar_of_ctype pos ty) v ptr
  | _, A.Ilist _ ->
    unsupported pos "brace initializer for %s" (Ctype.to_string ty)

and zero_fill ctx elem ptr ~from_idx ~to_idx ~esize =
  for i = from_idx to to_idx - 1 do
    let cell =
      Builder.gep ctx.b ptr
        [ Instr.Gindex (imm_int (Int64.of_int i) Irtype.I64, esize) ]
    in
    zero_init ctx Token.dummy_pos elem cell
  done

and zero_init ctx pos (ty : Ctype.t) (ptr : Instr.value) =
  match ty with
  | Ctype.Array (elem, Some n) ->
    zero_fill ctx elem ptr ~from_idx:0 ~to_idx:n
      ~esize:(Layout.size ctx.env.Sema.layout elem)
  | Ctype.Struct tag ->
    let lenv = ctx.env.Sema.layout in
    List.iter
      (fun (fname, fty, off) ->
        let idx = Layout.field_index lenv tag fname in
        let cell = Builder.gep ctx.b ptr [ Instr.Gfield (idx, off) ] in
        zero_init ctx pos fty cell)
      (Layout.fields_with_offsets lenv tag)
  | _ ->
    let s = scalar_of_ctype pos ty in
    let zero =
      if Irtype.is_float_scalar s then Instr.ImmFloat (0.0, s)
      else if s = Irtype.Ptr then Instr.Null
      else imm_int 0L s
    in
    Builder.store ctx.b s zero ptr

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* Statement-granularity provenance: the position of the code a
   statement starts executing (its controlling expression for the
   composite forms). *)
let rec stmt_pos (s : A.stmt) : Token.pos option =
  match s with
  | A.Sempty | A.Sblock _ -> None
  | A.Sexpr e
  | A.Sif (e, _, _)
  | A.Swhile (e, _)
  | A.Sdo (_, e)
  | A.Sswitch (e, _, _) ->
    Some e.A.pos
  | A.Sdecl (d :: _) -> Some d.A.d_pos
  | A.Sdecl [] -> None
  | A.Sfor (Some init, _, _, _) -> stmt_pos init
  | A.Sfor (None, Some c, _, _) -> Some c.A.pos
  | A.Sfor (None, None, _, _) -> None
  | A.Sreturn (_, pos)
  | A.Sbreak pos
  | A.Scontinue pos
  | A.Scase (_, pos)
  | A.Sdefault pos ->
    Some pos

let rec lower_stmt ctx (s : A.stmt) =
  (match stmt_pos s with Some pos -> emit_loc ctx pos | None -> ());
  match s with
  | A.Sempty -> ()
  | A.Sexpr e -> lower_discard ctx e
  | A.Sdecl decls ->
    List.iter
      (fun (d : A.decl) ->
        let mty = mty_of_ctype ctx.env.Sema.layout d.A.d_ty in
        let ptr = Builder.alloca ctx.b mty in
        add_local ctx d.A.d_name ptr d.A.d_ty;
        match d.A.d_init with
        | Some init -> lower_local_init ctx d.A.d_pos d.A.d_ty init ptr
        | None -> ())
      decls
  | A.Sblock stmts ->
    push_locals ctx;
    List.iter (lower_stmt ctx) stmts;
    pop_locals ctx
  | A.Sif (c, t, f) ->
    let bld = ctx.b in
    let then_l = Builder.fresh_label bld "if.t" in
    let end_l = Builder.fresh_label bld "if.end" in
    let else_l =
      match f with Some _ -> Builder.fresh_label bld "if.f" | None -> end_l
    in
    let vc = lower_rvalue ctx c in
    let fc = truth ctx c.A.pos c.A.ty vc in
    Builder.terminate bld (Instr.Condbr (fc, then_l, else_l));
    let then_b = Builder.new_block bld then_l in
    Builder.switch_to bld then_b;
    lower_stmt ctx t;
    Builder.terminate bld (Instr.Br end_l);
    (match f with
    | Some f ->
      let else_b = Builder.new_block bld else_l in
      Builder.switch_to bld else_b;
      lower_stmt ctx f;
      Builder.terminate bld (Instr.Br end_l)
    | None -> ());
    let end_b = Builder.new_block bld end_l in
    Builder.switch_to bld end_b
  | A.Swhile (c, body) ->
    let bld = ctx.b in
    let cond_l = Builder.fresh_label bld "while.cond" in
    let body_l = Builder.fresh_label bld "while.body" in
    let end_l = Builder.fresh_label bld "while.end" in
    Builder.terminate bld (Instr.Br cond_l);
    let cond_b = Builder.new_block bld cond_l in
    Builder.switch_to bld cond_b;
    emit_loc ctx c.A.pos;
    let vc = lower_rvalue ctx c in
    let fc = truth ctx c.A.pos c.A.ty vc in
    Builder.terminate bld (Instr.Condbr (fc, body_l, end_l));
    let body_b = Builder.new_block bld body_l in
    Builder.switch_to bld body_b;
    ctx.break_labels <- end_l :: ctx.break_labels;
    ctx.continue_labels <- cond_l :: ctx.continue_labels;
    lower_stmt ctx body;
    ctx.break_labels <- List.tl ctx.break_labels;
    ctx.continue_labels <- List.tl ctx.continue_labels;
    Builder.terminate bld (Instr.Br cond_l);
    let end_b = Builder.new_block bld end_l in
    Builder.switch_to bld end_b
  | A.Sdo (body, c) ->
    let bld = ctx.b in
    let body_l = Builder.fresh_label bld "do.body" in
    let cond_l = Builder.fresh_label bld "do.cond" in
    let end_l = Builder.fresh_label bld "do.end" in
    Builder.terminate bld (Instr.Br body_l);
    let body_b = Builder.new_block bld body_l in
    Builder.switch_to bld body_b;
    ctx.break_labels <- end_l :: ctx.break_labels;
    ctx.continue_labels <- cond_l :: ctx.continue_labels;
    lower_stmt ctx body;
    ctx.break_labels <- List.tl ctx.break_labels;
    ctx.continue_labels <- List.tl ctx.continue_labels;
    Builder.terminate bld (Instr.Br cond_l);
    let cond_b = Builder.new_block bld cond_l in
    Builder.switch_to bld cond_b;
    emit_loc ctx c.A.pos;
    let vc = lower_rvalue ctx c in
    let fc = truth ctx c.A.pos c.A.ty vc in
    Builder.terminate bld (Instr.Condbr (fc, body_l, end_l));
    let end_b = Builder.new_block bld end_l in
    Builder.switch_to bld end_b
  | A.Sfor (init, cond, step, body) ->
    push_locals ctx;
    Option.iter (lower_stmt ctx) init;
    let bld = ctx.b in
    let cond_l = Builder.fresh_label bld "for.cond" in
    let body_l = Builder.fresh_label bld "for.body" in
    let step_l = Builder.fresh_label bld "for.step" in
    let end_l = Builder.fresh_label bld "for.end" in
    Builder.terminate bld (Instr.Br cond_l);
    let cond_b = Builder.new_block bld cond_l in
    Builder.switch_to bld cond_b;
    (match cond with
    | Some c ->
      emit_loc ctx c.A.pos;
      let vc = lower_rvalue ctx c in
      let fc = truth ctx c.A.pos c.A.ty vc in
      Builder.terminate bld (Instr.Condbr (fc, body_l, end_l))
    | None -> Builder.terminate bld (Instr.Br body_l));
    let body_b = Builder.new_block bld body_l in
    Builder.switch_to bld body_b;
    ctx.break_labels <- end_l :: ctx.break_labels;
    ctx.continue_labels <- step_l :: ctx.continue_labels;
    lower_stmt ctx body;
    ctx.break_labels <- List.tl ctx.break_labels;
    ctx.continue_labels <- List.tl ctx.continue_labels;
    Builder.terminate bld (Instr.Br step_l);
    let step_b = Builder.new_block bld step_l in
    Builder.switch_to bld step_b;
    Option.iter
      (fun (e : A.expr) ->
        emit_loc ctx e.A.pos;
        lower_discard ctx e)
      step;
    Builder.terminate bld (Instr.Br cond_l);
    let end_b = Builder.new_block bld end_l in
    Builder.switch_to bld end_b;
    pop_locals ctx
  | A.Sreturn (e, pos) -> begin
    match (e, ctx.ret_ty) with
    | None, _ -> Builder.terminate ctx.b (Instr.Ret None)
    | Some e, ret_ty ->
      let v = coerce ctx pos ~from_ty:e.A.ty ~to_ty:ret_ty (lower_rvalue ctx e) in
      Builder.terminate ctx.b
        (Instr.Ret (Some (scalar_of_ctype pos ret_ty, v)))
  end
  | A.Sbreak pos -> begin
    match ctx.break_labels with
    | l :: _ -> Builder.terminate ctx.b (Instr.Br l)
    | [] -> unsupported pos "break outside loop/switch"
  end
  | A.Scontinue pos -> begin
    match ctx.continue_labels with
    | l :: _ -> Builder.terminate ctx.b (Instr.Br l)
    | [] -> unsupported pos "continue outside loop"
  end
  | A.Sswitch (e, body, pos) -> lower_switch ctx e body pos
  | A.Scase (_, pos) | A.Sdefault pos ->
    unsupported pos "case label outside switch"

and lower_switch ctx (e : A.expr) (body : A.stmt list) pos =
  let bld = ctx.b in
  let v = lower_rvalue ctx e in
  (* C11 6.8.4.2: the controlling expression undergoes the integer
     promotions, and each case constant is converted to the promoted
     type.  Labels that collide after conversion are a constraint
     violation. *)
  let sty = Ctype.promote (Ctype.decay e.A.ty) in
  let sv = coerce ctx pos ~from_ty:e.A.ty ~to_ty:sty v in
  let end_l = Builder.fresh_label bld "sw.end" in
  let seen_values : (int64, unit) Hashtbl.t = Hashtbl.create 8 in
  (* Assign a label to every case marker in the body. *)
  let case_labels =
    List.filter_map
      (function
        | A.Scase (value, cpos) ->
          let converted =
            Cscalar.convert ~from_ty:Ctype.long_t ~to_ty:sty value
          in
          if Hashtbl.mem seen_values converted then
            Diag.error cpos
              "duplicate case label %Ld (after conversion to the promoted \
               controlling type)"
              converted;
          Hashtbl.replace seen_values converted ();
          Some (`Case converted, Builder.fresh_label bld "sw.case")
        | A.Sdefault _ -> Some (`Default, Builder.fresh_label bld "sw.default")
        | _ -> None)
      body
  in
  let cases =
    List.filter_map
      (function `Case v, l -> Some (v, l) | `Default, _ -> None)
      case_labels
  in
  let default_l =
    match
      List.find_opt (function `Default, _ -> true | _ -> false) case_labels
    with
    | Some (_, l) -> l
    | None -> end_l
  in
  Builder.terminate bld (Instr.Switch (sv, cases, default_l));
  ctx.break_labels <- end_l :: ctx.break_labels;
  (* Lower the body sequentially; each case marker opens its block, with
     fallthrough from the previous one. *)
  let remaining = ref case_labels in
  List.iter
    (fun stmt ->
      match stmt with
      | A.Scase _ | A.Sdefault _ -> begin
        match !remaining with
        | (_, l) :: rest ->
          remaining := rest;
          Builder.terminate bld (Instr.Br l);
          let blk = Builder.new_block bld l in
          Builder.switch_to bld blk
        | [] -> assert false
      end
      | s -> lower_stmt ctx s)
    body;
  ctx.break_labels <- List.tl ctx.break_labels;
  Builder.terminate bld (Instr.Br end_l);
  let end_b = Builder.new_block bld end_l in
  Builder.switch_to bld end_b

(* ------------------------------------------------------------------ *)
(* Globals                                                             *)
(* ------------------------------------------------------------------ *)

(* Constant-evaluate a global initializer.  [ty] guides interpretation
   (e.g. a string literal initializing a char array vs. a char pointer). *)
let rec lower_global_init ctx (ty : Ctype.t) (init : A.init) : Irmod.ginit =
  let lenv = ctx.env.Sema.layout in
  match (ty, init) with
  | Ctype.Array (Ctype.Int (Ctype.IChar, _), Some n), A.Iexpr { A.desc = A.StrLit s; _ } ->
    let padded =
      let base = s ^ "\000" in
      if String.length base < n then
        base ^ String.make (n - String.length base) '\000'
      else String.sub base 0 n
    in
    Irmod.Gstring padded
  | Ctype.Array (elem, Some n), A.Ilist items ->
    let lowered = List.map (lower_global_init ctx elem) items in
    let pad = List.init (max 0 (n - List.length items)) (fun _ -> Irmod.Gzero) in
    Irmod.Garray (lowered @ pad)
  | Ctype.Struct tag, A.Ilist items ->
    let fields = Layout.fields_with_offsets lenv tag in
    let lowered =
      List.mapi
        (fun i item ->
          let _, fty, _ = List.nth fields i in
          lower_global_init ctx fty item)
        items
    in
    let pad =
      List.init (max 0 (List.length fields - List.length items)) (fun _ -> Irmod.Gzero)
    in
    Irmod.Gstruct_init (lowered @ pad)
  | _, A.Iexpr e -> lower_global_scalar ctx ty e
  | _, A.Ilist [ item ] -> lower_global_init ctx ty item
  | _, A.Ilist _ ->
    unsupported Token.dummy_pos "brace initializer for global %s"
      (Ctype.to_string ty)

and lower_global_scalar ctx (ty : Ctype.t) (e : A.expr) : Irmod.ginit =
  match (Ctype.decay ty, e.A.desc) with
  | Ctype.Ptr _, A.StrLit s -> Irmod.Gglobal_addr (intern_string ctx s)
  | Ctype.Ptr _, A.IntLit (0L, _, _) -> Irmod.Gzero
  | Ctype.Ptr _, A.Cast (_, { A.desc = A.IntLit (0L, _, _); _ }) -> Irmod.Gzero
  | Ctype.Ptr _, A.Addrof { A.desc = A.Ident name; _ } ->
    if Hashtbl.mem ctx.env.Sema.funcs name then Irmod.Gfunc_addr name
    else Irmod.Gglobal_addr name
  | Ctype.Ptr _, A.Ident name ->
    if Hashtbl.mem ctx.env.Sema.funcs name then Irmod.Gfunc_addr name
    else Irmod.Gglobal_addr name (* array decaying to pointer *)
  | decl, _ -> (
    (* The value folds in [Cscalar], the evaluator of the parser's
       constant expressions, which picks each operator's IR operation as
       the lowering does and computes it in the engines' [Scalar] kernel
       — a mismatch here bakes a wrong constant into the image that no
       pipeline configuration can undo.  A division by zero is not a
       constant. *)
    match
      if Ctype.is_float decl then Irmod.Gfloat (Cscalar.eval_float e)
      else if Ctype.is_integer decl then
        (* Apply the implicit conversion from the initializer's type to
           the declared type before emitting the image bytes: widening
           from a narrower unsigned type must zero-extend, which the
           canonical (sign-extended) representation does not encode.
           Without this, `unsigned int g = (unsigned short)0x9373;`
           bakes 0xFFFF9373 into the global (found by the differential
           oracle). *)
        Irmod.Gint
          (Cscalar.convert ~from_ty:(Cscalar.const_ty e) ~to_ty:decl
             (Cscalar.eval_typed e))
      else Irmod.Gint (Cscalar.eval_typed e)
    with
    | g -> g
    | exception Diag.Error _ ->
      unsupported e.A.pos "global initializer is not constant")

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

(* Move every Alloca to the head of the entry block, as Clang -O0 does.
   Initialization code stays where the declaration appeared (correct C
   semantics for initialized locals in loops); the native engine's stack
   pointer then moves once per call rather than once per iteration. *)
let hoist_allocas (f : Irfunc.t) =
  let allocas = ref [] in
  List.iter
    (fun (b : Irfunc.block) ->
      let keep, moved =
        List.partition
          (function Instr.Alloca _ -> false | _ -> true)
          b.Irfunc.instrs
      in
      allocas := !allocas @ moved;
      b.Irfunc.instrs <- keep)
    f.Irfunc.blocks;
  match f.Irfunc.blocks with
  | entry :: _ -> entry.Irfunc.instrs <- !allocas @ entry.Irfunc.instrs
  | [] -> ()

let lower_func ctx (f : A.func) =
  let pos = f.A.fn_pos in
  let params =
    List.mapi (fun i (_, ty) -> (i, scalar_of_ctype pos ty)) f.A.fn_params
  in
  let bld =
    Builder.create_function ~src_file:ctx.src_file ~name:f.A.fn_name ~params
      ~ret:(ret_scalar pos f.A.fn_sig.Ctype.ret)
      ~variadic:f.A.fn_sig.Ctype.variadic
      ~src_pos:(pos.Token.line, pos.Token.col) ()
  in
  ctx.b <- bld;
  ctx.ret_ty <- f.A.fn_sig.Ctype.ret;
  ctx.locals <- [];
  push_locals ctx;
  (* Clang -O0 style: spill every parameter to an alloca. *)
  List.iteri
    (fun i (name, ty) ->
      let mty = mty_of_ctype ctx.env.Sema.layout ty in
      let ptr = Builder.alloca bld mty in
      Builder.store bld (scalar_of_ctype pos ty) (Instr.Reg i) ptr;
      add_local ctx name ptr ty)
    f.A.fn_params;
  List.iter (lower_stmt ctx) f.A.fn_body;
  (* Falling off the end: return 0 (main and sloppy C), or void. *)
  (match f.A.fn_sig.Ctype.ret with
  | Ctype.Void -> Builder.terminate bld (Instr.Ret None)
  | ret ->
    let s = scalar_of_ctype pos ret in
    let zero =
      if Irtype.is_float_scalar s then Instr.ImmFloat (0.0, s)
      else if s = Irtype.Ptr then Instr.Null
      else Instr.ImmInt (0L, s)
    in
    Builder.terminate bld (Instr.Ret (Some (s, zero))));
  pop_locals ctx;
  let ir = Builder.finish bld in
  hoist_allocas ir;
  Irmod.add_func ctx.m ir



(** Host builtins available to the managed libc; they play the role of
    the functions "implemented in Java" in the paper (§3.1). *)
let builtin_externs =
  [
    (* name, ret, params, variadic *)
    ("__sulong_putchar", Some Irtype.I32, [ Irtype.I32 ], false);
    ("__sulong_exit", None, [ Irtype.I32 ], false);
    ("__sulong_abort", None, [], false);
    ("count_varargs", Some Irtype.I32, [], false);
    ("get_vararg", Some Irtype.Ptr, [ Irtype.I32 ], false);
    ("__sulong_format_pointer", Some Irtype.I64, [ Irtype.Ptr ], false);
    ("__sulong_read_char", Some Irtype.I32, [ Irtype.Ptr ], false);
    ("malloc", Some Irtype.Ptr, [ Irtype.I64 ], false);
    ("calloc", Some Irtype.Ptr, [ Irtype.I64; Irtype.I64 ], false);
    ("realloc", Some Irtype.Ptr, [ Irtype.Ptr; Irtype.I64 ], false);
    ("free", None, [ Irtype.Ptr ], false);
  ]

(** Lower a type-checked program to an IR module. *)
let lower ?(string_prefix = ".str") ?(file = "<input>") (env : Sema.env)
    (prog : A.program) : Irmod.t =
  let m = Irmod.create () in
  let dummy_builder =
    Builder.create_function ~name:"__dummy" ~params:[] ~ret:None
      ~variadic:false ~src_pos:(0, 0) ()
  in
  let ctx =
    {
      env;
      m;
      b = dummy_builder;
      locals = [];
      break_labels = [];
      continue_labels = [];
      strings = Hashtbl.create 32;
      string_prefix;
      string_count = 0;
      ret_ty = Ctype.Void;
      src_file = file;
    }
  in
  List.iter
    (fun (name, ret, params, variadic) ->
      Irmod.add_extern m
        { Irmod.e_name = name; e_ret = ret; e_params = params; e_variadic = variadic })
    builtin_externs;
  (* Globals first (functions reference them). *)
  List.iter
    (fun g ->
      match g with
      | A.Gvar d ->
        let g_init =
          match d.A.d_init with
          | Some init -> lower_global_init ctx d.A.d_ty init
          | None -> Irmod.Gzero
        in
        Irmod.add_global m
          {
            Irmod.g_name = d.A.d_name;
            g_ty = mty_of_ctype env.Sema.layout d.A.d_ty;
            g_init;
          }
      | A.Gfunc _ | A.Gfundecl _ | A.Gstruct _ | A.Gtypedef _ | A.Genum _ -> ())
    prog;
  (* Prototypes for functions that are declared but not defined in this
     unit become externs (resolved at link time against libc), in the
     order of their first declaration.  [seen]: the names that need no
     (further) extern. *)
  let seen = Hashtbl.create 128 in
  List.iter
    (function A.Gfunc f -> Hashtbl.replace seen f.A.fn_name () | _ -> ())
    prog;
  List.iter (fun (name, _, _, _) -> Hashtbl.replace seen name ()) builtin_externs;
  let protos =
    List.filter_map
      (function
        | A.Gfundecl (name, fsig) when not (Hashtbl.mem seen name) ->
          Hashtbl.replace seen name ();
          Some
            {
              Irmod.e_name = name;
              e_ret = ret_scalar Token.dummy_pos fsig.Ctype.ret;
              e_params =
                List.map (scalar_of_ctype Token.dummy_pos) fsig.Ctype.params;
              e_variadic = fsig.Ctype.variadic;
            }
        | _ -> None)
      prog
  in
  m.Irmod.externs <- m.Irmod.externs @ protos;
  List.iter (fun g -> match g with A.Gfunc f -> lower_func ctx f | _ -> ()) prog;
  m

(** The front end after the parse: check, then lower.  [file] names the
    source in provenance reports. *)
let check_and_lower ?string_prefix ?file (prog : Ast.program) :
    Irmod.t * Sema.env =
  let env = Trace.span "sema" (fun () -> Sema.check prog) in
  let m = Trace.span "lower" (fun () -> lower ?string_prefix ?file env prog) in
  (m, env)

(** Front end in one call: parse, check, lower.  This is the "Clang -O0"
    of the reproduction. *)
let frontend ?string_prefix ?file (src : string) : Irmod.t * Sema.env =
  let prog = Trace.span "parse" (fun () -> Parser.parse_string src) in
  check_and_lower ?string_prefix ?file prog
