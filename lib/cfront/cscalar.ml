(** Which IR scalar and which IR operation a C type and operator select,
    and the front end's one constant evaluator.

    The mapping is shared by the runtime lowering ([Lower]) and the
    constant evaluators below, which fold the parser's constant
    expressions (array sizes, case labels, enum values) and [Lower]'s
    global initializers.  A folded constant therefore takes the
    same IR operation as the code that computes it at run time, and both
    compute it through the [Scalar] kernel. *)

let scalar (ty : Ctype.t) : Irtype.scalar option =
  match Ctype.decay ty with
  | Ctype.Int (Ctype.IChar, _) -> Some Irtype.I8
  | Ctype.Int (Ctype.IShort, _) -> Some Irtype.I16
  | Ctype.Int (Ctype.IInt, _) -> Some Irtype.I32
  | Ctype.Int (Ctype.ILong, _) -> Some Irtype.I64
  | Ctype.Float Ctype.FFloat -> Some Irtype.F32
  | Ctype.Float Ctype.FDouble -> Some Irtype.F64
  | Ctype.Ptr _ -> Some Irtype.Ptr
  | Ctype.Void | Ctype.Struct _ -> None
  | Ctype.Array _ | Ctype.Func _ -> assert false (* removed by decay *)

let scalar_exn ty =
  match scalar ty with
  | Some s -> s
  | None -> invalid_arg ("Cscalar: no scalar for " ^ Ctype.to_string ty)

(** Unsigned integers and pointers divide, shift and compare unsigned. *)
let is_unsigned (ty : Ctype.t) =
  match Ctype.decay ty with
  | Ctype.Int (_, Ctype.Unsigned) | Ctype.Ptr _ -> true
  | _ -> false

(** The IR operation of arithmetic operator [op] on operands converted
    to [ty]; [None] for comparisons and logical operators. *)
let binop (op : Ast.binop) (ty : Ctype.t) : Instr.binop option =
  let fl = Ctype.is_float (Ctype.decay ty) and u = is_unsigned ty in
  match op with
  | Ast.Add -> Some (if fl then Instr.FAdd else Instr.Add)
  | Ast.Sub -> Some (if fl then Instr.FSub else Instr.Sub)
  | Ast.Mul -> Some (if fl then Instr.FMul else Instr.Mul)
  | Ast.Div ->
    Some (if fl then Instr.FDiv else if u then Instr.Udiv else Instr.Sdiv)
  | Ast.Mod -> Some (if u then Instr.Urem else Instr.Srem)
  | Ast.Shl -> Some Instr.Shl
  | Ast.Shr -> Some (if u then Instr.Lshr else Instr.Ashr)
  | Ast.Band -> Some Instr.And
  | Ast.Bor -> Some Instr.Or
  | Ast.Bxor -> Some Instr.Xor
  | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne | Ast.Logand
  | Ast.Logor ->
    None

(** The integer comparison of relational operator [op] on operands
    converted to [ty]. *)
let icmp (op : Ast.binop) (ty : Ctype.t) : Instr.icmp =
  let u = is_unsigned ty in
  match op with
  | Ast.Lt -> if u then Instr.Iult else Instr.Islt
  | Ast.Gt -> if u then Instr.Iugt else Instr.Isgt
  | Ast.Le -> if u then Instr.Iule else Instr.Isle
  | Ast.Ge -> if u then Instr.Iuge else Instr.Isge
  | Ast.Eq -> Instr.Ieq
  | Ast.Ne -> Instr.Ine
  | _ -> invalid_arg "Cscalar.icmp: not a comparison"

let fcmp (op : Ast.binop) : Instr.fcmp =
  match op with
  | Ast.Lt -> Instr.Flt
  | Ast.Gt -> Instr.Fgt
  | Ast.Le -> Instr.Fle
  | Ast.Ge -> Instr.Fge
  | Ast.Eq -> Instr.Feq
  | Ast.Ne -> Instr.Fne
  | _ -> invalid_arg "Cscalar.fcmp: not a comparison"

(** The IR cast converting a value of type [from_ty] to [to_ty], or
    [None] when the IR value is unchanged.  Raises [Invalid_argument]
    when C has no such conversion. *)
let cast ~(from_ty : Ctype.t) ~(to_ty : Ctype.t) : Instr.cast option =
  let fs = scalar_exn from_ty and ts = scalar_exn to_ty in
  let int s = Irtype.is_int_scalar s and float s = Irtype.is_float_scalar s in
  if fs = ts then None
  else if float fs && float ts then
    Some (if fs = Irtype.F32 then Instr.Fpext else Instr.Fptrunc)
  else if float fs && int ts then
    Some (if is_unsigned to_ty then Instr.Fptoui else Instr.Fptosi)
  else if int fs && float ts then
    Some (if is_unsigned from_ty then Instr.Uitofp else Instr.Sitofp)
  else if fs = Irtype.Ptr && int ts then Some Instr.Ptrtoint
  else if int fs && ts = Irtype.Ptr then Some Instr.Inttoptr
  else if int fs && int ts then
    Some
      (if Irtype.scalar_size fs > Irtype.scalar_size ts then Instr.Trunc
       else if is_unsigned from_ty then Instr.Zext
       else Instr.Sext)
  else
    invalid_arg
      (Printf.sprintf "Cscalar.cast: %s to %s" (Ctype.to_string from_ty)
         (Ctype.to_string to_ty))

(** [cast] staged in the kernel; the identity when the value is
    unchanged. *)
let conversion ~from_ty ~to_ty : int64 Scalar.cast_fn =
  let fs = scalar_exn from_ty and ts = scalar_exn to_ty in
  match cast ~from_ty ~to_ty with
  | Some op -> Scalar.cast op fs ts
  | None ->
    if Irtype.is_float_scalar fs then Scalar.Float_to_float Fun.id
    else Scalar.Int_to_int Fun.id

(** Convert a canonical integer constant between integer types. *)
let convert ~from_ty ~to_ty (v : int64) : int64 =
  match conversion ~from_ty ~to_ty with
  | Scalar.Int_to_int f -> f v
  | _ -> invalid_arg "Cscalar.convert: not an integer conversion"

(** The canonical constant of integer type [ty] with bits [v]. *)
let constant (ty : Ctype.t) (v : int64) : int64 =
  Scalar.normalize_int (scalar_exn ty) v

(** Fold arithmetic operator [op] at integer type [ty] on canonical
    constants ([None] for comparisons and logical operators); [~div0]
    maps a division by zero. *)
let fold ~div0 (op : Ast.binop) (ty : Ctype.t) (x : int64) (y : int64) :
    int64 option =
  match binop op ty with
  | None -> None
  | Some iop -> (
    match Scalar.binop ~div0 iop (scalar_exn ty) with
    | Scalar.Ints f -> Some (f x y)
    | Scalar.Floats _ -> invalid_arg "Cscalar.fold: float type")

(* ------------------------------------------------------------------ *)
(* Constant expressions                                                *)
(* ------------------------------------------------------------------ *)

(* The parser folds constant expressions *before* Sema annotates types,
   so the evaluator carries its own types bottom-up.  Each operator
   takes the IR operation the lowering would emit and computes it in
   the [Scalar] kernel the engines run, so a folded constant cannot
   diverge from the runtime value of the same expression.  Enumerators
   need no case: the parser already rewrote each into an [IntLit]. *)

(** Type of a constant expression (mirrors Sema's [infer] for the
    subset of forms legal in constant position). *)
let rec const_ty (e : Ast.expr) : Ctype.t =
  let module A = Ast in
  (* Anything non-integer that sneaks in (pointer casts, floats) is
     treated as long; evaluation is 64-bit either way. *)
  let as_int ty = if Ctype.is_integer ty then ty else Ctype.long_t in
  match e.A.desc with
  | A.IntLit (_, k, s) -> Ctype.Int (k, s)
  | A.Unop ((A.Neg | A.Bitnot), a) -> Ctype.promote (as_int (const_ty a))
  | A.Binop ((A.Shl | A.Shr), a, _) -> Ctype.promote (as_int (const_ty a))
  | A.Binop ((A.Lt | A.Gt | A.Le | A.Ge | A.Eq | A.Ne | A.Logand | A.Logor), _, _)
    ->
    Ctype.int_t
  | A.Binop (_, a, b) -> Ctype.usual_arith (as_int (const_ty a)) (as_int (const_ty b))
  | A.Cast (ty, _) -> as_int ty
  | A.Cond (_, t, f) -> Ctype.usual_arith (as_int (const_ty t)) (as_int (const_ty f))
  | _ -> Ctype.int_t

(** Canonical (sign-extended) value of [e] at type [const_ty e];
    raises [Diag.Error] when [e] is not an integer constant. *)
let rec eval_typed (e : Ast.expr) : int64 =
  let module A = Ast in
  let conv a into = convert ~from_ty:(const_ty a) ~to_ty:into (eval_typed a) in
  let arith op ty x y =
    let div0 () = Diag.error e.A.pos "division by zero in constant" in
    Option.get (fold ~div0 op ty x y)
  in
  match e.A.desc with
  | A.IntLit (v, k, s) -> constant (Ctype.Int (k, s)) v
  | A.CharLit c -> Int64.of_int (Char.code c)
  | A.Unop (A.Neg, a) ->
    let ty = const_ty e in
    arith A.Sub ty 0L (conv a ty)
  | A.Unop (A.Bitnot, a) ->
    let ty = const_ty e in
    arith A.Bxor ty (conv a ty) (-1L)
  | A.Unop (A.Lognot, a) -> if eval_typed a = 0L then 1L else 0L
  | A.Binop ((A.Logand | A.Logor) as op, a, b) ->
    (* Short-circuit so the unevaluated side may divide by zero. *)
    let ta = eval_typed a <> 0L in
    let r =
      match op with
      | A.Logand -> ta && eval_typed b <> 0L
      | _ -> ta || eval_typed b <> 0L
    in
    if r then 1L else 0L
  | A.Binop ((A.Lt | A.Gt | A.Le | A.Ge | A.Eq | A.Ne) as op, a, b) ->
    let as_int ty = if Ctype.is_integer ty then ty else Ctype.long_t in
    let common = Ctype.usual_arith (as_int (const_ty a)) (as_int (const_ty b)) in
    let va = conv a common and vb = conv b common in
    if Scalar.icmp (icmp op common) (scalar_exn common) va vb then 1L else 0L
  | A.Binop (op, a, b) ->
    (* A shift count converts to the result type too, as in the
       lowering: the count's low six bits survive any such conversion. *)
    let ty = const_ty e in
    let va = conv a ty and vb = conv b ty in
    arith op ty va vb
  | A.SizeofTy _ | A.SizeofE _ ->
    Diag.error e.A.pos "sizeof in constant expressions is not supported here"
  | A.Cast (ty, a) -> if Ctype.is_integer ty then conv a ty else eval_typed a
  | A.Cond (c, t, f) ->
    (* Only the chosen branch is evaluated (the other may divide by
       zero), but the result converts to the usual-arithmetic type of
       both, as the runtime lowering does. *)
    let ty = const_ty e in
    if eval_typed c <> 0L then conv t ty else conv f ty
  | _ -> Diag.error e.A.pos "expected a constant expression"

(** [eval_typed] converted to long: the value array sizes, case labels
    and enum values take, as the lowering converts the runtime value in
    those positions. *)
let eval_const (e : Ast.expr) : int64 =
  convert ~from_ty:(const_ty e) ~to_ty:Ctype.long_t (eval_typed e)

(* The floating type of a constant expression, or [None] when it has
   integer type. *)
let rec float_const_ty (e : Ast.expr) : Ctype.t option =
  let module A = Ast in
  match e.A.desc with
  | A.FloatLit (_, k) -> Some (Ctype.Float k)
  | A.Unop (A.Neg, a) -> float_const_ty a
  | A.Cast (ty, _) when Ctype.is_float ty -> Some ty
  | _ -> None

(** Value of a floating global initializer: a float literal (a [float]
    one denotes its binary32 value), an integer constant converted to
    double, negated, or cast.  A cast converts as the runtime conversion
    does: to an integer type through that type ([Fptosi]/[Fptoui] of a
    floating operand, the integer conversion of an integer one), to
    [float] by rounding to binary32.  Raises [Diag.Error] for anything
    else. *)
let rec eval_float (e : Ast.expr) : float =
  let module A = Ast in
  let not_constant () =
    Diag.error e.A.pos "expected a floating constant expression"
  in
  let to_double ty v =
    match conversion ~from_ty:ty ~to_ty:Ctype.double_t with
    | Scalar.Int_to_float f -> f v
    | _ -> not_constant ()
  in
  match e.A.desc with
  | A.FloatLit (f, k) -> Scalar.round_result (scalar_exn (Ctype.Float k)) f
  | A.IntLit (v, k, s) ->
    let ty = Ctype.Int (k, s) in
    to_double ty (constant ty v)
  | A.Unop (A.Neg, a) -> -.eval_float a
  | A.Cast (ty, a) when Ctype.is_integer ty || Ctype.is_float ty -> (
    match float_const_ty a with
    | Some from_ty -> (
      match conversion ~from_ty ~to_ty:ty with
      | Scalar.Float_to_float f -> f (eval_float a)
      | Scalar.Float_to_int f -> to_double ty (f (eval_float a))
      | Scalar.Int_to_int _ | Scalar.Int_to_float _ -> not_constant ())
    | None -> (
      let from_ty = const_ty a in
      match conversion ~from_ty ~to_ty:ty with
      | Scalar.Int_to_int f -> to_double ty (f (eval_typed a))
      | Scalar.Int_to_float f -> f (eval_typed a)
      | Scalar.Float_to_float _ | Scalar.Float_to_int _ -> not_constant ()))
  | _ -> not_constant ()
