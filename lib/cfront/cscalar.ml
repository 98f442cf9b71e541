(** Which IR scalar and which IR operation a C type and operator select.

    This is the one mapping shared by the runtime lowering ([Lower]) and
    the front end's constant evaluators: the parser's constant
    expressions, [Lower]'s global initializers and its immediate
    conversions.  A folded constant therefore takes the same IR
    operation as the code that computes it at run time, and both compute
    it through the [Scalar] kernel. *)

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
