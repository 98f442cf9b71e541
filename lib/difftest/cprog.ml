(** Program representation for the cross-engine differential oracle.

    Generated programs live in a typed mini-AST rather than as strings so
    that (a) the generator can guarantee well-definedness by construction
    (in-bounds indices, nonzero divisors, in-range shift counts), (b) a
    reference evaluator can predict the value of every constant
    expression independently of the front end under test — the front end
    is shared by *all* engine configurations, so a wrong folded constant
    is consistently wrong and invisible to cross-configuration
    comparison — and (c) the shrinker can produce strictly smaller
    candidate programs that provably preserve those guarantees
    ([well_formed]).

    The subset is deliberately biased toward the arithmetic the engines
    must agree on bit-for-bit: integer arithmetic at every width and
    signedness, shifts, casts, comparisons, short-circuit logic, loops
    with constant bounds, structs and arrays with in-bounds indices —
    plus [float]/[double] arithmetic, comparisons and conversions,
    helper functions with parameters and returns, and the string/memory
    builtins ([memcpy]/[memset]/[strlen]).  Semantics the C standard
    leaves undefined or implementation-defined but our abstract machine
    defines (wrapping signed overflow, arithmetic right shift of
    negatives, saturating float-to-int conversion) are fair game: every
    configuration must still agree.

    Float results print as decimals — [printf("%.17g", (double)x)] —
    not as an IEEE-754 bit pun: every printf engine (the managed libc,
    the native model) and the reference evaluator render decimals
    through the one shared [Floatfmt], and 17 significant digits
    uniquely identify a binary64, so decimal equality still implies bit
    equality (modulo NaN payloads) and a formatter difference between
    engines is itself a reportable divergence (see [print_line]). *)

(* ------------------------------------------------------------------ *)
(* Types and constant arithmetic (LP64)                                *)
(* ------------------------------------------------------------------ *)

type ity = I8 | U8 | I16 | U16 | I32 | U32 | I64 | U64

(** Float scalar types.  [F32] values are always stored pre-rounded to
    single precision (the same invariant the engines keep). *)
type fty = F32 | F64

(** A scalar C type: integer, floating, or pointer-to-integer.  [Pt]
    appears only where pointers are legal by construction — helper
    parameters and the pointer declarations of [program.ptrs]; it never
    types an arithmetic operand ([well_formed] rejects those shapes). *)
type sty = It of ity | Ft of fty | Pt of ity

let bits = function
  | I8 | U8 -> 8
  | I16 | U16 -> 16
  | I32 | U32 -> 32
  | I64 | U64 -> 64

let is_unsigned = function
  | U8 | U16 | U32 | U64 -> true
  | I8 | I16 | I32 | I64 -> false

let c_name = function
  | I8 -> "char"
  | U8 -> "unsigned char"
  | I16 -> "short"
  | U16 -> "unsigned short"
  | I32 -> "int"
  | U32 -> "unsigned int"
  | I64 -> "long"
  | U64 -> "unsigned long"

let f_name = function F32 -> "float" | F64 -> "double"

let sty_name = function
  | It t -> c_name t
  | Ft t -> f_name t
  | Pt t -> c_name t ^ " *"

let ity_bytes t = bits t / 8

(** Integer promotion: anything narrower than [int] promotes to [int].
    Floats are not promoted (C99: only *integer* promotions apply). *)
let promote t = if bits t < 32 then I32 else t

(** Usual arithmetic conversions (mirrors [Ctype.usual_arith] for the
    integer subset; LP64, so [long] can represent every [unsigned int]). *)
let usual a b =
  let a = promote a and b = promote b in
  if a = b then a
  else if a = U64 || b = U64 then U64
  else if bits a = 64 || bits b = 64 then I64
  else U32

let usual_f a b = if a = F64 || b = F64 then F64 else F32

(** Usual arithmetic conversions over both domains: [double] dominates
    [float] dominates every integer type. *)
let usual_sty a b =
  match (a, b) with
  | It x, It y -> It (usual x y)
  | Ft x, Ft y -> Ft (usual_f x y)
  | (Ft _ as f), It _ | It _, (Ft _ as f) -> f
  (* Pointers have no usual arithmetic conversion; give ill-typed shapes
     a stable answer so [type_of] stays total ([well_formed] rejects
     them before any engine sees the program). *)
  | Pt _, _ | _, Pt _ -> It I64

(** Canonical constant representation: truncate to the width of [t] and
    sign-extend back to 64 bits (the engines' register invariant). *)
let normalize t v =
  let b = bits t in
  if b = 64 then v else Int64.shift_right (Int64.shift_left v (64 - b)) (64 - b)

(** Reinterpret a canonical value as the unsigned value of [t]'s width. *)
let zext t v =
  let b = bits t in
  if b = 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L b) 1L)

(** C integer conversion on canonical values: zero-extend when widening
    from an unsigned type, then renormalize to the target width. *)
let convert ~from_ ~to_ v =
  let widened =
    if is_unsigned from_ && bits to_ > bits from_ then zext from_ v else v
  in
  normalize to_ widened

(** Value printed by [printf("%ld", (long)x)] for canonical [v] of type
    [t]: the conversion to [long] zero-extends narrower unsigned types. *)
let as_long t v = if is_unsigned t && bits t < 64 then zext t v else v

(* ---------------- float constant arithmetic ---------------- *)

(** Round to the nearest binary32 value — deliberately the same
    bit-store/load trick as [Scalar.round_to_f32], but written here
    independently: the reference evaluator shares no code with the
    engines it arbitrates. *)
let round_f32 (f : float) : float = Int32.float_of_bits (Int32.bits_of_float f)

let round_f ft f = match ft with F32 -> round_f32 f | F64 -> f

(** The defined float-to-integer conversion of our abstract machine
    (truncation toward zero, NaN to 0, saturation at the i64 range),
    reimplemented independently of [Scalar.float_to_int]. *)
let float_to_int_sat (f : float) : int64 =
  if f <> f then 0L
  else if f >= 9.223372036854775808e18 then Int64.max_int
  else if f <= -9.223372036854775808e18 then Int64.min_int
  else Int64.of_float f

(** Integer-to-float conversion: unsigned sources convert their
    zero-extended value (with the 2^64 correction for u64 values above
    [Int64.max_int]); an F32 destination rounds the converted value. *)
let int_to_float ~(from_ : ity) (ft : fty) (v : int64) : float =
  let f =
    if is_unsigned from_ then begin
      let u = zext from_ v in
      if u >= 0L then Int64.to_float u
      else Int64.to_float u +. 18446744073709551616.0
    end
    else Int64.to_float v
  in
  round_f ft f

(** The invariant every [FConst] must satisfy: finite (an inf/nan token
    would not render back), not negative zero (the front end lowers
    unary minus to [0.0 - x], so the token [-0.0] evaluates to +0.0 in
    every engine — negative zeros may still *arise* at runtime, they
    just cannot be literals), and pre-rounded for F32. *)
let fconst_ok (f : float) (ft : fty) : bool =
  f -. f = 0.0 (* finite: inf/nan fail this *)
  && (not (f = 0.0 && 1.0 /. f < 0.0))
  && (match ft with F32 -> f = round_f32 f | F64 -> true)

(* ------------------------------------------------------------------ *)
(* Expressions and statements                                          *)
(* ------------------------------------------------------------------ *)

type unop = Neg | Bnot | Lnot

type binop =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr
  | BAnd | BOr | BXor
  | Lt | Le | Gt | Ge | Eq | Ne
  | LAnd | LOr

(** Array subscript: a constant, or a surrounding loop's induction
    variable (whose bound the validator checks against the array size —
    the shrinker can never rewrite an index out of bounds). *)
type idx = Ixc of int | Ixv of string

type expr =
  | Const of int64 * ity
  | FConst of float * fty      (** must satisfy [fconst_ok] *)
  | EnumRef of string          (** enum constant; type [int] *)
  | Var of string * sty        (** scalar local, global, param, loop var *)
  | Read of string * ity * idx (** array element rvalue *)
  | Field of string * ity      (** [s.<field>] of the single struct var *)
  | Un of unop * expr
  | Bin of binop * expr * expr
  | Cast of sty * expr
  | Cond of expr * expr * expr
  | Call of string * sty * expr list
      (** direct call of a generated helper; carries the declared return
          type so [type_of] needs no symbol table.  An argument aligned
          to a pointer-typed parameter must be exactly [Var (p, Pt t)]
          for an in-scope pointer [p] — the only place a bare pointer
          value is a legal expression *)
  | Strlen of string
      (** [strlen] of a NUL-safe char array; type [unsigned long] *)
  | PRead of string * ity * idx
      (** load through a pointer: ["*p"] when the index is [Ixc 0],
          [p[k]] otherwise.  Kept in bounds of the pointer's statically
          resolved referent by [well_formed]; a helper's pointer
          parameter (no static referent) admits only [Ixc 0] *)
  | PCmp of binop * string * string
      (** pointer comparison by name; type [int].  [Eq]/[Ne] compare any
          two same-element-type pointers; relational operators require
          both to resolve to the same object (C99 6.5.8) *)
  | PDiff of string * string
      (** [(long)(p - q)] for two pointers into the same object; the
          element-count difference, type [long] *)

type stmt =
  | Assign of string * expr
      (** target is a scalar local or a mutable global (never a loop
          variable: those carry the bounds the index checks rely on) *)
  | AStore of string * idx * expr
  | FStore of string * expr
  | If of expr * stmt list * stmt list
  | Loop of string * int * stmt list
      (** [for (long i = 0; i < n; i = i + 1) body] *)
  | Switch of expr * (int * stmt list) list * stmt list
      (** scrutinee keeps its own (integer) C type; arms carry small
          distinct labels *)
  | Memcpy of string * string * int  (** dst array, src array, bytes *)
  | Memset of string * int * int     (** array, byte value, bytes *)
  | PStore of string * idx * expr
      (** store through a pointer: [*p = e] / [p[k] = e].  Main-body
          only; the write lands in the pointer's resolved referent (a
          scalar local/global or an array), aliasing whatever other
          names reach the same storage *)

(** A generated helper function.  Helpers are pure over their parameters
    and own locals: no globals, arrays, fields or builtins — so the
    reference evaluator can execute a call with constant arguments and
    predict its exact result, arbitrating the whole call machinery
    (argument conversion, parameter passing, returns) independently of
    the engines.  Helpers may call earlier-defined helpers only
    (acyclic by construction and by [well_formed]). *)
type func = {
  fn_name : string;
  fn_params : (string * sty) list;
  fn_locals : (string * sty * expr) list;
      (** initializers over params and earlier locals *)
  fn_body : stmt list;  (** [Assign] to own locals, [If], [Loop] only *)
  fn_ret : sty;
  fn_ret_expr : expr;
}

(** Pointer initializer: where a pointer points is static, decided at
    its (single) declaration — the address universe is generated, never
    computed at runtime, so every load/store through a pointer has a
    statically resolvable referent and offset that [well_formed] can
    check bounds against. *)
type pinit =
  | PaddrScalar of string     (** [&x]: a scalar local or global *)
  | PaddrArr of string * int  (** [a + k]: element [k] of array [a] *)
  | Palias of string * int    (** [q + k]: offset from an earlier pointer *)

type program = {
  seed : int;
  enums : (string * expr) list;  (** full integer constant expressions *)
  globals : (string * ity * expr) list;
      (** constant expressions restricted to the operator subset the
          global-initializer folder supports (no comparisons/ternary) *)
  fields : (string * ity * int64) list;  (** struct S fields + init *)
  arrays : (string * ity * int) list;    (** zero-initialized locals *)
  funcs : func list;                     (** helper functions, in order *)
  rcs : (string * expr) list;
      (** runtime recomputations of pure expressions (possibly float,
          possibly calling helpers with constant arguments, possibly
          reading globals — whose *initial* values the evaluator knows):
          evaluated by the engines, predicted by the reference
          evaluator *)
  locals : (string * sty * expr) list;   (** runtime initializers *)
  ptrs : (string * ity * pinit) list;
      (** pointer locals, declared after [locals] (so [&local] works)
          and never reassigned; [Palias] may reference earlier pointers
          only.  Pointer values are never printed — only the integer
          data reached through them is *)
  body : stmt list;
}

(** The statically resolved storage a pointer designates. *)
type referent = RScalar of string | RArr of string * int  (** name, len *)

let referent_extent = function RScalar _ -> 1 | RArr (_, len) -> len

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | Shl -> "<<" | Shr -> ">>"
  | BAnd -> "&" | BOr -> "|" | BXor -> "^"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | LAnd -> "&&" | LOr -> "||"

(** Static type of an expression under the C rules the front end
    implements (shift result type is the promoted left operand;
    comparisons and logic yield [int]; [float] beats integers and
    [double] beats [float] in the usual conversions; unary minus does
    not promote floats).  Total: ill-typed shapes (which [well_formed]
    rejects) still get a stable answer so the shrinker can call this on
    arbitrary candidates. *)
let rec type_of (e : expr) : sty =
  match e with
  | Const (_, t) | Read (_, t, _) | Field (_, t) | PRead (_, t, _) -> It t
  | FConst (_, ft) -> Ft ft
  | Var (_, s) -> s
  | EnumRef _ -> It I32
  | Strlen _ -> It U64
  | PCmp _ -> It I32
  | PDiff _ -> It I64
  | Call (_, ret, _) -> ret
  | Un (Lnot, _) -> It I32
  | Un ((Neg | Bnot), a) -> begin
    match type_of a with It t -> It (promote t) | (Ft _ | Pt _) as f -> f
  end
  | Bin ((Lt | Le | Gt | Ge | Eq | Ne | LAnd | LOr), _, _) -> It I32
  | Bin ((Shl | Shr), a, _) -> begin
    match type_of a with It t -> It (promote t) | (Ft _ | Pt _) as f -> f
  end
  | Bin (_, a, b) -> usual_sty (type_of a) (type_of b)
  | Cast (s, _) -> s
  | Cond (_, a, b) -> usual_sty (type_of a) (type_of b)

let is_int_expr e = match type_of e with It _ -> true | Ft _ | Pt _ -> false

(* ------------------------------------------------------------------ *)
(* Reference evaluator                                                 *)
(* ------------------------------------------------------------------ *)

exception Not_const

type value = VI of int64 | VF of float

(** Evaluation environment: enum constants (already canonical at [int]),
    the helper functions callable by name, and the *initial* values of
    the program's globals ([VI] at the global's declared type).  Globals
    are sound to model because everything the reference predicts — enum
    lines, global snapshots, the [rcs] — is evaluated/printed before the
    body's first mutation.  This is the independent arbiter the oracle
    compares every configuration against: it shares no code with the
    front end's folders or the engines. *)
type env = {
  ev_enums : (string * int64) list;
  ev_funcs : func list;
  ev_globals : (string * value) list;
}

let const_env = { ev_enums = []; ev_funcs = []; ev_globals = [] }

let vi = function VI v -> v | VF _ -> raise Not_const
let vf = function VF f -> f | VI _ -> raise Not_const

(** C conversion between scalar values ([from_] is the source's static
    type): integer conversions renormalize, float-to-int saturates per
    our abstract machine, int-to-float uses the signedness of the
    source, and any F32 destination rounds. *)
let convert_val ~(from_ : sty) ~(to_ : sty) (v : value) : value =
  match (to_, from_, v) with
  | It t, It s, VI x -> VI (convert ~from_:s ~to_:t x)
  | It t, Ft _, VF f -> VI (normalize t (float_to_int_sat f))
  | Ft ft, It s, VI x -> VF (int_to_float ~from_:s ft x)
  | Ft ft, Ft _, VF f -> VF (round_f ft f)
  | _ -> raise Not_const

let max_loop_bound = 16

(** Evaluate [e]; [lookup] resolves in-scope variables (none at top
    level; helper-body evaluation passes its frame).  Anything whose
    value the reference cannot know (array reads, struct fields,
    [strlen], unresolved variables) raises [Not_const].  Defensive on
    ill-typed input — raises [Not_const] rather than looping or
    crashing, so [well_formed] can evaluate candidate programs safely. *)
let rec eval_var (env : env) (lookup : string -> value option) (e : expr) :
    value =
  let recur = eval_var env lookup in
  let conv a to_ = convert_val ~from_:(type_of a) ~to_ (recur a) in
  let int_at a t = vi (conv a (It t)) in
  let flo_at a ft = vf (conv a (Ft ft)) in
  match e with
  | Const (v, t) -> VI (normalize t v)
  | FConst (f, _) -> VF f
  | EnumRef n -> begin
    match List.assoc_opt n env.ev_enums with
    | Some v -> VI v
    | None -> raise Not_const
  end
  | Var (n, _) -> begin
    match lookup n with
    | Some v -> v
    | None -> begin
      (* Globals resolve to their initial values — valid wherever the
         reference predicts anything (all predictions print before the
         body's first mutation). *)
      match List.assoc_opt n env.ev_globals with
      | Some v -> v
      | None -> raise Not_const
    end
  end
  | Read _ | Field _ | Strlen _ | PRead _ | PCmp _ | PDiff _ ->
    raise Not_const
  | Un (Neg, a) -> begin
    match type_of a with
    | Ft ft ->
      (* The front end lowers unary minus to [0.0 - x]; mirror that
         exactly (it differs from IEEE negate on -0.0 and NaN sign). *)
      VF (round_f ft (0.0 -. vf (recur a)))
    | It t ->
      let pt = promote t in
      VI (normalize pt (Int64.neg (int_at a pt)))
    | Pt _ -> raise Not_const
  end
  | Un (Bnot, a) -> begin
    match type_of a with
    | It t ->
      let pt = promote t in
      VI (normalize pt (Int64.lognot (int_at a pt)))
    | Ft _ | Pt _ -> raise Not_const
  end
  | Un (Lnot, a) -> VI (if vi (recur a) = 0L then 1L else 0L)
  | Bin (LAnd, a, b) ->
    if vi (recur a) = 0L then VI 0L
    else VI (if vi (recur b) <> 0L then 1L else 0L)
  | Bin (LOr, a, b) ->
    if vi (recur a) <> 0L then VI 1L
    else VI (if vi (recur b) <> 0L then 1L else 0L)
  | Bin (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) -> begin
    match usual_sty (type_of a) (type_of b) with
    | Ft ft ->
      (* OCaml float comparison is IEEE: ordered comparisons are false
         on NaN operands and [<>] is true — the same semantics as the
         engines' [Fcmp]. *)
      let x = flo_at a ft and y = flo_at b ft in
      let r =
        match op with
        | Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | Ge -> x >= y
        | Eq -> x = y
        | _ -> x <> y
      in
      VI (if r then 1L else 0L)
    | It t ->
      let va = int_at a t and vb = int_at b t in
      let cmp =
        if is_unsigned t then Int64.unsigned_compare (zext t va) (zext t vb)
        else compare va vb
      in
      let r =
        match op with
        | Lt -> cmp < 0
        | Le -> cmp <= 0
        | Gt -> cmp > 0
        | Ge -> cmp >= 0
        | Eq -> cmp = 0
        | _ -> cmp <> 0
      in
      VI (if r then 1L else 0L)
    | Pt _ -> raise Not_const
  end
  | Bin (((Shl | Shr) as op), a, b) -> begin
    match type_of a with
    | Ft _ | Pt _ -> raise Not_const
    | It ta ->
      let t = promote ta in
      let x = int_at a t in
      let count = Int64.to_int (vi (recur b)) land 63 in
      let r =
        match op with
        | Shl -> Int64.shift_left x count
        | _ ->
          if is_unsigned t then Int64.shift_right_logical (zext t x) count
          else Int64.shift_right x count
      in
      VI (normalize t r)
  end
  | Bin (op, a, b) -> begin
    match usual_sty (type_of a) (type_of b) with
    | Ft ft -> begin
      let x = flo_at a ft and y = flo_at b ft in
      let r =
        match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | Div -> x /. y (* IEEE: inf/nan results are fine and defined *)
        | _ -> raise Not_const
      in
      VF (round_f ft r)
    end
    | It t ->
      let x = int_at a t and y = int_at b t in
      let r =
        match op with
        | Add -> Int64.add x y
        | Sub -> Int64.sub x y
        | Mul -> Int64.mul x y
        | Div ->
          if y = 0L then raise Not_const
          else if is_unsigned t then Int64.unsigned_div (zext t x) (zext t y)
          else Int64.div x y
        | Rem ->
          if y = 0L then raise Not_const
          else if is_unsigned t then Int64.unsigned_rem (zext t x) (zext t y)
          else Int64.rem x y
        | BAnd -> Int64.logand x y
        | BOr -> Int64.logor x y
        | BXor -> Int64.logxor x y
        | _ -> raise Not_const
      in
      VI (normalize t r)
    | Pt _ -> raise Not_const
  end
  | Cast (s, a) -> conv a s
  | Cond (c, a, b) ->
    let t = usual_sty (type_of a) (type_of b) in
    if vi (recur c) <> 0L then conv a t else conv b t
  | Call (name, _, args) -> begin
    (* Only functions defined *before* the callee are callable from its
       body, so restricting the environment to the definition prefix
       makes the evaluator structurally terminating even on (ill-formed)
       cyclic call graphs. *)
    let rec split acc = function
      | [] -> None
      | f :: rest ->
        if f.fn_name = name then Some (List.rev acc, f)
        else split (f :: acc) rest
    in
    match split [] env.ev_funcs with
    | None -> raise Not_const
    | Some (earlier, f) ->
      if List.length args <> List.length f.fn_params then raise Not_const;
      let argv = List.map2 (fun (_, ps) a -> conv a ps) f.fn_params args in
      eval_func { env with ev_funcs = earlier } f argv
  end

(** Execute a helper on already-converted argument values: bind params,
    run the local initializers, interpret the body (constant loop
    bounds, if/else, assignments to locals), convert the result to the
    declared return type. *)
and eval_func (env : env) (f : func) (argv : value list) : value =
  let vars : (string, value) Hashtbl.t = Hashtbl.create 8 in
  List.iter2 (fun (n, _) v -> Hashtbl.replace vars n v) f.fn_params argv;
  let lookup n = Hashtbl.find_opt vars n in
  let conv_to to_ e =
    convert_val ~from_:(type_of e) ~to_ (eval_var env lookup e)
  in
  List.iter (fun (n, s, e) -> Hashtbl.replace vars n (conv_to s e)) f.fn_locals;
  let rec exec s =
    match s with
    | Assign (n, e) -> begin
      match List.find_opt (fun (m, _, _) -> m = n) f.fn_locals with
      | Some (_, s, _) -> Hashtbl.replace vars n (conv_to s e)
      | None -> raise Not_const
    end
    | If (c, a, b) ->
      List.iter exec (if vi (eval_var env lookup c) <> 0L then a else b)
    | Loop (v, n, body) ->
      if n < 1 || n > max_loop_bound then raise Not_const;
      for k = 0 to n - 1 do
        Hashtbl.replace vars v (VI (Int64.of_int k));
        List.iter exec body
      done
    | AStore _ | FStore _ | Switch _ | Memcpy _ | Memset _ | PStore _ ->
      raise Not_const
  in
  List.iter exec f.fn_body;
  conv_to f.fn_ret f.fn_ret_expr

let eval (env : env) (e : expr) : value = eval_var env (fun _ -> None) e

(** Canonical integer value of a pure integer expression (raises
    [Not_const] on floats as well as on non-constants). *)
let eval_int (env : env) (e : expr) : int64 = vi (eval env e)

(** The enum environment: each constant's runtime value (canonical at
    [int], exactly what the parser's [IntLit] substitution produces). *)
let enum_env (p : program) : (string * int64) list =
  List.fold_left
    (fun env (n, e) ->
      let v =
        match type_of e with
        | It t -> as_long t (eval_int { const_env with ev_enums = env } e)
        | Ft _ | Pt _ -> raise Not_const
      in
      (n, normalize I32 v) :: env)
    [] p.enums
  |> List.rev

(** One reference-predicted output line: a decimal integer printed via
    [%ld], or a float result (double-widened) printed via [%.17g]. *)
type line = Lint of int64 | Lfloat of float

(** The output lines whose values the reference evaluator can predict:
    enum constants, global initial values, and the pure recomputed
    expressions — in print order.  Float recomputations predict the
    exact bit pattern of the (double-widened) result. *)
let expected_lines (p : program) : (string * line) list =
  let enums = enum_env p in
  let env0 = { ev_enums = enums; ev_funcs = p.funcs; ev_globals = [] } in
  (* Global initial values first (their initializers are [`Restricted]
     and cannot read other globals), then an environment carrying them
     for the rcs — which may read globals directly or through helpers. *)
  let gvals =
    List.map
      (fun (n, gt, e) ->
        match (type_of e, eval env0 e) with
        | It t, VI v -> (n, gt, convert ~from_:t ~to_:gt v)
        | _ -> raise Not_const)
      p.globals
  in
  let env =
    { env0 with ev_globals = List.map (fun (n, _, v) -> (n, VI v)) gvals }
  in
  List.map (fun (n, _) -> (n, Lint (List.assoc n enums))) p.enums
  @ List.map (fun (n, gt, v) -> (n, Lint (as_long gt v))) gvals
  @ List.map
      (fun (n, e) ->
        match (type_of e, eval env e) with
        | It t, VI v -> (n, Lint (as_long t v))
        | Ft _, VF f -> (n, Lfloat f)
        | _ -> raise Not_const)
      p.rcs

let expected_prefix (p : program) : string =
  String.concat ""
    (List.map
       (fun (n, l) ->
         match l with
         | Lint v -> Printf.sprintf "%s=%Ld\n" n v
         | Lfloat f -> Printf.sprintf "%s=%s\n" n (Floatfmt.format 'g' 17 f))
       (expected_lines p))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(** Constants render to a form that parses back to the exact canonical
    value at the exact type: small non-negative values as a cast decimal
    literal, everything else as a cast 64-bit hex [unsigned long]
    literal (the cast truncates to the right width). *)
let render_const v t =
  let c = normalize t v in
  if c >= 0L && c < 0x8000_0000L then
    Printf.sprintf "((%s)%Ld)" (c_name t) c
  else Printf.sprintf "((%s)0x%Lxul)" (c_name t) c

(** Float constants render to a literal that parses back bit-exactly:
    17 significant digits round-trip any binary64 through the lexer's
    correctly-rounded decimal parse, and 9 digits round-trip any
    binary32 (including through the intermediate double).  Negative
    values render as unary minus on the absolute literal — exact,
    because [0.0 - |f|] is [f] for every finite nonzero [f], matching
    the front end's lowering of unary minus. *)
let render_fconst (f : float) (ft : fty) : string =
  let a = Float.abs f in
  let digits =
    match ft with
    | F64 -> Printf.sprintf "%.17g" a
    | F32 -> Printf.sprintf "%.9g" a
  in
  let has_marker =
    let found = ref false in
    String.iter (fun c -> if c = '.' || c = 'e' then found := true) digits;
    !found
  in
  let digits = if has_marker then digits else digits ^ ".0" in
  let lit = match ft with F32 -> digits ^ "f" | F64 -> digits in
  if f < 0.0 then "(-" ^ lit ^ ")" else lit

let render_idx = function Ixc k -> string_of_int k | Ixv v -> v

let rec render_expr (e : expr) : string =
  match e with
  | Const (v, t) -> render_const v t
  | FConst (f, ft) -> render_fconst f ft
  | EnumRef n | Var (n, _) -> n
  | Read (a, _, ix) -> Printf.sprintf "%s[%s]" a (render_idx ix)
  | Field (f, _) -> "s." ^ f
  | Un (Neg, a) -> "(- " ^ render_expr a ^ ")"
  | Un (Bnot, a) -> "(~ " ^ render_expr a ^ ")"
  | Un (Lnot, a) -> "(! " ^ render_expr a ^ ")"
  | Bin (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (render_expr a) (binop_str op)
      (render_expr b)
  | Cast (s, a) -> Printf.sprintf "((%s)%s)" (sty_name s) (render_expr a)
  | Cond (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (render_expr c) (render_expr a)
      (render_expr b)
  | Call (n, _, args) ->
    Printf.sprintf "%s(%s)" n (String.concat ", " (List.map render_expr args))
  | Strlen a -> Printf.sprintf "strlen(%s)" a
  (* "*p" vs "p[k]" deliberately exercises both front-end lowerings
     (Deref and Index) of the same load. *)
  | PRead (p, _, Ixc 0) -> Printf.sprintf "(*%s)" p
  | PRead (p, _, ix) -> Printf.sprintf "%s[%s]" p (render_idx ix)
  | PCmp (op, a, b) -> Printf.sprintf "(%s %s %s)" a (binop_str op) b
  | PDiff (a, b) -> Printf.sprintf "((long)(%s - %s))" a b

let rec render_stmt b ind (s : stmt) =
  let pad = String.make ind ' ' in
  match s with
  | Assign (n, e) ->
    Buffer.add_string b (Printf.sprintf "%s%s = %s;\n" pad n (render_expr e))
  | AStore (a, ix, e) ->
    Buffer.add_string b
      (Printf.sprintf "%s%s[%s] = %s;\n" pad a (render_idx ix) (render_expr e))
  | FStore (f, e) ->
    Buffer.add_string b (Printf.sprintf "%ss.%s = %s;\n" pad f (render_expr e))
  | If (c, t, []) ->
    Buffer.add_string b (Printf.sprintf "%sif (%s) {\n" pad (render_expr c));
    List.iter (render_stmt b (ind + 2)) t;
    Buffer.add_string b (pad ^ "}\n")
  | If (c, t, e) ->
    Buffer.add_string b (Printf.sprintf "%sif (%s) {\n" pad (render_expr c));
    List.iter (render_stmt b (ind + 2)) t;
    Buffer.add_string b (pad ^ "} else {\n");
    List.iter (render_stmt b (ind + 2)) e;
    Buffer.add_string b (pad ^ "}\n")
  | Loop (v, n, body) ->
    Buffer.add_string b
      (Printf.sprintf "%sfor (long %s = 0; %s < %d; %s = %s + 1) {\n" pad v v
         n v v);
    List.iter (render_stmt b (ind + 2)) body;
    Buffer.add_string b (pad ^ "}\n")
  | Switch (e, arms, dflt) ->
    (* No cast: the controlling expression keeps its own C type, which
       the front end promotes and converts the labels to (C11 6.8.4.2). *)
    Buffer.add_string b
      (Printf.sprintf "%sswitch (%s) {\n" pad (render_expr e));
    List.iter
      (fun (k, body) ->
        Buffer.add_string b (Printf.sprintf "%s  case %d: {\n" pad k);
        List.iter (render_stmt b (ind + 4)) body;
        Buffer.add_string b (pad ^ "    break;\n" ^ pad ^ "  }\n"))
      arms;
    Buffer.add_string b (pad ^ "  default: {\n");
    List.iter (render_stmt b (ind + 4)) dflt;
    Buffer.add_string b (pad ^ "    break;\n" ^ pad ^ "  }\n");
    Buffer.add_string b (pad ^ "}\n")
  | Memcpy (dst, src, len) ->
    Buffer.add_string b (Printf.sprintf "%smemcpy(%s, %s, %d);\n" pad dst src len)
  | Memset (a, v, len) ->
    Buffer.add_string b (Printf.sprintf "%smemset(%s, %d, %d);\n" pad a v len)
  | PStore (p, Ixc 0, e) ->
    Buffer.add_string b (Printf.sprintf "%s*%s = %s;\n" pad p (render_expr e))
  | PStore (p, ix, e) ->
    Buffer.add_string b
      (Printf.sprintf "%s%s[%s] = %s;\n" pad p (render_idx ix) (render_expr e))

let render_func b (f : func) =
  let params =
    match f.fn_params with
    | [] -> "void"
    | ps -> String.concat ", " (List.map (fun (n, s) -> sty_name s ^ " " ^ n) ps)
  in
  Buffer.add_string b
    (Printf.sprintf "static %s %s(%s) {\n" (sty_name f.fn_ret) f.fn_name params);
  List.iter
    (fun (n, s, e) ->
      Buffer.add_string b
        (Printf.sprintf "  %s %s = %s;\n" (sty_name s) n (render_expr e)))
    f.fn_locals;
  List.iter (render_stmt b 2) f.fn_body;
  Buffer.add_string b (Printf.sprintf "  return %s;\n}\n" (render_expr f.fn_ret_expr))

(** Float printing: widen to double (exact for any F32 value) and print
    the decimal with [%.17g].  All printf engines delegate decimal
    conversion to the shared [Floatfmt] (the managed libc through the
    [__sulong_format_double] intrinsic, the native model directly), so
    "equal value" gives equal output by construction, and 17 significant
    digits round-trip a binary64, so "equal output" still implies "equal
    value" (NaN payloads excepted) — the bit-pun through an unsigned
    long this replaces (DESIGN.md §10) is no longer needed to make the
    comparison sound. *)
let print_line b name (s : sty) what =
  match s with
  | It _ ->
    Buffer.add_string b
      (Printf.sprintf "  printf(\"%s=%%ld\\n\", (long)%s);\n" name what)
  | Ft _ ->
    Buffer.add_string b
      (Printf.sprintf "  printf(\"%s=%%.17g\\n\", (double)%s);\n" name what)
  | Pt _ -> () (* addresses are never printed: not deterministic *)

let render (p : program) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "/* difftest seed %d */\n" p.seed);
  if p.enums <> [] then begin
    Buffer.add_string b "enum {\n";
    List.iter
      (fun (n, e) ->
        Buffer.add_string b (Printf.sprintf "  %s = %s,\n" n (render_expr e)))
      p.enums;
    Buffer.add_string b "};\n"
  end;
  if p.fields <> [] then begin
    Buffer.add_string b "struct S {\n";
    List.iter
      (fun (f, t, _) ->
        Buffer.add_string b (Printf.sprintf "  %s %s;\n" (c_name t) f))
      p.fields;
    Buffer.add_string b "};\n"
  end;
  List.iter
    (fun (n, t, e) ->
      Buffer.add_string b
        (Printf.sprintf "static %s %s = %s;\n" (c_name t) n (render_expr e)))
    p.globals;
  List.iter (render_func b) p.funcs;
  Buffer.add_string b "int main(void) {\n";
  if p.fields <> [] then Buffer.add_string b "  struct S s;\n";
  List.iter
    (fun (a, t, len) ->
      Buffer.add_string b
        (Printf.sprintf "  %s %s[%d] = {0};\n" (c_name t) a len))
    p.arrays;
  List.iter
    (fun (f, t, v) ->
      Buffer.add_string b (Printf.sprintf "  s.%s = %s;\n" f (render_const v t)))
    p.fields;
  List.iter
    (fun (n, e) ->
      Buffer.add_string b
        (Printf.sprintf "  %s %s = %s;\n"
           (sty_name (type_of e)) n (render_expr e)))
    p.rcs;
  List.iter
    (fun (n, s, e) ->
      Buffer.add_string b
        (Printf.sprintf "  %s %s = %s;\n" (sty_name s) n (render_expr e)))
    p.locals;
  (* Pointers come after every addressable local so [&local] refers to a
     declared name; [a + 0] and [q + 0] shorten to the bare name (array
     decay / plain copy), and negative alias offsets render as [q - k]. *)
  let render_pinit = function
    | PaddrScalar x -> "&" ^ x
    | PaddrArr (a, 0) -> a
    | PaddrArr (a, k) -> Printf.sprintf "%s + %d" a k
    | Palias (q, 0) -> q
    | Palias (q, k) when k < 0 -> Printf.sprintf "%s - %d" q (-k)
    | Palias (q, k) -> Printf.sprintf "%s + %d" q k
  in
  List.iter
    (fun (n, t, pi) ->
      Buffer.add_string b
        (Printf.sprintf "  %s *%s = %s;\n" (c_name t) n (render_pinit pi)))
    p.ptrs;
  (* Globals are mutable at runtime (the body may assign them), but the
     reference evaluator predicts only their *initial* values — so those
     are snapshot before the body runs, and the snapshots feed the
     reference-checked print lines below.  The post-body values are
     printed separately as [g_end] lines the configurations must merely
     agree on among themselves. *)
  List.iter
    (fun (n, _, _) ->
      Buffer.add_string b (Printf.sprintf "  long snap_%s = (long)%s;\n" n n))
    p.globals;
  List.iter (render_stmt b 2) p.body;
  (* Print order: reference-predictable lines first (the expected
     prefix), then the runtime state dump the configurations must merely
     agree on among themselves. *)
  List.iter (fun (n, _) -> print_line b n (It I32) n) p.enums;
  List.iter (fun (n, _, _) -> print_line b n (It I64) ("snap_" ^ n)) p.globals;
  List.iter (fun (n, e) -> print_line b n (type_of e) n) p.rcs;
  List.iter (fun (n, s, _) -> print_line b n s n) p.locals;
  List.iter (fun (n, _, _) -> print_line b (n ^ "_end") (It I64) n) p.globals;
  List.iter
    (fun (f, _, _) -> print_line b ("s." ^ f) (It I64) ("s." ^ f))
    p.fields;
  List.iter
    (fun (a, _, len) ->
      Buffer.add_string b
        (Printf.sprintf
           "  {\n\
            \    long chk_%s = 0;\n\
            \    for (long ci_%s = 0; ci_%s < %d; ci_%s = ci_%s + 1) {\n\
            \      chk_%s = (chk_%s * 31) + (long)%s[ci_%s];\n\
            \    }\n\
            \    printf(\"%s=%%ld\\n\", chk_%s);\n\
            \  }\n"
           a a a len a a a a a a a a))
    p.arrays;
  Buffer.add_string b "  return 0;\n}\n";
  Buffer.contents b

(** Size metric for the shrinker: rendered length.  Monotone under every
    reduction we apply (structural drops, subexpression hoisting,
    constant simplification), which guarantees termination. *)
let size (p : program) : int = String.length (render p)

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

(** Expression contexts, each with its own operator/leaf subset:
    - [`Full]: what the parser's constant-expression evaluator accepts
      (enum values) — integer constants only;
    - [`Restricted]: what the global-initializer folder accepts (no
      comparisons, logic, ternary or bitwise-not) — integers only;
    - [`Pure]: runtime-evaluated but state-free (the [rcs]): adds float
      constants/arithmetic and helper calls, still no variables, array
      reads, fields or [strlen] — so the reference evaluator can predict
      the exact result;
    - [`Runtime locals loops]: full scalar scope of [main];
    - [`Func scope loops]: a helper body — parameters, own locals and
      loop variables only (no globals/arrays/fields/builtins, which is
      what keeps helpers pure). *)
type cmode = [ `Full | `Restricted ]

let max_array_len = 16

(** [well_formed p] checks every guarantee the generator establishes, so
    the shrinker (or a hand-written regression) can only produce
    programs that are well-defined under our abstract machine:
    referenced names exist with the recorded types, array indices are in
    bounds (loop-variable indices via the loop bound), divisors of
    *integer* divisions are provably nonzero (float division is IEEE and
    total), shift counts are constants within the promoted width, float
    constants are finite/pre-rounded/not [-0.0], helper calls are
    acyclic and arity-correct, [memcpy]/[memset] lengths fit the
    operands, every [strlen] argument is a char array whose final NUL
    can never be overwritten, enum values fit in [int], and switch
    labels are distinct. *)
let well_formed (p : program) : bool =
  let ok = ref true in
  let fail () = ok := false in
  (* Distinct names across every namespace (incl. loop variables and
     helper params/locals: C would allow shadowing, but a flat namespace
     keeps every shrinker rewrite trivially capture-free). *)
  let names = Hashtbl.create 32 in
  let declare n = if Hashtbl.mem names n then fail () else Hashtbl.replace names n () in
  List.iter (fun (n, _) -> declare n) p.enums;
  List.iter (fun (n, _, _) -> declare n) p.globals;
  List.iter (fun (f, _, _) -> declare ("s." ^ f)) p.fields;
  List.iter (fun (a, _, _) -> declare a) p.arrays;
  List.iter (fun (n, _) -> declare n) p.rcs;
  List.iter (fun (n, _, _) -> declare n) p.locals;
  List.iter (fun (n, _, _) -> declare n) p.ptrs;
  let rec declare_loop_vars s =
    match s with
    | Loop (v, _, body) ->
      declare v;
      List.iter declare_loop_vars body
    | If (_, a, b) ->
      List.iter declare_loop_vars a;
      List.iter declare_loop_vars b
    | Switch (_, arms, d) ->
      List.iter (fun (_, body) -> List.iter declare_loop_vars body) arms;
      List.iter declare_loop_vars d
    | Assign _ | AStore _ | FStore _ | PStore _ | Memcpy _ | Memset _ -> ()
  in
  List.iter declare_loop_vars p.body;
  List.iter
    (fun f ->
      declare f.fn_name;
      List.iter (fun (n, _) -> declare n) f.fn_params;
      List.iter (fun (n, _, _) -> declare n) f.fn_locals;
      List.iter declare_loop_vars f.fn_body)
    p.funcs;
  (* Lookup tables. *)
  let global_ty = List.map (fun (n, t, _) -> (n, t)) p.globals in
  let field_ty = List.map (fun (f, t, _) -> (f, t)) p.fields in
  let array_info = List.map (fun (a, t, len) -> (a, (t, len))) p.arrays in
  let array_bytes (t, len) = ity_bytes t * len in
  let local_ty = List.map (fun (n, s, _) -> (n, s)) p.locals in
  let func_by_name = List.map (fun f -> (f.fn_name, f)) p.funcs in
  (* Pointer table: every pointer resolves *statically* to a (referent,
     offset) pair with the offset strictly inside the referent's extent
     — that resolution is what makes every later deref/compare bounds-
     checkable without dataflow.  Pointers are single-assignment and an
     alias may only name an *earlier* pointer, so insertion order makes
     the chain check acyclic for free.  Targets are scalar locals,
     globals and arrays only: locals are merely config-compared and
     globals are snapshotted before the body runs, so a store through
     any pointer can never falsify a reference-predicted print line. *)
  let ptr_tbl : (string, ity * referent * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (n, t, pi) ->
      (match pi with
      | PaddrScalar x -> begin
        match (List.assoc_opt x local_ty, List.assoc_opt x global_ty) with
        | Some (It t'), None when t' = t ->
          Hashtbl.replace ptr_tbl n (t, RScalar x, 0)
        | None, Some t' when t' = t -> Hashtbl.replace ptr_tbl n (t, RScalar x, 0)
        | _ -> fail ()
      end
      | PaddrArr (a, k) -> begin
        match List.assoc_opt a array_info with
        | Some (t', len) when t' = t && k >= 0 && k < len ->
          Hashtbl.replace ptr_tbl n (t, RArr (a, len), k)
        | _ -> fail ()
      end
      | Palias (q, k) -> begin
        match Hashtbl.find_opt ptr_tbl q with
        | Some (t', r, off) when t' = t ->
          let off' = off + k in
          if off' >= 0 && off' < referent_extent r then
            Hashtbl.replace ptr_tbl n (t, r, off')
          else fail ()
        | _ -> fail ()
      end))
    p.ptrs;
  let ptr_scope = List.map (fun (n, t, _) -> (n, Pt t)) p.ptrs in
  (* Pointer names live in the same scope lists as scalars (with a [Pt]
     sty), but only these helpers may look them up — the Var case
     rejects [Pt] so pointer values cannot leak into scalar contexts. *)
  let scope_ptr_ty ~mode n =
    match mode with
    | `Runtime (locals, _) -> begin
      match List.assoc_opt n locals with Some (Pt t) -> Some t | _ -> None
    end
    | `Func (scope, _) -> begin
      match List.assoc_opt n scope with Some (Pt t) -> Some t | _ -> None
    end
    | `Full | `Restricted | `Pure -> None
  in
  let ptr_in_scope ~mode n t = scope_ptr_ty ~mode n = Some t in
  (* In-bounds proof for [p[ix]]: the static (referent, offset) plus a
     constant index — or a loop variable's bound — must stay strictly
     inside the referent's extent. *)
  let check_ptr_idx ~mode ~r ~off ix =
    let ext = referent_extent r in
    match ix with
    | Ixc k -> if off + k < 0 || off + k >= ext then fail ()
    | Ixv v -> begin
      let loops =
        match mode with
        | `Runtime (_, l) | `Func (_, l) -> l
        | `Full | `Restricted | `Pure -> []
      in
      match List.assoc_opt v loops with
      | Some bound -> if off + bound > ext then fail ()
      | None -> fail ()
    end
  in
  (* Generic expression check.  [funcs] is the callable set (a prefix of
     the definition order inside helper bodies, enforcing acyclicity). *)
  let rec check_expr ~(enums : string list) ~(funcs : (string * func) list)
      ~(mode :
         [ cmode
         | `Pure
         | `Runtime of (string * sty) list * (string * int) list
         | `Func of (string * sty) list * (string * int) list ]) (e : expr) =
    let recur = check_expr ~enums ~funcs ~mode in
    let const_mode = match mode with `Full | `Restricted -> true | _ -> false in
    (match (mode, e) with
    | `Restricted, (Un ((Bnot | Lnot), _) | Cond _)
    | `Restricted, Bin ((Lt | Le | Gt | Ge | Eq | Ne | LAnd | LOr), _, _) ->
      fail ()
    | _ -> ());
    match e with
    | Const _ -> ()
    | FConst (f, ft) ->
      if const_mode then fail ();
      if not (fconst_ok f ft) then fail ()
    | EnumRef n -> if not (List.mem n enums) then fail ()
    | Var (n, s) -> begin
      (* Pointer values never appear as bare rvalues: they are only
         dereferenced (PRead/PStore), compared (PCmp/PDiff) or passed
         verbatim to a pointer parameter — the Call case checks those
         arguments itself, so [recur] never reaches a [Pt] leaf. *)
      (match s with Pt _ -> fail () | It _ | Ft _ -> ());
      match mode with
      | `Runtime (locals, loops) ->
        let found =
          match List.assoc_opt n locals with
          | Some s' -> s' = s
          | None -> begin
            match List.assoc_opt n global_ty with
            | Some t' -> It t' = s
            | None -> List.mem_assoc n loops && s = It I64
          end
        in
        if not found then fail ()
      | `Func (scope, loops) ->
        (* Helpers may read globals: calls reachable from a reference-
           predicted context evaluate before the body's first mutation,
           so the initial value the evaluator uses is the true one. *)
        let found =
          match List.assoc_opt n scope with
          | Some s' -> s' = s
          | None -> begin
            match List.assoc_opt n global_ty with
            | Some t' -> It t' = s
            | None -> List.mem_assoc n loops && s = It I64
          end
        in
        if not found then fail ()
      | `Pure -> begin
        (* Recomputations evaluate before the body runs, so a global's
           initial value is exactly what the C program reads. *)
        match List.assoc_opt n global_ty with
        | Some t' -> if It t' <> s then fail ()
        | None -> fail ()
      end
      | `Full | `Restricted -> fail ()
    end
    | Read (a, t, ix) -> begin
      match (List.assoc_opt a array_info, mode) with
      | Some (t', len), `Runtime (_, loops) ->
        if t' <> t then fail ();
        (match ix with
        | Ixc k -> if k < 0 || k >= len then fail ()
        | Ixv v -> begin
          match List.assoc_opt v loops with
          | Some bound -> if bound > len then fail ()
          | None -> fail ()
        end)
      | _ -> fail ()
    end
    | Field (f, t) -> begin
      match mode with
      | `Runtime _ -> begin
        match List.assoc_opt f field_ty with
        | Some t' -> if t' <> t then fail ()
        | None -> fail ()
      end
      | _ -> fail ()
    end
    | Strlen a -> begin
      (* NUL-safety of the array's writes is a whole-program property,
         checked separately below. *)
      match mode with
      | `Runtime _ -> begin
        match List.assoc_opt a array_info with
        | Some ((I8 | U8), _) -> ()
        | _ -> fail ()
      end
      | _ -> fail ()
    end
    | PRead (pn, t, ix) -> begin
      if not (ptr_in_scope ~mode pn t) then fail ();
      match Hashtbl.find_opt ptr_tbl pn with
      | Some (_, r, off) -> check_ptr_idx ~mode ~r ~off ix
      | None ->
        (* Not a main pointer, so a helper's pointer parameter: no
           static referent, hence deref-only — any valid argument has
           extent >= 1 at its own offset, so exactly [*p] is safe. *)
        if ix <> Ixc 0 then fail ()
    end
    | PCmp (op, a, b) -> begin
      (match op with
      | Eq | Ne | Lt | Le | Gt | Ge -> ()
      | _ -> fail ());
      let ta = scope_ptr_ty ~mode a and tb = scope_ptr_ty ~mode b in
      (match (ta, tb) with
      | Some t, Some t' when t = t' -> ()
      | _ -> fail ());
      match op with
      | Eq | Ne -> ()
      | _ -> begin
        (* Relational comparison is only defined inside one object
           (C99 6.5.8p5), so both sides need the same static referent. *)
        match (Hashtbl.find_opt ptr_tbl a, Hashtbl.find_opt ptr_tbl b) with
        | Some (_, ra, _), Some (_, rb, _) -> if ra <> rb then fail ()
        | _ -> fail ()
      end
    end
    | PDiff (a, b) -> begin
      (match (scope_ptr_ty ~mode a, scope_ptr_ty ~mode b) with
      | Some t, Some t' when t = t' -> ()
      | _ -> fail ());
      (* Subtraction needs one object too (C99 6.5.6p9). *)
      match (Hashtbl.find_opt ptr_tbl a, Hashtbl.find_opt ptr_tbl b) with
      | Some (_, ra, _), Some (_, rb, _) -> if ra <> rb then fail ()
      | _ -> fail ()
    end
    | Call (name, rty, args) -> begin
      (match mode with
      | `Pure | `Runtime _ | `Func _ -> ()
      | `Full | `Restricted -> fail ());
      match List.assoc_opt name funcs with
      | None -> fail ()
      | Some f ->
        if f.fn_ret <> rty then fail ();
        if List.length args <> List.length f.fn_params then fail ()
        else
          List.iter2
            (fun (_, ps) arg ->
              match ps with
              | Pt pt -> begin
                (* Pointer arguments are passed verbatim — a bare name
                   with the parameter's exact element type — so the
                   callee's deref-only use stays in bounds. *)
                match arg with
                | Var (an, Pt at) when at = pt ->
                  if not (ptr_in_scope ~mode an pt) then fail ()
                | _ -> fail ()
              end
              | It _ | Ft _ -> recur arg)
            f.fn_params args
    end
    | Un (Neg, a) -> recur a
    | Un ((Bnot | Lnot), a) ->
      recur a;
      if not (is_int_expr a) then fail ()
    | Bin ((LAnd | LOr), a, b) ->
      recur a;
      recur b;
      if not (is_int_expr a && is_int_expr b) then fail ()
    | Bin ((Div | Rem), a, b) ->
      recur a;
      recur b;
      (match type_of e with
      | Pt _ -> fail ()
      | Ft _ ->
        (* Float division is total under IEEE; % never types as float. *)
        if (match e with Bin (Rem, _, _) -> true | _ -> false) then fail ()
      | It rty ->
        (* The divisor must be provably nonzero at the operation's type:
           either a constant that stays nonzero after conversion, or
           [x | odd] whose low bit survives any truncation. *)
        (match b with
        | Const (c, ct) ->
          if convert ~from_:ct ~to_:rty (normalize ct c) = 0L then fail ()
        | Bin (BOr, _, Const (c, _)) -> if Int64.logand c 1L <> 1L then fail ()
        | _ -> fail ()))
    | Bin ((Shl | Shr), a, b) -> begin
      recur a;
      match type_of a with
      | Ft _ | Pt _ -> fail ()
      | It ta -> begin
        match b with
        | Const (k, _) ->
          if k < 0L || k >= Int64.of_int (bits (promote ta)) then fail ()
        | _ -> fail ()
      end
    end
    | Bin (((BAnd | BOr | BXor) as _op), a, b) ->
      recur a;
      recur b;
      if not (is_int_expr a && is_int_expr b) then fail ()
    | Bin (_, a, b) ->
      recur a;
      recur b
    | Cast (s, a) ->
      (match (mode, s) with
      | (`Full | `Restricted), Ft _ -> fail ()
      | _, Pt _ -> fail () (* no casts to pointer types: provenance *)
      | _ -> ());
      recur a
    | Cond (c, a, b) ->
      recur c;
      if not (is_int_expr c) then fail ();
      recur a;
      recur b
  in
  (* Enums: full constant expressions over earlier enums; the value (as
     printed) must fit in [int], since C gives enum constants type
     [int]. *)
  let enums_so_far = ref [] in
  List.iter
    (fun (n, e) ->
      check_expr ~enums:!enums_so_far ~funcs:[] ~mode:`Full e;
      enums_so_far := n :: !enums_so_far)
    p.enums;
  let all_enums = List.map fst p.enums in
  (try
     List.iter
       (fun (_, v) -> if v < -2147483648L || v > 2147483647L then fail ())
       (enum_env p)
   with Not_const -> fail ());
  (* Globals: restricted constant expressions. *)
  List.iter
    (fun (_, _, e) -> check_expr ~enums:all_enums ~funcs:[] ~mode:`Restricted e)
    p.globals;
  List.iter
    (fun (_, _, len) -> if len < 1 || len > max_array_len then fail ())
    p.arrays;
  (* Helper functions: locals see params and earlier locals; bodies may
     assign own locals and use if/loops; only earlier helpers callable. *)
  let funcs_so_far = ref [] in
  List.iter
    (fun f ->
      let callable = List.rev !funcs_so_far in
      (* Only *parameters* may be pointer-typed: a pointer local or a
         pointer return value would need a static referent the callee
         cannot have. *)
      (match f.fn_ret with Pt _ -> fail () | It _ | Ft _ -> ());
      List.iter
        (fun (_, s, _) -> match s with Pt _ -> fail () | It _ | Ft _ -> ())
        f.fn_locals;
      let param_scope = f.fn_params in
      let scope_ref = ref param_scope in
      List.iter
        (fun (n, s, e) ->
          check_expr ~enums:all_enums ~funcs:callable
            ~mode:(`Func (!scope_ref, []))
            e;
          scope_ref := (n, s) :: !scope_ref)
        f.fn_locals;
      let full_scope = !scope_ref in
      let fn_local_names = List.map (fun (n, _, _) -> n) f.fn_locals in
      let rec check_fstmt loops s =
        let check_e =
          check_expr ~enums:all_enums ~funcs:callable
            ~mode:(`Func (full_scope, loops))
        in
        match s with
        | Assign (n, e) ->
          if not (List.mem n fn_local_names) then fail ();
          check_e e
        | If (c, a, b) ->
          check_e c;
          if not (is_int_expr c) then fail ();
          List.iter (check_fstmt loops) a;
          List.iter (check_fstmt loops) b
        | Loop (v, n, body) ->
          if n < 1 || n > max_loop_bound then fail ();
          List.iter (check_fstmt ((v, n) :: loops)) body
        | AStore _ | FStore _ | PStore _ | Switch _ | Memcpy _ | Memset _ ->
          (* no arrays, fields, builtins or pointer stores in a helper:
             reads (globals included) keep calls predictable, writes
             would not be *)
          fail ()
      in
      List.iter (check_fstmt []) f.fn_body;
      check_expr ~enums:all_enums ~funcs:callable ~mode:(`Func (full_scope, []))
        f.fn_ret_expr;
      funcs_so_far := (f.fn_name, f) :: !funcs_so_far)
    p.funcs;
  let all_funcs = func_by_name in
  (* Recomputations: pure expressions (floats and calls allowed; no
     state), whose reference value must actually evaluate. *)
  List.iter
    (fun (_, e) -> check_expr ~enums:all_enums ~funcs:all_funcs ~mode:`Pure e)
    p.rcs;
  (* Every constant expression must actually evaluate (guards hold). *)
  if !ok then (try ignore (expected_lines p) with Not_const -> fail ());
  (* Locals: runtime expressions over earlier locals. *)
  let locals_so_far = ref [] in
  List.iter
    (fun (n, s, e) ->
      (* Scalar locals only — pointers live in [p.ptrs], declared after
         every local so their initializers can take any address. *)
      (match s with Pt _ -> fail () | It _ | Ft _ -> ());
      check_expr ~enums:all_enums ~funcs:all_funcs
        ~mode:(`Runtime (!locals_so_far, []))
        e;
      locals_so_far := (n, s) :: !locals_so_far)
    p.locals;
  (* Body: all locals in scope; loop bounds within limits; assignments
     target scalar locals or globals, never loop variables (the index
     checks rely on their bounds).  Global stores are sound because the
     rendering snapshots the initial values before the body runs, so the
     reference-predicted print lines are unaffected. *)
  let rec check_stmt loops s =
    (* The body (and only the body) sees the pointers: declared after
       the last local initializer, never visible to helpers or rcs. *)
    let body_scope = local_ty @ ptr_scope in
    let check_e =
      check_expr ~enums:all_enums ~funcs:all_funcs
        ~mode:(`Runtime (body_scope, loops))
    in
    match s with
    | Assign (n, e) ->
      if not (List.mem_assoc n local_ty || List.mem_assoc n global_ty) then
        fail ();
      check_e e
    | AStore (a, ix, e) -> begin
      check_e e;
      match List.assoc_opt a array_info with
      | None -> fail ()
      | Some (_, len) -> begin
        match ix with
        | Ixc k -> if k < 0 || k >= len then fail ()
        | Ixv v -> begin
          match List.assoc_opt v loops with
          | Some bound -> if bound > len then fail ()
          | None -> fail ()
        end
      end
    end
    | FStore (f, e) ->
      if not (List.mem_assoc f field_ty) then fail ();
      check_e e
    | PStore (pn, ix, e) -> begin
      check_e e;
      (* Stored value converts to the element's integer type; float
         sources could overflow the conversion (UB), so keep them out. *)
      if not (is_int_expr e) then fail ();
      match Hashtbl.find_opt ptr_tbl pn with
      | Some (_, r, off) ->
        check_ptr_idx ~mode:(`Runtime (body_scope, loops)) ~r ~off ix
      | None -> fail ()
    end
    | If (c, a, b) ->
      check_e c;
      if not (is_int_expr c) then fail ();
      List.iter (check_stmt loops) a;
      List.iter (check_stmt loops) b
    | Loop (v, n, body) ->
      if n < 1 || n > max_loop_bound then fail ();
      List.iter (check_stmt ((v, n) :: loops)) body
    | Switch (e, arms, d) ->
      check_e e;
      if not (is_int_expr e) then fail ();
      let labels = List.map fst arms in
      if List.length (List.sort_uniq compare labels) <> List.length labels
      then fail ();
      List.iter (fun (_, body) -> List.iter (check_stmt loops) body) arms;
      List.iter (check_stmt loops) d
    | Memcpy (dst, src, len) -> begin
      if dst = src then fail ();
      match (List.assoc_opt dst array_info, List.assoc_opt src array_info) with
      | Some d, Some s ->
        if len < 1 || len > min (array_bytes d) (array_bytes s) then fail ()
      | _ -> fail ()
    end
    | Memset (a, v, len) -> begin
      if v < 0 || v > 255 then fail ();
      match List.assoc_opt a array_info with
      | Some info -> if len < 1 || len > array_bytes info then fail ()
      | None -> fail ()
    end
  in
  List.iter (check_stmt []) p.body;
  (* NUL-safety of strlen'd arrays: collect every [Strlen] target, then
     verify no write anywhere in the body can touch its final element —
     arrays are zero-initialized, so the last byte then provably stays
     NUL and every [strlen] terminates in bounds. *)
  let strlen_targets = ref [] in
  let rec scan_expr e =
    (match e with
    | Strlen a -> if not (List.mem a !strlen_targets) then
        strlen_targets := a :: !strlen_targets
    | _ -> ());
    match e with
    | Const _ | FConst _ | EnumRef _ | Var _ | Read _ | Field _ | Strlen _
    | PRead _ | PCmp _ | PDiff _ -> ()
    | Un (_, a) | Cast (_, a) -> scan_expr a
    | Bin (_, a, b) -> scan_expr a; scan_expr b
    | Cond (c, a, b) -> scan_expr c; scan_expr a; scan_expr b
    | Call (_, _, args) -> List.iter scan_expr args
  in
  let rec scan_stmt s =
    match s with
    | Assign (_, e) | AStore (_, _, e) | FStore (_, e) | PStore (_, _, e) ->
      scan_expr e
    | If (c, a, b) -> scan_expr c; List.iter scan_stmt a; List.iter scan_stmt b
    | Loop (_, _, body) -> List.iter scan_stmt body
    | Switch (e, arms, d) ->
      scan_expr e;
      List.iter (fun (_, body) -> List.iter scan_stmt body) arms;
      List.iter scan_stmt d
    | Memcpy _ | Memset _ -> ()
  in
  List.iter (fun (_, e) -> scan_expr e) p.rcs;
  List.iter (fun (_, _, e) -> scan_expr e) p.locals;
  List.iter scan_stmt p.body;
  List.iter
    (fun f ->
      List.iter (fun (_, _, e) -> scan_expr e) f.fn_locals;
      List.iter scan_stmt f.fn_body;
      scan_expr f.fn_ret_expr)
    p.funcs;
  List.iter
    (fun a ->
      match List.assoc_opt a array_info with
      | None -> fail ()
      | Some (_, len) ->
        (* Element type is I8/U8 (checked above), so bytes = elements. *)
        let rec scan_writes loops s =
          match s with
          | AStore (a', ix, _) when a' = a -> begin
            match ix with
            | Ixc k -> if k > len - 2 then fail ()
            | Ixv v -> begin
              match List.assoc_opt v loops with
              | Some bound -> if bound > len - 1 then fail ()
              | None -> ()
            end
          end
          | PStore (pn, ix, _) -> begin
            (* A store through a pointer can hit the array too: resolve
               the pointer's static referent and apply the same
               last-element protection as a direct [AStore]. *)
            match Hashtbl.find_opt ptr_tbl pn with
            | Some (_, RArr (a', _), off) when a' = a -> begin
              match ix with
              | Ixc k -> if off + k > len - 2 then fail ()
              | Ixv v -> begin
                match List.assoc_opt v loops with
                | Some bound -> if off + bound > len - 1 then fail ()
                | None -> ()
              end
            end
            | _ -> ()
          end
          | Memset (a', _, l) when a' = a -> if l > len - 1 then fail ()
          | Memcpy (d, _, l) when d = a -> if l > len - 1 then fail ()
          | If (_, x, y) ->
            List.iter (scan_writes loops) x;
            List.iter (scan_writes loops) y
          | Loop (v, n, body) -> List.iter (scan_writes ((v, n) :: loops)) body
          | Switch (_, arms, d) ->
            List.iter (fun (_, body) -> List.iter (scan_writes loops) body) arms;
            List.iter (scan_writes loops) d
          | Assign _ | AStore _ | FStore _ | Memcpy _ | Memset _ -> ()
        in
        List.iter (scan_writes []) p.body)
    !strlen_targets;
  !ok
