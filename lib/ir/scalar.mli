(** The scalar-semantics kernel: the one definition of every IR scalar
    operation (DESIGN.md §14).

    Integer values are canonical [int64]s: truncated to the width of
    their scalar type and sign-extended back to 64 bits ([I1] is 0 or
    1).  Float values are OCaml floats; an [F32] value is always
    representable in binary32.  Every engine, folder and constant
    evaluator computes through this module and keeps only its own value
    wrapping, carrier choice and trap mapping.

    Operations are {e staged}: [binop ~div0 op s] matches the opcode and
    width once and returns a closure specialized to them, so a compiler
    can resolve the dispatch at compile time and an interpreter at
    prepare time.  Staging an integer operation at a float width raises
    [Invalid_argument].

    Division by zero is the IR's only trap.  The caller maps it through
    [~div0], which is invoked in place of computing [Sdiv]/[Udiv]/
    [Srem]/[Urem] with a zero divisor: it raises the caller's error, or
    returns the caller's substitute result. *)

(** {1 Canonical values} *)

(** Truncate [v] to the width of [s] and sign-extend it back ([I1]: the
    low bit).  Identity on [I64] and [Ptr]. *)
val normalize_int : Irtype.scalar -> int64 -> int64

(** Reinterpret canonical [v] as the unsigned value of width [s]
    (zero-extended). *)
val unsigned_of : Irtype.scalar -> int64 -> int64

(** Defined float-to-integer conversion: truncation toward zero, NaN
    maps to 0, out-of-range values saturate to the [int64] bounds.  C
    leaves these cases undefined; every configuration must agree on
    them, and [Int64.of_float] alone is unspecified exactly there. *)
val float_to_int : float -> int64

(** Round a double to the nearest binary32 value (ties to even). *)
val round_to_f32 : float -> float

(** Round an arithmetic result to the precision of [s]: [round_to_f32]
    for [F32], the identity otherwise. *)
val round_result : Irtype.scalar -> float -> float

(** {1 Staged operations over [int64] and [float]} *)

(** A staged binop: integer opcodes compute on the integer carrier
    ['i], [FAdd]/[FSub]/[FMul]/[FDiv] on floats. *)
type 'i binop_fn = Ints of ('i -> 'i -> 'i) | Floats of (float -> float -> float)

(** A staged cast, by the carriers of its operand and result. *)
type 'i cast_fn =
  | Int_to_int of ('i -> 'i)
  | Int_to_float of ('i -> float)
  | Float_to_int of (float -> 'i)
  | Float_to_float of (float -> float)

(** [binop ~div0 op s]: the 17 [Instr.binop]s at width [s].  Shift
    counts are taken [land 63]; every integer result is canonical; [F32]
    results are rounded to binary32. *)
val binop :
  div0:(unit -> int64) -> Instr.binop -> Irtype.scalar -> int64 binop_fn

(** The 10 integer comparisons at width [s] (the unsigned ones compare
    the zero-extended values). *)
val icmp : Instr.icmp -> Irtype.scalar -> int64 -> int64 -> bool

(** The 6 ordered float comparisons (false on NaN except [Fne]). *)
val fcmp : Instr.fcmp -> float -> float -> bool

(** [cast op from into]: the value conversions.  [Ptrtoint] and
    [Inttoptr] are the integer truncation to [into]; an engine with
    managed pointers wraps them with its own pointer semantics.  A
    [Bitcast] within one class is the identity. *)
val cast : Instr.cast -> Irtype.scalar -> Irtype.scalar -> int64 cast_fn

(** {1 The native-[int] carrier}

    Integers of at most 32 bits held in OCaml's 63-bit [int], as a
    compiled tier's unboxed register file does.  On canonical inputs of
    a width that [fits], every operation returns exactly the value the
    [int64] carrier returns (a product's low 32 bits wrap identically
    modulo 2{^63} and 2{^64}). *)
module Small : sig
  (** [I1], [I8], [I16] and [I32]. *)
  val fits : Irtype.scalar -> bool

  (** [normalize_int] on native ints. *)
  val normalize : Irtype.scalar -> int -> int

  val binop :
    div0:(unit -> int) -> Instr.binop -> Irtype.scalar -> int binop_fn

  val icmp : Instr.icmp -> Irtype.scalar -> int -> int -> bool

  (** Integer operands and results must [fit], except that a [Trunc],
      [Sext] or [Zext] may read a wider operand (only its low bits
      matter). *)
  val cast : Instr.cast -> Irtype.scalar -> Irtype.scalar -> int cast_fn
end
