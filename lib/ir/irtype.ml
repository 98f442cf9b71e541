(** Types of the LLVM-like IR.

    Register values carry a [scalar] type.  Memory objects (allocas,
    globals, malloc'd blocks once typed) are described by [mty], a memory
    type with fully resolved layout: every struct field carries its byte
    offset, so the back ends never need the C-level layout rules.  This
    mirrors how Safe Sulong works off LLVM IR in which Clang has already
    resolved the layout. *)

type scalar =
  | I1   (** comparisons *)
  | I8
  | I16
  | I32
  | I64
  | F32
  | F64
  | Ptr  (** opaque pointer *)

type mty =
  | MScalar of scalar
  | MArray of mty * int
  | MStruct of mstruct

and mstruct = {
  s_tag : string;
  s_fields : mfield list;
  s_size : int;
  s_align : int;
}

and mfield = { mf_name : string; mf_ty : mty; mf_off : int }

let scalar_size = function
  | I1 -> 1
  | I8 -> 1
  | I16 -> 2
  | I32 -> 4
  | I64 -> 8
  | F32 -> 4
  | F64 -> 8
  | Ptr -> 8

let is_float_scalar = function F32 | F64 -> true | _ -> false
let is_int_scalar = function
  | I1 | I8 | I16 | I32 | I64 -> true
  | Ptr | F32 | F64 -> false

let rec mty_size = function
  | MScalar s -> scalar_size s
  | MArray (elem, n) -> mty_size elem * n
  | MStruct s -> s.s_size

let rec mty_align = function
  | MScalar s -> scalar_size s
  | MArray (elem, _) -> mty_align elem
  | MStruct s -> s.s_align

let scalar_to_string = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "float"
  | F64 -> "double"
  | Ptr -> "ptr"

let rec mty_to_string = function
  | MScalar s -> scalar_to_string s
  | MArray (elem, n) -> Printf.sprintf "[%d x %s]" n (mty_to_string elem)
  | MStruct s -> "%struct." ^ s.s_tag
