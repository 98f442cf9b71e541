(** C types for the front end.

    The subset models what the corpus, the managed libc and the benchmark
    programs need: the integer kinds of a 64-bit Linux ABI (LP64), floats,
    pointers, fixed-size arrays, tagged structs and function types.  We do
    not model qualifiers (const/volatile) — they do not affect the dynamic
    semantics we reproduce. *)

type signedness = Signed | Unsigned

(** Integer kinds with LP64 widths: char=1, short=2, int=4, long=8. *)
type ikind = IChar | IShort | IInt | ILong

type fkind = FFloat | FDouble

type t =
  | Void
  | Int of ikind * signedness
  | Float of fkind
  | Ptr of t
  | Array of t * int option  (** [None] only in parameter position *)
  | Struct of string         (** struct tag; fields live in the program env *)
  | Func of fsig

and fsig = { ret : t; params : t list; variadic : bool }

let char_t = Int (IChar, Signed)
let uchar_t = Int (IChar, Unsigned)
let short_t = Int (IShort, Signed)
let int_t = Int (IInt, Signed)
let uint_t = Int (IInt, Unsigned)
let long_t = Int (ILong, Signed)
let ulong_t = Int (ILong, Unsigned)
let size_t = ulong_t
let float_t = Float FFloat
let double_t = Float FDouble

let ikind_size = function IChar -> 1 | IShort -> 2 | IInt -> 4 | ILong -> 8
let fkind_size = function FFloat -> 4 | FDouble -> 8

let is_integer = function Int _ -> true | _ -> false
let is_float = function Float _ -> true | _ -> false
let is_arith ty = is_integer ty || is_float ty
let is_pointer = function Ptr _ -> true | _ -> false
let is_scalar ty = is_arith ty || is_pointer ty
let is_array = function Array _ -> true | _ -> false
let is_struct = function Struct _ -> true | _ -> false
let is_void = function Void -> true | _ -> false
let is_func = function Func _ -> true | _ -> false

(** Integer conversion rank, for the usual arithmetic conversions. *)
let rank = function IChar -> 1 | IShort -> 2 | IInt -> 3 | ILong -> 4

(** Integer promotion: types narrower than [int] promote to [int]. *)
let promote ty =
  match ty with
  | Int (k, _) when rank k < rank IInt -> int_t
  | _ -> ty

(** Usual arithmetic conversions for a binary operator whose operands have
    arithmetic types [a] and [b]. *)
let usual_arith a b =
  match (a, b) with
  | Float FDouble, _ | _, Float FDouble -> double_t
  | Float FFloat, _ | _, Float FFloat -> float_t
  | _ -> begin
    match (promote a, promote b) with
    | Int (ka, sa), Int (kb, sb) ->
      if rank ka = rank kb then
        Int (ka, if sa = Unsigned || sb = Unsigned then Unsigned else Signed)
      else if rank ka > rank kb then Int (ka, sa)
      else Int (kb, sb)
    | _ -> invalid_arg "Ctype.usual_arith: non-arithmetic operand"
  end

(** [decay ty] converts array and function types to pointers, as happens
    when such values are used in expression (rvalue) position. *)
let decay = function
  | Array (elem, _) -> Ptr elem
  | Func _ as f -> Ptr f
  | ty -> ty

(** Structural type equality (struct types compare by tag). *)
let rec equal a b =
  match (a, b) with
  | Void, Void -> true
  | Int (ka, sa), Int (kb, sb) -> ka = kb && sa = sb
  | Float ka, Float kb -> ka = kb
  | Ptr a, Ptr b -> equal a b
  | Array (a, na), Array (b, nb) -> equal a b && na = nb
  | Struct ta, Struct tb -> ta = tb
  | Func fa, Func fb ->
    equal fa.ret fb.ret
    && List.length fa.params = List.length fb.params
    && List.for_all2 equal fa.params fb.params
    && fa.variadic = fb.variadic
  | (Void | Int _ | Float _ | Ptr _ | Array _ | Struct _ | Func _), _ -> false

let rec to_string = function
  | Void -> "void"
  | Int (IChar, Signed) -> "char"
  | Int (IChar, Unsigned) -> "unsigned char"
  | Int (IShort, Signed) -> "short"
  | Int (IShort, Unsigned) -> "unsigned short"
  | Int (IInt, Signed) -> "int"
  | Int (IInt, Unsigned) -> "unsigned int"
  | Int (ILong, Signed) -> "long"
  | Int (ILong, Unsigned) -> "unsigned long"
  | Float FFloat -> "float"
  | Float FDouble -> "double"
  | Ptr t -> to_string t ^ "*"
  | Array (t, Some n) -> Printf.sprintf "%s[%d]" (to_string t) n
  | Array (t, None) -> Printf.sprintf "%s[]" (to_string t)
  | Struct tag -> "struct " ^ tag
  | Func f ->
    Printf.sprintf "%s(*)(%s%s)" (to_string f.ret)
      (String.concat ", " (List.map to_string f.params))
      (if f.variadic then ", ..." else "")
