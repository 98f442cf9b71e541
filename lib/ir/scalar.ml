(** The scalar-semantics kernel; see scalar.mli and DESIGN.md §14. *)

let bits (s : Irtype.scalar) : int =
  match s with
  | Irtype.I1 -> 1
  | Irtype.I8 -> 8
  | Irtype.I16 -> 16
  | Irtype.I32 -> 32
  | Irtype.I64 | Irtype.Ptr -> 64
  | Irtype.F32 | Irtype.F64 ->
    invalid_arg "Scalar: integer operation at a float type"

(* Canonical form without branches: shift the value's width to the top
   of the carrier, shift it back arithmetically (sign extension), then
   keep every bit, or only bit 0 for I1.  [zext] shifts back logically
   instead: the unsigned view of the same width. *)
let keep64 (s : Irtype.scalar) = if s = Irtype.I1 then 1L else -1L

let[@inline] canon sh keep v =
  Int64.logand (Int64.shift_right (Int64.shift_left v sh) sh) keep

let[@inline] zext sh v = Int64.shift_right_logical (Int64.shift_left v sh) sh

let normalize_int s v = canon (64 - bits s) (keep64 s) v
let unsigned_of s v = zext (64 - bits s) v

let float_to_int (f : float) : int64 =
  if f <> f then 0L
  else if f >= Int64.to_float Int64.max_int then Int64.max_int
  else if f <= Int64.to_float Int64.min_int then Int64.min_int
  else Int64.of_float f

(* Store through binary32 bits and load back.  Computing [+ - * /] in
   double and rounding each result equals direct single-precision
   evaluation (no double rounding: binary64 has >= 2p+2 significand
   bits for p = 24, Figueroa's theorem). *)
let[@inline] round_to_f32 (f : float) : float =
  Int32.float_of_bits (Int32.bits_of_float f)

let round_result (s : Irtype.scalar) f =
  match s with Irtype.F32 -> round_to_f32 f | _ -> f

(* An unsigned 64-bit value (held in an int64) as a double. *)
let uint64_to_float u =
  if u >= 0L then Int64.to_float u
  else Int64.to_float u +. 18446744073709551616.0

type 'i binop_fn = Ints of ('i -> 'i -> 'i) | Floats of (float -> float -> float)

type 'i cast_fn =
  | Int_to_int of ('i -> 'i)
  | Int_to_float of ('i -> float)
  | Float_to_int of (float -> 'i)
  | Float_to_float of (float -> float)

let float_binop (op : Instr.binop) (s : Irtype.scalar) : float -> float -> float
    =
  let f32 = s = Irtype.F32 in
  match op with
  | Instr.FAdd ->
    if f32 then fun x y -> round_to_f32 (x +. y) else fun x y -> x +. y
  | Instr.FSub ->
    if f32 then fun x y -> round_to_f32 (x -. y) else fun x y -> x -. y
  | Instr.FMul ->
    if f32 then fun x y -> round_to_f32 (x *. y) else fun x y -> x *. y
  | Instr.FDiv ->
    if f32 then fun x y -> round_to_f32 (x /. y) else fun x y -> x /. y
  | _ -> invalid_arg "Scalar: integer opcode on floats"

let binop ~div0 (op : Instr.binop) (s : Irtype.scalar) : int64 binop_fn =
  match op with
  | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv -> Floats (float_binop op s)
  | _ ->
    let sh = 64 - bits s and k = keep64 s in
    Ints
      (match op with
      | Instr.Add -> fun x y -> canon sh k (Int64.add x y)
      | Instr.Sub -> fun x y -> canon sh k (Int64.sub x y)
      | Instr.Mul -> fun x y -> canon sh k (Int64.mul x y)
      | Instr.Sdiv ->
        fun x y -> if Int64.equal y 0L then div0 () else canon sh k (Int64.div x y)
      | Instr.Udiv ->
        fun x y ->
          if Int64.equal y 0L then div0 ()
          else canon sh k (Int64.unsigned_div (zext sh x) (zext sh y))
      | Instr.Srem ->
        fun x y -> if Int64.equal y 0L then div0 () else canon sh k (Int64.rem x y)
      | Instr.Urem ->
        fun x y ->
          if Int64.equal y 0L then div0 ()
          else canon sh k (Int64.unsigned_rem (zext sh x) (zext sh y))
      | Instr.Shl ->
        fun x y -> canon sh k (Int64.shift_left x (Int64.to_int y land 63))
      | Instr.Lshr ->
        fun x y ->
          canon sh k (Int64.shift_right_logical (zext sh x) (Int64.to_int y land 63))
      | Instr.Ashr ->
        fun x y -> canon sh k (Int64.shift_right x (Int64.to_int y land 63))
      | Instr.And -> fun x y -> canon sh k (Int64.logand x y)
      | Instr.Or -> fun x y -> canon sh k (Int64.logor x y)
      | Instr.Xor -> fun x y -> canon sh k (Int64.logxor x y)
      | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv -> assert false)

let icmp (op : Instr.icmp) (s : Irtype.scalar) : int64 -> int64 -> bool =
  match op with
  | Instr.Ieq -> fun x y -> Int64.equal x y
  | Instr.Ine -> fun x y -> not (Int64.equal x y)
  | Instr.Islt -> fun x y -> Int64.compare x y < 0
  | Instr.Isle -> fun x y -> Int64.compare x y <= 0
  | Instr.Isgt -> fun x y -> Int64.compare x y > 0
  | Instr.Isge -> fun x y -> Int64.compare x y >= 0
  | Instr.Iult | Instr.Iule | Instr.Iugt | Instr.Iuge -> (
    let sh = 64 - bits s in
    match op with
    | Instr.Iult -> fun x y -> Int64.unsigned_compare (zext sh x) (zext sh y) < 0
    | Instr.Iule -> fun x y -> Int64.unsigned_compare (zext sh x) (zext sh y) <= 0
    | Instr.Iugt -> fun x y -> Int64.unsigned_compare (zext sh x) (zext sh y) > 0
    | _ -> fun x y -> Int64.unsigned_compare (zext sh x) (zext sh y) >= 0)

let fcmp (op : Instr.fcmp) : float -> float -> bool =
  match op with
  | Instr.Feq -> fun (x : float) y -> x = y
  | Instr.Fne -> fun (x : float) y -> x <> y
  | Instr.Flt -> fun (x : float) y -> x < y
  | Instr.Fle -> fun (x : float) y -> x <= y
  | Instr.Fgt -> fun (x : float) y -> x > y
  | Instr.Fge -> fun (x : float) y -> x >= y

(* Casts whose operand and result are both floats: the same on every
   integer carrier. *)
let float_cast (op : Instr.cast) : float -> float =
  match op with Instr.Fptrunc -> round_to_f32 | _ -> fun f -> f

let cast (op : Instr.cast) (from : Irtype.scalar) (into : Irtype.scalar) :
    int64 cast_fn =
  match op with
  | Instr.Trunc | Instr.Sext | Instr.Ptrtoint | Instr.Inttoptr ->
    let sh = 64 - bits into and k = keep64 into in
    Int_to_int (fun x -> canon sh k x)
  | Instr.Zext ->
    let shf = 64 - bits from and sh = 64 - bits into and k = keep64 into in
    Int_to_int (fun x -> canon sh k (zext shf x))
  | Instr.Fptrunc | Instr.Fpext -> Float_to_float (float_cast op)
  | Instr.Fptosi | Instr.Fptoui ->
    let sh = 64 - bits into and k = keep64 into in
    Float_to_int (fun f -> canon sh k (float_to_int f))
  | Instr.Sitofp ->
    Int_to_float
      (if into = Irtype.F32 then fun x -> round_to_f32 (Int64.to_float x)
       else fun x -> Int64.to_float x)
  | Instr.Uitofp ->
    let shf = 64 - bits from in
    Int_to_float
      (if into = Irtype.F32 then fun x -> round_to_f32 (uint64_to_float (zext shf x))
       else fun x -> uint64_to_float (zext shf x))
  | Instr.Bitcast -> (
    match (Irtype.is_float_scalar from, Irtype.is_float_scalar into) with
    | true, false ->
      if into = Irtype.I32 then
        Float_to_int (fun f -> Int64.of_int32 (Int32.bits_of_float f))
      else
        let sh = 64 - bits into and k = keep64 into in
        Float_to_int (fun f -> canon sh k (Int64.bits_of_float f))
    | false, true ->
      Int_to_float
        (if into = Irtype.F32 then fun x -> Int32.float_of_bits (Int64.to_int32 x)
         else fun x -> Int64.float_of_bits x)
    | false, false -> Int_to_int (fun x -> x)
    | true, true -> Float_to_float (fun f -> f))

module Small = struct
  let fits = function
    | Irtype.I1 | Irtype.I8 | Irtype.I16 | Irtype.I32 -> true
    | Irtype.I64 | Irtype.Ptr | Irtype.F32 | Irtype.F64 -> false

  let width s =
    if fits s then bits s else invalid_arg "Scalar.Small: wider than 32 bits"

  (* The same canonical form within OCaml's 63-bit int. *)
  let shift s = 63 - width s
  let keep (s : Irtype.scalar) = if s = Irtype.I1 then 1 else -1
  let mask s = (1 lsl width s) - 1
  let[@inline] canon sh keep v = ((v lsl sh) asr sh) land keep

  (* A conversion's operand may be wider than 32 bits; its mask then
     keeps every bit the carrier has. *)
  let source_mask s = if fits s then mask s else -1

  let normalize s =
    let sh = shift s and k = keep s in
    fun v -> canon sh k v

  let binop ~div0 (op : Instr.binop) (s : Irtype.scalar) : int binop_fn =
    match op with
    | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv ->
      Floats (float_binop op s)
    | _ ->
      let sh = shift s and k = keep s and m = mask s in
      Ints
        (match op with
        | Instr.Add -> fun x y -> canon sh k (x + y)
        | Instr.Sub -> fun x y -> canon sh k (x - y)
        | Instr.Mul -> fun x y -> canon sh k (x * y)
        | Instr.Sdiv -> fun x y -> if y = 0 then div0 () else canon sh k (x / y)
        | Instr.Udiv ->
          fun x y -> if y = 0 then div0 () else canon sh k ((x land m) / (y land m))
        | Instr.Srem -> fun x y -> if y = 0 then div0 () else canon sh k (x mod y)
        | Instr.Urem ->
          fun x y ->
            if y = 0 then div0 () else canon sh k ((x land m) mod (y land m))
        | Instr.Shl -> fun x y -> canon sh k (x lsl (y land 63))
        | Instr.Lshr -> fun x y -> canon sh k ((x land m) lsr (y land 63))
        | Instr.Ashr -> fun x y -> canon sh k (x asr (y land 63))
        | Instr.And -> fun x y -> canon sh k (x land y)
        | Instr.Or -> fun x y -> canon sh k (x lor y)
        | Instr.Xor -> fun x y -> canon sh k (x lxor y)
        | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv -> assert false)

  let icmp (op : Instr.icmp) (s : Irtype.scalar) : int -> int -> bool =
    match op with
    | Instr.Ieq -> fun (x : int) y -> x = y
    | Instr.Ine -> fun (x : int) y -> x <> y
    | Instr.Islt -> fun (x : int) y -> x < y
    | Instr.Isle -> fun (x : int) y -> x <= y
    | Instr.Isgt -> fun (x : int) y -> x > y
    | Instr.Isge -> fun (x : int) y -> x >= y
    | Instr.Iult | Instr.Iule | Instr.Iugt | Instr.Iuge -> (
      let m = mask s in
      match op with
      | Instr.Iult -> fun x y -> x land m < y land m
      | Instr.Iule -> fun x y -> x land m <= y land m
      | Instr.Iugt -> fun x y -> x land m > y land m
      | _ -> fun x y -> x land m >= y land m)

  let cast (op : Instr.cast) (from : Irtype.scalar) (into : Irtype.scalar) :
      int cast_fn =
    match op with
    | Instr.Trunc | Instr.Sext | Instr.Ptrtoint | Instr.Inttoptr ->
      Int_to_int (normalize into)
    | Instr.Zext ->
      let mf = source_mask from and sh = shift into and k = keep into in
      Int_to_int (fun x -> canon sh k (x land mf))
    | Instr.Fptrunc | Instr.Fpext -> Float_to_float (float_cast op)
    | Instr.Fptosi | Instr.Fptoui ->
      let sh = shift into and k = keep into in
      Float_to_int (fun f -> canon sh k (Int64.to_int (float_to_int f)))
    | Instr.Sitofp ->
      Int_to_float
        (if into = Irtype.F32 then fun x -> round_to_f32 (float_of_int x)
         else fun x -> float_of_int x)
    | Instr.Uitofp ->
      let mf = mask from in
      Int_to_float
        (if into = Irtype.F32 then fun x -> round_to_f32 (float_of_int (x land mf))
         else fun x -> float_of_int (x land mf))
    | Instr.Bitcast -> (
      match (Irtype.is_float_scalar from, Irtype.is_float_scalar into) with
      | true, false ->
        if into = Irtype.I32 then
          Float_to_int (fun f -> Int32.to_int (Int32.bits_of_float f))
        else
          let sh = shift into and k = keep into in
          Float_to_int (fun f -> canon sh k (Int64.to_int (Int64.bits_of_float f)))
      | false, true ->
        Int_to_float
          (if into = Irtype.F32 then fun x -> Int32.float_of_bits (Int32.of_int x)
           else fun x -> Int64.float_of_bits (Int64.of_int x))
      | false, false -> Int_to_int (fun x -> x)
      | true, true -> Float_to_float (fun f -> f))
end
