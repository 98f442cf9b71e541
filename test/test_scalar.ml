(** Laws of the scalar-semantics kernel ([Scalar]).

    The kernel is checked against references that share none of its
    code: a slow specification over mathematical integers written here
    (it calls nothing in [Scalar] or [Irtype]), and the difftest
    reference evaluator's independent [Cprog.round_f32],
    [Cprog.float_to_int_sat] and [Cprog.int_to_float].  The native-int
    carrier of the compiled tier must agree with the [int64] one. *)

(* ---------------- mathematical integers ---------------- *)

(* Sign and magnitude; the magnitude is a little-endian list of bits
   without high zeros, so zero is [{ neg = false; mag = [] }]. *)
module Z = struct
  type t = { neg : bool; mag : bool list }

  let trim m =
    let rec drop = function false :: r -> drop r | r -> r in
    List.rev (drop (List.rev m))

  let make neg mag =
    let mag = trim mag in
    { neg = neg && mag <> []; mag }

  let zero = make false []
  let is_zero x = x.mag = []

  let rec add_mag a b c =
    match (a, b) with
    | [], [] -> if c then [ true ] else []
    | x :: a, [] | [], x :: a -> (x <> c) :: add_mag a [] (x && c)
    | x :: a, y :: b ->
      (x <> y <> c) :: add_mag a b ((x && y) || (c && x <> y))

  (* [a - b] for [a >= b] *)
  let rec sub_mag a b borrow =
    match (a, b) with
    | a, [] when not borrow -> a
    | [], _ -> assert false
    | x :: a, [] -> (x <> borrow) :: sub_mag a [] (borrow && not x)
    | x :: a, y :: b ->
      (x <> y <> borrow)
      :: sub_mag a b (((not x) && (y || borrow)) || (x && y && borrow))

  let cmp_mag a b =
    let la = List.length a and lb = List.length b in
    if la <> lb then compare la lb else compare (List.rev a) (List.rev b)

  let mul_mag a b =
    let rec go acc a = function
      | [] -> acc
      | bit :: b -> go (if bit then add_mag acc a false else acc) (false :: a) b
    in
    go [] a b

  (* schoolbook long division, most significant bit first *)
  let divmod_mag a b =
    List.fold_left
      (fun (q, r) bit ->
        let r = trim (bit :: r) in
        if cmp_mag r b >= 0 then (true :: q, trim (sub_mag r b false))
        else (false :: q, r))
      ([], []) (List.rev a)

  let neg x = make (not x.neg) x.mag

  let add x y =
    if x.neg = y.neg then make x.neg (add_mag x.mag y.mag false)
    else if cmp_mag x.mag y.mag >= 0 then make x.neg (sub_mag x.mag y.mag false)
    else make y.neg (sub_mag y.mag x.mag false)

  let sub x y = add x (neg y)
  let mul x y = make (x.neg <> y.neg) (mul_mag x.mag y.mag)

  (* truncated division: the quotient rounds toward zero, the remainder
     takes the dividend's sign *)
  let quot x y = make (x.neg <> y.neg) (fst (divmod_mag x.mag y.mag))
  let rem x y = make x.neg (snd (divmod_mag x.mag y.mag))

  let compare x y =
    match (x.neg, y.neg) with
    | false, false -> cmp_mag x.mag y.mag
    | true, true -> cmp_mag y.mag x.mag
    | true, false -> -1
    | false, true -> 1

  let pow2 k = make false (List.init k (fun _ -> false) @ [ true ])
  let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []
  let rec drop n = function _ :: r when n > 0 -> drop (n - 1) r | r -> r

  (* the residue in [0, 2^w) *)
  let modpow2 x w =
    let low = make false (take w x.mag) in
    if (not x.neg) || is_zero low then low else sub (pow2 w) low

  (* floor (x / 2^k) *)
  let shift_right_floor x k =
    let q = make x.neg (drop k x.mag) in
    if x.neg && List.exists Fun.id (take k x.mag) then sub q (make false [ true ])
    else q

  let bit x i = List.nth_opt x.mag i = Some true

  let of_int64 (v : int64) =
    (* |min_int| = 2^63 is min_int's own unsigned bit pattern *)
    let rec bits a =
      if a = 0L then []
      else (Int64.logand a 1L = 1L) :: bits (Int64.shift_right_logical a 1)
    in
    make (v < 0L) (bits (if v < 0L then Int64.neg v else v))

  let of_int i = of_int64 (Int64.of_int i)

  (* for values in [-2^63, 2^64) *)
  let to_int64 x =
    let m =
      List.fold_left
        (fun (acc, i) b ->
          ((if b then Int64.logor acc (Int64.shift_left 1L i) else acc), i + 1))
        (0L, 0) x.mag
      |> fst
    in
    if x.neg then Int64.neg m else m

  let to_float x = Int64.to_float (to_int64 x)
end

(* ---------------- the slow specification ---------------- *)

(* An integer of width [w] is the mathematical value of its two's
   complement bits: [wrap] picks the representative in
   [-2^(w-1), 2^(w-1)), [unsigned] the one in [0, 2^w). *)
let wrap w x =
  let r = Z.modpow2 x w in
  if Z.compare r (Z.pow2 (w - 1)) >= 0 then Z.sub r (Z.pow2 w) else r

let unsigned w x = Z.modpow2 x w

exception Trap

let spec_binop (op : Instr.binop) w (x : int64) (y : int64) : int64 =
  let zx = Z.of_int64 x and zy = Z.of_int64 y in
  let ux = unsigned w zx and uy = unsigned w zy in
  let nonzero d = if Z.is_zero d then raise Trap else d in
  let count = Int64.to_int (Z.to_int64 (Z.modpow2 zy 6)) in
  let bitwise f =
    List.fold_left
      (fun acc i -> if f (Z.bit ux i) (Z.bit uy i) then Z.add acc (Z.pow2 i) else acc)
      Z.zero
      (List.init w Fun.id)
  in
  let r =
    match op with
    | Instr.Add -> Z.add zx zy
    | Instr.Sub -> Z.sub zx zy
    | Instr.Mul -> Z.mul zx zy
    | Instr.Sdiv -> Z.quot zx (nonzero zy)
    | Instr.Srem -> Z.rem zx (nonzero zy)
    | Instr.Udiv -> Z.quot ux (nonzero uy)
    | Instr.Urem -> Z.rem ux (nonzero uy)
    | Instr.Shl -> Z.mul zx (Z.pow2 count)
    | Instr.Lshr -> Z.shift_right_floor ux count
    | Instr.Ashr -> Z.shift_right_floor zx count
    | Instr.And -> bitwise ( && )
    | Instr.Or -> bitwise ( || )
    | Instr.Xor -> bitwise ( <> )
    | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv -> invalid_arg "spec"
  in
  Z.to_int64 (wrap w r)

let spec_icmp (op : Instr.icmp) w (x : int64) (y : int64) : bool =
  let zx = Z.of_int64 x and zy = Z.of_int64 y in
  let s = Z.compare zx zy and u = Z.compare (unsigned w zx) (unsigned w zy) in
  match op with
  | Instr.Ieq -> s = 0
  | Instr.Ine -> s <> 0
  | Instr.Islt -> s < 0
  | Instr.Isle -> s <= 0
  | Instr.Isgt -> s > 0
  | Instr.Isge -> s >= 0
  | Instr.Iult -> u < 0
  | Instr.Iule -> u <= 0
  | Instr.Iugt -> u > 0
  | Instr.Iuge -> u >= 0

(* ---------------- the kernel under test ---------------- *)

let int_binops =
  Instr.[ Add; Sub; Mul; Sdiv; Udiv; Srem; Urem; Shl; Lshr; Ashr; And; Or; Xor ]

let icmps = Instr.[ Ieq; Ine; Islt; Isle; Isgt; Isge; Iult; Iule; Iugt; Iuge ]

let int_widths = [ (Irtype.I8, 8); (Irtype.I16, 16); (Irtype.I32, 32); (Irtype.I64, 64) ]
let width_of s = List.assoc s int_widths
let name_of = Irprint.binop_name

let trap () = raise Trap

let kernel_binop op s : int64 -> int64 -> int64 =
  match Scalar.binop ~div0:trap op s with
  | Scalar.Ints f -> f
  | Scalar.Floats _ -> Alcotest.fail "integer op staged on floats"

(* [Some result], or [None] for a trap *)
let outcome f x y = try Some (f x y) with Trap -> None

let check_binop op s x y =
  let w = width_of s in
  let got = outcome (kernel_binop op s) x y in
  let want = outcome (spec_binop op w) x y in
  if got <> want then
    Alcotest.failf "%s %s %Ld, %Ld: kernel %s, spec %s" (name_of op)
      (Irtype.scalar_to_string s) x y
      (match got with Some v -> Int64.to_string v | None -> "trap")
      (match want with Some v -> Int64.to_string v | None -> "trap")

let check_icmp op s x y =
  let got = Scalar.icmp op s x y and want = spec_icmp op (width_of s) x y in
  if got <> want then
    Alcotest.failf "icmp %s %s %Ld, %Ld: kernel %b, spec %b"
      (Irprint.icmp_name op) (Irtype.scalar_to_string s) x y got want

let i8_values = List.init 256 (fun i -> Int64.of_int (i - 128))

let test_i8_binops_exhaustive () =
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          List.iter (fun op -> check_binop op Irtype.I8 x y) int_binops;
          List.iter (fun op -> check_icmp op Irtype.I8 x y) icmps)
        i8_values)
    i8_values

(* Casts between integers: Sext/Zext of every i8 value into each wider
   width, and Trunc into i8 of wider values covering every low byte. *)
let test_i8_int_casts_exhaustive () =
  let check op from into x want =
    match Scalar.cast op from into with
    | Scalar.Int_to_int f ->
      let got = f x in
      if got <> want then
        Alcotest.failf "%s %s %Ld to %s: kernel %Ld, spec %Ld"
          (Irprint.cast_name op) (Irtype.scalar_to_string from) x
          (Irtype.scalar_to_string into) got want
    | _ -> Alcotest.fail "integer cast staged on floats"
  in
  List.iter
    (fun x ->
      let zx = Z.of_int64 x in
      List.iter
        (fun (into, wt) ->
          if wt > 8 then begin
            check Instr.Sext Irtype.I8 into x (Z.to_int64 (wrap wt zx));
            check Instr.Zext Irtype.I8 into x
              (Z.to_int64 (wrap wt (unsigned 8 zx)))
          end;
          List.iter
            (fun k ->
              let v = Z.add zx (Z.mul (Z.of_int k) (Z.pow2 8)) in
              let src = Z.to_int64 (wrap wt v) in
              if wt > 8 then
                check Instr.Trunc into Irtype.I8 src (Z.to_int64 (wrap 8 v)))
            [ -1000; -2; -1; 0; 1; 2; 1000 ])
        int_widths)
    i8_values

(* Casts between i8 and floats.  Every i8 value is exact in binary32,
   so int-to-float is exact; float-to-int truncates toward zero. *)
let test_i8_float_casts_exhaustive () =
  List.iter
    (fun x ->
      let zx = Z.of_int64 x in
      List.iter
        (fun fs ->
          (match
             (Scalar.cast Instr.Sitofp Irtype.I8 fs, Scalar.cast Instr.Uitofp Irtype.I8 fs)
           with
          | Scalar.Int_to_float si, Scalar.Int_to_float ui ->
            Alcotest.(check (float 0.0)) "sitofp" (Z.to_float zx) (si x);
            Alcotest.(check (float 0.0))
              "uitofp" (Z.to_float (unsigned 8 zx)) (ui x)
          | _ -> Alcotest.fail "int-to-float cast staged on the wrong carriers");
          List.iter
            (fun frac ->
              let f = Int64.to_float x +. frac in
              (* trunc toward zero of f, as a mathematical integer *)
              let t = Z.of_int64 (Int64.of_float (Float.trunc f)) in
              List.iter
                (fun op ->
                  match Scalar.cast op fs Irtype.I8 with
                  | Scalar.Float_to_int g ->
                    Alcotest.(check int64)
                      (Printf.sprintf "%s %g" (Irprint.cast_name op) f)
                      (Z.to_int64 (wrap 8 t)) (g f)
                  | _ -> Alcotest.fail "float-to-int cast staged on the wrong carriers")
                [ Instr.Fptosi; Instr.Fptoui ])
            [ 0.0; 0.5; -0.75; 0.25 ])
        [ Irtype.F32; Irtype.F64 ])
    i8_values

(* ---------------- sampled widths (qcheck) ---------------- *)

(* Canonical values of width [w], biased toward the edges. *)
let gen_value w =
  let open QCheck.Gen in
  let edges =
    List.map Z.to_int64
      [ Z.zero; Z.of_int 1; Z.of_int (-1); Z.of_int 2; Z.sub (Z.pow2 (w - 1)) (Z.of_int 1);
        Z.neg (Z.pow2 (w - 1)); Z.of_int (w - 1); Z.of_int w ]
  in
  map
    (fun v -> Z.to_int64 (wrap w (Z.of_int64 v)))
    (frequency [ (1, oneofl edges); (3, ui64); (1, map Int64.of_int small_signed_int) ])

let prop_binops (s, w) count =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "%s binops and icmps match the spec" (Irtype.scalar_to_string s))
    (QCheck.make
       ~print:(fun (x, y) -> Printf.sprintf "%Ld, %Ld" x y)
       QCheck.Gen.(pair (gen_value w) (gen_value w)))
    (fun (x, y) ->
      List.iter (fun op -> check_binop op s x y) int_binops;
      List.iter (fun op -> check_icmp op s x y) icmps;
      true)

(* ---------------- native-int carrier = int64 carrier ---------------- *)

let canonical s w v =
  if s = Irtype.I1 then Int64.logand v 1L else Z.to_int64 (wrap w (Z.of_int64 v))

let carriers_agree s x y =
  let big op = outcome (kernel_binop op s) x y in
  let small op =
    outcome
      (match Scalar.Small.binop ~div0:trap op s with
      | Scalar.Ints f -> f
      | Scalar.Floats _ -> assert false)
      (Int64.to_int x) (Int64.to_int y)
    |> Option.map Int64.of_int
  in
  List.iter
    (fun op ->
      if big op <> small op then
        Alcotest.failf "%s %s %Ld, %Ld: carriers disagree" (name_of op)
          (Irtype.scalar_to_string s) x y)
    int_binops;
  List.iter
    (fun op ->
      if Scalar.icmp op s x y <> Scalar.Small.icmp op s (Int64.to_int x) (Int64.to_int y)
      then
        Alcotest.failf "icmp %s %s %Ld, %Ld: carriers disagree"
          (Irprint.icmp_name op) (Irtype.scalar_to_string s) x y)
    icmps

let test_carriers_exhaustive () =
  List.iter
    (fun (s, w) ->
      let values =
        if w = 1 then [ 0L; 1L ] else List.map (canonical s w) i8_values
      in
      List.iter (fun x -> List.iter (fun y -> carriers_agree s x y) values) values)
    [ (Irtype.I1, 1); (Irtype.I8, 8) ]

let prop_carriers (s, w) =
  QCheck.Test.make ~count:2000
    ~name:(Printf.sprintf "%s native-int carrier = int64 carrier" (Irtype.scalar_to_string s))
    (QCheck.make QCheck.Gen.(pair (gen_value w) (gen_value w)))
    (fun (x, y) ->
      carriers_agree s x y;
      true)

let casts =
  Instr.[ Trunc; Zext; Sext; Fptrunc; Fpext; Fptosi; Sitofp; Fptoui; Uitofp; Bitcast ]

let floats_sample =
  [ 0.0; -0.0; 1.5; -1.5; 255.75; -129.5; 65535.9; 3e9; -3e9; 1e19; -1e19;
    Float.nan; Float.infinity; Float.neg_infinity; 16777217.0; 0.1 ]

let test_carrier_casts () =
  let scalars = [ Irtype.I1; Irtype.I8; Irtype.I16; Irtype.I32; Irtype.F32; Irtype.F64 ] in
  let ints s =
    if s = Irtype.I1 then [ 0L; 1L ]
    else
      List.map (canonical s (width_of s))
        (i8_values @ [ 0x7fffL; 0x8000L; 0x7fffffffL; 0x80000000L; 0x12345678L ])
  in
  List.iter
    (fun op ->
      List.iter
        (fun from ->
          List.iter
            (fun into ->
              let fl = Irtype.is_float_scalar in
              let legal =
                match op with
                | Instr.Trunc -> (not (fl from)) && (not (fl into))
                                 && Irtype.scalar_size from >= Irtype.scalar_size into
                                 && from <> into
                | Instr.Zext | Instr.Sext ->
                  (not (fl from)) && (not (fl into)) && from <> into
                  && Irtype.scalar_size from <= Irtype.scalar_size into
                  && (from = Irtype.I1 || Irtype.scalar_size from < Irtype.scalar_size into)
                | Instr.Fptrunc | Instr.Fpext -> fl from && fl into
                | Instr.Fptosi | Instr.Fptoui -> fl from && not (fl into)
                | Instr.Sitofp | Instr.Uitofp -> (not (fl from)) && fl into
                | Instr.Bitcast ->
                  Irtype.scalar_size from = Irtype.scalar_size into && from <> Irtype.I1
                  && into <> Irtype.I1
                | Instr.Ptrtoint | Instr.Inttoptr -> false
              in
              if legal then
                let fail () =
                  Alcotest.failf "%s %s to %s: carriers disagree" (Irprint.cast_name op)
                    (Irtype.scalar_to_string from) (Irtype.scalar_to_string into)
                in
                match (Scalar.cast op from into, Scalar.Small.cast op from into) with
                | Scalar.Int_to_int f, Scalar.Int_to_int g ->
                  List.iter
                    (fun x -> if f x <> Int64.of_int (g (Int64.to_int x)) then fail ())
                    (ints from)
                | Scalar.Int_to_float f, Scalar.Int_to_float g ->
                  List.iter
                    (fun x ->
                      if Int64.bits_of_float (f x) <> Int64.bits_of_float (g (Int64.to_int x))
                      then fail ())
                    (ints from)
                | Scalar.Float_to_int f, Scalar.Float_to_int g ->
                  List.iter
                    (fun x -> if f x <> Int64.of_int (g x) then fail ())
                    floats_sample
                | Scalar.Float_to_float f, Scalar.Float_to_float g ->
                  List.iter
                    (fun x ->
                      if Int64.bits_of_float (f x) <> Int64.bits_of_float (g x) then fail ())
                    floats_sample
                | _ -> fail ())
            scalars)
        scalars)
    casts

(* ---------------- floats against Cprog ---------------- *)

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b || (a <> a && b <> b)

let gen_f32 =
  QCheck.Gen.(
    map Cprog.round_f32
      (frequency
         [ (4, float); (2, float_range (-1e6) 1e6);
           (1, oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity;
                        1.4e-45; 3.4028234663852886e38; 16777216.0; 1.0 ]) ]))

let prop_f32_arith =
  QCheck.Test.make ~count:3000 ~name:"F32 arithmetic = Cprog.round_f32 of the double result"
    (QCheck.make
       ~print:(fun (x, y) -> Printf.sprintf "%h, %h" x y)
       QCheck.Gen.(pair gen_f32 gen_f32))
    (fun (x, y) ->
      List.for_all
        (fun (op, ref_op) ->
          match Scalar.binop ~div0:trap op Irtype.F32 with
          | Scalar.Floats f -> same_float (f x y) (Cprog.round_f32 (ref_op x y))
          | Scalar.Ints _ -> false)
        Instr.[ (FAdd, ( +. )); (FSub, ( -. )); (FMul, ( *. )); (FDiv, ( /. )) ])

let cprog_ity = function
  | Irtype.I8 -> Cprog.I8
  | Irtype.I16 -> Cprog.I16
  | Irtype.I32 -> Cprog.I32
  | _ -> Cprog.I64

let gen_double =
  QCheck.Gen.(
    frequency
      [ (3, float); (3, float_range (-1e20) 1e20); (2, float_range (-70000.) 70000.);
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 9.223372036854775807e18;
                     -9.223372036854775808e18; 1.8446744073709552e19; -0.5; 0.99 ]) ])

let prop_float_to_int =
  QCheck.Test.make ~count:3000 ~name:"float-to-int = Cprog.float_to_int_sat"
    (QCheck.make ~print:(Printf.sprintf "%h") gen_double)
    (fun f ->
      List.for_all
        (fun (into, _) ->
          List.for_all
            (fun op ->
              match Scalar.cast op Irtype.F64 into with
              | Scalar.Float_to_int g ->
                g f = Cprog.normalize (cprog_ity into) (Cprog.float_to_int_sat f)
              | _ -> false)
            [ Instr.Fptosi; Instr.Fptoui ])
        int_widths)

let prop_int_to_float =
  QCheck.Test.make ~count:3000 ~name:"int-to-float = Cprog.int_to_float"
    (QCheck.make
       ~print:(fun (i, x) -> Printf.sprintf "width %d: %Ld" i x)
       QCheck.Gen.(
         int_range 0 3 >>= fun i ->
         map (fun x -> (i, x)) (gen_value (snd (List.nth int_widths i)))))
    (fun (i, x) ->
      let from, _ = List.nth int_widths i in
      let signed = cprog_ity from in
      let unsigned_ity =
        match signed with
        | Cprog.I8 -> Cprog.U8
        | Cprog.I16 -> Cprog.U16
        | Cprog.I32 -> Cprog.U32
        | _ -> Cprog.U64
      in
      List.for_all
        (fun (into, fty) ->
          List.for_all
            (fun (op, ity) ->
              match Scalar.cast op from into with
              | Scalar.Int_to_float g ->
                same_float (g x) (Cprog.int_to_float ~from_:ity fty x)
              | _ -> false)
            [ (Instr.Sitofp, signed); (Instr.Uitofp, unsigned_ity) ])
        [ (Irtype.F32, Cprog.F32); (Irtype.F64, Cprog.F64) ])

let prop_fptrunc =
  QCheck.Test.make ~count:2000 ~name:"fptrunc = Cprog.round_f32"
    (QCheck.make ~print:(Printf.sprintf "%h") gen_double)
    (fun f ->
      match Scalar.cast Instr.Fptrunc Irtype.F64 Irtype.F32 with
      | Scalar.Float_to_float g -> same_float (g f) (Cprog.round_f32 f)
      | _ -> false)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "scalar"
    [
      ( "spec",
        [
          Alcotest.test_case "i8 binops and icmps, all pairs" `Quick
            test_i8_binops_exhaustive;
          Alcotest.test_case "i8 integer casts, all values" `Quick
            test_i8_int_casts_exhaustive;
          Alcotest.test_case "i8 float casts, all values" `Quick
            test_i8_float_casts_exhaustive;
        ]
        @ qc
            [
              prop_binops (Irtype.I16, 16) 2000;
              prop_binops (Irtype.I32, 32) 500;
              prop_binops (Irtype.I64, 64) 300;
            ] );
      ( "carriers",
        [
          Alcotest.test_case "i1 and i8, all pairs" `Quick test_carriers_exhaustive;
          Alcotest.test_case "casts" `Quick test_carrier_casts;
        ]
        @ qc [ prop_carriers (Irtype.I16, 16); prop_carriers (Irtype.I32, 32) ] );
      ( "cprog",
        qc [ prop_f32_arith; prop_float_to_int; prop_int_to_float; prop_fptrunc ] );
    ]
