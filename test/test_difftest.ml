(** Tests for the cross-engine differential oracle (lib/difftest) and
    the constant-folding / float-rounding divergence fixes it pinned
    down. *)

(* ---------------- float->int conversion semantics ---------------- *)

let test_float_to_int_edges () =
  let check what expected f =
    Alcotest.(check int64) what expected (Scalar.float_to_int f)
  in
  check "NaN -> 0" 0L Float.nan;
  check "+inf saturates" Int64.max_int Float.infinity;
  check "-inf saturates" Int64.min_int Float.neg_infinity;
  check "1e300 saturates" Int64.max_int 1e300;
  check "-1e300 saturates" Int64.min_int (-1e300);
  check "truncation toward zero" 12L 12.9;
  check "negative truncation toward zero" (-12L) (-12.9);
  check "exact power of two" (Int64.shift_left 1L 62) 4.611686018427387904e18;
  check "zero" 0L 0.0

(* Reverting lib/opt/fold.ml's Fptosi/Fptoui case to [Int64.of_float]
   fails here directly (NaN folds to Int64.min_int on x86-64). *)
let test_fold_cast_matches_engines () =
  let fold f =
    match
      Fold.fold_cast Instr.Fptosi Irtype.F64 Irtype.I64
        (Instr.ImmFloat (f, Irtype.F64))
    with
    | Some (Instr.ImmInt (v, Irtype.I64)) -> v
    | _ -> Alcotest.fail "expected a folded integer immediate"
  in
  Alcotest.(check int64) "folded NaN" 0L (fold Float.nan);
  Alcotest.(check int64) "folded +inf" Int64.max_int (fold Float.infinity);
  Alcotest.(check int64)
    "folded -inf" Int64.min_int
    (fold Float.neg_infinity);
  Alcotest.(check int64)
    "fold agrees with Scalar.float_to_int" (Scalar.float_to_int 1e19)
    (fold 1e19)

(* ---------------- checked-in regression reproducers ---------------- *)

let test_regressions () =
  List.iter
    (fun ((name, _, _) as reg) ->
      match Difftest.check_regression reg with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "regression %s failed:\n%s" name msg)
    Difftest.regressions

(* ---------------- generator properties ---------------- *)

let feature_sets =
  [
    Cgen.int_only;
    { Cgen.int_only with Cgen.f_float = true };
    { Cgen.int_only with Cgen.f_call = true };
    { Cgen.int_only with Cgen.f_mem = true };
    { Cgen.int_only with Cgen.f_ptr = true };
    { Cgen.int_only with Cgen.f_call = true; Cgen.f_ptr = true };
    Cgen.all_features;
  ]

let test_generator_well_formed () =
  List.iter
    (fun features ->
      for seed = 1 to 40 do
        let p = Cgen.generate ~features ~seed () in
        if not (Cprog.well_formed p) then
          Alcotest.failf "seed %d (features %s) is ill-formed:\n%s" seed
            (Cgen.features_name features)
            (Cprog.render p)
      done)
    feature_sets

let test_generator_deterministic () =
  let gen seed = Cprog.render (Cgen.generate ~seed ()) in
  Alcotest.(check string) "same seed, same program" (gen 20180324)
    (gen 20180324);
  Alcotest.(check bool) "different seed, different program" true
    (gen 20180324 <> gen 20180325)

let test_features_parse () =
  Alcotest.(check string) "parse all" "int,float,call,mem,ptr"
    (Cgen.features_name (Cgen.features_of_string "float,call,mem,ptr"));
  Alcotest.(check string) "parse subset" "int,float"
    (Cgen.features_name (Cgen.features_of_string "int,float"));
  Alcotest.(check string) "parse ptr" "int,ptr"
    (Cgen.features_name (Cgen.features_of_string "ptr"));
  Alcotest.(check string) "parse base" "int"
    (Cgen.features_name (Cgen.features_of_string "int"));
  (* Round-trip: [features_name] output re-parses to the same set, for
     every subset of the flags. *)
  List.iter
    (fun f ->
      let name = Cgen.features_name f in
      Alcotest.(check string)
        (Printf.sprintf "round-trip %s" name)
        name
        (Cgen.features_name (Cgen.features_of_string name)))
    (List.concat_map
       (fun f_float ->
         List.concat_map
           (fun f_call ->
             List.concat_map
               (fun f_mem ->
                 List.map
                   (fun f_ptr -> { Cgen.f_float; f_call; f_mem; f_ptr })
                   [ false; true ])
               [ false; true ])
           [ false; true ])
       [ false; true ]);
  Alcotest.(check bool) "unknown rejected" true
    (try
       ignore (Cgen.features_of_string "int,quux");
       false
     with Invalid_argument _ -> true)

let test_generator_uses_features () =
  (* Each feature flag must actually inject its constructs somewhere in
     a modest seed range — otherwise a campaign "with floats" would
     silently test nothing new. *)
  let open Cprog in
  let rec expr_has pred e =
    pred e
    ||
    match e with
    | Un (_, a) | Cast (_, a) -> expr_has pred a
    | Bin (_, a, b) -> expr_has pred a || expr_has pred b
    | Cond (c, a, b) ->
      expr_has pred c || expr_has pred a || expr_has pred b
    | Call (_, _, args) -> List.exists (expr_has pred) args
    | Const _ | FConst _ | EnumRef _ | Var _ | Read _ | Field _ | Strlen _
    | PRead _ | PCmp _ | PDiff _ ->
      false
  in
  let rec stmt_exprs s =
    match s with
    | Assign (_, e) | AStore (_, _, e) | FStore (_, e) | PStore (_, _, e) ->
      [ e ]
    | If (c, a, b) -> c :: List.concat_map stmt_exprs (a @ b)
    | Loop (_, _, b) -> List.concat_map stmt_exprs b
    | Switch (e, arms, d) ->
      e :: List.concat_map stmt_exprs (List.concat_map snd arms @ d)
    | Memcpy _ | Memset _ -> []
  in
  let prog_exprs p =
    List.map snd p.enums
    @ List.map (fun (_, _, e) -> e) p.globals
    @ List.map snd p.rcs
    @ List.map (fun (_, _, e) -> e) p.locals
    @ List.concat_map stmt_exprs p.body
    @ List.concat_map
        (fun f ->
          List.map (fun (_, _, e) -> e) f.fn_locals
          @ List.concat_map stmt_exprs f.fn_body
          @ [ f.fn_ret_expr ])
        p.funcs
  in
  let rec stmt_has_mem s =
    match s with
    | Memcpy _ | Memset _ -> true
    | If (_, a, b) -> List.exists stmt_has_mem (a @ b)
    | Loop (_, _, b) -> List.exists stmt_has_mem b
    | Switch (_, arms, d) ->
      List.exists stmt_has_mem (List.concat_map snd arms @ d)
    | Assign _ | AStore _ | FStore _ | PStore _ -> false
  in
  let progs features =
    List.init 30 (fun s -> Cgen.generate ~features ~seed:(s + 1) ())
  in
  let some_expr features pred =
    List.exists
      (fun p -> List.exists (expr_has pred) (prog_exprs p))
      (progs features)
  in
  Alcotest.(check bool) "float feature emits float constants" true
    (some_expr
       { Cgen.int_only with Cgen.f_float = true }
       (function FConst _ -> true | _ -> false));
  Alcotest.(check bool) "call feature emits calls" true
    (some_expr
       { Cgen.int_only with Cgen.f_call = true }
       (function Call _ -> true | _ -> false));
  Alcotest.(check bool) "mem feature emits strlen" true
    (some_expr
       { Cgen.int_only with Cgen.f_mem = true }
       (function Strlen _ -> true | _ -> false));
  Alcotest.(check bool) "mem feature emits memcpy/memset" true
    (List.exists
       (fun p -> List.exists stmt_has_mem p.body)
       (progs { Cgen.int_only with Cgen.f_mem = true }));
  let rec stmt_has_pstore s =
    match s with
    | PStore _ -> true
    | If (_, a, b) -> List.exists stmt_has_pstore (a @ b)
    | Loop (_, _, b) -> List.exists stmt_has_pstore b
    | Switch (_, arms, d) ->
      List.exists stmt_has_pstore (List.concat_map snd arms @ d)
    | Assign _ | AStore _ | FStore _ | Memcpy _ | Memset _ -> false
  in
  let ptr_progs = progs { Cgen.int_only with Cgen.f_ptr = true } in
  Alcotest.(check bool) "ptr feature declares pointers" true
    (List.exists (fun p -> p.ptrs <> []) ptr_progs);
  Alcotest.(check bool) "ptr feature emits aliases" true
    (List.exists
       (fun p ->
         List.exists
           (fun (_, _, pi) -> match pi with Palias _ -> true | _ -> false)
           p.ptrs)
       ptr_progs);
  Alcotest.(check bool) "ptr feature emits pointer loads" true
    (List.exists
       (fun p ->
         List.exists
           (expr_has (function PRead _ -> true | _ -> false))
           (prog_exprs p))
       ptr_progs);
  Alcotest.(check bool) "ptr feature emits pointer compares" true
    (List.exists
       (fun p ->
         List.exists
           (expr_has (function PCmp _ | PDiff _ -> true | _ -> false))
           (prog_exprs p))
       ptr_progs);
  Alcotest.(check bool) "ptr feature emits pointer stores" true
    (List.exists
       (fun p -> List.exists stmt_has_pstore p.body)
       ptr_progs);
  Alcotest.(check bool)
    "ptr+call emits pointer-typed helper parameters" true
    (List.exists
       (fun p ->
         List.exists
           (fun f ->
             List.exists
               (fun (_, s) -> match s with Pt _ -> true | _ -> false)
               f.fn_params)
           p.funcs)
       (progs { Cgen.int_only with Cgen.f_call = true; Cgen.f_ptr = true }));
  Alcotest.(check bool) "int-only emits none of the above" true
    (List.for_all
       (fun p ->
         p.funcs = []
         && p.ptrs = []
         && (not (List.exists stmt_has_mem p.body))
         && not
              (List.exists
                 (expr_has (function
                   | FConst _ | Call _ | Strlen _ | PRead _ | PCmp _ | PDiff _
                     -> true
                   | _ -> false))
                 (prog_exprs p)))
       (progs Cgen.int_only))

let test_generator_mutates_globals () =
  (* Globals are mutable at runtime: some seeds must actually store to
     one, and such a program must still agree across every
     configuration — the rendering snapshots the reference-predicted
     initial values before the body runs. *)
  let open Cprog in
  let rec stmt_stores gs s =
    match s with
    | Assign (n, _) -> List.mem n gs
    | AStore _ | FStore _ | PStore _ | Memcpy _ | Memset _ -> false
    | If (_, a, b) -> List.exists (stmt_stores gs) (a @ b)
    | Loop (_, _, b) -> List.exists (stmt_stores gs) b
    | Switch (_, arms, d) ->
      List.exists (stmt_stores gs) (List.concat_map snd arms @ d)
  in
  let stores_global p =
    List.exists
      (stmt_stores (List.map (fun (n, _, _) -> n) p.globals))
      p.body
  in
  let hits =
    List.filter
      (fun s -> stores_global (Cgen.generate ~seed:s ()))
      (List.init 40 (fun i -> i))
  in
  Alcotest.(check bool) "some seed stores a global" true (hits <> []);
  List.iter
    (fun s ->
      match Difftest.run_seed s with
      | `Agree -> ()
      | `Reject w -> Alcotest.failf "seed %d rejected: %s" s w
      | `Diverge d ->
        Alcotest.failf "seed %d diverged (%s):\n%s" s d.Difftest.dv_mismatch
          d.Difftest.dv_source)
    (match hits with s :: _ -> [ s ] | [] -> [])

(* ---------------- the oracle smoke run ---------------- *)

let test_oracle_smoke () =
  (* A fixed seed range per feature set; every seed must agree across
     all configurations (and with the reference evaluator on the
     predicted prefix).  Rejections would indicate the generator escaped
     the supported subset — also a bug. *)
  List.iter
    (fun features ->
      for seed = 1 to 10 do
        match Difftest.run_seed ~features seed with
        | `Agree -> ()
        | `Reject why ->
          Alcotest.failf "seed %d (features %s) rejected: %s" seed
            (Cgen.features_name features) why
        | `Diverge d ->
          Alcotest.failf "seed %d (features %s) diverged (%s):\n%s" seed
            (Cgen.features_name features) d.Difftest.dv_mismatch
            d.Difftest.dv_source
      done)
    feature_sets

let test_oracle_deterministic () =
  let verdict seed =
    match Difftest.run_seed seed with
    | `Agree -> "agree"
    | `Reject w -> "reject:" ^ w
    | `Diverge d -> "diverge:" ^ d.Difftest.dv_mismatch
  in
  Alcotest.(check string) "stable verdict" (verdict 99) (verdict 99)

(* Programs with memory errors: the five managed configurations read the
   outcome key and the fault location ([ob_loc]) from the managed run
   [Engine.run_module] returns, so they must agree on both, and every
   detected error must carry a location; the native configurations
   carry none.  Over the 68 corpus bugs (under the oracle's fixed argv
   and empty input, 64 are detected) and three hand-written errors whose
   location is pinned. *)
let test_managed_error_locations () =
  let managed (o : Oracle.observation) =
    String.starts_with ~prefix:"sulong" o.Oracle.ob_config
  in
  let locate what src =
    let obs = Oracle.observations src in
    let m = List.filter managed obs in
    Alcotest.(check int) (what ^ ": managed configurations") 5 (List.length m);
    let first = List.hd m in
    List.iter
      (fun (o : Oracle.observation) ->
        let at = what ^ ": " ^ o.Oracle.ob_config in
        if managed o then begin
          Alcotest.(check string) (at ^ " key") first.Oracle.ob_key o.Oracle.ob_key;
          Alcotest.(check (option string)) (at ^ " loc") first.Oracle.ob_loc
            o.Oracle.ob_loc
        end
        else Alcotest.(check (option string)) (at ^ " loc") None o.Oracle.ob_loc)
      obs;
    if
      String.starts_with ~prefix:"detected:" first.Oracle.ob_key
      && first.Oracle.ob_loc = None
    then
      Alcotest.failf "%s: %s without a location" what first.Oracle.ob_key;
    (first.Oracle.ob_key, first.Oracle.ob_loc)
  in
  let detected =
    List.filter
      (fun (p : Groundtruth.program) ->
        String.starts_with ~prefix:"detected:"
          (fst (locate p.Groundtruth.id p.Groundtruth.source)))
      Corpus.all
  in
  Alcotest.(check int) "corpus bugs detected" 64 (List.length detected);
  List.iter
    (fun (what, src, expected) ->
      Alcotest.(check (pair string (option string))) what expected
        (locate what src))
    [ ( "out-of-bounds write in a loop",
        "int main(void) {\n\
        \  int a[4];\n\
        \  for (int i = 0; i <= 4; i++) a[i] = i;\n\
        \  return a[0];\n\
         }\n",
        ("detected:out-of-bounds", Some "<input>:3:37") );
      ( "use after free",
        "int main(void) {\n\
        \  int *p = (int *)malloc(4 * sizeof(int));\n\
        \  p[0] = 1;\n\
        \  free(p);\n\
        \  return p[0];\n\
         }\n",
        ("detected:use-after-free", Some "<input>:5:3") );
      ( "NULL dereference in a callee",
        "int get(int *p) {\n\
        \  return *p;\n\
         }\n\
         int main(void) {\n\
        \  return get(0);\n\
         }\n",
        ("detected:null-dereference", Some "<input>:2:3") ) ]

(* ---------------- the shrinker ---------------- *)

let test_shrinker_reduces () =
  (* A synthetic "divergence": the predicate holds as long as an
     unsigned right shift survives anywhere in the program.  The
     reducer must strip the unrelated junk while preserving the
     predicate and well-formedness. *)
  let open Cprog in
  let shr = Bin (Shr, Const (-1L, U32), Const (4L, I32)) in
  let p =
    {
      seed = 0;
      enums = [ ("E0", shr); ("E1", Const (7L, I32)) ];
      globals = [ ("g0", I64, Bin (Add, Const (1L, I64), Const (2L, I64))) ];
      fields = [];
      arrays = [ ("a0", I32, 4) ];
      funcs = [];
      rcs = [ ("rc0", Bin (Mul, Const (3L, I32), Const (9L, I32))) ];
      locals = [ ("v0", It I32, Const (5L, I32)) ];
      ptrs = [ ("p0", I32, PaddrArr ("a0", 1)) ];
      body =
        [
          Loop ("i0", 4, [ AStore ("a0", Ixv "i0", Var ("v0", It I32)) ]);
          If (Var ("v0", It I32), [ Assign ("v0", Const (9L, I32)) ], []);
        ];
    }
  in
  Alcotest.(check bool) "fixture well-formed" true (well_formed p);
  let rec has_shr = function
    | Bin (Shr, _, _) -> true
    | Bin (_, a, b) -> has_shr a || has_shr b
    | Un (_, a) | Cast (_, a) -> has_shr a
    | Cond (c, a, b) -> has_shr c || has_shr a || has_shr b
    | Call (_, _, args) -> List.exists has_shr args
    | Const _ | FConst _ | EnumRef _ | Var _ | Read _ | Field _ | Strlen _
    | PRead _ | PCmp _ | PDiff _ ->
      false
  in
  let prog_has_shr q =
    List.exists (fun (_, e) -> has_shr e) q.enums
    || List.exists (fun (_, _, e) -> has_shr e) q.globals
    || List.exists (fun (_, e) -> has_shr e) q.rcs
  in
  Alcotest.(check bool) "fixture satisfies predicate" true (prog_has_shr p);
  let r = Shrink.reduce ~test:prog_has_shr ~budget:500 p in
  let q = r.Shrink.reduced in
  Alcotest.(check bool) "reduced still well-formed" true (well_formed q);
  Alcotest.(check bool) "reduced still satisfies predicate" true
    (prog_has_shr q);
  Alcotest.(check bool) "reduced is smaller" true (size q < size p);
  Alcotest.(check bool) "junk body dropped" true (q.body = []);
  Alcotest.(check bool) "junk global dropped" true (q.globals = [])

let test_shrinker_drops_helper () =
  (* Dropping a helper must inline a type-correct constant at every
     call site (including other helpers), atomically — a dangling call
     would be ill-formed. *)
  let open Cprog in
  let h0 =
    {
      fn_name = "h0";
      fn_params = [ ("h0_p0", It I32) ];
      fn_locals = [ ("h0_v0", It I64, Var ("h0_p0", It I32)) ];
      fn_body = [];
      fn_ret = It I64;
      fn_ret_expr = Var ("h0_v0", It I64);
    }
  in
  let h1 =
    {
      fn_name = "h1";
      fn_params = [ ("h1_p0", Ft F64) ];
      fn_locals = [];
      fn_body = [];
      fn_ret = Ft F64;
      fn_ret_expr =
        Bin
          ( Add,
            Var ("h1_p0", Ft F64),
            Cast (Ft F64, Call ("h0", It I64, [ Const (2L, I32) ])) );
    }
  in
  let p =
    {
      seed = 0;
      enums = [];
      globals = [];
      fields = [];
      arrays = [];
      funcs = [ h0; h1 ];
      rcs =
        [
          ("rc0", Call ("h0", It I64, [ Const (7L, I32) ]));
          ("rc1", Call ("h1", Ft F64, [ FConst (1.5, F64) ]));
        ];
      locals = [];
      ptrs = [];
      body = [];
    }
  in
  Alcotest.(check bool) "fixture well-formed" true (well_formed p);
  (* The "divergence" lives in h1; shrinking must drop h0's *uses* only
     via inlining and keep the program well-formed throughout. *)
  let uses_h1 q =
    List.exists
      (fun (_, e) ->
        let rec has = function
          | Call ("h1", _, _) -> true
          | Call (_, _, args) -> List.exists has args
          | Un (_, a) | Cast (_, a) -> has a
          | Bin (_, a, b) -> has a || has b
          | Cond (c, a, b) -> has c || has a || has b
          | _ -> false
        in
        has e)
      q.rcs
  in
  let r = Shrink.reduce ~test:uses_h1 ~budget:300 p in
  let q = r.Shrink.reduced in
  Alcotest.(check bool) "reduced well-formed" true (well_formed q);
  Alcotest.(check bool) "h1 call survives" true (uses_h1 q);
  Alcotest.(check bool) "h0 was dropped" true
    (not (List.exists (fun f -> f.fn_name = "h0") q.funcs))

let test_shrinker_round_trip () =
  (* Property test over the full feature set: every well-formed shrink
     candidate must render to C the front end accepts — the shrinker
     may never present a reducer state the oracle cannot even compile.
     (Execution agreement is the campaign's job; compilation is the
     cheap invariant checked per candidate here.) *)
  let compiles q =
    match Loader.compile_user (Cprog.render q) with
    | (_ : Irmod.t) -> true
    | exception _ -> false
  in
  for seed = 1 to 200 do
    let p = Cgen.generate ~features:Cgen.all_features ~seed () in
    if not (Cprog.well_formed p) then
      Alcotest.failf "seed %d: generated program ill-formed" seed;
    let checked = ref 0 in
    List.iter
      (fun q ->
        if !checked < 6 && Cprog.well_formed q then begin
          incr checked;
          if not (compiles q) then
            Alcotest.failf
              "seed %d: well-formed shrink candidate does not compile:\n%s"
              seed (Cprog.render q)
        end)
      (Shrink.candidates p)
  done

(* ---------------- reference evaluator spot checks ---------------- *)

let test_reference_evaluator () =
  let open Cprog in
  let e v = eval_int const_env v in
  (* (0u - 1u) >> 4 at unsigned int. *)
  Alcotest.(check int64) "unsigned shr" 268435455L
    (e (Bin (Shr, Bin (Sub, Const (0L, U32), Const (1L, U32)), Const (4L, I32))));
  (* -1 < 1u converts -1 to unsigned int. *)
  Alcotest.(check int64) "unsigned compare" 0L
    (e (Bin (Lt, Const (-1L, I32), Const (1L, U32))));
  (* Narrow unsigned char widens by zero-extension: (0u8 - 1u8) is
     promoted to int 255 before negation questions arise. *)
  Alcotest.(check int64) "u8 promotes to int" 255L
    (e (Cast (It I32, Const (-1L, U8))));
  (* Shift result type is the promoted left operand: char << 8. *)
  Alcotest.(check int64) "char shifts at int width" 25600L
    (e (Bin (Shl, Const (100L, I8), Const (8L, I32))));
  (* Expected-prefix assembly. *)
  let p =
    {
      seed = 1;
      enums = [ ("E0", Const (3L, I32)) ];
      globals = [ ("g0", U8, Const (300L, I32)) ];
      fields = [];
      arrays = [];
      funcs = [];
      rcs = [ ("rc0", Bin (Add, EnumRef "E0", Const (1L, I32))) ];
      locals = [];
      ptrs = [];
      body = [];
    }
  in
  Alcotest.(check string) "expected prefix" "E0=3\ng0=44\nrc0=4\n"
    (expected_prefix p)

let test_reference_evaluator_floats () =
  let open Cprog in
  let ef v = match eval const_env v with VF f -> f | VI _ -> Alcotest.fail "expected float" in
  let ei v = eval_int const_env v in
  (* F32 addition rounds: 2^24 + 1 at float is 2^24. *)
  Alcotest.(check (float 0.0)) "f32 add rounds" 16777216.0
    (ef (Bin (Add, FConst (16777216.0, F32), FConst (1.0, F32))));
  (* The same addition at double keeps the exact sum. *)
  Alcotest.(check (float 0.0)) "f64 add exact" 16777217.0
    (ef (Bin (Add, FConst (16777216.0, F64), FConst (1.0, F64))));
  (* F32 division result, widened: the binary32 value of 1/3. *)
  Alcotest.(check int64) "f32 div bits" 0x3FD5555560000000L
    (Int64.bits_of_float
       (ef (Bin (Div, FConst (1.0, F32), FConst (3.0, F32)))));
  (* int-to-F32 conversion rounds. *)
  Alcotest.(check (float 0.0)) "sitofp f32 rounds" 16777216.0
    (ef (Cast (Ft F32, Const (16777217L, I32))));
  (* u64-to-double uses the unsigned value. *)
  Alcotest.(check int64) "uitofp u64 bits" 0x43F0000000000000L
    (Int64.bits_of_float (ef (Cast (Ft F64, Const (-1L, U64)))));
  (* Mixed comparison converts the int side to float. *)
  Alcotest.(check int64) "mixed cmp" 1L
    (ei (Bin (Lt, Const (1L, I32), FConst (1.5, F64))));
  (* 0.0 / 0.0 is NaN: ordered comparisons false, != true, and the
     saturating conversion maps it to 0. *)
  let nan_e = Bin (Div, FConst (0.0, F64), FConst (0.0, F64)) in
  Alcotest.(check int64) "NaN == is false" 0L (ei (Bin (Eq, nan_e, nan_e)));
  Alcotest.(check int64) "NaN < is false" 0L (ei (Bin (Lt, nan_e, nan_e)));
  Alcotest.(check int64) "NaN != is true" 1L (ei (Bin (Ne, nan_e, nan_e)));
  Alcotest.(check int64) "NaN -> int is 0" 0L (ei (Cast (It I64, nan_e)));
  (* Unary minus is 0.0 - x (so -(0.0) stays +0.0, like the engines). *)
  Alcotest.(check int64) "neg zero via unary minus" 0L
    (Int64.bits_of_float (ef (Un (Neg, FConst (0.0, F64)))));
  (* Float rcs predict the widened bit pattern. *)
  let p =
    {
      seed = 2;
      enums = [];
      globals = [];
      fields = [];
      arrays = [];
      funcs = [];
      rcs = [ ("rc0", Bin (Div, FConst (1.0, F32), FConst (3.0, F32))) ];
      locals = [];
      ptrs = [];
      body = [];
    }
  in
  Alcotest.(check string) "float expected prefix" "rc0=0.3333333432674408\n"
    (expected_prefix p)

let test_reference_evaluator_globals () =
  let open Cprog in
  (* Recomputations and helpers may read globals: the reference models
     the *initial* values, which is sound because every predicted line
     prints before the body's first mutation. *)
  let h0 =
    {
      fn_name = "h0";
      fn_params = [ ("h0_p0", It I32) ];
      fn_locals = [];
      fn_body = [];
      fn_ret = It I64;
      fn_ret_expr = Bin (Add, Var ("g0", It I32), Var ("h0_p0", It I32));
    }
  in
  let p =
    {
      seed = 3;
      enums = [];
      globals = [ ("g0", I32, Const (40L, I32)) ];
      fields = [];
      arrays = [];
      funcs = [ h0 ];
      rcs =
        [
          ("rc0", Bin (Add, Var ("g0", It I32), Const (1L, I32)));
          ("rc1", Call ("h0", It I64, [ Const (2L, I32) ]));
        ];
      locals = [];
      ptrs = [];
      body = [ Assign ("g0", Const (0L, I32)) ];
    }
  in
  Alcotest.(check bool) "global-reading program well-formed" true
    (well_formed p);
  Alcotest.(check string) "globals in rcs and helper calls"
    "g0=40\nrc0=41\nrc1=42\n" (expected_prefix p)

let test_reference_evaluator_calls () =
  let open Cprog in
  (* h0(p) = let v = p * 2 in loop 3 times: v = v + p; return v + 1
     — checks param binding, local init, loop execution and the return
     conversion. h1 calls h0 (prefix-restricted). *)
  let h0 =
    {
      fn_name = "h0";
      fn_params = [ ("h0_p0", It I32) ];
      fn_locals =
        [ ("h0_v0", It I32, Bin (Mul, Var ("h0_p0", It I32), Const (2L, I32))) ];
      fn_body =
        [
          Loop
            ( "h0_i0", 3,
              [
                Assign
                  ( "h0_v0",
                    Bin (Add, Var ("h0_v0", It I32), Var ("h0_p0", It I32)) );
              ] );
        ];
      fn_ret = It I64;
      fn_ret_expr = Bin (Add, Var ("h0_v0", It I32), Const (1L, I32));
    }
  in
  let h1 =
    {
      fn_name = "h1";
      fn_params = [ ("h1_p0", Ft F32) ];
      fn_locals = [];
      fn_body = [];
      fn_ret = Ft F32;
      fn_ret_expr =
        Bin
          ( Add,
            Var ("h1_p0", Ft F32),
            Cast (Ft F32, Call ("h0", It I64, [ Const (10L, I32) ])) );
    }
  in
  let env = { const_env with ev_funcs = [ h0; h1 ] } in
  (* h0(10): v = 20; +10 three times = 50; return 51. *)
  Alcotest.(check int64) "call with loop" 51L
    (eval_int env (Call ("h0", It I64, [ Const (10L, I32) ])));
  (* Argument conversion: the float argument truncates to int 10 at the
     I32 parameter, so the result is again 51. *)
  Alcotest.(check int64) "float arg converts" 51L
    (eval_int env (Call ("h0", It I64, [ FConst (10.9, F64) ])));
  (* h1(0.5) = 0.5 + 51.0f = 51.5 (exact at F32). *)
  (match eval env (Call ("h1", Ft F32, [ FConst (0.5, F32) ])) with
  | VF f -> Alcotest.(check (float 0.0)) "nested call" 51.5 f
  | VI _ -> Alcotest.fail "expected float");
  (* A self-call is not evaluable (callable set is the definition
     prefix): Not_const, not divergence. *)
  let selfy = { h0 with fn_name = "s"; fn_ret_expr = Call ("s", It I64, []) } in
  let env2 = { const_env with ev_funcs = [ selfy ] } in
  Alcotest.(check bool) "self-call raises Not_const" true
    (try
       ignore (eval env2 (Call ("s", It I64, [ Const (1L, I32) ])));
       false
     with Not_const -> true)

(* ------------------------------------------------------------------ *)
(* Exported reproducer corpus (bugdb export -> difftest --corpus)      *)
(* ------------------------------------------------------------------ *)

let test_load_corpus () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "difftest_corpus_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let write file s =
    let oc = open_out_bin (Filename.concat dir file) in
    output_string oc s;
    close_out oc
  in
  (* Entries come back sorted by file name, paired with .expected. *)
  let src = "int main(void) { printf(\"ok\\n\"); return 0; }\n" in
  write "b-bug.c" src;
  write "b-bug.expected" "ok\n";
  write "a-bug.c" src;
  write "a-bug.expected" "ok\n";
  write "notes.txt" "ignored";
  (match Difftest.load_corpus ~dir with
  | [ (n1, s1, e1); (n2, s2, e2) ] ->
    Alcotest.(check string) "first name" "a-bug" n1;
    Alcotest.(check string) "second name" "b-bug" n2;
    Alcotest.(check string) "source round-trips" src s1;
    Alcotest.(check string) "source round-trips" src s2;
    Alcotest.(check string) "expected round-trips" "ok\n" e1;
    Alcotest.(check string) "expected round-trips" "ok\n" e2
  | l ->
    Alcotest.failf "expected 2 corpus entries, got %d" (List.length l));
  (* Loaded entries run through the same oracle check as the
     checked-in regressions. *)
  List.iter
    (fun reg ->
      match Difftest.check_regression reg with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    (Difftest.load_corpus ~dir);
  (* A .c without its .expected is an error, not a silent skip. *)
  write "orphan.c" src;
  Alcotest.(check bool) "orphan .c rejected" true
    (try
       ignore (Difftest.load_corpus ~dir);
       false
     with Invalid_argument _ -> true);
  (* A missing directory is an empty corpus. *)
  Alcotest.(check int) "missing dir is empty" 0
    (List.length (Difftest.load_corpus ~dir:(dir ^ "_nonexistent")));
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir

let () =
  Alcotest.run "difftest"
    [
      ( "folding semantics",
        [
          Alcotest.test_case "float->int edge values" `Quick
            test_float_to_int_edges;
          Alcotest.test_case "fold_cast matches engines" `Quick
            test_fold_cast_matches_engines;
          Alcotest.test_case "reference evaluator" `Quick
            test_reference_evaluator;
          Alcotest.test_case "reference evaluator: floats" `Quick
            test_reference_evaluator_floats;
          Alcotest.test_case "reference evaluator: calls" `Quick
            test_reference_evaluator_calls;
          Alcotest.test_case "reference evaluator: globals" `Quick
            test_reference_evaluator_globals;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "checked-in reproducers" `Quick test_regressions;
          Alcotest.test_case "exported corpus loads and replays" `Quick
            test_load_corpus;
        ] );
      ( "generator",
        [
          Alcotest.test_case "well-formed output" `Quick
            test_generator_well_formed;
          Alcotest.test_case "deterministic" `Quick
            test_generator_deterministic;
          Alcotest.test_case "feature flags parse" `Quick test_features_parse;
          Alcotest.test_case "features reach the output" `Quick
            test_generator_uses_features;
          Alcotest.test_case "mutates globals" `Quick
            test_generator_mutates_globals;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fixed-seed smoke run" `Slow test_oracle_smoke;
          Alcotest.test_case "deterministic verdict" `Quick
            test_oracle_deterministic;
          Alcotest.test_case "managed configurations agree on error locations"
            `Quick test_managed_error_locations;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "greedy reduction" `Quick test_shrinker_reduces;
          Alcotest.test_case "helper drop inlines callsites" `Quick
            test_shrinker_drops_helper;
          Alcotest.test_case "candidates stay compilable" `Slow
            test_shrinker_round_trip;
        ] );
    ]
