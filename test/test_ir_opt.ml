(** IR well-formedness and optimizer tests, including the differential
    property test: for randomly generated (well-defined) C programs, the
    -O3 pipeline, the backend fold and the safe-JIT pipeline must
    preserve observable behaviour exactly — across the managed *and* the
    native engine. *)

(* ---------------- verify ---------------- *)

let mk_func ~blocks : Irfunc.t =
  { Irfunc.name = "f"; params = []; ret = Some Irtype.I32; variadic = false;
    blocks; next_reg = 100; src_pos = (0, 0); src_file = "<test>" }

let mk_mod f : Irmod.t =
  { Irmod.globals = []; funcs = [ f ]; externs = [] }

(* [Oracle.guard] renders a [Verify.Invalid] into divergence keys, so
   bug-store signatures depend on its exact text. *)
let expect_invalid_mod expected m =
  match Verify.verify m with
  | () -> Alcotest.fail ("expected Verify.Invalid: " ^ expected)
  | exception Verify.Invalid msg ->
    Alcotest.(check string) "Verify.Invalid text" expected msg

let entry_block instrs =
  { Irfunc.label = "entry"; instrs;
    term = Instr.Ret (Some (Irtype.I32, Instr.ImmInt (0L, Irtype.I32))) }

(* Every [Verify] rejection: the exact text and a module that raises
   it.  Each module is a one-function user program, so the link law
   below also runs it linked against the libc. *)
let undefined_reg_func =
  mk_func
    ~blocks:
      [
        { Irfunc.label = "entry"; instrs = [];
          term = Instr.Ret (Some (Irtype.I32, Instr.Reg 7)) };
      ]

let load_global g =
  entry_block [ Instr.Load (1, Irtype.I32, Instr.GlobalAddr g) ]

let fn_addr fn =
  entry_block
    [ Instr.Cast (1, Instr.Ptrtoint, Irtype.Ptr, Irtype.I64, Instr.FuncAddr fn) ]

let i32 v = Instr.ImmInt (v, Irtype.I32)
let f64 v = Instr.ImmFloat (v, Irtype.F64)

(* [entry] branches to [next], whose phi names only the unreachable
   [other]. *)
let phi_without_entry_pred =
  [
    { Irfunc.label = "entry"; instrs = []; term = Instr.Br "next" };
    { Irfunc.label = "next";
      instrs = [ Instr.Phi (1, Irtype.I32, [ ("other", i32 1L) ]) ];
      term = Instr.Ret (Some (Irtype.I32, Instr.Reg 1)) };
    { Irfunc.label = "other"; instrs = []; term = Instr.Br "next" };
  ]

(* A module whose only global is [@g = init], of type [ty] (default a
   pointer). *)
let with_global ?(ty = Irtype.MScalar Irtype.Ptr) init =
  { Irmod.globals = [ { Irmod.g_name = "g"; g_ty = ty; g_init = init } ];
    funcs = [ mk_func ~blocks:[ entry_block [] ] ]; externs = [] }

let i32_array n = Irtype.MArray (Irtype.MScalar Irtype.I32, n)

(* [@f] calls [@g], defined to return a double, as returning an i32. *)
let call_result_class () =
  let g =
    { (mk_func
         ~blocks:
           [ { Irfunc.label = "entry"; instrs = [];
               term = Instr.Ret (Some (Irtype.F64, f64 1.0)) } ])
      with Irfunc.name = "g"; ret = Some Irtype.F64 }
  in
  let f =
    mk_func
      ~blocks:
        [
          { Irfunc.label = "entry";
            instrs = [ Instr.Call (Some 1, Some Irtype.I32, Instr.Direct "g", []) ];
            term = Instr.Ret (Some (Irtype.I32, Instr.Reg 1)) };
        ]
  in
  { Irmod.globals = []; funcs = [ f; g ]; externs = [] }

(* [@f] passes a pointer where the extern [@__sulong_sqrt] declares a
   double. *)
let call_argument_class () =
  let m =
    mk_mod
      (mk_func
         ~blocks:
           [
             entry_block
               [
                 Instr.Call
                   (Some 1, Some Irtype.F64, Instr.Direct "__sulong_sqrt",
                    [ (Irtype.Ptr, Instr.Null) ]);
               ];
           ])
  in
  m.Irmod.externs <-
    [ { Irmod.e_name = "__sulong_sqrt"; e_ret = Some Irtype.F64;
        e_params = [ Irtype.F64 ]; e_variadic = false } ];
  m

let rejection_cases () : (string * Irmod.t) list =
  let one blocks = mk_mod (mk_func ~blocks) in
  let add1 =
    Instr.Binop
      (1, Instr.Add, Irtype.I32, Instr.ImmInt (1L, Irtype.I32),
       Instr.ImmInt (2L, Irtype.I32))
  in
  [
    ("f: terminator uses undefined register %7", mk_mod undefined_reg_func);
    ( "f: %1 = add i32 %7, i32 1 uses undefined register %7",
      one
        [
          entry_block
            [
              Instr.Binop (1, Instr.Add, Irtype.I32, Instr.Reg 7,
                           Instr.ImmInt (1L, Irtype.I32));
            ];
        ] );
    ( "f: branch to unknown block nowhere",
      one [ { Irfunc.label = "entry"; instrs = []; term = Instr.Br "nowhere" } ] );
    ( "f: duplicate block label a",
      one
        [
          { Irfunc.label = "a"; instrs = []; term = Instr.Br "a" };
          { Irfunc.label = "a"; instrs = []; term = Instr.Ret None };
        ] );
    ( "f: register %1 defined twice",
      one
        [
          { Irfunc.label = "entry"; instrs = [ add1; add1 ];
            term = Instr.Ret (Some (Irtype.I32, Instr.Reg 1)) };
        ] );
    ( "f: call to unknown function @ghost",
      one [ entry_block [ Instr.Call (None, None, Instr.Direct "ghost", []) ] ] );
    ( "f: %1 = load i32, @nope references unknown global @nope",
      one [ load_global "nope" ] );
    ( "f: %1 = ptrtoint ptr @ghost to i64 references unknown function @ghost",
      one [ fn_addr "ghost" ] );
    ( "f: phi references unknown block nowhere",
      one
        [
          entry_block
            [
              Instr.Phi (1, Irtype.I32,
                         [ ("nowhere", Instr.ImmInt (0L, Irtype.I32)) ]);
            ];
        ] );
    ( "duplicate function @f",
      (let f = mk_func ~blocks:[ entry_block [] ] in
       { Irmod.globals = []; funcs = [ f; f ]; externs = [] }) );
    ( "f: %1 = sdiv i8 i8 255, i8 2 has non-canonical immediate i8 255",
      one
        [
          entry_block
            [
              Instr.Binop (1, Instr.Sdiv, Irtype.I8,
                           Instr.ImmInt (255L, Irtype.I8),
                           Instr.ImmInt (2L, Irtype.I8));
            ];
        ] );
    (* Shapes the engines' staged scalar operations cannot execute. *)
    ( "f: %1 = sdiv double double 0x1p+0, double 0x1p+1 has a type of the \
       wrong class for its opcode",
      one
        [ entry_block [ Instr.Binop (1, Instr.Sdiv, Irtype.F64, f64 1.0, f64 2.0) ] ]
    );
    ( "f: %1 = icmp eq double double 0x1p+0, double 0x1p+1 has a type of the \
       wrong class for its opcode",
      one
        [ entry_block [ Instr.Icmp (1, Instr.Ieq, Irtype.F64, f64 1.0, f64 2.0) ] ]
    );
    ( "f: %1 = fadd i32 i32 1, i32 2 has a type of the wrong class for its opcode",
      one
        [ entry_block [ Instr.Binop (1, Instr.FAdd, Irtype.I32, i32 1L, i32 2L) ] ]
    );
    ( "f: %1 = fcmp olt i32 i32 1, i32 2 has a type of the wrong class for its opcode",
      one
        [ entry_block [ Instr.Fcmp (1, Instr.Flt, Irtype.I32, i32 1L, i32 2L) ] ]
    );
    ( "f: %1 = trunc double double 0x1p+0 to i32 has a type of the \
       wrong class for its opcode",
      one
        [ entry_block
            [ Instr.Cast (1, Instr.Trunc, Irtype.F64, Irtype.I32, f64 1.0) ] ] );
    ( "f: %1 = fptosi double double 0x1p+0 to double has a type of the \
       wrong class for its opcode",
      one
        [ entry_block
            [ Instr.Cast (1, Instr.Fptosi, Irtype.F64, Irtype.F64, f64 1.0) ] ] );
    ( "f: %1 = phi i32 [other: i32 1] has no entry for predecessor entry",
      one phi_without_entry_pred );
    ( "f: %1 = phi i32 [entry: i32 1] in the entry block",
      one [ entry_block [ Instr.Phi (1, Irtype.I32, [ ("entry", i32 1L) ]) ] ] );
    ("global @g references unknown global @nope",
     with_global (Irmod.Gglobal_addr "nope"));
    ("global @g references unknown function @ghost",
     with_global
       ~ty:(Irtype.MArray (Irtype.MScalar Irtype.Ptr, 2))
       (Irmod.Garray [ Irmod.Gzero; Irmod.Gfunc_addr "ghost" ]));
    ("f: function has no blocks", one []);
    (* Direct calls whose classes disagree with the callee's signature. *)
    ( "f: %1 = call i32 @g() has a result of the wrong class for @g",
      call_result_class () );
    ( "f: %1 = call double @__sulong_sqrt(ptr null) passes null of the wrong \
       class to @__sulong_sqrt",
      call_argument_class () );
    (* Operands of the other class than their use computes on: an
       immediate, a register, a returned register and immediate (a
       function's result has its return type's class), a branch
       condition. *)
    ( "f: %1 = add i32 double 0x1p+0, i32 2 uses double 0x1p+0 of the wrong class",
      one [ entry_block [ Instr.Binop (1, Instr.Add, Irtype.I32, f64 1.0, i32 2L) ] ] );
    ( "f: %2 = fadd double %1, double 0x1p+0 uses %1 of the wrong class",
      one
        [
          entry_block
            [
              Instr.Alloca (1, Irtype.MScalar Irtype.F64);
              Instr.Binop (2, Instr.FAdd, Irtype.F64, Instr.Reg 1, f64 1.0);
            ];
        ] );
    ( "f: terminator uses %1 of the wrong class",
      one
        [
          { Irfunc.label = "entry";
            instrs = [ Instr.Cast (1, Instr.Sitofp, Irtype.I32, Irtype.F64, i32 1L) ];
            term = Instr.Ret (Some (Irtype.I32, Instr.Reg 1)) };
        ] );
    ( "f: terminator uses double 0x1p+0 of the wrong class",
      one
        [
          { Irfunc.label = "entry"; instrs = [];
            term = Instr.Ret (Some (Irtype.F64, f64 1.0)) };
        ] );
    ( "f: terminator uses double 0x1p+1 of the wrong class",
      one
        [
          { Irfunc.label = "entry"; instrs = [];
            term = Instr.Condbr (f64 2.0, "entry", "entry") };
        ] );
    (* Initializers that do not fit their global's type. *)
    ( "global @g: initializer 0x1.8p+0 does not fit type [2 x i32]",
      with_global ~ty:(i32_array 2) (Irmod.Gfloat 1.5) );
    ( "global @g: initializer [1, 2] does not fit type i32",
      with_global ~ty:(Irtype.MScalar Irtype.I32)
        (Irmod.Garray [ Irmod.Gint 1L; Irmod.Gint 2L ]) );
    ( "global @g: initializer [1, 2, 3] does not fit type [2 x i32]",
      with_global ~ty:(i32_array 2)
        (Irmod.Garray [ Irmod.Gint 1L; Irmod.Gint 2L; Irmod.Gint 3L ]) );
    ( "global @g: initializer c\"hello\" does not fit type [2 x i8]",
      with_global
        ~ty:(Irtype.MArray (Irtype.MScalar Irtype.I8, 2))
        (Irmod.Gstring "hello") );
    ( "global @g: initializer [1] does not fit type i32",
      with_global ~ty:(i32_array 2)
        (Irmod.Garray [ Irmod.Gzero; Irmod.Garray [ Irmod.Gint 1L ] ]) );
  ]

let expect_rejection expected =
  expect_invalid_mod expected (List.assoc expected (rejection_cases ()))

let test_verify_undefined_reg () =
  expect_rejection "f: terminator uses undefined register %7";
  expect_rejection "f: %1 = add i32 %7, i32 1 uses undefined register %7"

let test_verify_unknown_block () =
  expect_rejection "f: branch to unknown block nowhere"

let test_verify_duplicate_label () = expect_rejection "f: duplicate block label a"

let test_verify_double_def () = expect_rejection "f: register %1 defined twice"

let test_verify_unknown_callee () =
  expect_rejection "f: call to unknown function @ghost"

let test_verify_unknown_global () =
  expect_rejection "f: %1 = load i32, @nope references unknown global @nope";
  (* [@name] names a global, the only thing the engines resolve it to *)
  expect_invalid_mod "f: %1 = load i32, @f references unknown global @f"
    (mk_mod (mk_func ~blocks:[ load_global "f" ]))

let test_verify_unknown_function_address () =
  expect_rejection
    "f: %1 = ptrtoint ptr @ghost to i64 references unknown function @ghost";
  (* a function address may name an extern, a direct callee too *)
  let m = mk_mod (mk_func ~blocks:[ fn_addr "ext" ]) in
  m.Irmod.externs <-
    [ { Irmod.e_name = "ext"; e_ret = None; e_params = []; e_variadic = false } ];
  Verify.verify m;
  (List.hd m.Irmod.funcs).Irfunc.blocks <-
    [ entry_block [ Instr.Call (None, None, Instr.Direct "ext", []) ] ];
  Verify.verify m

let test_verify_phi_unknown_block () =
  expect_rejection "f: phi references unknown block nowhere"

let test_verify_duplicate_function () = expect_rejection "duplicate function @f"

(* Every engine stages integer operations on integers and float ones on
   floats; a type of the other class is rejected, not executed. *)
let test_verify_type_classes () =
  let cases =
    List.filter
      (fun (text, _) ->
        String.ends_with ~suffix:"has a type of the wrong class for its opcode"
          text)
      (rejection_cases ())
  in
  (* int binop and icmp at double, fadd and fcmp at i32, two casts *)
  Alcotest.(check int) "class cases" 6 (List.length cases);
  List.iter (fun (text, m) -> expect_invalid_mod text m) cases;
  (* pointers are integers to integer opcodes; a bitcast takes any class *)
  Verify.verify
    (mk_mod
       (mk_func
          ~blocks:
            [
              entry_block
                [
                  Instr.Icmp (1, Instr.Ieq, Irtype.Ptr, Instr.Null, Instr.Null);
                  Instr.Binop (2, Instr.FMul, Irtype.F32,
                               Instr.ImmFloat (1.0, Irtype.F32),
                               Instr.ImmFloat (2.0, Irtype.F32));
                  Instr.Fcmp (3, Instr.Fge, Irtype.F64, f64 1.0, f64 2.0);
                  Instr.Cast (4, Instr.Bitcast, Irtype.F64, Irtype.I64, f64 1.0);
                  Instr.Cast (5, Instr.Sitofp, Irtype.I32, Irtype.F64, i32 1L);
                  Instr.Cast (6, Instr.Ptrtoint, Irtype.Ptr, Irtype.I64, Instr.Null);
                ];
            ]))

(* A value is a float or an integer, and every use computes on one of
   the two: each operand must be of its use's class. *)
let test_verify_operand_classes () =
  let cases =
    List.filter
      (fun (text, _) -> String.ends_with ~suffix:"of the wrong class" text)
      (rejection_cases ())
  in
  (* an immediate and a register operand, a result, a return type, a
     branch condition *)
  Alcotest.(check int) "operand class cases" 5 (List.length cases);
  List.iter (fun (text, m) -> expect_invalid_mod text m) cases;
  (* pointers and integers mix: pointer arithmetic through cookies, a
     pointer stored as an integer and an integer used as an address *)
  Verify.verify
    (mk_mod
       (mk_func
          ~blocks:
            [
              { Irfunc.label = "entry";
                instrs =
                  [
                    Instr.Alloca (1, Irtype.MScalar Irtype.I64);
                    Instr.Binop (2, Instr.Add, Irtype.I64, Instr.Reg 1,
                                 Instr.ImmInt (8L, Irtype.I64));
                    Instr.Store (Irtype.I64, Instr.Reg 1, Instr.Reg 2);
                    Instr.Load (3, Irtype.F64, Instr.Reg 2);
                    Instr.Cast (4, Instr.Fptosi, Irtype.F64, Irtype.I32, Instr.Reg 3);
                  ];
                term = Instr.Ret (Some (Irtype.I32, Instr.Reg 4)) };
            ]))

let test_verify_function_blocks () = expect_rejection "f: function has no blocks"

(* A callee computes its result and reads its parameters in the classes
   it declares, so a direct call must agree with them; a variadic
   callee's extra arguments and a void callee's result are free. *)
let test_verify_call_signatures () =
  expect_rejection "f: %1 = call i32 @g() has a result of the wrong class for @g";
  expect_rejection
    "f: %1 = call double @__sulong_sqrt(ptr null) passes null of the wrong \
     class to @__sulong_sqrt";
  let m =
    mk_mod
      (mk_func
         ~blocks:
           [
             entry_block
               [
                 Instr.Call
                   (Some 1, Some Irtype.I32, Instr.Direct "v",
                    [ (Irtype.Ptr, Instr.Null); (Irtype.F64, f64 1.0) ]);
                 Instr.Call (Some 2, Some Irtype.F64, Instr.Direct "w", []);
               ];
           ])
  in
  m.Irmod.externs <-
    [ { Irmod.e_name = "v"; e_ret = Some Irtype.I32; e_params = [ Irtype.Ptr ];
        e_variadic = true };
      { Irmod.e_name = "w"; e_ret = None; e_params = []; e_variadic = false } ];
  Verify.verify m

(* A phi needs an entry for each predecessor edge; the entry block has
   none to give it. *)
let test_verify_phi_predecessors () =
  expect_rejection
    "f: %1 = phi i32 [other: i32 1] has no entry for predecessor entry";
  expect_rejection "f: %1 = phi i32 [entry: i32 1] in the entry block";
  (* a switch reaching [join] twice from [entry] and a branch from
     [left]: one entry per predecessor block covers every edge *)
  Verify.verify
    (mk_mod
       (mk_func
          ~blocks:
            [
              { Irfunc.label = "entry"; instrs = [];
                term = Instr.Switch (i32 0L, [ (1L, "join"); (2L, "join") ], "left") };
              { Irfunc.label = "left"; instrs = []; term = Instr.Br "join" };
              { Irfunc.label = "join";
                instrs =
                  [ Instr.Phi (1, Irtype.I32, [ ("entry", i32 1L); ("left", i32 2L) ]) ];
                term = Instr.Ret (Some (Irtype.I32, Instr.Reg 1)) };
            ]))

let test_verify_global_initializers () =
  expect_rejection "global @g references unknown global @nope";
  expect_rejection "global @g references unknown function @ghost";
  let two_ptrs =
    let field i =
      { Irtype.mf_name = string_of_int i; mf_ty = Irtype.MScalar Irtype.Ptr;
        mf_off = 8 * i }
    in
    { Irtype.s_tag = "pair"; s_fields = [ field 0; field 1 ]; s_size = 16;
      s_align = 8 }
  in
  let m =
    with_global ~ty:(Irtype.MStruct two_ptrs)
      (Irmod.Gstruct_init [ Irmod.Gfunc_addr "f"; Irmod.Gfunc_addr "ext" ])
  in
  m.Irmod.externs <-
    [ { Irmod.e_name = "ext"; e_ret = None; e_params = []; e_variadic = false } ];
  m.Irmod.globals <-
    m.Irmod.globals
    @ [ { Irmod.g_name = "h"; g_ty = Irtype.MScalar Irtype.Ptr;
          g_init = Irmod.Gglobal_addr "g" } ];
  Verify.verify m

(* One walker lays every initializer out ([Irmod.iter_init]); [Verify]
   rejects what it cannot lay out, and both engines store its leaves. *)
let test_verify_initializer_layouts () =
  let cases =
    List.filter
      (fun (text, _) -> Util.string_contains ~needle:": initializer " text)
      (rejection_cases ())
  in
  (* a float in an array, a list in a scalar, a list or a string longer
     than its array, a list in a nested scalar *)
  Alcotest.(check int) "layout cases" 5 (List.length cases);
  List.iter (fun (text, m) -> expect_invalid_mod text m) cases;
  let layout ty init =
    let leaves = ref [] in
    Irmod.iter_init (fun off l -> leaves := (off, l) :: !leaves) ty init;
    List.rev !leaves
  in
  Alcotest.(check bool) "offsets and converted leaves" true
    (layout (i32_array 3) (Irmod.Garray [ Irmod.Gint 1L; Irmod.Gzero; Irmod.Gint 3L ])
     = [ (0, Irmod.Lint (Irtype.I32, 1L)); (8, Irmod.Lint (Irtype.I32, 3L)) ]
    && layout (Irtype.MScalar Irtype.F32) (Irmod.Gint 2L)
       = [ (0, Irmod.Lfloat (Irtype.F32, 2.0)) ]
    && layout (Irtype.MArray (Irtype.MScalar Irtype.I8, 4)) (Irmod.Gstring "ab\000")
       = [ (0, Irmod.Lbytes "ab\000") ]);
  (* the shapes the front end emits, run by both engines *)
  let src =
    {|
struct P { int x; double d; char *s; };
struct P ps[2] = { { 1, 2.5, "hi" }, { 3 } };
char name[8] = "ok";
int *ip = (int *)0;
float f = 2;
int main(void) {
  printf("%d %g %s %d %s %g\n", ps[0].x, ps[0].d, ps[0].s, ps[1].x, name, f);
  return ps[1].s == 0;
}
|}
  in
  let r = Cases.sulong src in
  Alcotest.(check string) "managed image" "1 2.5 hi 3 ok 2\n" r.Interp.output;
  let n = Engine.run (Engine.Clang Pipeline.O0) src in
  Alcotest.(check string) "native image" r.Interp.output n.Engine.output;
  Alcotest.(check int) "exit code" 1 r.Interp.exit_code

(* Textual IR may spell an i8 constant as 255 or 200; every engine reads
   those as -1 and -56.  A folder computing on the raw literals gets
   255 sdiv 2 = 127 and 200 slt 0 = false, so the module exits 127 after
   [Fold.run] instead of 100. *)
let noncanonical_probe =
  {|define i32 @main() {
entry:
  %0 = sdiv i8 i8 255, i8 2
  %1 = icmp slt i8 i8 200, i8 0
  %2 = sext i8 %0 to i32
  %3 = zext i1 %1 to i32
  %4 = mul i32 %3, i32 100
  %5 = add i32 %2, %4
  ret i32 %5
}
|}

let test_noncanonical_immediates () =
  let exit_code m = (Interp.run (Interp.create m)).Interp.exit_code in
  let m = Irparse.parse noncanonical_probe in
  Verify.verify m;
  let unfolded = exit_code m in
  Alcotest.(check int) "interpreter reads the canonical values" 100 unfolded;
  ignore (Fold.run m);
  Verify.verify m;
  Alcotest.(check int) "same exit code after Fold.run" unfolded (exit_code m);
  expect_rejection
    "f: %1 = sdiv i8 i8 255, i8 2 has non-canonical immediate i8 255"

let test_accepts_frontend_output () =
  let m = Loader.load_program "int main(void) { return 0; }" in
  Verify.verify m

(* The loader verifies a library once and, per program, only the user's
   functions against the linked module's names.  The law: that check
   and a full [Verify.verify] of the linked module both pass, or both
   raise [Verify.Invalid] with the same text. *)
let check_link_law ?(lib = Loader.libc ()) what (user : Irmod.t) =
  let outcome f =
    match f () with _ -> None | exception Verify.Invalid m -> Some m
  in
  let per_program = outcome (fun () -> Loader.link_libc ~shared:true lib user) in
  let full =
    outcome (fun () -> Verify.verify (Irmod.link user lib.Loader.lib))
  in
  Alcotest.(check (option string)) what full per_program;
  per_program

(* The libcs the oracle's middle-end configurations link against. *)
let optimized_libcs () =
  [ ("fold", Engine.optimized_libc `FoldOnly);
    ("safe-jit", Engine.optimized_libc `SafeJit) ]

(* The user programs the link and extern laws run over: the corpus and
   its repaired variants, the bench programs and difftest seeds 0-499. *)
let law_sources (f : string -> string -> unit) =
  List.iter
    (fun (p : Groundtruth.program) ->
      f p.Groundtruth.id p.Groundtruth.source;
      Option.iter (f (p.Groundtruth.id ^ " fixed")) p.Groundtruth.fixed)
    Corpus.all;
  List.iter
    (fun (b : Benchprogs.bench) -> f b.Benchprogs.b_name b.Benchprogs.b_source)
    Benchprogs.all;
  for seed = 0 to 499 do
    f (Printf.sprintf "seed %d" seed) (Cprog.render (Cgen.generate ~seed ()))
  done

let law_programs (f : string -> Irmod.t -> unit) =
  law_sources (fun what src -> f what (Loader.compile_user src))

let test_link_check_law () =
  let accepts what user =
    Alcotest.(check (option string)) what None (check_link_law what user)
  in
  law_programs accepts;
  (* A user definition replaces the libc's. *)
  accepts "strlen redefined"
    (Loader.compile_user
       {|
size_t strlen(const char *s) { size_t n = 0; while (s[n]) n++; return n + 1; }
int main(void) { return (int)strlen("abc"); }
|});
  (* Every rejection case, as a user module linked against the libc. *)
  let rejects expected user =
    Alcotest.(check (option string)) expected (Some expected)
      (check_link_law expected user)
  in
  List.iter (fun (expected, m) -> rejects expected m) (rejection_cases ());
  (* A broken user definition replacing a libc one is checked too. *)
  rejects "strlen: terminator uses undefined register %7"
    (mk_mod
       { undefined_reg_func with Irfunc.name = "strlen" });
  (* A replacement under another signature breaks the libc's own calls
     to it, which the per-program check must find too. *)
  let strlen_as_double =
    mk_mod
      { (mk_func
           ~blocks:
             [ { Irfunc.label = "entry"; instrs = [];
                 term = Instr.Ret (Some (Irtype.F64, Instr.Reg 1)) } ])
        with Irfunc.name = "strlen"; params = [ (1, Irtype.F64) ];
             ret = Some Irtype.F64 }
  in
  rejects
    "strcat: %6 = call i64 @strlen(ptr %5) has a result of the wrong class \
     for @strlen"
    strlen_as_double;
  (* The same against each optimized libc: the user's errors read the
     same, and the libc's own broken call is found in its optimized
     form. *)
  List.iter
    (fun (name, lib) ->
      List.iter
        (fun (expected, m) ->
          Alcotest.(check (option string)) (name ^ ": " ^ expected)
            (Some expected) (check_link_law ~lib expected m))
        (rejection_cases ());
      Alcotest.(check bool) (name ^ ": strlen as double") true
        (check_link_law ~lib "strlen as double" strlen_as_double <> None))
    (optimized_libcs ())

(* [sulong/fold] and [sulong/safe-jit] run their pipeline over a copy of
   the user module alone and link it against the libc after the same
   pipeline, built once per process ([Engine.optimized]).  The law: that
   module prints as the whole linked module does after the pipeline. *)
let test_per_part_law () =
  let whole mode user =
    let m = Irmod.copy (Loader.link_libc ~shared:true (Loader.libc ()) user) in
    Engine.pipeline mode m;
    Irprint.module_to_string m
  in
  law_programs (fun what user ->
      List.iter
        (fun mode ->
          Alcotest.(check string) what (whole mode user)
            (Irprint.module_to_string (Engine.optimized mode user)))
        [ `FoldOnly; `SafeJit ])

(* The externs [Lower.lower] emits, by their first definition: the
   builtins, then each prototype of a function the unit does not define
   and no earlier extern names, in program order. *)
let reference_externs (prog : Ast.program) : Irmod.extern_decl list =
  let defined name =
    List.exists (function Ast.Gfunc f -> f.Ast.fn_name = name | _ -> false) prog
  in
  List.fold_left
    (fun externs g ->
      match g with
      | Ast.Gfundecl (name, fsig)
        when (not (defined name))
             && not (List.exists (fun e -> e.Irmod.e_name = name) externs) ->
        externs
        @ [ { Irmod.e_name = name;
              e_ret = Lower.ret_scalar Token.dummy_pos fsig.Ctype.ret;
              e_params =
                List.map (Lower.scalar_of_ctype Token.dummy_pos) fsig.Ctype.params;
              e_variadic = fsig.Ctype.variadic } ]
      | _ -> externs)
    (List.map
       (fun (name, ret, params, variadic) ->
         { Irmod.e_name = name; e_ret = ret; e_params = params; e_variadic = variadic })
       Lower.builtin_externs)
    prog

(* Names, signatures and order, as the module prints them. *)
let externs_text externs =
  Irprint.module_to_string { Irmod.globals = []; funcs = []; externs }

let test_extern_law () =
  let check what src =
    let prog = Parser.parse_string (Libc_src.prelude ^ src) in
    let expected = externs_text (reference_externs prog) in
    let m, _ = Lower.check_and_lower prog in
    Alcotest.(check string) what expected (externs_text m.Irmod.externs)
  in
  law_sources check;
  (* A repeated prototype, a prototype of a function the unit defines,
     a builtin (malloc) and a prelude function (strlen) declared again,
     and a variadic prototype nothing defines. *)
  check "hand-written prototypes"
    {|
int helper(int x);
int twice(int x);
int helper(int x);
void *malloc(size_t size);
size_t strlen(const char *s);
double scaled(double d, ...);
int twice(int x) { return 2 * x; }
int main(void) { return twice(3); }
|}

(* ---------------- CFG analyses ---------------- *)

(* A diamond with a loop:
     entry -> header; header -> body | exit; body -> left | right;
     left/right -> latch; latch -> header *)
let diamond_loop () : Irfunc.t =
  let b label term = { Irfunc.label; instrs = []; term } in
  let imm = Instr.ImmInt (1L, Irtype.I1) in
  mk_func
    ~blocks:
      [
        b "entry" (Instr.Br "header");
        b "header" (Instr.Condbr (imm, "body", "exit"));
        b "body" (Instr.Condbr (imm, "left", "right"));
        b "left" (Instr.Br "latch");
        b "right" (Instr.Br "latch");
        b "latch" (Instr.Br "header");
        b "exit" (Instr.Ret (Some (Irtype.I32, Instr.ImmInt (0L, Irtype.I32))));
      ]

let test_cfg_dominators () =
  let f = diamond_loop () in
  let info = Cfg.compute f in
  let idom l = Hashtbl.find_opt info.Cfg.idom l in
  Alcotest.(check (option string)) "header idom" (Some "entry") (idom "header");
  Alcotest.(check (option string)) "body idom" (Some "header") (idom "body");
  Alcotest.(check (option string)) "latch idom" (Some "body") (idom "latch");
  Alcotest.(check (option string)) "exit idom" (Some "header") (idom "exit");
  Alcotest.(check bool) "entry dominates all" true
    (Cfg.dominates info "entry" "latch");
  Alcotest.(check bool) "body does not dominate exit" false
    (Cfg.dominates info "body" "exit")

let test_cfg_dominance_frontier () =
  let f = diamond_loop () in
  let info = Cfg.compute f in
  let df l =
    List.sort compare (Option.value (Hashtbl.find_opt info.Cfg.df l) ~default:[])
  in
  (* left and right join at latch; the loop makes header its own frontier *)
  Alcotest.(check (list string)) "df(left)" [ "latch" ] (df "left");
  Alcotest.(check (list string)) "df(right)" [ "latch" ] (df "right");
  Alcotest.(check (list string)) "df(latch)" [ "header" ] (df "latch")

let test_cfg_natural_loops () =
  let f = diamond_loop () in
  let info = Cfg.compute f in
  match Cfg.natural_loops f info with
  | [ (header, body) ] ->
    Alcotest.(check string) "loop header" "header" header;
    Alcotest.(check (list string)) "loop body"
      [ "body"; "header"; "latch"; "left"; "right" ]
      (List.sort compare body)
  | loops -> Alcotest.failf "expected one loop, got %d" (List.length loops)

let test_cfg_unreachable_removal () =
  let b label term = { Irfunc.label; instrs = []; term } in
  let f =
    mk_func
      ~blocks:
        [
          b "entry" (Instr.Ret (Some (Irtype.I32, Instr.ImmInt (0L, Irtype.I32))));
          b "island" (Instr.Br "island2");
          b "island2" (Instr.Br "island");
        ]
  in
  Alcotest.(check bool) "reports the removal" true (Cfg.remove_unreachable f);
  Alcotest.(check (list string)) "islands removed" [ "entry" ]
    (List.map (fun (b : Irfunc.block) -> b.Irfunc.label) f.Irfunc.blocks);
  Alcotest.(check bool) "nothing left to remove" false (Cfg.remove_unreachable f)

(* ---------------- individual passes ---------------- *)

(* The pass tests compile units, most without [main]. *)
let compile src = Loader.compile_user ~main:false src

let count_instrs pred (m : Irmod.t) =
  List.fold_left
    (fun acc (f : Irfunc.t) ->
      let n = ref 0 in
      Irfunc.iter_instrs f (fun _ i -> if pred i then incr n);
      acc + !n)
    0 m.Irmod.funcs

let is_alloca = function Instr.Alloca _ -> true | _ -> false
let is_store = function Instr.Store _ -> true | _ -> false

let test_mem2reg_promotes_scalars () =
  let m = compile "int f(int a, int b) { int x = a + b; int y = x * 2; return y - a; }" in
  Alcotest.(check bool) "allocas before" true (count_instrs is_alloca m > 0);
  ignore (Mem2reg.run m);
  ignore (Dce.run ~semantics:`Ub m);
  Verify.verify m;
  Alcotest.(check int) "no allocas after" 0 (count_instrs is_alloca m)

let test_mem2reg_keeps_escaping () =
  let m = compile "void g(int *p) {} int f(void) { int x = 1; g(&x); return x; }" in
  ignore (Mem2reg.run m);
  Alcotest.(check bool) "escaping alloca kept" true (count_instrs is_alloca m > 0)

let test_fold_constants () =
  let m = compile "int f(void) { return (3 + 4) * 2 - 6; }" in
  ignore (Fold.run m);
  ignore (Dce.run ~semantics:`Ub m);
  let f = List.find (fun (f : Irfunc.t) -> f.Irfunc.name = "f") m.Irmod.funcs in
  match (Irfunc.entry f).Irfunc.term with
  | Instr.Ret (Some (_, Instr.ImmInt (8L, _))) -> ()
  | t -> Alcotest.fail ("expected folded ret 8, got " ^ Irprint.term_to_string t)

let test_fold_branch () =
  let m = compile "int f(void) { if (1 < 2) { return 10; } return 20; }" in
  ignore (Fold.run m);
  ignore (Simplifycfg.run m);
  Verify.verify m;
  let f = List.find (fun (f : Irfunc.t) -> f.Irfunc.name = "f") m.Irmod.funcs in
  Alcotest.(check int) "single block after folding" 1 (List.length f.Irfunc.blocks)

let test_dse_removes_dead_object_stores () =
  let m =
    compile
      "int f(int n) { int arr[10]; for (int i = 0; i < n; i++) { arr[i] = i; } return 0; }"
  in
  ignore (Mem2reg.run m);
  let stores_before = count_instrs is_store m in
  ignore (Dse.run m);
  Verify.verify m;
  Alcotest.(check bool) "dead stores removed" true
    (count_instrs is_store m < stores_before);
  Alcotest.(check int) "dead array removed with them" 0 (count_instrs is_alloca m)

let test_ubopt_deletes_dead_loop () =
  let m =
    compile "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return 0; }"
  in
  ignore (Pipeline.o3 m);
  Verify.verify m;
  let f = List.find (fun (f : Irfunc.t) -> f.Irfunc.name = "f") m.Irmod.funcs in
  Alcotest.(check int) "loop deleted to a single block" 1
    (List.length f.Irfunc.blocks)

let test_ubopt_removes_null_check_after_deref () =
  let m =
    compile
      "int f(int *p) { int v = *p; if (p == 0) { return -1; } return v; }"
  in
  (* value numbering comes from mem2reg, as in the real pipeline *)
  ignore (Mem2reg.run m);
  let before = count_instrs (function Instr.Icmp _ -> true | _ -> false) m in
  ignore (Ubopt.run m);
  ignore (Fold.run m);
  Verify.verify m;
  let after = count_instrs (function Instr.Icmp _ -> true | _ -> false) m in
  Alcotest.(check bool) "null check folded" true (after < before)

let test_backendfold_removes_constant_oob () =
  let m =
    compile "int count[7]; int main(void) { return count[7]; }"
  in
  let loads m = count_instrs (function Instr.Load _ -> true | _ -> false) m in
  Alcotest.(check bool) "load before" true (loads m > 0);
  ignore (Backendfold.run m);
  Verify.verify m;
  Alcotest.(check int) "constant OOB load deleted" 0 (loads m)

let test_backendfold_keeps_inbounds () =
  let m = compile "int count[7]; int main(void) { return count[6]; }" in
  ignore (Backendfold.run m);
  Alcotest.(check bool) "in-bounds load kept" true
    (count_instrs (function Instr.Load _ -> true | _ -> false) m > 0)

let test_simplifycfg_merges () =
  let m = compile "int f(void) { int x = 1; { int y = 2; x += y; } return x; }" in
  ignore (Mem2reg.run m);
  ignore (Simplifycfg.run m);
  Verify.verify m

(* A round that reports no change must have made none (the oracle's
   per-part law rests on it): dropping an unreachable block is a
   change. *)
let test_simplifycfg_reports_unreachable () =
  let ret0 = Instr.Ret (Some (Irtype.I32, Instr.ImmInt (0L, Irtype.I32))) in
  let f =
    mk_func
      ~blocks:
        [ { Irfunc.label = "entry"; instrs = []; term = ret0 };
          { Irfunc.label = "island"; instrs = []; term = ret0 } ]
  in
  Alcotest.(check bool) "run_func reports the removal" true
    (Simplifycfg.run_func f);
  Alcotest.(check (list string)) "island removed" [ "entry" ]
    (List.map (fun (b : Irfunc.block) -> b.Irfunc.label) f.Irfunc.blocks);
  Alcotest.(check bool) "a second run changes nothing" false
    (Simplifycfg.run_func f)

(* ---------------- differential property test ---------------- *)

(* Random well-defined C expression programs: every engine and pipeline
   must print the same output.  Shifts are masked and divisors forced
   nonzero so behaviour is defined identically everywhere. *)
let gen_expr rng max_depth =
  let vars = [ "a"; "b"; "c"; "d" ] in
  let rec go depth =
    if depth = 0 || Prng.int rng 100 < 25 then
      match Prng.int rng 3 with
      | 0 -> Prng.pick rng vars
      | 1 -> string_of_int (Prng.int rng 200 - 100)
      | _ -> Prng.pick rng vars
    else begin
      match Prng.int rng 12 with
      | 0 -> Printf.sprintf "(%s + %s)" (go (depth - 1)) (go (depth - 1))
      | 1 -> Printf.sprintf "(%s - %s)" (go (depth - 1)) (go (depth - 1))
      | 2 -> Printf.sprintf "(%s * %s)" (go (depth - 1)) (go (depth - 1))
      | 3 -> Printf.sprintf "(%s / %d)" (go (depth - 1)) (1 + Prng.int rng 9)
      | 4 -> Printf.sprintf "(%s %% %d)" (go (depth - 1)) (1 + Prng.int rng 9)
      | 5 -> Printf.sprintf "(%s & %s)" (go (depth - 1)) (go (depth - 1))
      | 6 -> Printf.sprintf "(%s | %s)" (go (depth - 1)) (go (depth - 1))
      | 7 -> Printf.sprintf "(%s ^ %s)" (go (depth - 1)) (go (depth - 1))
      | 8 -> Printf.sprintf "(%s << %d)" (go (depth - 1)) (Prng.int rng 8)
      | 9 -> Printf.sprintf "(%s >> %d)" (go (depth - 1)) (Prng.int rng 8)
      | 10 ->
        Printf.sprintf "(%s < %s ? %s : %s)" (go (depth - 1)) (go (depth - 1))
          (go (depth - 1)) (go (depth - 1))
      | _ -> Printf.sprintf "(- %s)" (go (depth - 1))
    end
  in
  go max_depth

let gen_program rng =
  let a = Prng.int rng 100 in
  let b = Prng.int rng 100 - 50 in
  let c = Prng.int rng 1000 in
  let d = Prng.int rng 100 in
  Printf.sprintf
    {|
int main(void) {
  int a = %d;
  int b = %d;
  long c = %d;
  unsigned int d = %du;
  long r0 = %s;
  long r1 = %s;
  long r2 = %s;
  int loop_sum = 0;
  for (int i = 0; i < 9; i++) {
    loop_sum += (int)((r0 + i) ^ (r1 - i));
    if (loop_sum > 100000) { loop_sum /= 3; }
  }
  printf("%%ld %%ld %%ld %%d\n", r0, r1, r2, loop_sum);
  return 0;
}
|}
    a b c d (gen_expr rng 4) (gen_expr rng 4) (gen_expr rng 4)

let run_output tool src =
  let r = Engine.run tool src in
  match r.Engine.outcome with
  | Outcome.Finished _ -> r.Engine.output
  | o -> "ABNORMAL: " ^ Outcome.to_string o

let test_differential_random_programs () =
  let rng = Prng.create 20180324 in
  for i = 1 to 25 do
    let src = gen_program rng in
    let reference = run_output (Engine.Clang Pipeline.O0) src in
    List.iter
      (fun (name, tool) ->
        let out = run_output tool src in
        if out <> reference then
          Alcotest.failf "program %d: %s output %S differs from O0 %S\nsource:\n%s"
            i name out reference src)
      [
        ("sulong", Engine.Safe_sulong);
        ("clang -O3", Engine.Clang Pipeline.O3);
        ("asan -O0", Engine.Asan Pipeline.O0);
        ("valgrind -O0", Engine.Valgrind Pipeline.O0);
      ]
  done

let test_safe_jit_preserves_behaviour () =
  let rng = Prng.create 99 in
  for _ = 1 to 10 do
    let src = gen_program rng in
    let m = Loader.load_program src in
    let st = Interp.create m in
    let r0 = Interp.run st in
    let m2 = Loader.load_program src in
    ignore (Pipeline.safe_jit m2);
    Verify.verify m2;
    let st2 = Interp.create m2 in
    let r2 = Interp.run st2 in
    Alcotest.(check string) "safe-jit output" r0.Interp.output r2.Interp.output;
    Alcotest.(check bool) "safe-jit executes fewer ops" true
      (r2.Interp.steps <= r0.Interp.steps)
  done

(* ---------------- inlining ---------------- *)

let test_inline_preserves_behaviour () =
  let rng = Prng.create 1234 in
  for _ = 1 to 8 do
    let src = gen_program rng in
    let reference = run_output (Engine.Clang Pipeline.O0) src in
    let m = Loader.load_program src in
    ignore (Inline.run m);
    Verify.verify m;
    let st = Interp.create m in
    let out = (Interp.run st).Interp.output in
    Alcotest.(check string) "inlined program agrees" reference out
  done

let test_inline_small_functions () =
  let m =
    compile
      {|
int sq(int x) { return x * x; }
int main(void) { return sq(3) + sq(4); }
|}
  in
  Alcotest.(check bool) "inlined something" true (Inline.run m);
  Verify.verify m;
  let main = List.find (fun (f : Irfunc.t) -> f.Irfunc.name = "main") m.Irmod.funcs in
  let calls = ref 0 in
  Irfunc.iter_instrs main (fun _ i ->
      match i with Instr.Call _ -> incr calls | _ -> ());
  Alcotest.(check int) "no calls remain in main" 0 !calls

let test_inline_skips_recursion_and_variadics () =
  let m =
    compile
      {|
int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
int main(void) { return fact(5); }
|}
  in
  ignore (Inline.run m);
  Verify.verify m;
  let main = List.find (fun (f : Irfunc.t) -> f.Irfunc.name = "main") m.Irmod.funcs in
  let calls = ref 0 in
  Irfunc.iter_instrs main (fun _ i ->
      match i with Instr.Call _ -> incr calls | _ -> ());
  Alcotest.(check bool) "recursive call kept" true (!calls >= 1)

let test_inlining_hides_more_bugs () =
  (* The P2 escalation: with inlining, a constant argument turns a
     dynamic OOB into a provably-constant one that the backend deletes —
     check and all.  Safe Sulong, executing front-end IR, still sees it. *)
  let src =
    {|
const char *errors[3] = {"ok", "warning", "fatal"};
const char *describe(int code) { return errors[code]; }
int main(void) {
  printf("%s\n", describe(3));
  return 0;
}
|}
  in
  (* without inlining: ASan -O3 finds the OOB (index unknown per function) *)
  let plain = Engine.run (Engine.Asan Pipeline.O3) src in
  Alcotest.(check bool) "found without inlining" true
    (Outcome.is_detected plain.Engine.outcome);
  (* with inlining + the same pipeline: the access folds away *)
  let m = Loader.compile_user src in
  ignore (Inline.run m);
  ignore (Pipeline.o3 m);
  ignore (Pipeline.backend m);
  Asan.instrument m;
  Verify.verify m;
  let mem = Mem.create () in
  let alloc = Alloc.create mem in
  let _, hooks = Asan.make ~mem ~alloc () in
  let st = Nexec.create ~hooks ~global_gap:32 ~mem ~alloc m in
  let r = Nexec.run st in
  Alcotest.(check bool) "missed with inlining" true (r.Nexec.report = None);
  (* and Safe Sulong still finds it regardless *)
  Alcotest.(check bool) "Safe Sulong unaffected" true
    (Outcome.is_detected (Engine.run Engine.Safe_sulong src).Engine.outcome)

(* ---------------- textual IR round trip ---------------- *)

(* The round trip restores everything the text carries: the whole
   module but source positions and [next_reg].  [compare], so that a
   NaN immediate equals itself; a float that lost bits, or a function
   address read back as a global's (both print as @name), does not. *)
let check_same_module (m : Irmod.t) (m' : Irmod.t) =
  let same a b = compare a b = 0 in
  if not (same m.Irmod.globals m'.Irmod.globals) then
    Alcotest.fail "round trip changed a global";
  if not (same m.Irmod.externs m'.Irmod.externs) then
    Alcotest.fail "round trip changed an extern";
  let view (f : Irfunc.t) =
    ( f.Irfunc.name, f.Irfunc.params, f.Irfunc.ret, f.Irfunc.variadic,
      List.map
        (fun (b : Irfunc.block) -> (b.Irfunc.label, b.Irfunc.instrs, b.Irfunc.term))
        f.Irfunc.blocks )
  in
  if List.length m.Irmod.funcs <> List.length m'.Irmod.funcs then
    Alcotest.fail "round trip changed the function count";
  List.iter2
    (fun f f' ->
      if not (same (view f) (view f')) then
        Alcotest.failf "round trip changed function %s" f.Irfunc.name)
    m.Irmod.funcs m'.Irmod.funcs

let roundtrip_module (m : Irmod.t) =
  let printed = Irprint.module_to_string m in
  let reparsed =
    try Irparse.parse printed
    with Irparse.Parse_error (line, msg) ->
      Alcotest.failf "parse error at line %d: %s\n%s" line msg printed
  in
  Verify.verify reparsed;
  let reprinted = Irprint.module_to_string reparsed in
  if printed <> reprinted then begin
    (* locate the first differing line for a readable failure *)
    let a = String.split_on_char '\n' printed in
    let b = String.split_on_char '\n' reprinted in
    let rec first_diff i = function
      | x :: xs, y :: ys ->
        if x <> y then Alcotest.failf "roundtrip line %d:\n  was: %s\n  got: %s" i x y
        else first_diff (i + 1) (xs, ys)
      | [], y :: _ -> Alcotest.failf "roundtrip extra line %d: %s" i y
      | x :: _, [] -> Alcotest.failf "roundtrip missing line %d: %s" i x
      | [], [] -> ()
    in
    first_diff 1 (a, b)
  end;
  check_same_module m reparsed;
  reparsed

let test_roundtrip_simple () =
  ignore
    (roundtrip_module
       (Loader.compile_user
          {|
struct pair { int a; long b; };
struct pair box = {1, 2};
double weights[3] = {0.5, 1.5, 2.5};
const char *label = "hi\n";
int helper(int x) { return x * 2; }
int (*fn)(int) = helper;
int main(void) {
  struct pair local;
  local.a = helper(box.a);
  switch (local.a) { case 2: return 1; default: return 0; }
}
|}))

let test_roundtrip_optimized () =
  (* phis, folded branches, the whole -O3 shape *)
  let m =
    Loader.compile_user
      {|
int loop(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { s += i * i; }
  return s;
}
int main(void) { return loop(10) & 0xff; }
|}
  in
  Pipeline.compile_native ~level:Pipeline.O3 m;
  ignore (roundtrip_module m)

let test_roundtrip_instrumented () =
  let m = Loader.compile_user "int main(void) { int a[3]; a[0] = 1; return a[0]; }" in
  Asan.instrument m;
  ignore (roundtrip_module m)

let test_roundtrip_full_program () =
  (* the libc-linked meteor module: ~everything the IR can express *)
  ignore (roundtrip_module (Loader.load_program Benchprogs.meteor.Benchprogs.b_source))

(* Every corpus program linked with the libc, every benchmark program
   at -O0 and -O3, an ASan-instrumented module and generated programs:
   the float constants of nbody and fasta and of most generated
   programs lost bits through the old decimal text. *)
let test_roundtrip_sweep () =
  List.iter
    (fun (p : Groundtruth.program) ->
      ignore (roundtrip_module (Loader.load_program p.Groundtruth.source)))
    Corpus.all;
  List.iter
    (fun (b : Benchprogs.bench) ->
      List.iter
        (fun level ->
          let m = Loader.compile_user b.Benchprogs.b_source in
          Pipeline.compile_native ~level m;
          ignore (roundtrip_module m))
        [ Pipeline.O0; Pipeline.O3 ])
    Benchprogs.all;
  let m = Loader.load_program Benchprogs.nbody.Benchprogs.b_source in
  Asan.instrument m;
  ignore (roundtrip_module m);
  for seed = 0 to 49 do
    ignore
      (roundtrip_module (Loader.compile_user (Cprog.render (Cgen.generate ~seed ()))))
  done

let test_parsed_ir_executes () =
  let src = {|
int main(void) {
  int total = 0;
  for (int i = 1; i <= 5; i++) { total += i; }
  printf("total=%d\n", total);
  return 0;
}
|} in
  let m = Loader.load_program src in
  let st = Interp.create m in
  let expected = (Interp.run st).Interp.output in
  let reparsed = Irparse.parse (Irprint.module_to_string (Loader.load_program src)) in
  let st2 = Interp.create reparsed in
  Alcotest.(check string) "reparsed module runs identically" expected
    (Interp.run st2).Interp.output

let test_parse_errors_have_lines () =
  let expect_error text =
    try
      ignore (Irparse.parse text);
      Alcotest.fail "expected parse error"
    with Irparse.Parse_error (line, _) ->
      Alcotest.(check bool) "line number positive" true (line >= 1)
  in
  expect_error "define i32 @f( {\n}";
  expect_error "@g = global i32 frog\n";
  expect_error "define i32 @f() {\nentry:\n  %1 = frobnicate i32 1\n  ret i32 %1\n}";
  (* each of these once escaped as a raw OCaml exception *)
  let in_body instrs =
    "define i32 @f() {\nentry:\n" ^ instrs ^ "\n  ret i32 0\n}\n"
  in
  expect_error (in_body "  %1 = icmp foo i32 1, i32 2");
  expect_error (in_body "  %1 = fcmp zzz double double 0x1p+0, double 0x1p+1");
  expect_error (in_body "  %1 = alloca i32\n  store i32 i32 x3, %1");
  expect_error (in_body "  %1 = fadd double double 1.x, double 0x1p+0");
  expect_error (in_body "  %1 = alloca [x x i32]");
  expect_error "%struct.s = type { i32 a @x } size 4 align 4\n";
  expect_error "@s = global [2 x i8] c\"\\999\"\n";
  (* the IR has no select instruction *)
  match Irparse.parse (in_body "  %1 = select i32 i1 1, i32 2, i32 3") with
  | _ -> Alcotest.fail "expected parse error for select"
  | exception Irparse.Parse_error (line, msg) ->
    Alcotest.(check (pair int string)) "select" (3, "unknown opcode \"select\"")
      (line, msg)

let gen_roundtrip_prop =
  QCheck.Test.make ~count:15 ~name:"random programs round-trip through text"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Prng.create seed in
      let m = Loader.compile_user (gen_program rng) in
      let printed = Irprint.module_to_string m in
      let reparsed = Irparse.parse printed in
      Irprint.module_to_string reparsed = printed)

(* Mutated [Irprint] output of corpus modules (words swapped, tokens
   deleted, lines truncated, bytes flipped) either parses or raises
   [Parse_error]; no other exception may escape. *)
let printed_corpus =
  lazy
    (Array.of_list
       (Irprint.module_to_string (Loader.libc_module ())
       :: List.concat_map
            (fun (p : Groundtruth.program) ->
              let m = Loader.compile_user p.Groundtruth.source in
              let o3_asan = Loader.compile_user p.Groundtruth.source in
              Pipeline.compile_native ~level:Pipeline.O3 o3_asan;
              Asan.instrument o3_asan;
              [ Irprint.module_to_string m; Irprint.module_to_string o3_asan ])
            Corpus.all))

let mutate rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let alphabet = "%@-+.,:;=[](){}\" \\x0123456789aeinpt" in
  for _ = 0 to Prng.int rng 3 do
    let i = Prng.int rng (Array.length lines) in
    let line = lines.(i) in
    let words = Array.of_list (String.split_on_char ' ' line) in
    let nw = Array.length words in
    let len = String.length line in
    lines.(i) <-
      (match Prng.int rng 4 with
      | 0 ->
        let a = Prng.int rng nw and b = Prng.int rng nw in
        let w = words.(a) in
        words.(a) <- words.(b);
        words.(b) <- w;
        String.concat " " (Array.to_list words)
      | 1 ->
        let k = Prng.int rng nw in
        String.concat " " (List.filteri (fun j _ -> j <> k) (Array.to_list words))
      | 2 -> String.sub line 0 (Prng.int rng (len + 1))
      | _ when len = 0 -> line
      | _ ->
        let b = Bytes.of_string line in
        Bytes.set b (Prng.int rng len)
          (if Prng.int rng 2 = 0 then Char.chr (Prng.int rng 256)
           else alphabet.[Prng.int rng (String.length alphabet)]);
        Bytes.to_string b)
  done;
  String.concat "\n" (Array.to_list lines)

let parse_fuzz_prop =
  QCheck.Test.make ~count:400 ~name:"mutated IR text: a module or Parse_error"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let texts = Lazy.force printed_corpus in
      let text = mutate rng texts.(Prng.int rng (Array.length texts)) in
      match Irparse.parse text with
      | _ | (exception Irparse.Parse_error _) -> true
      | exception e ->
        QCheck.Test.fail_reportf "%s escaped Irparse.parse" (Printexc.to_string e))

(* ---------------- one traversal per shape ---------------- *)

(* [map_values] and [map_term_values] must touch exactly the operands
   [uses_of] and [term_uses] list, and [Interp.iter_edges] exactly the
   successors [term_successors] lists: an instruction variant added to
   one traversal and missed in another fails here.  Over the
   libc-linked corpus modules, their -O3 and ASan-instrumented forms,
   and a program with a nine-case and a two-case switch. *)
let switch_program =
  {|
int big(int x) {
  switch (x) {
  case 0: return 10; case 1: return 11; case 2: return 12; case 3: return 13;
  case 4: return 14; case 5: return 15; case 6: return 16; case 7: return 17;
  case 9: return 19; default: return -1;
  }
}
int small(int x) { switch (x) { case 1: return 1; case 2: return 4; default: return 0; } }
int main(void) {
  int s = 0;
  for (int i = 0; i < 12; i++) s += big(i) + small(i);
  printf("%d\n", s);
  return 0;
}
|}

(* An injective map under which no value is its own image: every value
   becomes a global address named after it. *)
let tag (v : Instr.value) : Instr.value =
  let s = Irtype.scalar_to_string in
  Instr.GlobalAddr
    (match v with
    | Instr.Reg r -> Printf.sprintf "#r%d" r
    | Instr.ImmInt (x, t) -> Printf.sprintf "#i%s:%Ld" (s t) x
    | Instr.ImmFloat (x, t) -> Printf.sprintf "#f%s:%Lx" (s t) (Int64.bits_of_float x)
    | Instr.Null -> "#null"
    | Instr.GlobalAddr g -> "#g" ^ g
    | Instr.FuncAddr g -> "#F" ^ g)

let check_traversals (m : Irmod.t) =
  let same a b = compare a b = 0 in
  List.iter
    (fun (f : Irfunc.t) ->
      List.iter
        (fun (b : Irfunc.block) ->
          List.iter
            (fun i ->
              let mapped = Instr.map_values tag i in
              if Instr.uses_of mapped <> List.map tag (Instr.uses_of i)
                 || Instr.def_of mapped <> Instr.def_of i
                 || not (same (Instr.map_values Fun.id i) i)
              then
                Alcotest.failf "%s: map_values disagrees with uses_of on %s"
                  f.Irfunc.name (Irprint.instr_to_string i))
            b.Irfunc.instrs;
          let t = b.Irfunc.term in
          let mapped = Instr.map_term_values tag t in
          if Instr.term_uses mapped <> List.map tag (Instr.term_uses t)
             || Instr.term_successors mapped <> Instr.term_successors t
             || not (same (Instr.map_term_values Fun.id t) t)
          then
            Alcotest.failf "%s: map_term_values disagrees with term_uses on %s"
              f.Irfunc.name (Irprint.term_to_string t))
        f.Irfunc.blocks)
    m.Irmod.funcs;
  let st = Interp.create m in
  Hashtbl.iter
    (fun _ (pf : Interp.pfunc) ->
      (* [create] prepares no body; build each one to walk it *)
      Interp.prepare st pf;
      List.iteri
        (fun i (b : Irfunc.block) ->
          let reached = ref [] in
          Interp.iter_edges
            (fun (Interp.Edge (j, _)) ->
              reached := pf.Interp.pf_blocks.(j).Interp.pb_label :: !reached)
            pf.Interp.pf_blocks.(i).Interp.pb_term;
          let set = List.sort_uniq String.compare in
          if set !reached <> set (Instr.term_successors b.Irfunc.term) then
            Alcotest.failf "%s: iter_edges disagrees with term_successors at %s"
              pf.Interp.pf_name b.Irfunc.label)
        pf.Interp.pf_ir.Irfunc.blocks)
    st.Interp.funcs

let test_traversals_agree () =
  List.iter
    (fun src ->
      check_traversals (Loader.load_program src);
      let o3 = Loader.load_program src in
      Pipeline.compile_native ~level:Pipeline.O3 o3;
      check_traversals o3;
      let asan = Loader.load_program src in
      Asan.instrument asan;
      check_traversals asan)
    (switch_program
    :: List.map (fun (p : Groundtruth.program) -> p.Groundtruth.source) Corpus.all)

(* ---------------- heap-program fuzzing ---------------- *)

(* Random *valid* heap workloads: allocations with tracked sizes, only
   in-bounds accesses, resizes and frees.  Every engine must produce the
   same checksum — this exercises the allocators, managed object model,
   shadow redzones and quarantine on the happy path. *)
let gen_heap_program rng =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "int main(void) {\n  long checksum = 0;\n";
  let sizes = Array.make 6 0 in
  for v = 0 to 5 do
    let n = 1 + Prng.int rng 24 in
    sizes.(v) <- n;
    add "  int *a%d = (int *)%s;\n" v
      (if Prng.int rng 2 = 0 then Printf.sprintf "malloc(%d * sizeof(int))" n
       else Printf.sprintf "calloc(%d, sizeof(int))" n);
    add "  for (int i = 0; i < %d; i++) { a%d[i] = i * %d; }\n" n v (v + 1)
  done;
  for _ = 1 to 25 do
    let v = Prng.int rng 6 in
    let n = sizes.(v) in
    match Prng.int rng 4 with
    | 0 ->
      let i = Prng.int rng n in
      add "  a%d[%d] = a%d[%d] + %d;\n" v i v (Prng.int rng n) (Prng.int rng 100)
    | 1 -> add "  checksum += a%d[%d];\n" v (Prng.int rng n)
    | 2 ->
      (* grow (never shrink, so tracked indices stay valid) *)
      let n' = n + 1 + Prng.int rng 16 in
      sizes.(v) <- n';
      add "  a%d = (int *)realloc(a%d, %d * sizeof(int));\n" v v n';
      add "  for (int i = %d; i < %d; i++) { a%d[i] = i; }\n" n n' v
    | _ ->
      let fresh = 2 + Prng.int rng 20 in
      sizes.(v) <- fresh;
      add "  free(a%d);\n" v;
      add "  a%d = (int *)malloc(%d * sizeof(int));\n" v fresh;
      add "  for (int i = 0; i < %d; i++) { a%d[i] = i + %d; }\n" fresh v v
  done;
  for v = 0 to 5 do
    add "  for (int i = 0; i < %d; i++) { checksum += a%d[i]; }\n" sizes.(v) v;
    add "  free(a%d);\n" v
  done;
  add "  printf(\"%%ld\\n\", checksum);\n  return 0;\n}\n";
  Buffer.contents buf

let test_heap_fuzz_across_engines () =
  let rng = Prng.create 424242 in
  for i = 1 to 12 do
    let src = gen_heap_program rng in
    let reference = run_output (Engine.Clang Pipeline.O0) src in
    List.iter
      (fun (name, tool) ->
        let out = run_output tool src in
        if out <> reference then
          Alcotest.failf "heap program %d: %s output %S vs O0 %S\n%s" i name out
            reference src)
      [
        ("sulong", Engine.Safe_sulong);
        ("clang -O3", Engine.Clang Pipeline.O3);
        ("asan", Engine.Asan Pipeline.O0);
        ("valgrind", Engine.Valgrind Pipeline.O0);
      ]
  done

let test_o3_reduces_work () =
  let src = Benchprogs.fannkuchredux.Benchprogs.b_source in
  let o0 = Engine.run (Engine.Clang Pipeline.O0) src in
  let o3 = Engine.run (Engine.Clang Pipeline.O3) src in
  Alcotest.(check bool) "O3 executes fewer operations" true
    (o3.Engine.steps < o0.Engine.steps)

let () =
  Alcotest.run "ir+opt"
    [
      ( "verify",
        [
          Alcotest.test_case "undefined register" `Quick test_verify_undefined_reg;
          Alcotest.test_case "unknown block" `Quick test_verify_unknown_block;
          Alcotest.test_case "duplicate label" `Quick test_verify_duplicate_label;
          Alcotest.test_case "double definition" `Quick test_verify_double_def;
          Alcotest.test_case "unknown callee" `Quick test_verify_unknown_callee;
          Alcotest.test_case "unknown global" `Quick test_verify_unknown_global;
          Alcotest.test_case "unknown function address" `Quick
            test_verify_unknown_function_address;
          Alcotest.test_case "phi unknown block" `Quick
            test_verify_phi_unknown_block;
          Alcotest.test_case "operation types match the opcode's class" `Quick
            test_verify_type_classes;
          Alcotest.test_case "phi entry for every predecessor" `Quick
            test_verify_phi_predecessors;
          Alcotest.test_case "global initializers name known symbols" `Quick
            test_verify_global_initializers;
          Alcotest.test_case "global initializers fit their types" `Quick
            test_verify_initializer_layouts;
          Alcotest.test_case "operands have their use's class" `Quick
            test_verify_operand_classes;
          Alcotest.test_case "functions have blocks" `Quick
            test_verify_function_blocks;
          Alcotest.test_case "direct calls match the callee's signature" `Quick
            test_verify_call_signatures;
          Alcotest.test_case "duplicate function" `Quick
            test_verify_duplicate_function;
          Alcotest.test_case "canonical immediates" `Quick
            test_noncanonical_immediates;
          Alcotest.test_case "frontend output verifies" `Quick
            test_accepts_frontend_output;
          Alcotest.test_case "per-program check agrees with full verify" `Quick
            test_link_check_law;
          Alcotest.test_case "per-part pipeline agrees with the whole module"
            `Slow test_per_part_law;
        ] );
      ( "lower",
        [
          Alcotest.test_case "externs: builtins, then undefined prototypes"
            `Quick test_extern_law;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "dominators" `Quick test_cfg_dominators;
          Alcotest.test_case "dominance frontier" `Quick
            test_cfg_dominance_frontier;
          Alcotest.test_case "natural loops" `Quick test_cfg_natural_loops;
          Alcotest.test_case "unreachable removal" `Quick
            test_cfg_unreachable_removal;
        ] );
      ( "passes",
        [
          Alcotest.test_case "mem2reg promotes" `Quick test_mem2reg_promotes_scalars;
          Alcotest.test_case "mem2reg keeps escaping" `Quick
            test_mem2reg_keeps_escaping;
          Alcotest.test_case "constant folding" `Quick test_fold_constants;
          Alcotest.test_case "branch folding" `Quick test_fold_branch;
          Alcotest.test_case "dead-object store elimination" `Quick
            test_dse_removes_dead_object_stores;
          Alcotest.test_case "dead loop deletion" `Quick
            test_ubopt_deletes_dead_loop;
          Alcotest.test_case "null-check removal after deref" `Quick
            test_ubopt_removes_null_check_after_deref;
          Alcotest.test_case "backend folds constant OOB" `Quick
            test_backendfold_removes_constant_oob;
          Alcotest.test_case "backend keeps in-bounds" `Quick
            test_backendfold_keeps_inbounds;
          Alcotest.test_case "cfg simplification verifies" `Quick
            test_simplifycfg_merges;
          Alcotest.test_case "cfg simplification reports unreachable blocks"
            `Quick test_simplifycfg_reports_unreachable;
        ] );
      ( "inlining",
        [
          Alcotest.test_case "preserves behaviour" `Slow
            test_inline_preserves_behaviour;
          Alcotest.test_case "inlines small functions" `Quick
            test_inline_small_functions;
          Alcotest.test_case "skips recursion" `Quick
            test_inline_skips_recursion_and_variadics;
          Alcotest.test_case "hides more bugs under -O3 (P2)" `Quick
            test_inlining_hides_more_bugs;
          Alcotest.test_case "globaldce reaps inlined callees" `Quick
            (fun () ->
              let m =
                compile
                  {|
int sq(int x) { return x * x; }
int helper_unused(int x) { return x + 1; }
int main(void) { return sq(4); }
|}
              in
              ignore (Inline.run m);
              ignore (Globaldce.run m);
              Verify.verify m;
              Alcotest.(check (list string)) "only main survives" [ "main" ]
                (List.map (fun (f : Irfunc.t) -> f.Irfunc.name) m.Irmod.funcs));
        ] );
      ( "textual roundtrip",
        [
          Alcotest.test_case "globals+structs+switch" `Quick test_roundtrip_simple;
          Alcotest.test_case "optimized IR (phis)" `Quick test_roundtrip_optimized;
          Alcotest.test_case "instrumented IR" `Quick test_roundtrip_instrumented;
          Alcotest.test_case "full libc-linked module" `Quick
            test_roundtrip_full_program;
          Alcotest.test_case "parsed IR executes" `Quick test_parsed_ir_executes;
          Alcotest.test_case "errors carry line numbers" `Quick
            test_parse_errors_have_lines;
          QCheck_alcotest.to_alcotest gen_roundtrip_prop;
          Alcotest.test_case "structural round trip sweep" `Quick
            test_roundtrip_sweep;
          QCheck_alcotest.to_alcotest parse_fuzz_prop;
        ] );
      ( "traversals",
        [
          Alcotest.test_case "operand maps and edge walk agree with the views"
            `Quick test_traversals_agree;
        ] );
      ( "differential",
        [
          Alcotest.test_case "random programs agree across engines" `Slow
            test_differential_random_programs;
          Alcotest.test_case "safe-jit preserves behaviour" `Slow
            test_safe_jit_preserves_behaviour;
          Alcotest.test_case "heap fuzzing across engines" `Slow
            test_heap_fuzz_across_engines;
          Alcotest.test_case "-O3 reduces executed work" `Quick
            test_o3_reduces_work;
        ] );
    ]
