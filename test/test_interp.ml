(** Safe Sulong interpreter tests: the shared semantic battery, every
    error class of the paper, the varargs machinery, and engine limits. *)

let run ?(argv = [ "prog" ]) ?(input = "") src = Cases.sulong ~argv ~input src

let check_case (c : Cases.case) () =
  let r = run ~input:c.Cases.input c.Cases.src in
  (match r.Interp.error with
  | Some (_, msg) -> Alcotest.failf "%s: unexpected error: %s" c.Cases.name msg
  | None -> ());
  Alcotest.(check string) c.Cases.name c.Cases.expected r.Interp.output

let semantic_tests =
  List.map
    (fun (c : Cases.case) -> Alcotest.test_case c.Cases.name `Quick (check_case c))
    Cases.all

(* ---------------- error detection ---------------- *)

let expect_error ?(argv = [ "prog" ]) ?(input = "") category src () =
  let r = run ~argv ~input src in
  match r.Interp.error with
  | Some (got, _) ->
    Alcotest.(check string) "category" category (Merror.category_name got)
  | None -> Alcotest.failf "expected %s, program finished" category

let detection_tests =
  [
    Alcotest.test_case "stack overflow write" `Quick
      (expect_error "out-of-bounds"
         "int main(void) { int a[3]; a[3] = 1; return 0; }");
    Alcotest.test_case "stack underflow read" `Quick
      (expect_error "out-of-bounds"
         "int main(void) { int a[3]; int i = -1; return a[i]; }");
    Alcotest.test_case "heap overflow" `Quick
      (expect_error "out-of-bounds"
         "int main(void) { int *p = (int*)malloc(8); p[2] = 1; free(p); return 0; }");
    Alcotest.test_case "global overflow" `Quick
      (expect_error "out-of-bounds"
         "int g[2]; int main(int argc, char **argv) { return g[argc + 1]; }");
    Alcotest.test_case "main-args overflow" `Quick
      (expect_error "out-of-bounds"
         "int main(int argc, char **argv) { return argv[9] != 0; }");
    Alcotest.test_case "use-after-free" `Quick
      (expect_error "use-after-free"
         "int main(void) { int *p = (int*)malloc(4); free(p); return *p; }");
    Alcotest.test_case "double free" `Quick
      (expect_error "double-free"
         "int main(void) { int *p = (int*)malloc(4); free(p); free(p); return 0; }");
    Alcotest.test_case "invalid free of global" `Quick
      (expect_error "invalid-free"
         "int g; int main(void) { free(&g); return 0; }");
    Alcotest.test_case "invalid free of interior pointer" `Quick
      (expect_error "invalid-free"
         "int main(void) { char *p = (char*)malloc(8); free(p + 1); return 0; }");
    Alcotest.test_case "NULL read" `Quick
      (expect_error "null-dereference" "int main(void) { int *p = 0; return *p; }");
    Alcotest.test_case "NULL write" `Quick
      (expect_error "null-dereference"
         "int main(void) { int *p = 0; *p = 4; return 0; }");
    Alcotest.test_case "NULL through struct" `Quick
      (expect_error "null-dereference"
         "struct s { int v; }; int main(void) { struct s *p = 0; return p->v; }");
    Alcotest.test_case "NULL function pointer call" `Quick
      (expect_error "null-dereference"
         "int main(void) { int (*f)(void) = 0; return f(); }");
    Alcotest.test_case "missing vararg" `Quick
      (expect_error "out-of-bounds"
         {|int main(void) { printf("%d %d\n", 1); return 0; }|});
    Alcotest.test_case "printf %ld with int" `Quick
      (expect_error "out-of-bounds"
         {|int main(void) { int x = 1; printf("%ld\n", x); return 0; }|});
    Alcotest.test_case "division by zero" `Quick
      (expect_error "division-by-zero"
         "int main(int argc, char **argv) { return 10 / (argc - 1); }");
    Alcotest.test_case "free of forged pointer" `Quick
      (expect_error "invalid-free"
         "int main(void) { free((void*)0x12345); return 0; }");
    Alcotest.test_case "call through data pointer" `Quick
      (expect_error "type-violation"
         "int main(void) { int x = 1; int (*f)(void) = (int(*)(void))&x; return f(); }");
    Alcotest.test_case "deref of forged integer pointer" `Quick
      (expect_error "type-violation"
         "int main(void) { long v = 0x777777; int *p = (int*)v; return *p; }");
  ]

(* ---------------- error message quality ---------------- *)

let test_message_contents () =
  let r = run "int main(void) { int a[4]; a[4] = 1; return 0; }" in
  match r.Interp.error with
  | Some (_, msg) ->
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("mentions " ^ needle) true
          (Util.string_contains ~needle msg))
      [ "offset 16"; "16-byte"; "automatic"; "I32AutomaticArray"; "write" ]
  | None -> Alcotest.fail "expected an error"

let test_storage_in_messages () =
  let check src needle =
    let r = run src in
    match r.Interp.error with
    | Some (_, msg) ->
      Alcotest.(check bool) ("mentions " ^ needle) true
        (Util.string_contains ~needle msg)
    | None -> Alcotest.fail "expected error"
  in
  check "int main(void) { int *p = (int*)malloc(8); free(p); free(p); return 0; }"
    "twice";
  check "int g[2]; int main(int argc, char **argv) { return g[argc+1]; }" "static";
  check "int main(int argc, char **argv) { return argv[8] != 0; }" "main-arguments"

(* ---------------- pointer cookies through C ---------------- *)

let test_ptr_int_roundtrip_in_c () =
  let r =
    run
      {|
int main(void) {
  int x = 42;
  long cookie = (long)&x;
  int *p = (int *)cookie;
  printf("%d\n", *p);
  return 0;
}
|}
  in
  Alcotest.(check string) "roundtrip works" "42\n" r.Interp.output

(* ---------------- varargs machinery ---------------- *)

let test_count_and_get_varargs () =
  let r =
    run
      {|
int sum_all(int n, ...) {
  struct __varargs ap;
  __va_start(&ap);
  int total = 0;
  for (int i = 0; i < n; i++) {
    total += *(int *)__va_next(&ap);
  }
  __va_end(&ap);
  return total;
}
int main(void) {
  printf("%d %d\n", sum_all(3, 10, 20, 30), sum_all(0));
  return 0;
}
|}
  in
  (match r.Interp.error with
  | Some (_, m) -> Alcotest.fail m
  | None -> ());
  Alcotest.(check string) "user variadic function" "60 0\n" r.Interp.output

(* ---------------- pre-resolution edge cases ---------------- *)

(* Phi parallel-copy regression: LLVM phis are a parallel copy, so two
   same-block phis that read each other's registers must observe the
   *old* values.  The seed interpreter assigned phis sequentially, which
   collapses the classic swap loop (a,b = b,a) to (b,b).  The C front
   end never emits phis (locals are allocas), so the test builds the IR
   by hand — the same shape mem2reg produces for a swap loop. *)
let swap_phi_module () =
  (* regs: 0=a 1=b 2=i 3=i' 4=cond 5=a*10 6=a*10+b *)
  let imm v = Instr.ImmInt (Int64.of_int v, Irtype.I32) in
  let f =
    {
      Irfunc.name = "main";
      params = [];
      ret = Some Irtype.I32;
      variadic = false;
      blocks =
        [
          { Irfunc.label = "entry"; instrs = []; term = Instr.Br "loop" };
          {
            Irfunc.label = "loop";
            instrs =
              [
                Instr.Phi (0, Irtype.I32, [ ("entry", imm 1); ("loop", Instr.Reg 1) ]);
                Instr.Phi (1, Irtype.I32, [ ("entry", imm 2); ("loop", Instr.Reg 0) ]);
                Instr.Phi (2, Irtype.I32, [ ("entry", imm 0); ("loop", Instr.Reg 3) ]);
                Instr.Binop (3, Instr.Add, Irtype.I32, Instr.Reg 2, imm 1);
                Instr.Icmp (4, Instr.Islt, Irtype.I32, Instr.Reg 3, imm 3);
              ];
            term = Instr.Condbr (Instr.Reg 4, "loop", "done");
          };
          {
            Irfunc.label = "done";
            instrs =
              [
                Instr.Binop (5, Instr.Mul, Irtype.I32, Instr.Reg 0, imm 10);
                Instr.Binop (6, Instr.Add, Irtype.I32, Instr.Reg 5, Instr.Reg 1);
              ];
            term = Instr.Ret (Some (Irtype.I32, Instr.Reg 6));
          };
        ];
      next_reg = 7;
      src_pos = (0, 0);
      src_file = "<test>";
    }
  in
  let m = Irmod.create () in
  Irmod.add_func m f;
  m

let test_phi_parallel_copy () =
  (* after 3 parallel swaps of (1,2): a=1 b=2 -> 12; the sequential
     (buggy) execution returns 22 — interpreted, and with [main]
     compiled at its first call *)
  List.iter
    (fun tier ->
      let r = Interp.run (Interp.create ?tier (swap_phi_module ())) in
      Alcotest.(check int) "parallel swap survives the loop" 12 r.Interp.exit_code)
    [ None; Some (Tier.controller ~threshold:0 ()) ]

let test_unknown_symbol_call () =
  (* A direct call to a symbol that is neither a user function nor a
     builtin must raise the interpreter's clean "unknown builtin" error
     when (and only when) the call executes — not an unresolved-index
     crash when the caller is prepared and its calls linked. *)
  let f =
    {
      Irfunc.name = "main";
      params = [];
      ret = Some Irtype.I32;
      variadic = false;
      blocks =
        [
          {
            Irfunc.label = "entry";
            instrs =
              [ Instr.Call (Some 0, Some Irtype.I32, Instr.Direct "no_such_symbol", []) ];
            term = Instr.Ret (Some (Irtype.I32, Instr.Reg 0));
          };
        ];
      next_reg = 1;
      src_pos = (0, 0);
      src_file = "<test>";
    }
  in
  let m = Irmod.create () in
  Irmod.add_func m f;
  let st = Interp.create m in
  (* creating, and preparing [main] with its call linked, must not
     raise... *)
  match Interp.run st with
  | exception Failure msg ->
    (* ...while calling must fail with the pre-resolution-era message *)
    Alcotest.(check bool) ("clean message: " ^ msg) true
      (Util.string_contains ~needle:"unknown builtin no_such_symbol" msg)
  | _ -> Alcotest.fail "expected a Failure for the unknown symbol"

let test_unknown_symbol_never_called () =
  (* Same unknown symbol, but on a never-executed path: linking must not
     fail, and the program must finish normally. *)
  let imm v = Instr.ImmInt (Int64.of_int v, Irtype.I32) in
  let f =
    {
      Irfunc.name = "main";
      params = [];
      ret = Some Irtype.I32;
      variadic = false;
      blocks =
        [
          { Irfunc.label = "entry"; instrs = []; term = Instr.Condbr (imm 0, "dead", "out") };
          {
            Irfunc.label = "dead";
            instrs =
              [ Instr.Call (Some 0, Some Irtype.I32, Instr.Direct "no_such_symbol", []) ];
            term = Instr.Br "out";
          };
          { Irfunc.label = "out"; instrs = []; term = Instr.Ret (Some (Irtype.I32, imm 5)) };
        ];
      next_reg = 1;
      src_pos = (0, 0);
      src_file = "<test>";
    }
  in
  let m = Irmod.create () in
  Irmod.add_func m f;
  let r = Interp.run (Interp.create m) in
  Alcotest.(check int) "dead unknown call is harmless" 5 r.Interp.exit_code

(* Apart from a callee, everything a body names must exist: [prepare]
   defers no failure to run time, even on a path that never executes,
   and rejects what [Verify] rejects. *)
let test_unverified_body () =
  let imm v = Instr.ImmInt (Int64.of_int v, Irtype.I32) in
  let ret = Instr.Ret (Some (Irtype.I32, imm 5)) in
  let main blocks =
    let m = Irmod.create () in
    Irmod.add_func m
      { Irfunc.name = "main"; params = []; ret = Some Irtype.I32;
        variadic = false; blocks; next_reg = 1; src_pos = (0, 0);
        src_file = "<test>" };
    m
  in
  let dead_block ?(instrs = []) term =
    [ { Irfunc.label = "entry"; instrs = []; term = Instr.Condbr (imm 0, "dead", "out") };
      { Irfunc.label = "dead"; instrs; term };
      { Irfunc.label = "out"; instrs = []; term = ret } ]
  in
  List.iter
    (fun (what, m) ->
      (match Verify.verify m with
      | () -> Alcotest.failf "%s: verified" what
      | exception Verify.Invalid _ -> ());
      match Interp.run (Interp.create m) with
      | _ -> Alcotest.failf "%s: prepared" what
      | exception Invalid_argument _ -> ())
    [
      ("unknown block", main (dead_block (Instr.Br "nowhere")));
      ( "unknown global",
        main
          (dead_block
             ~instrs:[ Instr.Load (0, Irtype.I32, Instr.GlobalAddr "nope") ]
             ret) );
      ( "phi without an entry",
        main
          [ { Irfunc.label = "entry"; instrs = []; term = Instr.Br "out" };
            { Irfunc.label = "out";
              instrs = [ Instr.Phi (0, Irtype.I32, [ ("other", imm 1) ]) ];
              term = ret };
            { Irfunc.label = "other"; instrs = []; term = Instr.Br "out" } ] );
      ( "phi in the entry block",
        main
          [ { Irfunc.label = "entry";
              instrs = [ Instr.Phi (0, Irtype.I32, [ ("entry", imm 1) ]) ];
              term = ret } ] );
      ("no blocks", main []);
    ]

let test_never_executed_block () =
  let r =
    run
      {|
int main(int argc, char **argv) {
  if (argc > 100) { printf("dead\n"); return 9; }
  return 0;
}
|}
  in
  (match r.Interp.error with
  | Some (_, m) -> Alcotest.fail m
  | None -> ());
  Alcotest.(check string) "dead block not executed" "" r.Interp.output;
  Alcotest.(check int) "live path exit code" 0 r.Interp.exit_code

let check_output name src expected () =
  let r = run src in
  (match r.Interp.error with
  | Some (_, m) -> Alcotest.failf "%s: unexpected error: %s" name m
  | None -> ());
  Alcotest.(check string) name expected r.Interp.output

let test_switch_dense_small =
  check_output "switch dense, three cases"
    {|
int main(void) {
  int i;
  for (i = 0; i < 6; i++) {
    int v;
    switch (i) {
    case 0: v = 10; break;
    case 1: v = 20; break;
    case 2: v = 30; break;
    default: v = -1; break;
    }
    printf("%d ", v);
  }
  printf("\n");
  return 0;
}
|}
    "10 20 30 -1 -1 -1 \n"

let test_switch_sparse_small =
  check_output "switch sparse, three cases"
    {|
int main(void) {
  int keys[5] = { 1, 100, 1000, 7, 100 };
  int i;
  for (i = 0; i < 5; i++) {
    switch (keys[i]) {
    case 1: printf("a"); break;
    case 100: printf("b"); break;
    case 1000: printf("c"); break;
    default: printf("?"); break;
    }
  }
  printf("\n");
  return 0;
}
|}
    "abc?b\n"

let test_switch_dense_large =
  check_output "switch dense, ten cases"
    {|
int main(void) {
  int i;
  for (i = 0; i < 12; i++) {
    int v;
    switch (i) {
    case 0: v = 3; break;
    case 1: v = 6; break;
    case 2: v = 9; break;
    case 3: v = 12; break;
    case 4: v = 15; break;
    case 5: v = 18; break;
    case 6: v = 21; break;
    case 7: v = 24; break;
    case 8: v = 27; break;
    case 9: v = 30; break;
    default: v = -7; break;
    }
    printf("%d ", v);
  }
  printf("\n");
  return 0;
}
|}
    "3 6 9 12 15 18 21 24 27 30 -7 -7 \n"

let test_switch_sparse_large =
  check_output "switch sparse, ten cases"
    {|
int classify(int x) {
  switch (x) {
  case -100: return 1;
  case 3: return 2;
  case 17: return 3;
  case 29: return 4;
  case 51: return 5;
  case 777: return 6;
  case 1000: return 7;
  case 4096: return 8;
  case 65535: return 9;
  case -7: return 10;
  default: return 0;
  }
}
int main(void) {
  printf("%d %d %d %d %d\n",
         classify(-100), classify(777), classify(65535), classify(5),
         classify(-7));
  return 0;
}
|}
    "1 6 9 0 10\n"

let test_indirect_call_target_flip =
  (* An indirect call resolves the name its pointer carries at each
     call, so a target that changes on every iteration is called right
     each time. *)
  check_output "indirect call target flips each iteration"
    {|
int add1(int x) { return x + 1; }
int mul2(int x) { return x * 2; }
int main(void) {
  int (*fp)(int);
  int s = 0;
  int i;
  for (i = 0; i < 6; i++) {
    if (i % 2) fp = add1; else fp = mul2;
    s += fp(i);
  }
  printf("%d\n", s);
  return 0;
}
|}
    "24\n"

(* ---------------- single-precision rounding and NaN pinning -------- *)

(* Pins the float semantics every engine must share, bit-exactly:
   - F32 arithmetic rounds each result to binary32 (reverting the
     [Scalar.round_result] fix keeps the double-precision intermediate
     and changes the first printed line);
   - int-to-F32 conversion rounds ((float)16777217 is 2^24);
   - NaN comparison semantics: ordered comparisons are false, [!=] is
     true ([Scalar.fcmp]'s Fne on NaN);
   - float-to-int conversion is saturating with NaN -> 0
     ([Scalar.float_to_int]).
   Float values print as IEEE-754 bits through a double store, never
   through a decimal formatter. *)
let f32_nan_src =
  {|
int main(void) {
  float one = 1.0f;
  float three = 3.0f;
  float a = 16777216.0f + one;
  float q = one / three;
  int n = 16777217;
  float c = (float)n;
  double z = 0.0;
  double qn = z / z;
  double big = 1e300;
  double pa = (double)a;
  double pq = (double)q;
  double pc = (double)c;
  printf("%lx %lx %lx\n", *(unsigned long *)&pa, *(unsigned long *)&pq,
         *(unsigned long *)&pc);
  printf("%d %d %d %d %d %d\n", qn == qn, qn != qn, qn < qn, qn <= qn,
         qn > qn, qn >= qn);
  printf("%ld %ld %ld\n", (long)qn, (long)big, (long)(0.0 - big));
  return 0;
}
|}

let f32_nan_expected =
  "4170000000000000 3fd5555560000000 4170000000000000\n\
   0 1 0 0 0 0\n\
   0 9223372036854775807 -9223372036854775808\n"

let test_f32_nan_semantics () =
  let r = run f32_nan_src in
  (match r.Interp.error with
  | Some (_, m) -> Alcotest.failf "unexpected error: %s" m
  | None -> ());
  Alcotest.(check string) "interpreter output" f32_nan_expected r.Interp.output

(* The same source through every oracle configuration: interpreter,
   forced-hot tier, fold on/off, safe-jit, and the native pipeline at
   -O0/-O3 must all print the same bits. *)
let test_f32_nan_all_engines () =
  match Oracle.check ~expected:f32_nan_expected f32_nan_src with
  | Oracle.Agree out ->
    Alcotest.(check string) "agreed output" f32_nan_expected out
  | Oracle.Reject why -> Alcotest.failf "rejected: %s" why
  | Oracle.Diverge { mismatch; _ } -> Alcotest.failf "diverged: %s" mismatch

(* ---------------- limits ---------------- *)

let test_step_limit () =
  let r = Cases.sulong ~step_limit:10_000 "int main(void) { while (1) {} return 0; }" in
  Alcotest.(check bool) "timed out" true r.Interp.timed_out

let test_recursion_guard () =
  let r = run "int f(int n) { return f(n + 1); } int main(void) { return f(0); }" in
  match r.Interp.error with
  | Some (Merror.Stack_overflow_guard, _) -> ()
  | Some (_, m) -> Alcotest.fail ("wrong error: " ^ m)
  | None -> Alcotest.fail "expected stack overflow guard"

let test_leak_report () =
  let r = run "int main(void) { malloc(10); malloc(20); return 0; }" in
  Alcotest.(check int) "two leaks" 2 r.Interp.leaks

let test_exit_code () =
  let r = run "int main(void) { return 42; }" in
  Alcotest.(check int) "exit code" 42 r.Interp.exit_code;
  let r2 = run "int main(void) { exit(3); return 0; }" in
  Alcotest.(check int) "exit()" 3 r2.Interp.exit_code

let test_argv_passing () =
  let r =
    run ~argv:[ "prog"; "alpha"; "beta" ]
      {|
int main(int argc, char **argv) {
  printf("%d %s %s\n", argc, argv[1], argv[2]);
  return 0;
}
|}
  in
  Alcotest.(check string) "argv contents" "3 alpha beta\n" r.Interp.output

(* ---------------- preparation at first call ---------------- *)

let names_where p (st : Interp.state) =
  Hashtbl.fold
    (fun name pf acc -> if p pf then name :: acc else acc)
    st.Interp.funcs []
  |> List.sort_uniq String.compare

let prepared = names_where (fun pf -> pf.Interp.pf_prepared)

let entered =
  names_where (fun pf -> pf.Interp.pf_counters.Interp.c_invocations > 0)

(* The direct user callees of every function the tier controller
   compiled: the ones [Closcomp.plan_inlines] inspected. *)
let inspected_callees (st : Interp.state) =
  Hashtbl.fold
    (fun _ (pf : Interp.pfunc) acc ->
      match pf.Interp.pf_tier with
      | Interp.Tier_interp -> acc
      | Interp.Tier_compiled _ | Interp.Tier_deopt ->
        Array.fold_left
          (fun acc blk ->
            Array.fold_left
              (fun acc -> function
                | Interp.Pcall (_, Interp.Pdirect (Interp.Tgt_user c), _, _) ->
                  c.Interp.pf_name :: acc
                | _ -> acc)
              acc blk.Interp.pb_instrs)
          acc pf.Interp.pf_blocks)
    st.Interp.funcs []

(* [create] prepares no body; [run] prepares exactly the functions it
   enters, plus, under a threshold-0 tier controller, the direct callees
   the closure compiler inspected for inlining (a tiny inlined callee is
   prepared but never entered). *)
let test_prepare_at_first_call () =
  let inlined =
    {|
int sq(int x) { return x * x; }
int main(void) {
  int s = 0;
  for (int i = 0; i < 10; i++) s += sq(i);
  printf("%d\n", s);
  return 0;
}
|}
  in
  let programs =
    ("inlined callee", inlined, [])
    :: List.map
         (fun (p : Groundtruth.program) ->
           (p.Groundtruth.id, p.Groundtruth.source, p.Groundtruth.argv))
         Corpus.all
  in
  List.iter
    (fun (name, src, argv) ->
      let m = Loader.load_program src in
      List.iter
        (fun tiered ->
          let tier =
            if tiered then Some (Tier.controller ~threshold:0 ()) else None
          in
          let st = Interp.create ~step_limit:50_000_000 ?tier m in
          Alcotest.(check (list string)) (name ^ ": create") [] (prepared st);
          ignore (Interp.run ~argv st);
          let expected =
            if tiered then
              List.sort_uniq String.compare (entered st @ inspected_callees st)
            else entered st
          in
          Alcotest.(check (list string)) (name ^ ": run") expected (prepared st);
          if List.length expected >= Hashtbl.length st.Interp.funcs then
            Alcotest.failf "%s: every function was prepared" name)
        [ false; true ])
    programs;
  (* The inlined callee is the case the second clause is for: its body
     was prepared for the inliner, but it was never called (a called
     function would have been compiled at once at threshold 0). *)
  let st =
    Interp.create ~tier:(Tier.controller ~threshold:0 ())
      (Loader.load_program inlined)
  in
  ignore (Interp.run st);
  let sq = Hashtbl.find st.Interp.funcs "sq" in
  Alcotest.(check bool) "sq prepared" true sq.Interp.pf_prepared;
  Alcotest.(check bool) "sq never called" true
    (sq.Interp.pf_tier = Interp.Tier_interp)

(* [Engine.run] links every Safe Sulong program against the libc module
   itself, not a copy, so no run may rewrite it: before and after the 76
   [bugs] programs, interpreted and at threshold 0, the libc prints as
   a fresh front end of it does (whatever this process ran earlier). *)
let test_shared_libc_frozen () =
  let libc () = Irprint.module_to_string (Loader.libc_module_shared ()) in
  let fresh =
    Irprint.module_to_string
      (fst
         (Lower.frontend ~string_prefix:".libc.str" ~file:"<libc>"
            Libc_src.source))
  in
  Alcotest.(check string) "libc before the runs" fresh (libc ());
  List.iter
    (fun tier ->
      List.iter
        (fun (p : Groundtruth.program) ->
          List.iter
            (fun src ->
              ignore
                (Engine.run ~argv:p.Groundtruth.argv ~input:p.Groundtruth.input
                   ~step_limit:50_000_000 ?tier Engine.Safe_sulong src))
            (p.Groundtruth.source :: Option.to_list p.Groundtruth.fixed))
        Corpus.all)
    [ None; Some (Tier.controller ~threshold:0 ()) ];
  Alcotest.(check string) "libc after the runs" fresh (libc ())

let () =
  Alcotest.run "interp"
    [
      ("semantics", semantic_tests);
      ("detection", detection_tests);
      ( "messages",
        [
          Alcotest.test_case "message contents" `Quick test_message_contents;
          Alcotest.test_case "storage kinds" `Quick test_storage_in_messages;
        ] );
      ( "pointers+varargs",
        [
          Alcotest.test_case "ptr/int roundtrip" `Quick test_ptr_int_roundtrip_in_c;
          Alcotest.test_case "user variadic function" `Quick
            test_count_and_get_varargs;
        ] );
      ( "pre-resolution",
        [
          Alcotest.test_case "phi parallel copy (swap loop)" `Quick
            test_phi_parallel_copy;
          Alcotest.test_case "unknown symbol: clean error when called" `Quick
            test_unknown_symbol_call;
          Alcotest.test_case "unknown symbol: harmless when dead" `Quick
            test_unknown_symbol_never_called;
          Alcotest.test_case "unverified body: rejected when prepared" `Quick
            test_unverified_body;
          Alcotest.test_case "never-executed block" `Quick
            test_never_executed_block;
          Alcotest.test_case "switch dense small" `Quick test_switch_dense_small;
          Alcotest.test_case "switch sparse small" `Quick
            test_switch_sparse_small;
          Alcotest.test_case "switch dense large" `Quick test_switch_dense_large;
          Alcotest.test_case "switch sparse large" `Quick
            test_switch_sparse_large;
          Alcotest.test_case "indirect call target flips" `Quick
            test_indirect_call_target_flip;
          Alcotest.test_case "bodies are prepared at first call" `Quick
            test_prepare_at_first_call;
          Alcotest.test_case "runs leave the shared libc as it was" `Quick
            test_shared_libc_frozen;
        ] );
      ( "float semantics",
        [
          Alcotest.test_case "F32 rounding + NaN pinning" `Quick
            test_f32_nan_semantics;
          Alcotest.test_case "same bits in every engine" `Quick
            test_f32_nan_all_engines;
        ] );
      ( "limits",
        [
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "recursion guard" `Quick test_recursion_guard;
          Alcotest.test_case "leak report" `Quick test_leak_report;
          Alcotest.test_case "exit codes" `Quick test_exit_code;
          Alcotest.test_case "argv passing" `Quick test_argv_passing;
        ] );
    ]
