(** Tier-equivalence coverage: the closure-compiled tier must be
    observably bit-identical to the interpreter.

    The contract (DESIGN.md §9): for any program, running with a tier
    controller attached changes wall-clock only — output, exit status,
    error category, the provenance report's faulting C file:line:col,
    step counts, and difftest outcomes all stay exactly the same.  The
    sweep below forces every function hot ([threshold:0]) so the whole
    corpus executes closure-compiled, including the error paths that
    exercise deoptimization. *)

let step_limit = 50_000_000

(* [p] through the standard Safe Sulong pipeline, or after the safe-jit
   pipeline when [safe_jit]. *)
let load ?(safe_jit = false) (p : Groundtruth.program) : Irmod.t =
  let m = Loader.load_program p.Groundtruth.source in
  Pipeline.compile_sulong m;
  if safe_jit then begin
    ignore (Pipeline.safe_jit m);
    Verify.verify m
  end;
  m

(* Run [p]'s module [m], optionally with the tier controller forced hot
   so every function compiles at first call, or at the production
   threshold. *)
let run_module ?tier (p : Groundtruth.program) (m : Irmod.t) :
    Interp.run_result =
  let tier =
    match tier with
    | Some `Forced -> Some (Tier.controller ~threshold:0 ())
    | Some `Default -> Some (Tier.controller ())
    | None -> None
  in
  let st =
    Interp.create ~step_limit ~mementos:true ~input:p.Groundtruth.input ?tier m
  in
  Interp.run ~argv:p.Groundtruth.argv st

let run_program ?tier p = run_module ?tier p (load p)

(* The per-function counters of [run_profile], one line per function in
   name order, every kind's count by name.  Both tiers charge every
   operation to the same kind counter (the interpreter's charge,
   [Closcomp.charge]), so these agree exactly; the tier controller's
   hotness policy and the cost model read them. *)
let counters (r : Interp.run_result) : string =
  Hashtbl.fold (fun name c acc -> (name, c) :: acc)
    r.Interp.run_profile.Interp.funcs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, (c : Interp.counters)) ->
         Printf.sprintf "%s %s invocations=%d" name
           (String.concat " "
              (List.mapi
                 (fun k n -> Printf.sprintf "%s=%d" Interp.kind_names.(k) n)
                 (Array.to_list c.Interp.c_kinds)))
           c.Interp.c_invocations)
  |> String.concat "\n"

(* Everything the paper's reports surface, flattened for comparison,
   plus the per-function counters.  [report] is reduced to the rendered
   text, which covers the error kind, the faulting C file:line:col, the
   bounds detail and the managed stack.  The flight-recorder section is
   blanked: engine events (tier-up, deopt) intentionally differ across
   tiers — the equivalence contract covers guest-observable behavior
   only. *)
let observe (r : Interp.run_result) : string =
  let error =
    match r.Interp.error with
    | None -> "ok"
    | Some (cat, msg) -> Merror.category_name cat ^ ": " ^ msg
  in
  let report =
    match r.Interp.report with
    | None -> "<no report>"
    | Some rep -> Bugreport.render { rep with Bugreport.br_events = [] }
  in
  Printf.sprintf
    "exit=%d timed_out=%b steps=%d leaks=%d error=%s\noutput:\n%s\nreport:\n%s\ncounters:\n%s"
    r.Interp.exit_code r.Interp.timed_out r.Interp.steps r.Interp.leaks error
    r.Interp.output report (counters r)

(* Kind-sum law: every charged operation counts once, into one kind
   counter of one function, so a run's counters summed over every kind
   and function equal its [steps] — on a finished run, a managed error
   and a timeout alike, in either tier.  Checked on every run of the
   corpus sweeps and of the step-limit law. *)
let check_kind_sum what (r : Interp.run_result) =
  let total =
    Hashtbl.fold
      (fun _ c acc -> acc + Interp.total_ops c)
      r.Interp.run_profile.Interp.funcs 0
  in
  Alcotest.(check int) (what ^ ": kind counts sum to steps") r.Interp.steps total

(* Both tiers agree on [p]; the tiered run. *)
let check_program ?(tier = `Forced) ?safe_jit (p : Groundtruth.program) =
  let m = load ?safe_jit p in
  let interp = run_module p m and tiered = run_module ~tier p m in
  check_kind_sum p.Groundtruth.id interp;
  check_kind_sum (p.Groundtruth.id ^ ", tiered") tiered;
  Alcotest.(check string) ("tier equivalence: " ^ p.Groundtruth.id)
    (observe interp) (observe tiered);
  tiered

let check_programs ?tier ps =
  List.iter (fun p -> ignore (check_program ?tier p)) ps

(* ---------------- whole-corpus sweep ---------------- *)

(* Every corpus program contains a real memory error, so this sweep
   exercises the deopt path (a compiled body raises a managed error and
   reports it itself) on all 68 bugs and the clean warm path on the
   repaired variants. *)
let fixed_programs =
  List.filter_map
    (fun p ->
      Option.map
        (fun src ->
          { p with Groundtruth.id = p.Groundtruth.id ^ "/fixed"; source = src })
        p.Groundtruth.fixed)
    Corpus.all

let test_corpus_sweep () = check_programs Corpus.all
let test_fixed_sweep () = check_programs fixed_programs

(* The front end emits no phi, so the sweeps above run no phi edge in
   compiled code.  After the safe-jit pipeline (mem2reg) the linked
   modules hold tens of thousands of phis, and at threshold 0 their
   edges run through the compiled boxed parallel copy: on the bugs'
   error paths (a compiled report, then deopt) and on the repaired
   variants' clean runs. *)
let test_safe_jit_sweep () =
  let phi_copies =
    List.fold_left
      (fun acc p ->
        let r = check_program ~safe_jit:true p in
        Hashtbl.fold
          (fun _ c acc -> acc + c.Interp.c_kinds.(Interp.k_phi))
          r.Interp.run_profile.Interp.funcs acc)
      0 (Corpus.all @ fixed_programs)
  in
  if phi_copies = 0 then Alcotest.fail "no phi edge ran after safe-jit"

(* ---------------- tier-up really happens ---------------- *)

let test_tier_actually_compiles () =
  let p = List.hd Corpus.all in
  let compiles = Metrics.counter "jit.compiles" in
  let before = compiles.Metrics.c_value in
  ignore (run_program ~tier:`Forced p);
  if compiles.Metrics.c_value <= before then
    Alcotest.fail "forced-hot run compiled no function"

let test_deopt_fires_on_managed_error () =
  (* Every corpus bug raises a managed error; with every function
     forced hot the raise happens inside a compiled body, so the
     deopt counter must move. *)
  let p = List.hd Corpus.all in
  let deopts = Metrics.counter "events.deopt" in
  let before = deopts.Metrics.c_value in
  let r = run_program ~tier:`Forced p in
  (match r.Interp.error with
  | Some _ -> ()
  | None -> Alcotest.fail "corpus program unexpectedly ran clean");
  if deopts.Metrics.c_value <= before then
    Alcotest.fail "managed error in compiled code did not deoptimize"

(* A host builtin called with fewer arguments than it reads, through a
   cast function pointer, is a managed type violation with the same
   report in both tiers, not an escaped host exception. *)
let test_builtin_arity_error () =
  let p =
    { (List.hd Corpus.all) with
      Groundtruth.id = "builtin arity";
      source =
        "double __sulong_sqrt(double);\n\
         int main(void) {\n\
        \  double (*fp)(void) = (double (*)(void))__sulong_sqrt;\n\
        \  return (int)fp();\n\
         }\n";
      argv = [ "prog" ];
      input = "" }
  in
  let r = check_program p in
  Alcotest.(check (option (pair string string))) "error"
    (Some
       ( "type-violation",
         "type violation: __sulong_sqrt called with 0 arguments, it reads 1 \
          (in function main)" ))
    (Option.map (fun (cat, msg) -> (Merror.category_name cat, msg)) r.Interp.error)

(* The production threshold must leave short programs un-tiered: the
   controller's hotness check is the shared [Hotness] policy. *)
let test_default_threshold_stays_cold () =
  let compiles = Metrics.counter "jit.compiles" in
  let before = compiles.Metrics.c_value in
  let p = List.hd Corpus.all in
  let m = Loader.load_program p.Groundtruth.source in
  Pipeline.compile_sulong m;
  let st =
    Interp.create ~step_limit ~mementos:true ~input:p.Groundtruth.input
      ~tier:(Tier.controller ()) m
  in
  ignore (Interp.run ~argv:p.Groundtruth.argv st);
  Alcotest.(check int) "no compiles below the 1M-op threshold" before
    compiles.Metrics.c_value

(* ---------------- single-precision rounding and NaN pinning -------- *)

(* The closure-compiled tier goes through [Closcomp], whose float ops
   must round F32 results to binary32 exactly like the interpreter
   ([Scalar.round_result]).  This pins the reproducers from
   test_interp.ml on the forced-hot path: 16777216.0f + 1.0f, an F32
   division whose double intermediate differs, (float)16777217, NaN
   comparison truth table, and saturating float-to-int. *)
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

let test_f32_nan_tiered () =
  let m = Loader.load_program f32_nan_src in
  Pipeline.compile_sulong m;
  let st =
    Interp.create ~step_limit ~mementos:true ~input:""
      ~tier:(Tier.controller ~threshold:0 ()) m
  in
  let r = Interp.run ~argv:[ "prog" ] st in
  (match r.Interp.error with
  | Some (_, m) -> Alcotest.failf "unexpected error: %s" m
  | None -> ());
  Alcotest.(check string) "tiered output" f32_nan_expected r.Interp.output

(* ---------------- on-stack replacement ---------------- *)

(* A single long [main] invocation: with a low (but non-zero) threshold
   the function is cold at its only call, becomes hot inside the loop,
   and the interpreter's loop-header probe must transfer the live frame
   into the compiled register files mid-iteration (DESIGN.md §11).  The
   observable results must match a plain interpreter run exactly. *)
let osr_src =
  {|
int main(void) {
  long s = 0;
  double f = 1.0;
  for (int i = 0; i < 200000; i++) {
    s += i & 7;
    f = f + 0.5;
  }
  printf("%ld %f\n", s, f);
  return 0;
}
|}

let run_src ?tier ?detect_uninit ?(argv = [ "prog" ]) (src : string) :
    Interp.run_result =
  let m = Loader.load_program src in
  Pipeline.compile_sulong m;
  let st =
    Interp.create ~step_limit ~mementos:true ?detect_uninit ~input:"" ?tier m
  in
  Interp.run ~argv st

let test_osr_fires_and_matches () =
  let osr = Metrics.counter "events.osr_enter" in
  let before = osr.Metrics.c_value in
  let interp = observe (run_src osr_src) in
  Alcotest.(check int) "interp run never OSRs" before osr.Metrics.c_value;
  let tiered =
    observe (run_src ~tier:(Tier.controller ~threshold:1000 ()) osr_src)
  in
  if osr.Metrics.c_value <= before then
    Alcotest.fail "hot loop in a single invocation did not OSR";
  Alcotest.(check string) "OSR run bit-identical" interp tiered

(* ---------------- deoptimization out of unboxed frames ---------------- *)

(* The callee's registers classify into the unboxed float file and its
   locals scalar-replace into virtual slots; the out-of-bounds access at
   the end then raises a managed error from inside the compiled body.
   Error category, faulting C source position, step count and the
   provenance report must be what the interpreter produces. *)
let float_deopt_src =
  {|
double kernel(double *a, int n, int i) {
  double s = 0.0;
  float t = 1.5f;
  for (int j = 0; j < n; j++) {
    s = s + a[j] * t;
    t = t * 2.0f;
  }
  return s + a[i];
}
int main(void) {
  double a[4];
  for (int k = 0; k < 4; k++) a[k] = k * 0.5;
  printf("%f\n", kernel(a, 4, 7));
  return 0;
}
|}

let test_deopt_from_float_frame () =
  let deopts = Metrics.counter "events.deopt" in
  let interp = observe (run_src float_deopt_src) in
  let before = deopts.Metrics.c_value in
  let tiered =
    observe (run_src ~tier:(Tier.controller ~threshold:0 ()) float_deopt_src)
  in
  if deopts.Metrics.c_value <= before then
    Alcotest.fail "error in compiled float kernel did not deoptimize";
  Alcotest.(check string) "deopt out of unboxed-float frame" interp tiered

(* Same shape, but the error fires after the loop made [main] hot — so
   the failing frame is one the interpreter handed over mid-loop via
   OSR, not one built by a compiled entry. *)
let osr_deopt_src =
  {|
int main(void) {
  int a[8];
  int s = 0;
  for (int i = 0; i < 8; i++) a[i] = i;
  for (int i = 0; i < 100000; i++) s += i & 3;
  return a[s / 10000] + (s & 1);
}
|}

let test_deopt_from_osr_frame () =
  let osr = Metrics.counter "events.osr_enter" in
  let deopts = Metrics.counter "events.deopt" in
  let interp = observe (run_src osr_deopt_src) in
  let o0 = osr.Metrics.c_value and d0 = deopts.Metrics.c_value in
  let tiered =
    observe (run_src ~tier:(Tier.controller ~threshold:1000 ()) osr_deopt_src)
  in
  if osr.Metrics.c_value <= o0 then Alcotest.fail "loop never OSR'd";
  if deopts.Metrics.c_value <= d0 then
    Alcotest.fail "error after OSR did not deoptimize";
  Alcotest.(check string) "deopt out of an OSR'd loop" interp tiered

(* ---------------- scalar-replaced slots keep allocation ids ----------- *)

(* Pointer-to-integer casts expose object ids through cookies, so if the
   compiled tier virtualized the [x]/[y] allocas without consuming their
   allocation ids (Mobject.fresh_id), the malloc'd object would take a
   different id than under the interpreter and the printed cookie (and
   the error report for the out-of-bounds store) would differ. *)
let slot_id_src =
  {|
int f(void) {
  int x = 5;
  int *p = malloc(3 * sizeof(int));
  int y = 2;
  printf("%ld\n", (long)p);
  p[x] = y;
  return 0;
}
int main(void) { return f(); }
|}

let test_slot_allocation_ids () =
  let interp = observe (run_src slot_id_src) in
  let tiered =
    observe (run_src ~tier:(Tier.controller ~threshold:0 ()) slot_id_src)
  in
  Alcotest.(check string) "allocation-id sequence survives slots" interp tiered;
  Alcotest.(check string) "allocation-id sequence of real objects" interp
    (observe (run_src ~detect_uninit:true slot_id_src))

(* ---------------- slots replay the memory round trip ---------------- *)

(* Stores C code never makes: values wider than the slot ([Verify]
   checks classes, not widths), a double into a float slot, and a
   pointer into an i64 slot, whose cookie registration lets [%8], one
   object past [%4], reach [%5].  Exits with 15 when each of the four
   round trips holds. *)
let wide_stores_ir =
  {|define i32 @main() {
entry:
  %0 = alloca i8
  %1 = alloca i16
  %2 = alloca float
  %3 = alloca i64
  %4 = alloca i32
  %5 = alloca i32
  %29 = add i32 i32 200, i32 100
  store i8 %29, %0
  store i16 i32 70000, %1
  store float double 0x1.0000001p+0, %2
  store i64 %5, %3
  store i32 i32 2, %5
  %6 = ptrtoint ptr %4 to i64
  %7 = add i64 %6, i64 4294967296
  %8 = inttoptr i64 %7 to ptr
  store i32 i32 7, %8
  %9 = load i8, %0
  %10 = sext i8 %9 to i32
  %11 = icmp eq i32 %10, i32 44
  %12 = load i16, %1
  %13 = sext i16 %12 to i32
  %14 = icmp eq i32 %13, i32 4464
  %15 = load float, %2
  %16 = fcmp oeq float %15, float 0x1p+0
  %17 = load i32, %5
  %18 = icmp eq i32 %17, i32 7
  %19 = zext i1 %11 to i32
  %20 = zext i1 %14 to i32
  %21 = zext i1 %16 to i32
  %22 = zext i1 %18 to i32
  %23 = shl i32 %20, i32 1
  %24 = shl i32 %21, i32 2
  %25 = shl i32 %22, i32 3
  %26 = or i32 %19, %23
  %27 = or i32 %26, %24
  %28 = or i32 %27, %25
  ret i32 %28
}
|}

(* Both tiers run the slots [Interp.prepare] plans, so the sweeps that
   compare the tiers check nothing about the replay.  Under
   [detect_uninit] the plan is off and every alloca is a real object:
   each program runs the same in both states (output, steps, exit,
   error, report frames and counters: [observe]), interpreted and
   tiered at threshold 0 and at the production threshold.  The
   programs: the corpus, the compute programs, [Tier_faults.edges]
   (the OSR fault of [Tier_faults.all] reads memory it never wrote)
   and [wide_stores_ir]. *)
let test_slot_law () =
  let programs =
    List.map
      (fun (p : Groundtruth.program) ->
        (p.Groundtruth.id, (fun () -> load p), p.Groundtruth.argv, p.Groundtruth.input))
      (Corpus.all @ fixed_programs)
    @ List.map
        (fun (name, src) -> (name, (fun () -> Loader.load_program src), [ "prog" ], ""))
        (List.map
           (fun (b : Benchprogs.bench) -> (b.Benchprogs.b_name, b.Benchprogs.b_source))
           (Benchprogs.binarytrees :: Benchprogs.perf_suite)
        @ Tier_faults.edges)
    @ [
        ( "wide stores (IR)",
          (fun () ->
            let m = Irparse.parse wide_stores_ir in
            Verify.verify m;
            m),
          [ "prog" ],
          "" );
      ]
  in
  List.iter
    (fun (name, load, argv, input) ->
      let m = load () in
      List.iter
        (fun (what, tier) ->
          let run detect_uninit =
            observe
              (Interp.run ~argv
                 (Interp.create ~step_limit ~mementos:true ~detect_uninit ~input
                    ?tier:(tier ()) m))
          in
          Alcotest.(check string) (name ^ ", " ^ what) (run true) (run false))
        [
          ("interpreted", fun () -> None);
          ("threshold 0", fun () -> Some (Tier.controller ~threshold:0 ()));
          ("default threshold", fun () -> Some (Tier.controller ()));
        ])
    programs

(* ---------------- compiled-body cache across reset ---------------- *)

(* [Interp.reset] must preserve [pf_tier] (the compiled-body cache): a
   second run replays bit-identically without recompiling anything. *)
let test_reset_keeps_compiled_bodies () =
  let compiles = Metrics.counter "jit.compiles" in
  let m = Loader.load_program osr_src in
  Pipeline.compile_sulong m;
  let st =
    Interp.create ~step_limit ~mementos:true ~input:""
      ~tier:(Tier.controller ~threshold:0 ()) m
  in
  let first = observe (Interp.run ~argv:[ "prog" ] st) in
  let after_first = compiles.Metrics.c_value in
  Interp.reset st;
  let second = observe (Interp.run ~argv:[ "prog" ] st) in
  Alcotest.(check int) "no recompilation after reset" after_first
    compiles.Metrics.c_value;
  Alcotest.(check string) "cached body replays bit-identically" first second

(* ---------------- guest profiler across tiers ---------------- *)

(* The profiler's two laws (DESIGN.md §13), pinned on real programs:

   1. Conservation: the folded stacks and the per-function table sum to
      exactly the engine's final step counter — no step unattributed,
      none double-counted.
   2. Cross-tier agreement: per-function attribution from a forced-hot
      tiered run is bit-identical to the interpreter's (both tiers
      charge calls to the caller, returns to the callee, and edge phi
      copies to the predecessor block). *)

let profile_src =
  {|
int cmp(int a, int b) { return a - b; }
int work(int n) {
  int s = 0;
  for (int i = 0; i < n; i++)
    s += cmp(i, n - i);
  return s;
}
int main(void) {
  long t = 0;
  for (int r = 0; r < 50; r++)
    t += work(100);
  printf("%ld\n", t);
  return 0;
}
|}

let run_profiled ?tier (src : string) : Profile.t * Interp.run_result =
  let m = Loader.load_program src in
  Pipeline.compile_sulong m;
  let prof = Profile.create () in
  let st =
    Interp.create ~step_limit ~mementos:true ~input:"" ?tier ~profile:prof m
  in
  let r = Interp.run ~argv:[ "prog" ] st in
  (prof, r)

let folded_sum (folded : string) : int =
  String.split_on_char '\n' folded
  |> List.fold_left
       (fun acc line ->
         match String.rindex_opt line ' ' with
         | None -> acc
         | Some i -> (
           match
             int_of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1))
           with
           | Some n -> acc + n
           | None -> acc))
       0

let func_table (p : Profile.t) : (string * int * int) list =
  List.map
    (fun fs -> (fs.Profile.fs_name, fs.Profile.fs_steps, fs.Profile.fs_calls))
    (Profile.by_function p)

let test_profile_conservation () =
  let check_engine what tier =
    let prof, r = run_profiled ?tier profile_src in
    (match r.Interp.error with
    | Some (_, m) -> Alcotest.failf "%s: unexpected error: %s" what m
    | None -> ());
    Alcotest.(check int)
      (what ^ ": folded sums == engine steps")
      r.Interp.steps
      (folded_sum (Profile.folded prof));
    Alcotest.(check int)
      (what ^ ": tree total == engine steps")
      r.Interp.steps (Profile.total_steps prof)
  in
  check_engine "interp" None;
  check_engine "tiered" (Some (Tier.controller ~threshold:0 ()))

let test_profile_tier_agreement () =
  let compiles = Metrics.counter "jit.compiles" in
  let before = compiles.Metrics.c_value in
  let pi, ri = run_profiled profile_src in
  let pt, rt =
    run_profiled ~tier:(Tier.controller ~threshold:0 ()) profile_src
  in
  if compiles.Metrics.c_value <= before then
    Alcotest.fail "forced-hot profiled run compiled nothing";
  Alcotest.(check int) "step counters agree" ri.Interp.steps rt.Interp.steps;
  Alcotest.(check (list (triple string int int)))
    "per-function attribution bit-identical" (func_table pi) (func_table pt);
  Alcotest.(check string) "folded stacks bit-identical"
    (Profile.folded pi) (Profile.folded pt)

(* The whole corpus, profiled under both tiers: conservation must hold
   even when the run ends in a managed error (the error path finalizes
   the books mid-frame), and the attribution must still agree. *)
let test_profile_corpus_agreement () =
  List.iter
    (fun (p : Groundtruth.program) ->
      let run ?tier () =
        let m = Loader.load_program p.Groundtruth.source in
        Pipeline.compile_sulong m;
        let prof = Profile.create () in
        let st =
          Interp.create ~step_limit ~mementos:true ~input:p.Groundtruth.input
            ?tier ~profile:prof m
        in
        let r = Interp.run ~argv:p.Groundtruth.argv st in
        (prof, r)
      in
      let pi, ri = run () in
      let pt, _ = run ~tier:(Tier.controller ~threshold:0 ()) () in
      Alcotest.(check int)
        (p.Groundtruth.id ^ ": conservation under error")
        ri.Interp.steps (Profile.total_steps pi);
      Alcotest.(check (list (triple string int int)))
        (p.Groundtruth.id ^ ": attribution agrees")
        (func_table pi) (func_table pt))
    Corpus.all

(* ---------------- the step charge's two observables ---------------- *)

(* Every compiled operation charges one step and one per-function
   counter, and checks the step limit.  A charge to the wrong counter or
   a limit check one step off changes no program output, so three laws
   pin them on the compute programs (binarytrees and the perf suite, as
   loaded and after safe-jit), under three controllers: every function
   compiled at its first call, OSR after 1000 operations, and the
   production threshold.

   - Step-limit law: at limits of k/7 of the full run (k = 1..6) and
     one above it, the tiered run times out (or finishes) exactly like
     the interpreter — same [timed_out], steps, exit code, error and
     output.
   - Counter law: the same runs leave identical per-function counters,
     kind by kind.
   - Kind-sum law ([check_kind_sum]): each run's counters sum to its
     steps.

   The first two compare [observe], which covers steps, outcome,
   output and counters. *)

let law_controllers () =
  [
    ("threshold 0", Tier.controller ~threshold:0 ());
    ("threshold 1000", Tier.controller ~threshold:1000 ());
    ("default threshold", Tier.controller ());
  ]

(* [law_runs f] runs each compute program, as loaded and after the
   safe-jit pipeline (whose mem2reg leaves phi copies on the edges), at
   the law's limits, in the interpreter and under each law controller,
   and hands [f] the limit's name, the interpreted run and the named
   tiered runs. *)
let law_runs
    (f : string -> Interp.run_result -> (string * Interp.run_result) list -> unit)
    =
  List.iter
    (fun ((b : Benchprogs.bench), safe_jit) ->
      let m = Loader.load_program b.Benchprogs.b_source in
      if safe_jit then ignore (Pipeline.safe_jit m);
      let run ?tier limit =
        Interp.run
          (Interp.create ~step_limit:limit ~mementos:true ~input:"" ?tier m)
      in
      let full = (run step_limit).Interp.steps in
      let limits = List.init 6 (fun k -> full * (k + 1) / 7) @ [ full + 1 ] in
      List.iter
        (fun limit ->
          f
            (Printf.sprintf "%s%s, limit %d" b.Benchprogs.b_name
               (if safe_jit then " (safe-jit)" else "")
               limit)
            (run limit)
            (List.map
               (fun (what, tier) -> (what, run ~tier limit))
               (law_controllers ())))
        limits)
    (List.concat_map
       (fun b -> [ (b, false); (b, true) ])
       (Benchprogs.binarytrees :: Benchprogs.perf_suite))

let test_step_limit_law () =
  law_runs (fun at interp tiered ->
      check_kind_sum at interp;
      List.iter
        (fun (what, r) ->
          check_kind_sum (at ^ ", " ^ what) r;
          Alcotest.(check string) (at ^ ", " ^ what) (observe interp) (observe r))
        tiered)

(* The corpus sweeps above run at threshold 0; this one runs at the
   production threshold, where corpus functions stay interpreted under
   the controller's probes. *)
let test_corpus_default_threshold () =
  check_programs ~tier:`Default (Corpus.all @ fixed_programs)

(* ---------------- tiny-callee inlining ---------------- *)

(* [get] is a tiny leaf callee, so compiling [main] inlines it at both
   call sites: the hot loop and the out-of-bounds read at the end. *)
let inline_src =
  {|
int get(int *a, int i) { return a[i]; }
int main(void) {
  int a[8];
  long s = 0;
  for (int i = 0; i < 8; i++) a[i] = i * 3;
  for (int i = 0; i < 2000; i++) s += get(a, i & 7);
  printf("%ld\n", s);
  return get(a, 9);
}
|}

(* [mix] is a leaf, but over [Costmodel.inline_always_instrs]
   instructions. *)
let big_leaf_src =
  {|
int mix(int x) {
  int y = x;
  y = y * 3 + 1;
  y = y ^ (y >> 3);
  y = y * 5 + 7;
  y = y ^ (y >> 5);
  y = y * 9 + 11;
  y = y ^ (y >> 7);
  y = y * 13 + 17;
  y = y ^ (y >> 11);
  return y & 1023;
}
int main(void) {
  long s = 0;
  for (int i = 0; i < 2000; i++) s += mix(i);
  printf("%ld\n", s);
  return 0;
}
|}

let inline_events () =
  List.filter_map
    (fun e ->
      match e.Events.e_event with
      | Events.Inline_accept { ev_caller; ev_callee; _ } ->
        Some (`Accept, ev_caller, ev_callee)
      | Events.Inline_reject { ev_caller; ev_callee; _ } ->
        Some (`Reject, ev_caller, ev_callee)
      | _ -> None)
    (Events.recent ())

let test_inline_fires () =
  let accepts = Metrics.counter "events.inline_accept" in
  let before = accepts.Metrics.c_value in
  Events.reset ();
  ignore (run_src ~tier:(Tier.controller ~threshold:0 ()) inline_src);
  if accepts.Metrics.c_value <= before then
    Alcotest.fail "no inline_accept event at threshold 0";
  if not (List.mem (`Accept, "main", "get") (inline_events ())) then
    Alcotest.fail "main did not inline get"

let test_inline_error_report () =
  let interp = run_src inline_src in
  (match interp.Interp.error with
  | Some (Merror.Out_of_bounds _, _) -> ()
  | _ -> Alcotest.fail "expected an out-of-bounds read in get");
  Alcotest.(check string) "report of an error inside an inlined callee"
    (observe interp)
    (observe (run_src ~tier:(Tier.controller ~threshold:0 ()) inline_src))

(* Consecutive limits in the middle of the hot loop: together they stop
   the run at every operation of several iterations, the inlined
   callee's included. *)
let test_inline_timeouts () =
  let m = Loader.load_program inline_src in
  Pipeline.compile_sulong m;
  let run ?tier limit =
    Interp.run ~argv:[ "prog" ]
      (Interp.create ~step_limit:limit ~mementos:true ~input:"" ?tier m)
  in
  let get_steps r =
    match Hashtbl.find_opt r.Interp.run_profile.Interp.funcs "get" with
    | Some c -> Interp.total_ops c
    | None -> 0
  in
  let in_callee = ref 0 and prev = ref (get_steps (run 19_999)) in
  for limit = 20_000 to 20_199 do
    let interp = run limit in
    (* the step that hit the limit was one of [get]'s *)
    if get_steps interp > !prev then incr in_callee;
    prev := get_steps interp;
    Alcotest.(check string)
      (Printf.sprintf "timeout at %d" limit)
      (observe interp)
      (observe (run ~tier:(Tier.controller ~threshold:0 ()) limit))
  done;
  if !in_callee = 0 then Alcotest.fail "no timeout landed inside get"

let test_big_leaf_not_inlined () =
  Events.reset ();
  let interp = observe (run_src big_leaf_src) in
  let tiered =
    observe (run_src ~tier:(Tier.controller ~threshold:0 ()) big_leaf_src)
  in
  let evs = inline_events () in
  if List.mem (`Accept, "main", "mix") evs then
    Alcotest.fail "a leaf over inline_always_instrs was inlined";
  if not (List.mem (`Reject, "main", "mix") evs) then
    Alcotest.fail "no inline_reject event for the big leaf";
  Alcotest.(check string) "big leaf, interp vs tiered" interp tiered

(* ---------------- reports made by compiled code ---------------- *)

(* [Tier_faults]' programs fault at the production threshold in a
   function compiled after tier-up, inside a leaf callee inlined into
   one, and in [main] after OSR.  The tiered run's report names the
   kind, file:line:col and call stack the interpreter's does; compiled
   code made it (the faulting function deoptimized, from an OSR frame
   for [main]), and the run executed once: one [execute] span. *)
let test_compiled_code_reports () =
  let stack what (r : Interp.run_result) =
    match r.Interp.report with
    | None -> Alcotest.failf "%s: no report" what
    | Some rep ->
      rep.Bugreport.br_kind
      :: List.map
           (fun f -> f.Bugreport.bf_func ^ " " ^ Bugreport.frame_loc f)
           rep.Bugreport.br_stack
  in
  let spans name json =
    match Trace.parse_json json with
    | Trace.Jobj [ (_, Trace.Jarr evs) ] ->
      List.length
        (List.filter
           (function
             | Trace.Jobj kv ->
               List.assoc_opt "ph" kv = Some (Trace.Jstr "B")
               && List.assoc_opt "name" kv = Some (Trace.Jstr name)
             | _ -> false)
           evs)
    | _ -> Alcotest.fail "trace does not parse"
  in
  List.iter
    (fun (name, src) ->
      let interp = run_src src in
      Events.reset ();
      Trace.start ();
      let tiered = run_src ~tier:(Tier.controller ()) src in
      let json = Trace.finish () in
      Alcotest.(check (list string)) (name ^ ": report") (stack name interp)
        (stack name tiered);
      Alcotest.(check int) (name ^ ": execute spans") 1 (spans "execute" json);
      let deopt_from_osr =
        List.find_map
          (fun e ->
            match e.Events.e_event with
            | Events.Deopt { ev_osr; _ } -> Some ev_osr
            | _ -> None)
          (Events.recent ())
      in
      Alcotest.(check (option bool)) (name ^ ": deopt")
        (Some (name = "tier-osr-fault")) deopt_from_osr;
      if
        name = "tier-inlined-fault"
        && not (List.mem (`Accept, "sum", "get") (inline_events ()))
      then Alcotest.fail "sum did not inline get")
    Tier_faults.all

(* ---------------- difftest seeds ---------------- *)

(* The oracle's 8 configurations include [sulong/tiered]; any
   interp-vs-tiered disagreement on a generated program surfaces as a
   divergence here.  (The @difftest alias sweeps 2000 seeds; this keeps
   a 200-seed floor inside the plain test binary.) *)
let test_difftest_seeds () =
  for seed = 0 to 199 do
    match Difftest.run_seed seed with
    | `Agree | `Reject _ -> ()
    | `Diverge d ->
      Alcotest.failf "seed %d diverges: %s" seed d.Difftest.dv_mismatch
  done

let () =
  Alcotest.run "tier"
    [
      ( "equivalence",
        [
          Alcotest.test_case "whole corpus, interp vs tiered" `Quick
            test_corpus_sweep;
          Alcotest.test_case "repaired corpus, interp vs tiered" `Quick
            test_fixed_sweep;
          Alcotest.test_case "corpus after safe-jit, interp vs tiered" `Quick
            test_safe_jit_sweep;
        ] );
      ( "controller",
        [
          Alcotest.test_case "forced-hot run compiles" `Quick
            test_tier_actually_compiles;
          Alcotest.test_case "managed error deoptimizes" `Quick
            test_deopt_fires_on_managed_error;
          Alcotest.test_case "builtin called with too few arguments" `Quick
            test_builtin_arity_error;
          Alcotest.test_case "default threshold stays cold" `Quick
            test_default_threshold_stays_cold;
        ] );
      ( "float semantics",
        [
          Alcotest.test_case "F32 rounding + NaN pinning, forced hot" `Quick
            test_f32_nan_tiered;
        ] );
      ( "osr",
        [
          Alcotest.test_case "hot loop OSRs mid-invocation, bit-identical"
            `Quick test_osr_fires_and_matches;
          Alcotest.test_case "deopt out of an OSR'd loop" `Quick
            test_deopt_from_osr_frame;
        ] );
      ( "deopt",
        [
          Alcotest.test_case "deopt out of an unboxed-float frame" `Quick
            test_deopt_from_float_frame;
        ] );
      ( "slots",
        [
          Alcotest.test_case "scalar replacement keeps allocation ids" `Quick
            test_slot_allocation_ids;
          Alcotest.test_case "slots run as real objects do, in both tiers"
            `Quick test_slot_law;
        ] );
      ( "cache",
        [
          Alcotest.test_case "reset keeps compiled bodies, replay identical"
            `Quick test_reset_keeps_compiled_bodies;
        ] );
      ( "profile",
        [
          Alcotest.test_case "conservation: folded sums == step counter"
            `Quick test_profile_conservation;
          Alcotest.test_case "tier-1 vs tier-2 attribution bit-identical"
            `Quick test_profile_tier_agreement;
          Alcotest.test_case "whole corpus profiled, both tiers agree" `Quick
            test_profile_corpus_agreement;
        ] );
      ( "step charge",
        [
          Alcotest.test_case "step-limit and counter laws, compute programs"
            `Quick test_step_limit_law;
          Alcotest.test_case "corpus counters agree at the default threshold"
            `Quick test_corpus_default_threshold;
        ] );
      ( "inlining",
        [
          Alcotest.test_case "tiny leaf callee is inlined" `Quick
            test_inline_fires;
          Alcotest.test_case "error inside an inlined callee, same report"
            `Quick test_inline_error_report;
          Alcotest.test_case "timeouts inside an inlined callee agree" `Quick
            test_inline_timeouts;
          Alcotest.test_case "leaf over inline_always_instrs is not inlined"
            `Quick test_big_leaf_not_inlined;
        ] );
      ( "reports",
        [
          Alcotest.test_case
            "faults in compiled, inlined and OSR code report as tier 1, once"
            `Quick test_compiled_code_reports;
        ] );
      ( "difftest",
        [
          Alcotest.test_case "seeds 0-199, zero divergences" `Quick
            test_difftest_seeds;
        ] );
    ]
