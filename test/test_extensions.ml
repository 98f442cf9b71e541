(** Tests for the implemented §6 future-work extensions and ablations:
    uninitialized-read detection, memory-leak reporting, the -fno-common
    ASan behaviour the paper mentions, and the fixed versions of the
    case-study bugs. *)

(* ---------------- uninitialized-read detection ---------------- *)

let run ?(detect_uninit = false) ?(argv = [ "prog" ]) ?(input = "") src =
  Cases.sulong ~detect_uninit ~argv ~input src

let expect_uninit src =
  let r = run ~detect_uninit:true src in
  match r.Interp.error with
  | Some (Merror.Uninitialized_read _, _) -> ()
  | Some (c, m) ->
    Alcotest.failf "wrong error %s: %s" (Merror.category_name c) m
  | None -> Alcotest.fail "expected uninitialized-read"

let expect_clean ?(detect_uninit = true) src =
  let r = run ~detect_uninit src in
  match r.Interp.error with
  | Some (_, m) -> Alcotest.fail ("unexpected error: " ^ m)
  | None -> ()

let test_uninit_local_scalar () =
  expect_uninit "int main(void) { int x; return x + 1; }"

let test_uninit_local_array () =
  expect_uninit
    "int main(void) { int xs[4]; xs[0] = 1; xs[1] = 2; return xs[3]; }"

let test_uninit_malloc () =
  expect_uninit
    "int main(void) { int *p = (int*)malloc(8); int v = p[1]; free(p); return v; }"

let test_calloc_is_initialized () =
  expect_clean
    "int main(void) { int *p = (int*)calloc(2, 4); int v = p[1]; free(p); return v; }"

let test_initializers_count_as_writes () =
  expect_clean
    {|
int main(void) {
  int xs[4] = {1, 2};      /* partial init zero-fills the rest */
  char s[8] = "ab";
  struct { int a; int b; } pair = {1};
  return xs[3] + s[7] + pair.b;
}
|}

let test_globals_start_initialized () =
  expect_clean "int g[4]; int main(void) { return g[3]; }"

let test_realloc_preserves_init_state () =
  expect_clean
    {|
int main(void) {
  int *p = (int *)malloc(2 * sizeof(int));
  p[0] = 1; p[1] = 2;
  p = (int *)realloc(p, 4 * sizeof(int));
  int v = p[0] + p[1];
  free(p);
  return v;
}
|};
  expect_uninit
    {|
int main(void) {
  int *p = (int *)malloc(2 * sizeof(int));
  p[0] = 1;
  p = (int *)realloc(p, 4 * sizeof(int));
  int v = p[3]; /* the grown tail was never written */
  free(p);
  return v;
}
|}

let test_printf_clean_under_uninit_tracking () =
  (* the managed libc initializes everything it reads; a correct program
     must not trip the detector *)
  expect_clean
    {|
int main(void) {
  char buf[32];
  sprintf(buf, "%d-%s-%.2f", 42, "mid", 1.5);
  printf("%s\n", buf);
  return 0;
}
|}

let test_uninit_off_by_default () =
  let r = run "int main(void) { int x; return x + 1; }" in
  Alcotest.(check bool) "no error when disabled" true (r.Interp.error = None)

let test_uninit_via_engine () =
  let r =
    Engine.run ~detect_uninit:true Engine.Safe_sulong
      "int main(void) { int x; return x; }"
  in
  match r.Engine.outcome with
  | Outcome.Detected { kind = "uninitialized-read"; _ } -> ()
  | o -> Alcotest.failf "expected uninitialized-read, got %s" (Outcome.to_string o)

(* ---------------- leak reporting ---------------- *)

let test_leak_details () =
  let r =
    run
      {|
char *dup_tag(const char *s) { return strdup(s); }
int main(void) {
  char *a = dup_tag("kept");
  char *b = (char *)malloc(100);
  free(b);
  (void)a;
  return 0;
}
|}
  in
  Alcotest.(check int) "one leak" 1 r.Interp.leaks;
  match r.Interp.leak_details with
  | [ line ] ->
    Alcotest.(check bool) "names the allocating function" true
      (Util.string_contains ~needle:"strdup" line);
    Alcotest.(check bool) "gives the size" true
      (Util.string_contains ~needle:"5 bytes" line)
  | l -> Alcotest.failf "expected one detail line, got %d" (List.length l)

let test_no_leaks_when_freed () =
  let r =
    run "int main(void) { void *p = malloc(64); free(p); return 0; }"
  in
  Alcotest.(check int) "no leaks" 0 r.Interp.leaks;
  Alcotest.(check (list string)) "no details" [] r.Interp.leak_details

(* ---------------- -fno-common ablation ---------------- *)

let zero_init_global_oob =
  (* votes is zero-initialized: a "common" symbol without -fno-common *)
  {|
int votes[4];
int main(int argc, char **argv) {
  votes[argc + 3] = 1; /* one past the end */
  return votes[0];
}
|}

let test_fno_common_matters () =
  let with_flag fno_common =
    Outcome.is_detected
      (Engine.run
         ~asan_options:
           { Engine.strtok_interceptor = false; quarantine_cap = 1 lsl 18;
             fno_common }
         (Engine.Asan Pipeline.O0) zero_init_global_oob)
        .Engine.outcome
  in
  Alcotest.(check bool) "found with -fno-common (the paper's setting)" true
    (with_flag true);
  Alcotest.(check bool) "missed without -fno-common" false (with_flag false)

let test_fno_common_initialized_globals_unaffected () =
  (* initialized globals are instrumented either way *)
  let src =
    {|
int table[4] = {1, 2, 3, 4};
int main(int argc, char **argv) { return table[argc + 3]; }
|}
  in
  let with_flag fno_common =
    Outcome.is_detected
      (Engine.run
         ~asan_options:
           { Engine.strtok_interceptor = false; quarantine_cap = 1 lsl 18;
             fno_common }
         (Engine.Asan Pipeline.O0) src)
        .Engine.outcome
  in
  Alcotest.(check bool) "found with" true (with_flag true);
  Alcotest.(check bool) "found without" true (with_flag false)

(* ---------------- call tracing ---------------- *)

let test_call_trace () =
  let m =
    Loader.load_program
      {|
int add(int a, int b) { return a + b; }
int main(void) { return add(1, 2); }
|}
  in
  let st = Interp.create ~trace:true m in
  let r = Interp.run st in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("trace mentions " ^ needle) true
        (Util.string_contains ~needle r.Interp.trace_output))
    [ "-> main"; "-> add(1, 2)"; "<- add = 3"; "<- main = 3" ]

let test_trace_off_by_default () =
  let r = Cases.sulong "int main(void) { return 0; }" in
  Alcotest.(check string) "no trace" "" r.Interp.trace_output

(* ---------------- module linking ---------------- *)

let test_link_user_overrides_libc () =
  (* a program defining its own strlen wins over the libc's *)
  let r =
    Cases.sulong
      {|
size_t strlen(const char *s) { (void)s; return 999; }
int main(void) { printf("%d\n", (int)strlen("ab")); return 0; }
|}
  in
  Alcotest.(check string) "override wins" "999\n" r.Interp.output

let test_link_tentative_definitions () =
  (* 'extern FILE *stdout;' in user code must not shadow the libc's
     initialized definition *)
  let r =
    Cases.sulong
      {|
extern FILE *stdout;
int main(void) { fputs("via stdout\n", stdout); return 0; }
|}
  in
  Alcotest.(check string) "stdout survives" "via stdout\n" r.Interp.output

(* ---------------- pipeline idempotence ---------------- *)

let test_o3_idempotent () =
  List.iter
    (fun (b : Benchprogs.bench) ->
      let m = Loader.compile_user b.Benchprogs.b_source in
      ignore (Pipeline.o3 m);
      let after_once = Irmod.instr_count m in
      ignore (Pipeline.o3 m);
      Alcotest.(check int)
        (b.Benchprogs.b_name ^ ": second -O3 run changes nothing")
        after_once (Irmod.instr_count m))
    [ Benchprogs.fannkuchredux; Benchprogs.nbody; Benchprogs.meteor ]

(* ---------------- determinism ---------------- *)

(* The managed runtime uses global registries (object ids, function
   cookies); back-to-back runs must still be bit-identical. *)
let test_runs_are_deterministic () =
  let src = Benchprogs.fasta.Benchprogs.b_source in
  let run_once tool =
    let r = Engine.run tool src in
    (r.Engine.output, r.Engine.steps, Outcome.to_string r.Engine.outcome)
  in
  List.iter
    (fun tool ->
      let a = run_once tool in
      let b = run_once tool in
      Alcotest.(check bool)
        (Engine.tool_name tool ^ " deterministic")
        true (a = b))
    [
      Engine.Safe_sulong; Engine.Clang Pipeline.O3; Engine.Asan Pipeline.O0;
      Engine.Valgrind Pipeline.O0;
    ]

let test_interleaved_runs_do_not_leak_state () =
  (* run A, then B, then A again: A's results must not change *)
  let a_src = "int main(void) { int *p = (int*)malloc(8); p[2] = 1; return 0; }" in
  let b_src = Benchprogs.binarytrees.Benchprogs.b_source in
  let run_a () =
    Outcome.to_string (Engine.run Engine.Safe_sulong a_src).Engine.outcome
  in
  let first = run_a () in
  ignore (Engine.run Engine.Safe_sulong b_src);
  Alcotest.(check string) "A unchanged after B" first (run_a ())

(* ---------------- ablations report ---------------- *)

let test_ablations_table () =
  let rendered = Table.render (Ablations.table ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true
        (Util.string_contains ~needle rendered))
    [
      "quarantine"; "strtok"; "fno-common"; "inlining";
      "identical behaviour";
    ];
  (* every flipped row must actually flip *)
  Alcotest.(check bool) "has FOUND rows" true
    (Util.string_contains ~needle:"FOUND" rendered);
  Alcotest.(check bool) "has missed rows" true
    (Util.string_contains ~needle:"missed" rendered)

(* ---------------- fixed versions of the case studies ---------------- *)

let fixed_programs =
  List.filter_map
    (fun (p : Groundtruth.program) ->
      Option.map (fun fixed -> (p, fixed)) p.Groundtruth.fixed)
    Corpus.all

let test_fixes_exist_for_all_special_bugs () =
  Alcotest.(check int) "all 8 case-study bugs have fixes" 8
    (List.length fixed_programs)

let test_fixed_versions_run_clean_everywhere () =
  List.iter
    (fun ((p : Groundtruth.program), fixed) ->
      List.iter
        (fun tool ->
          let r =
            Engine.run ~argv:p.Groundtruth.argv ~input:p.Groundtruth.input tool
              fixed
          in
          match r.Engine.outcome with
          | Outcome.Finished _ -> ()
          | o ->
            Alcotest.failf "%s (fixed) under %s: %s" p.Groundtruth.id
              (Engine.tool_name tool) (Outcome.to_string o))
        [
          Engine.Safe_sulong; Engine.Clang Pipeline.O0; Engine.Clang Pipeline.O3;
          Engine.Asan Pipeline.O0; Engine.Valgrind Pipeline.O0;
        ])
    fixed_programs

let test_fixed_output_sensible () =
  (* the GL-R02 fix rejects the out-of-range input *)
  match Corpus.find "GL-R02" with
  | Some { Groundtruth.fixed = Some fixed; input; _ } ->
    let r = Engine.run ~input Engine.Safe_sulong fixed in
    Alcotest.(check string) "rejects input 50" "out of range\n" r.Engine.output
  | _ -> Alcotest.fail "GL-R02 should carry a fix"

let () =
  Alcotest.run "extensions"
    [
      ( "uninitialized reads",
        [
          Alcotest.test_case "local scalar" `Quick test_uninit_local_scalar;
          Alcotest.test_case "local array" `Quick test_uninit_local_array;
          Alcotest.test_case "malloc'd memory" `Quick test_uninit_malloc;
          Alcotest.test_case "calloc initialized" `Quick
            test_calloc_is_initialized;
          Alcotest.test_case "initializers are writes" `Quick
            test_initializers_count_as_writes;
          Alcotest.test_case "globals initialized" `Quick
            test_globals_start_initialized;
          Alcotest.test_case "realloc preserves state" `Quick
            test_realloc_preserves_init_state;
          Alcotest.test_case "printf clean" `Quick
            test_printf_clean_under_uninit_tracking;
          Alcotest.test_case "off by default" `Quick test_uninit_off_by_default;
          Alcotest.test_case "through the engine API" `Quick
            test_uninit_via_engine;
        ] );
      ( "leak reporting",
        [
          Alcotest.test_case "details" `Quick test_leak_details;
          Alcotest.test_case "clean when freed" `Quick test_no_leaks_when_freed;
        ] );
      ( "fno-common",
        [
          Alcotest.test_case "zero-init global gated by flag" `Quick
            test_fno_common_matters;
          Alcotest.test_case "initialized globals unaffected" `Quick
            test_fno_common_initialized_globals_unaffected;
        ] );
      ( "tracing+linking+pipelines",
        [
          Alcotest.test_case "call trace" `Quick test_call_trace;
          Alcotest.test_case "trace off by default" `Quick
            test_trace_off_by_default;
          Alcotest.test_case "user overrides libc" `Quick
            test_link_user_overrides_libc;
          Alcotest.test_case "tentative definitions" `Quick
            test_link_tentative_definitions;
          Alcotest.test_case "-O3 idempotent" `Quick test_o3_idempotent;
        ] );
      ( "determinism+ablations",
        [
          Alcotest.test_case "runs are deterministic" `Slow
            test_runs_are_deterministic;
          Alcotest.test_case "no state leaks between runs" `Quick
            test_interleaved_runs_do_not_leak_state;
          Alcotest.test_case "ablations table" `Slow test_ablations_table;
        ] );
      ( "fixed case studies",
        [
          Alcotest.test_case "fixes exist" `Quick
            test_fixes_exist_for_all_special_bugs;
          Alcotest.test_case "fixed versions run clean" `Slow
            test_fixed_versions_run_clean_everywhere;
          Alcotest.test_case "fixed output sensible" `Quick
            test_fixed_output_sensible;
        ] );
    ]
