(** Sanitizer-simulator tests: shadow memory invariants, ASan's detection
    set and deliberate gaps, the quarantine heuristic (paper P3), and
    Memcheck's A/V-bit behaviour. *)

(* ---------------- shadow ---------------- *)

let test_shadow_poison_check () =
  let s = Shadow.create () in
  Shadow.poison s ~kind:Shadow.Heap_redzone 100L 16;
  (match Shadow.check s 96L 8 with
  | Some (Shadow.Heap_redzone, at) -> Alcotest.(check int64) "first bad" 100L at
  | _ -> Alcotest.fail "expected redzone hit");
  Alcotest.(check bool) "before is clean" false (Shadow.is_poisoned s 90L 10);
  Shadow.unpoison s 100L 16;
  Alcotest.(check bool) "unpoisoned" false (Shadow.is_poisoned s 96L 24)

let test_shadow_kinds_survive () =
  let s = Shadow.create () in
  Shadow.poison s ~kind:Shadow.Heap_freed 200L 8;
  match Shadow.check s 204L 1 with
  | Some (Shadow.Heap_freed, _) -> ()
  | _ -> Alcotest.fail "kind lost"

let shadow_props =
  [
    QCheck.Test.make ~name:"poison then check finds it"
      QCheck.(pair (int_range 4096 100000) (int_range 1 64))
      (fun (addr, size) ->
        let s = Shadow.create () in
        Shadow.poison s ~kind:Shadow.Stack_redzone (Int64.of_int addr) size;
        Shadow.is_poisoned s (Int64.of_int addr) size);
    QCheck.Test.make ~name:"unpoison restores cleanliness"
      QCheck.(pair (int_range 4096 100000) (int_range 1 64))
      (fun (addr, size) ->
        let s = Shadow.create () in
        let a = Int64.of_int addr in
        Shadow.poison s ~kind:Shadow.Global_redzone a size;
        Shadow.unpoison s a size;
        not (Shadow.is_poisoned s a size));
  ]

(* ---------------- ASan behaviour ---------------- *)

let run_asan ?(level = Pipeline.O0) ?(asan_options = Engine.default_asan)
    ?(argv = [ "prog" ]) ?(input = "") src =
  Engine.run ~argv ~input ~asan_options (Engine.Asan level) src

let detected r = Outcome.is_detected r.Engine.outcome

let test_asan_finds_basics () =
  let check name src =
    Alcotest.(check bool) name true (detected (run_asan src))
  in
  check "stack overflow" "int main(void) { int a[4]; a[4] = 1; return a[0]; }";
  check "stack underflow" "int main(int argc, char **argv) { int a[4]; a[argc-2] = 1; return a[0]; }";
  check "heap overflow"
    "int main(void) { int *p = (int*)malloc(8); p[2] = 1; free(p); return 0; }";
  check "heap underflow"
    "int main(void) { int *p = (int*)malloc(8); p[-1] = 1; free(p); return 0; }";
  check "global overflow"
    "int g[3]; int main(int argc, char **argv) { return g[argc + 2]; }";
  check "use-after-free"
    "int main(void) { int *p = (int*)malloc(4); free(p); return *p; }";
  check "double free"
    "int main(void) { int *p = (int*)malloc(4); free(p); free(p); return 0; }";
  check "bad free"
    "int main(void) { int x; free(&x); return 0; }"

let test_asan_report_kinds () =
  let kind src =
    match (run_asan src).Engine.outcome with
    | Outcome.Detected { kind; _ } -> kind
    | o -> Outcome.to_string o
  in
  Alcotest.(check string) "stack kind" "stack-buffer-overflow"
    (kind "int main(void) { int a[4]; a[4] = 1; return a[0]; }");
  Alcotest.(check string) "heap kind" "heap-buffer-overflow"
    (kind "int main(void) { char *p = (char*)malloc(4); p[4] = 1; free(p); return 0; }");
  Alcotest.(check string) "uaf kind" "heap-use-after-free"
    (kind "int main(void) { int *p = (int*)malloc(4); free(p); return *p; }")

let test_asan_misses_main_args () =
  Alcotest.(check bool) "argv OOB missed" false
    (detected
       (run_asan {|int main(int argc, char **argv) { printf("%s\n", argv[4]); return 0; }|}))

let test_asan_misses_strtok_by_default_finds_with_fix () =
  let src = {|
int main(void) {
  char buf[16] = "a b";
  char sep[1] = {' '};
  char *t = strtok(buf, sep);
  printf("%s\n", t);
  return 0;
}
|} in
  Alcotest.(check bool) "missed without interceptor" false (detected (run_asan src));
  Alcotest.(check bool) "found with the later fix" true
    (detected
       (run_asan
          ~asan_options:{ Engine.strtok_interceptor = true; quarantine_cap = 1 lsl 18; fno_common = true }
          src))

let test_asan_quarantine_heuristic () =
  (* paper P3: a small quarantine lets quick reallocation hide UAF *)
  let src = {|
int main(void) {
  char *stale = (char *)malloc(64);
  stale[0] = 'x';
  free(stale);
  /* churn: force the quarantine to recycle the stale block */
  for (int i = 0; i < 64; i++) {
    char *fresh = (char *)malloc(64);
    fresh[0] = 'y';
    free(fresh);
  }
  char *reuse1 = (char *)malloc(64);
  char *reuse2 = (char *)malloc(64);
  reuse1[0] = 'z';
  reuse2[0] = 'z';
  printf("%c\n", stale[0]); /* use after free */
  return 0;
}
|} in
  Alcotest.(check bool) "big quarantine catches it" true
    (detected
       (run_asan ~asan_options:{ Engine.strtok_interceptor = false; quarantine_cap = 1 lsl 20; fno_common = true } src));
  Alcotest.(check bool) "no quarantine misses it" false
    (detected
       (run_asan ~asan_options:{ Engine.strtok_interceptor = false; quarantine_cap = 0; fno_common = true } src))

let test_asan_redzone_is_finite () =
  (* an overflow that lands in the next object's valid bytes is missed *)
  let src = {|
const char *table[2] = {"a", "b"};
char filler[4096];
int main(void) {
  printf("%s\n", table[40] == 0 ? "(nothing)" : "(something)");
  return 0;
}
|} in
  Alcotest.(check bool) "beyond-redzone miss" false (detected (run_asan src))

let test_asan_interceptor_checks_strcpy () =
  Alcotest.(check bool) "strcpy overflow via interceptor" true
    (detected
       (run_asan
          {|int main(void) { char d[4]; strcpy(d, "much too long"); return d[0]; }|}))

let test_asan_interceptor_checks_strncat () =
  (* strncat writes after dst's string: at most n bytes of src, then a
     NUL.  A bound larger than the buffer is correct C. *)
  let correct =
    [
      ( "heap",
        {|int main(void) { char *d = (char*)malloc(16); d[0] = 0; strncat(d, "ab", 1); printf("%s\n", d); free(d); return 0; }|},
        "a\n" );
      ( "global",
        {|char g[16]; int main(void) { strcpy(g, "ab"); strncat(g, "cdef", 100); printf("%s\n", g); return 0; }|},
        "abcdef\n" );
    ]
  in
  List.iter
    (fun level ->
      List.iter
        (fun (name, src, out) ->
          let r = run_asan ~level src in
          Alcotest.(check bool) (name ^ ": no report") false (detected r);
          Alcotest.(check int) (name ^ ": exit") 0 r.Engine.exit_code;
          Alcotest.(check string) (name ^ ": output") out r.Engine.output)
        correct;
      Alcotest.(check bool) "overflow found" true
        (detected
           (run_asan ~level
              {|int main(void) { char d[4]; strcpy(d, "ab"); strncat(d, "cdef", 3); return d[0]; }|})))
    [ Pipeline.O0; Pipeline.O3 ]

let test_asan_clean_program_unaffected () =
  let r = run_asan {|int main(void) { printf("fine\n"); return 0; }|} in
  Alcotest.(check bool) "no report" false (detected r);
  Alcotest.(check string) "output intact" "fine\n" r.Engine.output

(* ---------------- Memcheck behaviour ---------------- *)

let run_vg ?(level = Pipeline.O0) ?(argv = [ "prog" ]) ?(input = "") src =
  Engine.run ~argv ~input (Engine.Valgrind level) src

let test_vg_finds_heap_misses_stack_global () =
  Alcotest.(check bool) "heap found" true
    (detected
       (run_vg "int main(void) { int *p = (int*)malloc(8); p[2] = 1; free(p); return 0; }"));
  Alcotest.(check bool) "stack missed" false
    (detected (run_vg "int main(void) { int a[4]; a[5] = 2; return a[0]; }"));
  Alcotest.(check bool) "global missed" false
    (detected
       (run_vg "int g[4]; int main(int argc, char **argv) { g[argc+4] = 1; return g[0]; }"))

let test_vg_uaf_reliable () =
  (* valgrind does not recycle freed blocks: reliable UAF detection *)
  let src = {|
int main(void) {
  char *stale = (char *)malloc(64);
  free(stale);
  for (int i = 0; i < 64; i++) { free(malloc(64)); }
  return stale[0];
}
|} in
  Alcotest.(check bool) "UAF found despite churn" true (detected (run_vg src))

let test_vg_uninitialised_value () =
  let src = {|
int main(void) {
  int fresh[4];
  int probe[2] = {0, 0};
  int v = probe[1 + (int)sizeof(probe) / 4]; /* reads into fresh */
  if (v > 0) { printf("pos\n"); } else { printf("neg\n"); }
  return fresh[0] * 0;
}
|} in
  match (run_vg src).Engine.outcome with
  | Outcome.Detected { kind; _ } ->
    Alcotest.(check string) "uninit kind" "uninitialised-value" kind
  | o -> Alcotest.failf "expected uninit report, got %s" (Outcome.to_string o)

let test_vg_defined_flow_is_quiet () =
  let r =
    run_vg
      {|int main(void) { int x = 3; if (x > 2) { printf("ok\n"); } return 0; }|}
  in
  Alcotest.(check bool) "no false positive" false (detected r);
  Alcotest.(check string) "output" "ok\n" r.Engine.output

let test_vg_sees_libc_heap_traffic () =
  (* the overflow happens inside strcpy (libc): binary instrumentation
     sees it when the destination is a heap block *)
  Alcotest.(check bool) "strcpy heap overflow" true
    (detected
       (run_vg
          {|int main(void) { char *d = (char*)malloc(4); strcpy(d, "overlong"); free(d); return 0; }|}))

let test_vg_bad_free () =
  Alcotest.(check bool) "invalid free" true
    (detected (run_vg "int main(void) { int x; free(&x); return 0; }"));
  Alcotest.(check bool) "double free" true
    (detected
       (run_vg "int main(void) { int *p = (int*)malloc(4); free(p); free(p); return 0; }"))

let () =
  Alcotest.run "sanitizers"
    [
      ( "shadow",
        [
          Alcotest.test_case "poison/check/unpoison" `Quick test_shadow_poison_check;
          Alcotest.test_case "kinds survive" `Quick test_shadow_kinds_survive;
        ]
        @ List.map QCheck_alcotest.to_alcotest shadow_props );
      ( "asan",
        [
          Alcotest.test_case "finds the basics" `Quick test_asan_finds_basics;
          Alcotest.test_case "report kinds" `Quick test_asan_report_kinds;
          Alcotest.test_case "misses main args" `Quick test_asan_misses_main_args;
          Alcotest.test_case "strtok gap + fix" `Quick
            test_asan_misses_strtok_by_default_finds_with_fix;
          Alcotest.test_case "quarantine heuristic" `Quick
            test_asan_quarantine_heuristic;
          Alcotest.test_case "finite redzone" `Quick test_asan_redzone_is_finite;
          Alcotest.test_case "strcpy interceptor" `Quick
            test_asan_interceptor_checks_strcpy;
          Alcotest.test_case "strncat interceptor" `Quick
            test_asan_interceptor_checks_strncat;
          Alcotest.test_case "clean program unaffected" `Quick
            test_asan_clean_program_unaffected;
        ] );
      ( "memcheck",
        [
          Alcotest.test_case "heap yes, stack/global no" `Quick
            test_vg_finds_heap_misses_stack_global;
          Alcotest.test_case "UAF reliable" `Quick test_vg_uaf_reliable;
          Alcotest.test_case "uninitialised value" `Quick
            test_vg_uninitialised_value;
          Alcotest.test_case "no false positive on defined flow" `Quick
            test_vg_defined_flow_is_quiet;
          Alcotest.test_case "sees libc heap traffic" `Quick
            test_vg_sees_libc_heap_traffic;
          Alcotest.test_case "bad frees" `Quick test_vg_bad_free;
        ] );
    ]
