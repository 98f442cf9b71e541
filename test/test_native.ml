(** Native-engine tests: the same semantic battery as the managed
    interpreter (at -O0 and -O3 — every pipeline implements the same C),
    plus the undefined behaviours that only exist natively: silent
    corruption, argv/envp leaks, SIGSEGV. *)

let run_native ?(level = Pipeline.O0) ?(argv = [ "prog" ]) ?(input = "") src =
  Engine.run ~argv ~input (Engine.Clang level) src

let check_case level (c : Cases.case) () =
  let r = run_native ~level ~input:c.Cases.input c.Cases.src in
  (match r.Engine.outcome with
  | Outcome.Finished _ -> ()
  | o -> Alcotest.failf "%s: abnormal outcome %s" c.Cases.name (Outcome.to_string o));
  Alcotest.(check string) c.Cases.name c.Cases.expected r.Engine.output

let battery level =
  List.map
    (fun (c : Cases.case) ->
      Alcotest.test_case c.Cases.name `Quick (check_case level c))
    Cases.all

(* ---------------- undefined behaviour, natively ---------------- *)

let test_silent_stack_corruption () =
  let r =
    run_native
      {|
int main(void) {
  int canary = 1234;
  int arr[4];
  for (int i = 0; i <= 5; i++) { arr[i] = 99; }
  printf("%d\n", canary);
  return 0;
}
|}
  in
  (* the overflow silently overwrote the neighbouring local *)
  Alcotest.(check string) "canary clobbered" "99\n" r.Engine.output

let test_argv_oob_leaks_environment () =
  let r =
    run_native
      {|
int main(int argc, char **argv) {
  printf("%s\n", argv[3]);
  return 0;
}
|}
  in
  Alcotest.(check bool) "an environment variable leaks" true
    (Util.string_contains ~needle:"=" r.Engine.output)

let test_null_deref_segfaults () =
  let r = run_native "int main(void) { int *p = 0; return *p; }" in
  match r.Engine.outcome with
  | Outcome.Crashed what ->
    Alcotest.(check bool) "SIGSEGV" true (Util.string_contains ~needle:"SIGSEGV" what)
  | o -> Alcotest.failf "expected crash, got %s" (Outcome.to_string o)

let test_wild_pointer_segfaults () =
  let r =
    run_native "int main(void) { int *p = (int *)99999999999L; return *p; }"
  in
  match r.Engine.outcome with
  | Outcome.Crashed _ -> ()
  | o -> Alcotest.failf "expected crash, got %s" (Outcome.to_string o)

let test_sigfpe () =
  let r = run_native "int main(int argc, char **argv) { return 7 / (argc - 1); }" in
  match r.Engine.outcome with
  | Outcome.Crashed what ->
    Alcotest.(check bool) "SIGFPE" true (Util.string_contains ~needle:"SIGFPE" what)
  | o -> Alcotest.failf "expected SIGFPE, got %s" (Outcome.to_string o)

let test_use_after_free_reads_stale_or_reused () =
  (* no crash, no diagnosis: the data is simply still there (or reused) *)
  let r =
    run_native
      {|
int main(void) {
  int *p = (int *)malloc(4);
  *p = 77;
  free(p);
  printf("%d\n", *p);
  return 0;
}
|}
  in
  match r.Engine.outcome with
  | Outcome.Finished 0 -> ()
  | o -> Alcotest.failf "expected silent completion, got %s" (Outcome.to_string o)

let test_heap_reuse_after_free () =
  let r =
    run_native
      {|
int main(void) {
  char *a = (char *)malloc(16);
  free(a);
  char *b = (char *)malloc(16);
  /* the allocator reuses the freed block: UAF aliases new data */
  printf("%d\n", a == b);
  free(b);
  return 0;
}
|}
  in
  Alcotest.(check string) "block reused" "1\n" r.Engine.output

let test_stack_exhaustion_crashes () =
  let r =
    run_native
      "int f(int n) { int pad[64]; pad[0] = n; return f(n + 1) + pad[0]; } \
       int main(void) { return f(0); }"
  in
  match r.Engine.outcome with
  | Outcome.Crashed _ -> ()
  | o -> Alcotest.failf "expected stack crash, got %s" (Outcome.to_string o)

(* ---------------- word-wise strlen ---------------- *)

let test_wordwise_strlen_reads_past_nul () =
  (* correctness is unaffected; the point is that it does not crash and
     produces the right length despite reading in 8-byte gulps *)
  let r =
    run_native
      {|
int main(void) {
  char s[3] = "ab";
  printf("%d %d %d\n", (int)strlen(s), (int)strlen(""), (int)strlen("0123456789a"));
  return 0;
}
|}
  in
  Alcotest.(check string) "lengths" "2 0 11\n" r.Engine.output

(* ---------------- host builtins, natively ---------------- *)

(* The precompiled libc has no host builtins: a call to one fails the
   dynamic linker's lazy binding, a crash that names the symbol (exit
   127), which a sanitizer does not report as a SEGV. *)
let test_builtin_is_an_undefined_symbol () =
  let src = "int main(void) { return (int)__sulong_sqrt(16.0); }" in
  List.iter
    (fun tool ->
      let r = Engine.run tool src in
      Alcotest.(check string) (Engine.tool_name tool)
        "crashed: undefined symbol: __sulong_sqrt"
        (Outcome.to_string r.Engine.outcome);
      Alcotest.(check int) (Engine.tool_name tool ^ " exit code") 127
        r.Engine.exit_code)
    [ Engine.Clang Pipeline.O0; Engine.Clang Pipeline.O3; Engine.Asan Pipeline.O0;
      Engine.Valgrind Pipeline.O0 ]

(* A libc function called through a cast function pointer with fewer
   arguments than it reads reads junk for the missing ones, as a missing
   vararg does ([Nlibc.missing_arg]): the run ends as a return value, a
   simulated crash or a sanitizer report, never as a host exception. *)
let test_libc_call_missing_arguments () =
  let programs =
    [ ( "strlen",
        "int main(void) { size_t (*f)(void) = (size_t (*)(void))strlen; \
         return (int)f(); }" );
      ( "malloc",
        "int main(void) { char *(*f)(void) = (char *(*)(void))malloc; \
         char *p = f(); p[0] = 1; return p[0]; }" );
      ( "printf",
        "int main(void) { int (*f)(void) = (int (*)(void))printf; return f(); }" );
      ( "strcpy",
        "int main(void) { char b[8]; \
         char *(*f)(char *) = (char *(*)(char *))strcpy; f(b); return b[0]; }" ) ]
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun tool ->
          match Engine.run tool src with
          | _ -> ()
          | exception e ->
            Alcotest.failf "%s under %s: %s" name (Engine.tool_name tool)
              (Printexc.to_string e))
        [ Engine.Clang Pipeline.O0; Engine.Clang Pipeline.O3;
          Engine.Asan Pipeline.O0; Engine.Valgrind Pipeline.O0 ])
    programs

(* ---------------- demand-zero pages ---------------- *)

(* [Mem] and [Shadow] keep their 16 MiB as 4 KiB pages, each whole-page
   fill a pointer to a shared constant page.  The property: any sequence
   of loads, stores, fills and overlapping blits, page-straddling ones
   included, and of shadow poisonings and checks, reads what a flat
   16 MiB [Bytes] model reads, and no shared page is ever written. *)
type mem_op =
  | Store of int * int * int64  (** address, size, value *)
  | Load of int * int
  | Fill of int * int * char  (** address, length, byte *)
  | Blit of int * int * int  (** source, destination, length *)
  | Poison of int * int * Shadow.poison
  | Check of int * int

let window_pages = 6
let window_base = Mem.globals_base
let window_limit = window_base + (window_pages * Mem.page_size)

let show_op = function
  | Store (a, n, v) -> Printf.sprintf "store 0x%x %d 0x%Lx" a n v
  | Load (a, n) -> Printf.sprintf "load 0x%x %d" a n
  | Fill (a, n, c) -> Printf.sprintf "fill 0x%x %d %d" a n (Char.code c)
  | Blit (s, d, n) -> Printf.sprintf "blit 0x%x -> 0x%x %d" s d n
  | Poison (a, n, k) -> Printf.sprintf "poison 0x%x %d %s" a n (Shadow.describe k)
  | Check (a, n) -> Printf.sprintf "check 0x%x %d" a n

(* An address for an [n]-byte access inside the window, usually a few
   bytes before a page boundary. *)
let gen_addr n =
  let clamp a = max window_base (min (window_limit - n) a) in
  QCheck.Gen.(
    frequency
      [ (1, int_range window_base (window_limit - n));
        ( 2,
          map2
            (fun p back -> clamp (window_base + (p * Mem.page_size) - back))
            (int_range 1 (window_pages - 1)) (int_range 0 8) ) ])

let gen_op =
  let open QCheck.Gen in
  let size = oneofl [ 1; 2; 4; 8 ] in
  let byte = frequency [ (3, map Char.chr (int_range 0 3)); (1, char) ] in
  let kind =
    oneofl
      Shadow.[ Addressable; Heap_redzone; Stack_redzone; Heap_freed; Undefined_area ]
  in
  let length = int_range 0 (3 * Mem.page_size) in
  frequency
    [ (4, size >>= fun n -> map2 (fun a v -> Store (a, n, v)) (gen_addr n) ui64);
      (4, size >>= fun n -> map (fun a -> Load (a, n)) (gen_addr n));
      (1, length >>= fun n -> map2 (fun a c -> Fill (a, n, c)) (gen_addr n) byte);
      ( 1,
        int_range 0 (2 * Mem.page_size) >>= fun n ->
        gen_addr n >>= fun src ->
        map
          (fun d ->
            Blit (src, max window_base (min (window_limit - n) (src + d)), n))
          (int_range (-n - 8) (n + 8)) );
      (1, length >>= fun n -> map2 (fun a k -> Poison (a, n, k)) (gen_addr n) kind);
      (2, int_range 1 16 >>= fun n -> map (fun a -> Check (a, n)) (gen_addr n)) ]

(* The flat models of the memory and of the shadow, reset per case. *)
let flat = lazy (Bytes.make Mem.mem_size '\000', Bytes.make Mem.mem_size '\000')

let flat_load b a = function
  | 1 -> Int64.of_int (Char.code (Bytes.get b a))
  | 2 -> Int64.of_int (Bytes.get_uint16_le b a)
  | 4 -> Int64.of_int32 (Bytes.get_int32_le b a)
  | _ -> Bytes.get_int64_le b a

let flat_store b a n v =
  for k = 0 to n - 1 do
    Bytes.set b (a + k)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL)))
  done

let flat_check b a n =
  let rec go i =
    if i >= a + n then None
    else if Bytes.get b i <> '\000' then
      Some (Shadow.of_code (Bytes.get b i), Int64.of_int i)
    else go (i + 1)
  in
  go a

let shared_pages_intact () =
  Array.for_all Fun.id
    (Array.mapi
       (fun i pg -> Bytes.for_all (fun c -> Char.code c = i) pg)
       Mem.shared)

let prop_pages_match_flat =
  QCheck.Test.make ~count:300 ~name:"pages read as flat memory; shared pages unwritten"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let model, shadow_model = Lazy.force flat in
      Bytes.fill model window_base (window_limit - window_base) '\000';
      Bytes.fill shadow_model window_base (window_limit - window_base) '\000';
      let mem = Mem.create () and sh = Shadow.create () in
      let a64 = Int64.of_int in
      let step = function
        | Store (a, n, v) ->
          Mem.store_int mem (a64 a) ~size:n v;
          flat_store model a n v;
          true
        | Load (a, n) -> Mem.load_int mem (a64 a) ~size:n = flat_load model a n
        | Fill (a, n, c) ->
          Mem.fill mem (a64 a) n c;
          Bytes.fill model a n c;
          true
        | Blit (src, dst, n) ->
          Mem.blit mem ~src:(a64 src) ~dst:(a64 dst) n;
          Bytes.blit model src model dst n;
          true
        | Poison (a, n, kind) ->
          Shadow.poison sh ~kind (a64 a) n;
          Bytes.fill shadow_model a n (Shadow.code kind);
          true
        | Check (a, n) -> Shadow.check sh (a64 a) n = flat_check shadow_model a n
      in
      let rec window a =
        a >= window_limit
        || Mem.load_int mem (a64 a) ~size:8 = flat_load model a 8
           && Shadow.check sh (a64 a) 8 = flat_check shadow_model a 8
           && window (a + 8)
      in
      List.for_all step ops && window window_base && shared_pages_intact ())

let () =
  Alcotest.run "native"
    [
      ("semantics -O0", battery Pipeline.O0);
      ("semantics -O3", battery Pipeline.O3);
      ( "undefined behaviour",
        [
          Alcotest.test_case "silent stack corruption" `Quick
            test_silent_stack_corruption;
          Alcotest.test_case "argv leak" `Quick test_argv_oob_leaks_environment;
          Alcotest.test_case "NULL segfault" `Quick test_null_deref_segfaults;
          Alcotest.test_case "wild pointer segfault" `Quick
            test_wild_pointer_segfaults;
          Alcotest.test_case "SIGFPE" `Quick test_sigfpe;
          Alcotest.test_case "silent use-after-free" `Quick
            test_use_after_free_reads_stale_or_reused;
          Alcotest.test_case "heap reuse" `Quick test_heap_reuse_after_free;
          Alcotest.test_case "stack exhaustion" `Quick
            test_stack_exhaustion_crashes;
          Alcotest.test_case "word-wise strlen" `Quick
            test_wordwise_strlen_reads_past_nul;
        ] );
      ( "host builtins",
        [
          Alcotest.test_case "a builtin is an undefined symbol" `Quick
            test_builtin_is_an_undefined_symbol;
          Alcotest.test_case "a libc call missing arguments reads junk" `Quick
            test_libc_call_missing_arguments;
        ] );
      ("pages", [ QCheck_alcotest.to_alcotest prop_pages_match_flat ]);
    ]
