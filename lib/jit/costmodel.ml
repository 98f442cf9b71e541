(** The mechanistic cycle model behind the performance reproduction
    (paper §4.2–4.3).

    The engines in lib/interp and lib/native *execute* the benchmark and
    count what they executed (dynamic operation counts by cost class,
    allocation counts, libc calls).  This module prices those counts in
    cycles per engine.  The *mechanisms* are the paper's:

    - Clang -O3 is faster than -O0 because the optimized IR simply
      executes fewer operations (mem2reg/folding — measured, not
      assumed);
    - ASan pays a shadow check per instrumented access and redzone/
      quarantine work per allocation — so allocation-intensive programs
      (binarytrees) hurt the most;
    - Valgrind pays a translation overhead on *every* operation plus
      A/V-bit bookkeeping per memory access; FP-heavy code (spectralnorm)
      has high native per-op latency already, so its *relative* slowdown
      is the smallest — exactly the paper's 2.3x-58x spread;
    - Safe Sulong interprets at AST-interpreter speed until a function is
      hot, then runs code compiled under *safe* semantics: close to
      native on scalars and floats, with a residual bounds-check cost on
      memory accesses and cheap (GC/TLAB) allocation — which is why
      binarytrees is only ~1.7x while the shadow-memory tools explode.

    Absolute constants are calibrated so a few fixed points land near the
    paper's measurements (documented next to each constant); everything
    else *emerges* from the instruction mix. *)

let clock_hz = 2.6e9 (* the paper's i7-6700HQ *)

(* --- native machine op latencies (cycles, throughput-ish) --------- *)

let c_op = 1.0       (* int ALU *)
let c_fp = 8.0       (* FP add/mul/div/sqrt mix; latency dominates *)
let c_mem = 1.6      (* load/store incl. some cache misses *)
let c_call = 4.0
let c_branch = 1.2

(* Flat per-call costs of the precompiled libc's internal work (native
   engines only; Safe Sulong interprets its libc so this is measured
   there, not modelled). *)
let libc_call_cycles name =
  match name with
  | "printf" | "fprintf" | "sprintf" | "snprintf" | "puts" | "fputs" -> 350.0
  | "scanf" | "fscanf" | "fgets" -> 250.0
  | "malloc" | "calloc" | "realloc" -> 60.0
  | "free" -> 35.0
  | "strlen" | "strcmp" | "strncmp" | "strchr" | "strrchr" -> 40.0
  | "strcpy" | "strncpy" | "strcat" | "strncat" | "strstr" | "strtok"
  | "strdup" | "strspn" | "strcspn" ->
    60.0
  | "memcpy" | "memmove" | "memset" | "memcmp" -> 50.0
  | "qsort" -> 400.0
  | "sqrt" | "sin" | "cos" | "atan" | "exp" | "log" | "pow" | "fmod" -> 30.0
  | "putchar" | "fputc" | "getchar" | "fgetc" -> 15.0
  | _ -> 25.0

let libc_total (p : Nexec.profile) (per_call_extra : string -> float) : float =
  Hashtbl.fold
    (fun name count acc ->
      acc +. (float_of_int count *. (libc_call_cycles name +. per_call_extra name)))
    p.Nexec.libc_calls 0.0

let base_cycles (p : Nexec.profile) : float =
  (float_of_int p.Nexec.n_ops *. c_op)
  +. (float_of_int p.Nexec.n_fp *. c_fp)
  +. (float_of_int p.Nexec.n_mem *. c_mem)
  +. (float_of_int p.Nexec.n_calls *. c_call)
  +. (float_of_int p.Nexec.n_branches *. c_branch)

(* --- Clang (plain native) ----------------------------------------- *)

let clang_cycles (p : Nexec.profile) : float =
  base_cycles p +. libc_total p (fun _ -> 0.0)

(* --- ASan ---------------------------------------------------------- *)

let asan_check = 2.2      (* shadow load + compare + branch per access *)
let asan_alloc_extra = 1750.0 (* redzone poisoning + quarantine bookkeeping;
                                calibrated against binarytrees ~14x *)
let asan_free_extra = 900.0

let asan_cycles (p : Nexec.profile) : float =
  base_cycles p
  +. (float_of_int p.Nexec.n_checks *. asan_check)
  +. (float_of_int p.Nexec.n_allocs *. (asan_alloc_extra +. asan_free_extra))
  +. libc_total p (fun name ->
         (* interceptors re-walk their string arguments *)
         match name with
         | "strcpy" | "strcat" | "strlen" | "strcmp" | "puts" | "strstr" -> 45.0
         | "memcpy" | "memmove" | "memset" | "memcmp" -> 25.0
         | _ -> 0.0)

(* --- Valgrind/Memcheck --------------------------------------------- *)

let vg_op_overhead = 5.5   (* VEX dynamic translation, per executed op *)
let vg_mem_overhead = 11.0 (* A/V bit load/update per memory access *)
let vg_block_translate = 3000.0 (* one-time, per basic block *)
let vg_alloc_extra = 8500.0 (* intercepted allocator + freelist;
                               calibrated against binarytrees ~58x *)
let vg_libc_factor = 8.0   (* libc internals run translated too *)

let valgrind_cycles (p : Nexec.profile) : float =
  let ops = p.Nexec.n_ops + p.Nexec.n_fp + p.Nexec.n_calls + p.Nexec.n_branches in
  base_cycles p
  +. (float_of_int ops *. vg_op_overhead)
  +. (float_of_int p.Nexec.n_mem *. (vg_op_overhead +. vg_mem_overhead))
  +. (float_of_int p.Nexec.n_allocs *. vg_alloc_extra)
  +. libc_total p (fun name -> vg_libc_factor *. libc_call_cycles name)

(** Valgrind's one-time translation work (start-up/warm-up, not peak). *)
let valgrind_translation_cycles (p : Nexec.profile) : float =
  float_of_int p.Nexec.n_blocks_translated *. vg_block_translate

(* --- Safe Sulong ---------------------------------------------------- *)

(* AST-interpreter dispatch: every node execution boxes operands and
   dispatches virtually.  Calibrated so the warm-up curve has the
   paper's proportions (first meteor iteration around second 6 on a
   ~40-iterations/s-under-ASan workload: interpretation ~200x slower
   than instrumented native). *)
let interp_dispatch = 1000.0
let interp_call_extra = 1500.0 (* frame + argument boxing *)
let managed_alloc = 180.0     (* TLAB bump + init + GC amortized *)
let managed_alloc_per_byte = 1.8

(* A function's operation counts by cost class: floating-point work
   (float binops, fcmps), memory accesses (loads, stores), and every
   other operation, calls included; calls also pay their own extra. *)
let count (c : Interp.counters) k = c.Interp.c_kinds.(k)
let n_fp c = count c Interp.k_fbinop + count c Interp.k_fcmp
let n_mem c = count c Interp.k_load + count c Interp.k_store
let n_ops c = Interp.total_ops c - n_fp c - n_mem c
let n_calls c = count c Interp.k_call

let sulong_interp_fn_cycles (c : Interp.counters) : float =
  (float_of_int (Interp.total_ops c) *. interp_dispatch)
  +. (float_of_int (n_ops c) *. c_op)
  +. (float_of_int (n_fp c) *. c_fp)
  +. (float_of_int (n_mem c) *. c_mem)
  +. (float_of_int (n_calls c) *. interp_call_extra)

(* Compiled under safe semantics: scalar/FP work at native speed (Graal
   is a real compiler), memory accesses keep a residual bounds/liveness
   check where the compiler cannot prove them away. *)
let compiled_check_residual = 3.0

let sulong_compiled_fn_cycles (c : Interp.counters) : float =
  (float_of_int (n_ops c) *. (c_op +. 0.35))
  +. (float_of_int (n_fp c) *. c_fp)
  +. (float_of_int (n_mem c) *. (c_mem +. compiled_check_residual))
  +. (float_of_int (n_calls c) *. (c_call +. 1.0))

let sulong_alloc_cycles ~(allocs : int) ~(bytes : int) : float =
  (float_of_int allocs *. managed_alloc)
  +. (float_of_int bytes *. managed_alloc_per_byte)

(* --- start-up (paper §4.2) ----------------------------------------- *)

(* Environment constants, calibrated to the paper's measurements for
   hello world: Safe Sulong ~600 ms (JVM init + libc parse), Valgrind
   ~500 ms (instrumenting the binary), ASan < 10 ms. *)
let jvm_init_s = 0.38
let sulong_parse_s_per_instr = 8.0e-5 (* parser + AST construction *)
let asan_startup_s = 0.006
let valgrind_startup_s = 0.47 (* tool load + initial translation *)
let native_startup_s = 0.002

(* --- JIT tier policy (paper §4.2 warm-up) --------------------------- *)

let hot_threshold_ops = 1_000_000 (* interpreted ops in a function before
                                   it is queued for compilation *)

(* Inlining policy for the closure compiler (DESIGN.md §11): a direct
   call to a tiny leaf callee is inlined into the caller's compiled
   body.  The budget bounds total inlined instructions per caller so
   pathological call graphs cannot blow up compile time. *)
let inline_always_instrs = 24
let inline_budget_instrs = 1024
let compile_cycles_per_instr = 1.2e7 (* Graal partial evaluation is
                                        expensive: ~0.35 s for a
                                        100-instruction function *)
let compile_cycles_base = 1.2e9

let seconds cycles = cycles /. clock_hz
