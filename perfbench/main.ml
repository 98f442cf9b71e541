(** The repository benchmark: three workloads, each run in its own
    process, that together cover every layer the engine is built from.

    - [bugs]: every ground-truth bug program of the corpus, plus the
      repaired variants, goes from C source to a verdict through
      [Engine.run Engine.Safe_sulong].  The start-up path dominates:
      front end, libc link and verify, prepare.
    - [compute]: binarytrees and the peak-performance suite, loaded once,
      each unit one run from a fresh tiered interpreter state with the
      production hotness threshold.  Execution dominates, in both tiers
      and on the managed heap.
    - [difftest]: one differential-testing seed per unit through
      [Difftest.run_seed].  The middle end and the native simulator
      dominate.

    An untraced run times the workload's entry point per unit and reports
    the end-to-end metrics.  A traced run ([--trace 1]) replays every unit
    as the sequence of public calls the entry point makes, each under a
    span, and reports per-layer self time and counts; it also runs the
    entry point on the same unit and demands identical results.  See
    README.md beside this file. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

(** What one unit produced, normalized so that the entry-point run and
    its traced replay compare for equality. *)
type obs = { verdict : string; output : string; steps : int }

type job = {
  j_name : string;
  j_plain : unit -> obs;  (** the workload's entry point *)
  j_traced : unit -> obs;
      (** the same work as the public calls the entry point makes, each
          wrapped in a span *)
  j_check : obs -> bool;  (** the workload's correctness oracle *)
}

(* The outcome keys of [Oracle.outcome_key], from the engines' own
   results, mapped as [Engine.run] and [Oracle.run_config] map them. *)
let managed_key (r : Interp.run_result) =
  if r.Interp.timed_out then "timeout"
  else
    match r.Interp.error with
    | Some (cat, _) -> "detected:" ^ Merror.category_name cat
    | None -> Printf.sprintf "finished:%d" r.Interp.exit_code

let native_key (r : Nexec.run_result) =
  if r.Nexec.timed_out then "timeout"
  else
    match (r.Nexec.report, r.Nexec.crash) with
    | Some rep, _ -> "detected:" ^ rep.Hooks.kind
    | None, Some _ -> "crashed"
    | None, None -> Printf.sprintf "finished:%d" r.Nexec.exit_code

(* ------------------------------------------------------------------ *)
(* Spans and counts (traced runs only)                                 *)
(* ------------------------------------------------------------------ *)

type span = {
  s_name : string;
  s_unit : int;
  s_parent : int;  (** index of the enclosing span; -1 for a unit root *)
  s_t0 : float;
  mutable s_t1 : float;
}

let spans : span list ref = ref []
let n_spans = ref 0
let parent = ref (-1)
let cur_unit = ref 0

let span name f =
  let id = !n_spans in
  let saved = !parent in
  let s =
    { s_name = name; s_unit = !cur_unit; s_parent = saved; s_t0 = now ();
      s_t1 = nan }
  in
  spans := s :: !spans;
  incr n_spans;
  parent := id;
  Fun.protect f ~finally:(fun () ->
      s.s_t1 <- now ();
      parent := saved)

(** Counts the program's layers make, summed over the traced units. *)
type counts = {
  mutable tokens : int;
  mutable lower_instrs : int;
  mutable verify_instrs : int;
  mutable prepared_funcs : int;
  mutable isteps : int;
  mutable opt_rounds : int;
  mutable compiles : int;
  mutable osr_entries : int;
  mutable deopts : int;
  mutable allocs : int;
  mutable alloc_bytes : int;
  mutable native_steps : int;
}

let c =
  { tokens = 0; lower_instrs = 0; verify_instrs = 0; prepared_funcs = 0;
    isteps = 0; opt_rounds = 0; compiles = 0; osr_entries = 0; deopts = 0;
    allocs = 0; alloc_bytes = 0; native_steps = 0 }

(* The flight recorder's per-kind counters count every recorded event;
   the 256-entry ring itself can wrap within one unit. *)
let event_count kind = (Metrics.counter ("events." ^ kind)).Metrics.c_value

(* Traced replicas of the public calls the entry points make. *)

let frontend ?string_prefix ?file ?start_line src =
  let toks = span "Lexer.tokenize" (fun () -> Lexer.tokenize ?start_line src) in
  c.tokens <- c.tokens + List.length toks;
  let prog = span "Parser.parse" (fun () -> Parser.parse toks) in
  let env = span "Sema.check" (fun () -> Sema.check prog) in
  let m =
    span "Lower.lower" (fun () -> Lower.lower ?string_prefix ?file env prog)
  in
  c.lower_instrs <- c.lower_instrs + Irmod.instr_count m;
  m

(* [Loader.compile_user]: the prelude goes in front of the user source
   and the line counter starts below 1 so user lines keep their numbers. *)
let prelude_lines =
  String.fold_left
    (fun n ch -> if ch = '\n' then n + 1 else n)
    0 Libc_src.prelude

let compile_user src =
  frontend ~start_line:(1 - prelude_lines) (Libc_src.prelude ^ src)

let verify m =
  span "Verify.verify" (fun () -> Verify.verify m);
  c.verify_instrs <- c.verify_instrs + Irmod.instr_count m

let copy m = span "Irmod.copy" (fun () -> Irmod.copy m)
let link m extra = span "Irmod.link" (fun () -> Irmod.link m extra)

let traced_tier (base : Interp.tierctl) : Interp.tierctl =
  {
    base with
    Interp.tc_compile =
      (fun st pf ->
        c.compiles <- c.compiles + 1;
        span "Closcomp.compile" (fun () -> base.Interp.tc_compile st pf));
  }

let interp_create ?step_limit ?input ?tier m =
  let st =
    span "Interp.create" (fun () -> Interp.create ?step_limit ?input ?tier m)
  in
  c.prepared_funcs <- c.prepared_funcs + Hashtbl.length st.Interp.funcs;
  st

let interp_run ?argv st =
  let osr0 = event_count "osr_enter" and deopt0 = event_count "deopt" in
  let r = span "Interp.run" (fun () -> Interp.run ?argv st) in
  c.isteps <- c.isteps + r.Interp.steps;
  c.osr_entries <- c.osr_entries + event_count "osr_enter" - osr0;
  c.deopts <- c.deopts + event_count "deopt" - deopt0;
  c.allocs <- c.allocs + st.Interp.heap.Mheap.alloc_count;
  c.alloc_bytes <- c.alloc_bytes + st.Interp.heap.Mheap.alloc_bytes;
  r

let managed_obs (r : Interp.run_result) =
  { verdict = managed_key r; output = r.Interp.output; steps = r.Interp.steps }

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(** The libc front end every workload needs first.  Repetition 0 fills
    the loader's cache that later units use; the cache cannot be
    cleared, so later repetitions redo the same front-end work
    directly. *)
let libc_frontend rep =
  if rep = 0 then ignore (Loader.libc_module_shared ())
  else
    ignore
      (Lower.frontend ~string_prefix:".libc.str" ~file:"<libc>"
         Libc_src.source)

let compute_programs = Benchprogs.binarytrees :: Benchprogs.perf_suite

let read_file path = In_channel.with_open_bin path In_channel.input_all

(** Where the reference outputs live, relative to the repository root
    the benchmark runs from. *)
let expected_dir = "perfbench/expected"

(** Expected stdout and exit code of a compute program or a repaired
    bug program, recorded from the Clang -O0 native engine
    ([--record-expected]). *)
let expected_of name =
  let file ext = Filename.concat expected_dir (name ^ ext) in
  let out = read_file (file ".stdout") in
  let code = int_of_string (String.trim (read_file (file ".exit"))) in
  (out, code)

let fixed_name (p : Groundtruth.program) = p.Groundtruth.id ^ "-fixed"

(* [Effectiveness.run_program]'s budget: a verdict, never a hang. *)
let bug_step_limit = 50_000_000

let bug_job ~name ~src ~argv ~input ~expect : job =
  let plain () =
    let r =
      Engine.run ~argv ~input ~step_limit:bug_step_limit Engine.Safe_sulong src
    in
    { verdict = Oracle.outcome_key r.Engine.outcome; output = r.Engine.output;
      steps = r.Engine.steps }
  in
  let traced () =
    (* Engine.run Safe_sulong = Loader.load_program, then
       Pipeline.compile_sulong, Interp.create and Interp.run *)
    let user = compile_user src in
    let m = link user (copy (Loader.libc_module_shared ())) in
    verify m;
    span "Pipeline.compile_sulong" (fun () -> Pipeline.compile_sulong m);
    let st = interp_create ~step_limit:bug_step_limit ~input m in
    managed_obs (interp_run ~argv st)
  in
  { j_name = name; j_plain = plain; j_traced = traced; j_check = expect }

(** The 68 bug programs and the 8 repaired variants.  A bug must be
    detected with the kind its ground-truth category maps to (the
    mapping test/test_corpus.ml pins).  A repaired variant must finish
    with nothing detected and with the exit code and stdout recorded
    from Clang -O0: GL-R02's repair rejects the bug's out-of-range input
    with exit 1, so "exit 0" would be the wrong oracle. *)
let bug_jobs () : job array =
  List.concat_map
    (fun (p : Groundtruth.program) ->
      let argv = p.Groundtruth.argv and input = p.Groundtruth.input in
      let expect k =
        match p.Groundtruth.category with
        | Groundtruth.Oob _ -> k = "detected:out-of-bounds"
        | Groundtruth.Null_dereference -> k = "detected:null-dereference"
        | Groundtruth.Use_after_free -> k = "detected:use-after-free"
        | Groundtruth.Varargs ->
          k = "detected:out-of-bounds" || k = "detected:varargs"
      in
      bug_job ~name:p.Groundtruth.id ~src:p.Groundtruth.source ~argv ~input
        ~expect:(fun o -> expect o.verdict)
      ::
      (match p.Groundtruth.fixed with
      | None -> []
      | Some src ->
        let out, code = expected_of (fixed_name p) in
        [ bug_job ~name:(fixed_name p) ~src ~argv ~input
            ~expect:(fun o ->
              o.verdict = Printf.sprintf "finished:%d" code && o.output = out) ]))
    Corpus.all
  |> Array.of_list

let compute_job (b : Benchprogs.bench) : job =
  let m = Loader.load_program b.Benchprogs.b_source in
  let out, code = expected_of b.Benchprogs.b_name in
  let plain () =
    managed_obs (Interp.run (Interp.create ~tier:(Tier.controller ()) m))
  in
  let traced () =
    let st = interp_create ~tier:(traced_tier (Tier.controller ())) m in
    managed_obs (interp_run st)
  in
  { j_name = b.Benchprogs.b_name; j_plain = plain; j_traced = traced;
    j_check =
      (fun o -> o.verdict = Printf.sprintf "finished:%d" code && o.output = out) }

let features = Cgen.all_features

(** [Oracle.check]'s verdict over the observations of every
    configuration: all agree, finish with 0, and start with the
    reference evaluator's prefix. *)
let oracle_verdict expected = function
  | [] -> "no-configs"
  | (k0, o0) :: rest ->
    if List.exists (fun (k, o) -> k <> k0 || o <> o0) rest then "diverge"
    else if k0 <> "finished:0" then "reject:" ^ k0
    else if not (String.starts_with ~prefix:expected o0) then
      "diverge:reference"
    else "agree"

let difftest_job seed : job =
  let plain () =
    let s0 = Oracle.steps_total () in
    let verdict =
      match Difftest.run_seed ~features seed with
      | `Agree -> "agree"
      | `Reject why -> "reject:" ^ why
      | `Diverge d -> "diverge:" ^ d.Difftest.dv_mismatch
    in
    { verdict; output = ""; steps = Oracle.steps_total () - s0 }
  in
  let traced () =
    (* Difftest.run_seed, then Oracle.check: one front end per folding
       mode, then Oracle.run_config for every configuration in order *)
    Events.reset ();
    let p = span "Cgen.generate" (fun () -> Cgen.generate ~features ~seed ()) in
    let src = span "Cprog.render" (fun () -> Cprog.render p) in
    let expected =
      span "Cprog.expected_prefix" (fun () -> Cprog.expected_prefix p)
    in
    let frontend_of fold =
      let user = lazy (Oracle.with_fe_fold fold (fun () -> compile_user src)) in
      let managed =
        lazy
          (let m = link (Lazy.force user) (Loader.libc_module_shared ()) in
           verify m;
           m)
      in
      (user, managed)
    in
    let fold_fe = frontend_of true and nofold_fe = frontend_of false in
    let steps = ref 0 in
    let run_config (cfg : Oracle.config) =
      let user, managed = if cfg.Oracle.cfg_fe_fold then fold_fe else nofold_fe in
      match cfg.Oracle.cfg_target with
      | `Native level ->
        (* Engine.run_clang_module *)
        let m = copy (Lazy.force user) in
        (match level with
        | Pipeline.O3 ->
          c.opt_rounds <- c.opt_rounds + span "Pipeline.o3" (fun () -> Pipeline.o3 m)
        | Pipeline.O0 -> ());
        ignore (span "Pipeline.backend" (fun () -> Pipeline.backend m));
        verify m;
        let st =
          span "Nexec.create" (fun () ->
              Nexec.create ~step_limit:Oracle.step_limit ~input:"" m)
        in
        let r = span "Nexec.run" (fun () -> Nexec.run ~argv:[ "program" ] st) in
        c.native_steps <- c.native_steps + r.Nexec.steps;
        (native_key r, r.Nexec.output)
      | `Managed mode ->
        let linked = Lazy.force managed in
        let m =
          match mode with
          | `Plain | `Tiered -> linked
          | `FoldOnly ->
            let m = copy linked in
            let rounds = ref 0 in
            while !rounds < 8 && span "Fold.run" (fun () -> Fold.run m) do
              incr rounds
            done;
            c.opt_rounds <- c.opt_rounds + !rounds;
            verify m;
            m
          | `SafeJit ->
            let m = copy linked in
            c.opt_rounds <-
              c.opt_rounds + span "Pipeline.safe_jit" (fun () -> Pipeline.safe_jit m);
            verify m;
            m
        in
        let tier =
          match mode with
          | `Tiered -> Some (traced_tier (Tier.controller ~threshold:0 ()))
          | `Plain | `FoldOnly | `SafeJit -> None
        in
        let st = interp_create ~step_limit:Oracle.step_limit ~input:"" ?tier m in
        let r = interp_run ~argv:[ "program" ] st in
        steps := !steps + r.Interp.steps;
        (managed_key r, r.Interp.output)
    in
    let verdict = oracle_verdict expected (List.map run_config Oracle.configs) in
    { verdict; output = ""; steps = !steps }
  in
  { j_name = Printf.sprintf "seed-%d" seed; j_plain = plain; j_traced = traced;
    j_check = (fun o -> o.verdict = "agree") }

(* Seeds 0-6399 are checked clean (every seed agrees); a run seed picks
   one of 16 blocks of 400 and wraps inside it. *)
let difftest_blocks = 16
let difftest_block_len = 400

(** A seeded order of [n] units for pass [pass]. *)
let permutation ~seed ~pass n =
  let rng = Random.State.make [| seed; pass |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** The units of a timed run: unit index -> job.  A run ends on a
    multiple of [pass] units, so every unit of a fixed list is timed
    equally often. *)
type source = { pass : int; job_of : int -> job }

(** Round-robin over a fixed unit list, one seeded order per pass.  The
    run asks for units 0, 1, 2, ... in turn, so only the current pass's
    order is kept. *)
let passes ~seed (jobs : job array) : source =
  let n = Array.length jobs in
  let order = ref [||] in
  let job_of i =
    if i mod n = 0 then order := permutation ~seed ~pass:(i / n) n;
    jobs.(!order.(i mod n))
  in
  { pass = n; job_of }

(** Each workload's set-up, one repetition of it per call. *)
let workloads : (string * (seed:int -> rep:int -> source)) list =
  [
    ( "bugs",
      fun ~seed ~rep ->
        libc_frontend rep;
        passes ~seed (bug_jobs ()) );
    ( "compute",
      fun ~seed ~rep ->
        libc_frontend rep;
        passes ~seed (Array.of_list (List.map compute_job compute_programs)) );
    ( "difftest",
      fun ~seed ~rep ->
        libc_frontend rep;
        let block = ((seed mod difftest_blocks) + difftest_blocks) mod difftest_blocks in
        let start = block * difftest_block_len in
        { pass = 1; job_of = (fun i -> difftest_job (start + (i mod difftest_block_len))) } );
  ]

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)
(* ------------------------------------------------------------------ *)

(** Peak resident set size ([VmHWM]) since the process started or since
    the last [reset_peak_rss], in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM not found in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(** Restart the peak at the current resident size (Linux >= 4.0). *)
let reset_peak_rss () =
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
      output_string oc "5")

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-24s %14.4f %s\n" name v unit)
    metrics;
  let str s = "\"" ^ Metrics.json_escape s ^ "\"" in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (str name) v
             (str unit))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(** Set-up repeats until this much wall time has passed; [setup_s] is
    the median repetition.  Over two seconds the median sees many of the
    machine's sub-second fast and slow spells, not a handful. *)
let setup_min_s = 2.0

let guarded f = try Some (f ()) with _ -> None

(** Keep going until [seconds] have passed and a pass is complete, or
    for exactly [units] units. *)
let more ~units ~seconds ~pass ~t_start i =
  match units with
  | Some n -> i < n
  | None -> now () -. t_start < seconds || i mod pass <> 0

let untraced { job_of; pass } ~units ~seconds ~setup_s =
  let lat = ref [] and ok = ref 0 and i = ref 0 in
  (* Peak RSS per one-second window of the timed phase, set-up excluded.
     The whole-run peak is bimodal on difftest: whether a fourth 16 MiB
     native memory is still unswept at some instant depends on GC pacing
     (82 or 96 MB on identical runs); the median window is not. *)
  let peaks = ref [] in
  reset_peak_rss ();
  let t_start = now () in
  let window = ref t_start in
  while more ~units ~seconds ~pass ~t_start !i do
    let job = job_of !i in
    let t0 = now () in
    let o = guarded job.j_plain in
    lat := (now () -. t0) *. 1e3 :: !lat;
    (match o with
    | Some o when job.j_check o -> incr ok
    | Some o -> Printf.printf "wrong result on %s: %s\n" job.j_name o.verdict
    | None -> Printf.printf "exception on %s\n" job.j_name);
    if now () -. !window >= 1.0 then begin
      peaks := peak_rss_mb () :: !peaks;
      reset_peak_rss ();
      window := now ()
    end;
    incr i
  done;
  let wall = now () -. t_start in
  if !peaks = [] then peaks := [ peak_rss_mb () ];
  let n = !i in
  Printf.printf "units=%d ok=%d wall=%.3fs\n" n !ok wall;
  print_result ~correct:(!ok = n) ~attempted:n ~failed:(n - !ok)
    [
      ("setup_s", setup_s, "s");
      ("unit_ms.p50", Stats.median !lat, "ms");
      ("unit_ms.p90", Stats.quantile !lat 0.9, "ms");
      ("units_per_s", float n /. wall, "1/s");
      ("rss_peak_mb", Stats.median !peaks, "MB");
      ("ok_frac", float !ok /. float n, "fraction");
    ]

(** Every span name the replays use, and the layer its self time goes
    to.  [opt.ms] is the whole middle end; [opt.safe_jit_ms] and
    [opt.o3_ms] are its two pipelines. *)
let layer_of = function
  | "Lexer.tokenize" | "Parser.parse" | "Sema.check" -> "cfront.ms"
  | "Lower.lower" -> "lower.ms"
  | "Irmod.copy" | "Irmod.link" -> "ir.link_ms"
  | "Verify.verify" -> "ir.verify_ms"
  | "Interp.create" -> "interp.prepare_ms"
  | "Interp.run" -> "interp.execute_ms"
  | "Closcomp.compile" -> "jit.compile_ms"
  | "Pipeline.safe_jit" | "Pipeline.o3" | "Pipeline.backend"
  | "Pipeline.compile_sulong" | "Fold.run" ->
    "opt.ms"
  | "Nexec.create" -> "native.create_ms"
  | "Nexec.run" -> "native.run_ms"
  | "Cgen.generate" | "Cprog.render" | "Cprog.expected_prefix" ->
    "difftest.generate_ms"
  | "unit" -> "bench.unaccounted_ms"
  | other -> failwith ("perfbench: span without a layer: " ^ other)

(** The largest share of traced unit time that may fall outside every
    layer span.  That time is the replay's own glue: prelude
    concatenation, result mapping, counting.  Work a replay does outside
    the calls it mirrors shows up here. *)
let max_unaccounted = 0.1

(** Chrome trace_event document of the recorded spans: one complete
    ("X") event per span, microseconds from the first span. *)
let chrome_trace (spans : span array) ~(names : string array) =
  let b = Buffer.create (128 * (Array.length spans + 1)) in
  let base = if spans = [||] then 0. else spans.(0).s_t0 in
  let pid = Unix.getpid () in
  Buffer.add_string b "{\"traceEvents\":[";
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1,\"args\":{\"unit\":%d,\"parent\":%d,\"job\":\"%s\"}}"
        (Metrics.json_escape s.s_name)
        ((s.s_t0 -. base) *. 1e6)
        ((s.s_t1 -. s.s_t0) *. 1e6)
        pid s.s_unit s.s_parent
        (Metrics.json_escape names.(s.s_unit)))
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(** Read a written trace back: it must validate as a Chrome trace, hold
    one event per span, and its unit spans must add up to [unit_us]. *)
let check_trace doc ~n ~unit_us =
  match Trace.validate doc with
  | Error msg -> Error ("trace does not validate: " ^ msg)
  | Ok () -> (
    match Trace.parse_json doc with
    | Trace.Jobj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Trace.Jarr evs) ->
        let units =
          List.fold_left
            (fun acc ev ->
              match ev with
              | Trace.Jobj f when List.assoc_opt "name" f = Some (Trace.Jstr "unit") -> (
                match List.assoc_opt "dur" f with
                | Some (Trace.Jnum d) -> acc +. d
                | _ -> acc)
              | _ -> acc)
            0. evs
        in
        if List.length evs <> n then
          Error (Printf.sprintf "trace holds %d events, %d spans recorded"
                   (List.length evs) n)
        else if Float.abs (units -. unit_us) > 1e-3 *. float n +. 1e-6 *. unit_us then
          Error (Printf.sprintf "trace unit time %.3f us, recorded %.3f us" units unit_us)
        else Ok ()
      | _ -> Error "trace has no event array")
    | _ -> Error "trace is not an object")

let traced ~workload { job_of; pass } ~units ~seconds =
  let ok = ref 0 and mismatches = ref 0 and i = ref 0 in
  let plain_s = ref 0. and minor = ref 0. and major = ref 0. in
  let names = ref [] in
  let t_start = now () in
  while more ~units ~seconds ~pass ~t_start !i do
    let job = job_of !i in
    names := job.j_name :: !names;
    cur_unit := !i;
    let run_plain () =
      let t0 = now () in
      let o = guarded job.j_plain in
      plain_s := !plain_s +. (now () -. t0);
      o
    in
    let run_traced () =
      let g0 = Gc.quick_stat () in
      let o = guarded (fun () -> span "unit" job.j_traced) in
      let g1 = Gc.quick_stat () in
      minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
      major := !major +. g1.Gc.major_words -. g0.Gc.major_words;
      o
    in
    (* alternate which runs first, so neither always finds warm caches *)
    let p, t =
      if !i mod 2 = 0 then
        let p = run_plain () in
        (p, run_traced ())
      else
        let t = run_traced () in
        (run_plain (), t)
    in
    (match (p, t) with
    | Some p, Some t when t = p ->
      if job.j_check t then incr ok
      else Printf.printf "wrong result on %s: %s\n" job.j_name t.verdict
    | Some p, Some t ->
      incr mismatches;
      Printf.printf "mismatch on %s: entry point %s/%d steps, replay %s/%d steps\n"
        job.j_name p.verdict p.steps t.verdict t.steps
    | _ -> Printf.printf "exception on %s\n" job.j_name);
    incr i
  done;
  let n = !i in
  let spans = Array.of_list (List.rev !spans) in
  let names = Array.of_list (List.rev !names) in
  (* self time = duration minus the part covered by direct children *)
  let child = Array.make (Array.length spans) 0. in
  Array.iter
    (fun s -> if s.s_parent >= 0 then
        child.(s.s_parent) <- child.(s.s_parent) +. (s.s_t1 -. s.s_t0))
    spans;
  let self = Hashtbl.create 16 in
  let add k v = Hashtbl.replace self k (v +. Option.value ~default:0. (Hashtbl.find_opt self k)) in
  let unit_s = ref 0. in
  Array.iteri
    (fun id s ->
      let self_s = s.s_t1 -. s.s_t0 -. child.(id) in
      add (layer_of s.s_name) self_s;
      (match s.s_name with
      | "Pipeline.safe_jit" -> add "opt.safe_jit_ms" self_s
      | "Pipeline.o3" -> add "opt.o3_ms" self_s
      | _ -> ());
      if s.s_parent < 0 then unit_s := !unit_s +. (s.s_t1 -. s.s_t0))
    spans;
  let layer_s k = Option.value ~default:0. (Hashtbl.find_opt self k) in
  let unaccounted_ok = layer_s "bench.unaccounted_ms" <= max_unaccounted *. !unit_s in
  if not unaccounted_ok then
    Printf.printf "%.6fs of %.6fs traced unit time is outside every layer span\n"
      (layer_s "bench.unaccounted_ms") !unit_s;
  let doc = chrome_trace spans ~names in
  let trace_out = Printf.sprintf ".perfbench/trace-%s.json" workload in
  if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  Out_channel.with_open_bin trace_out (fun oc -> output_string oc doc);
  let trace_ok =
    match check_trace (read_file trace_out) ~n:(Array.length spans)
            ~unit_us:(!unit_s *. 1e6) with
    | Ok () -> true
    | Error msg -> Printf.printf "%s\n" msg; false
  in
  let per x = x /. float n in
  let ms k = per (layer_s k *. 1e3) in
  let count v = per (float v) in
  Printf.printf "units=%d ok=%d mismatches=%d spans=%d trace=%s\n" n !ok
    !mismatches (Array.length spans) trace_out;
  print_result ~correct:(!ok = n && unaccounted_ok && trace_ok) ~attempted:n
    ~failed:(n - !ok)
    [
      ("ir.verify_ms", ms "ir.verify_ms", "ms");
      ("ir.verify_instrs", count c.verify_instrs, "count");
      ("ir.link_ms", ms "ir.link_ms", "ms");
      ("cfront.ms", ms "cfront.ms", "ms");
      ("cfront.tokens", count c.tokens, "count");
      ("lower.ms", ms "lower.ms", "ms");
      ("lower.instrs", count c.lower_instrs, "count");
      ("interp.prepare_ms", ms "interp.prepare_ms", "ms");
      ("interp.prepared_funcs", count c.prepared_funcs, "count");
      ("interp.execute_ms", ms "interp.execute_ms", "ms");
      ("interp.steps", count c.isteps, "count");
      ("jit.compile_ms", ms "jit.compile_ms", "ms");
      ("jit.compiles", count c.compiles, "count");
      ("jit.osr_entries", count c.osr_entries, "count");
      ("jit.deopts", count c.deopts, "count");
      ("managed.allocs", count c.allocs, "count");
      ("managed.alloc_kb", per (float c.alloc_bytes /. 1024.), "kB");
      ("opt.ms", ms "opt.ms", "ms");
      ("opt.safe_jit_ms", ms "opt.safe_jit_ms", "ms");
      ("opt.o3_ms", ms "opt.o3_ms", "ms");
      ("opt.rounds", count c.opt_rounds, "count");
      ("native.create_ms", ms "native.create_ms", "ms");
      ("native.run_ms", ms "native.run_ms", "ms");
      ("native.steps", count c.native_steps, "count");
      ("difftest.generate_ms", ms "difftest.generate_ms", "ms");
      ("host.minor_mwords", per (!minor /. 1e6), "Mwords");
      ("host.major_mwords", per (!major /. 1e6), "Mwords");
      ("bench.unaccounted_ms", ms "bench.unaccounted_ms", "ms");
      ("bench.trace_overhead", (!unit_s -. !plain_s) /. !plain_s, "ratio");
    ]

(** Write the expected stdout and exit code of the compute programs and
    the repaired bug programs, taken from the Clang -O0 native engine: an
    implementation independent of the managed interpreter and its
    closure compiler. *)
let record_expected () =
  let record name ?argv ?input src =
    let r = Engine.run ?argv ?input (Engine.Clang Pipeline.O0) src in
    match r.Engine.outcome with
    | Outcome.Finished code ->
      let write ext s =
        Out_channel.with_open_bin
          (Filename.concat expected_dir (name ^ ext))
          (fun oc -> output_string oc s)
      in
      write ".stdout" r.Engine.output;
      write ".exit" (Printf.sprintf "%d\n" code)
    | o ->
      failwith
        (Printf.sprintf "%s: %s under Clang -O0" name (Outcome.to_string o))
  in
  List.iter
    (fun (b : Benchprogs.bench) -> record b.Benchprogs.b_name b.Benchprogs.b_source)
    compute_programs;
  List.iter
    (fun (p : Groundtruth.program) ->
      Option.iter
        (record (fixed_name p) ~argv:p.Groundtruth.argv ~input:p.Groundtruth.input)
        p.Groundtruth.fixed)
    Corpus.all

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and units = ref 0 and record = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME bugs, compute or difftest");
      ("--seed", Arg.Set_int seed, "N workload seed (unit order; difftest seed block)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--units", Arg.Set_int units, "N run exactly N units instead of --seconds");
      ("--record-expected", Arg.Set record,
       " record the reference outputs into " ^ expected_dir ^ " and exit");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !record then record_expected ()
  else
    match List.assoc_opt !workload workloads with
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
    | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "perfbench: --trace takes 0 or 1";
      exit 2
    | Some _ when !units < 0 || (!units = 0 && !seconds <= 0.) ->
      prerr_endline "perfbench: need --seconds > 0 or --units > 0";
      exit 2
    | Some setup ->
      let times = ref [] and source = ref None in
      let t_setup = now () in
      (* No forced collection between repetitions: hundreds of
         [Gc.full_major] calls upset the collector's pacing, and the heap
         of the timed phase then grew to 180 MB instead of 20.  Each
         repetition pays for its own garbage instead. *)
      while Option.is_none !source || now () -. t_setup < setup_min_s do
        let t0 = now () in
        source := Some (setup ~seed:!seed ~rep:(List.length !times));
        times := (now () -. t0) :: !times
      done;
      let source = Option.get !source in
      let setup_s = Stats.median !times in
      (* the timed phase starts from a collected heap *)
      Gc.full_major ();
      let units = if !units > 0 then Some !units else None in
      Printf.printf "perfbench %s seed=%d trace=%d setup=%.4fs (median of %d)\n"
        !workload !seed !trace setup_s (List.length !times);
      if !trace = 0 then untraced source ~units ~seconds:!seconds ~setup_s
      else traced ~workload:!workload source ~units ~seconds:!seconds
