(** The user-facing tool: run a C program under Safe Sulong or one of the
    baseline engines, inspect its IR, run the bug corpus, or regenerate
    the paper's experiments.

      sulong run file.c --engine sulong
      sulong run file.c --engine asan -O3 --arg foo --input "42"
      sulong ir file.c -O3
      sulong corpus --id ST-W05
      sulong report fig16
      sulong difftest --seeds 500 --shrink --json BENCH_difftest.json *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------------- run ---------------- *)

let engine_of_string name level =
  let lv = if level = 3 then Pipeline.O3 else Pipeline.O0 in
  match name with
  | "sulong" | "safe-sulong" -> Ok Engine.Safe_sulong
  | "clang" | "native" -> Ok (Engine.Clang lv)
  | "asan" -> Ok (Engine.Asan lv)
  | "valgrind" | "memcheck" -> Ok (Engine.Valgrind lv)
  | other -> Error (Printf.sprintf "unknown engine %S" other)

(* Observability session around a subcommand: enable the metric
   registry and/or install a trace sink up front, dump both at the end.
   Metrics go to stderr so program output on stdout stays clean. *)
let obs_begin ~metrics ~trace_file =
  if metrics <> None then Metrics.enabled := true;
  if trace_file <> None then Trace.start ()

let obs_end ~metrics ~trace_file (code : int) : int =
  (match trace_file with
  | Some path ->
    let json = Trace.finish () in
    let oc = open_out_bin path in
    output_string oc json;
    close_out oc;
    (match Trace.validate json with
    | Ok () -> Printf.eprintf "trace written to %s\n" path
    | Error e ->
      Printf.eprintf "warning: trace %s failed validation: %s\n" path e)
  | None -> ());
  (match metrics with
  | Some "json" -> prerr_endline (Metrics.to_json ())
  | Some _ -> prerr_string (Metrics.to_text ())
  | None -> ());
  code

(* Render the guest profile in the requested format and deliver it to
   [--profile-out FILE] or stderr (so program output on stdout stays
   clean, like --metrics). *)
let emit_profile (p : Profile.t) ~(format : string)
    ~(out : string option) : unit =
  let text =
    match format with
    | "folded" -> Profile.folded p
    | "json" -> Profile.to_json p ^ "\n"
    | _ -> Profile.top_table p
  in
  match out with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc;
    Printf.eprintf "profile written to %s\n" path
  | None -> prerr_string text

(* Rejected input ends as a diagnostic on stderr and exit code 2. *)
let diagnosing file f =
  try f () with
  | Diag.Error (pos, msg) ->
    Printf.eprintf "%s: %s\n" file (Diag.to_string pos msg);
    2
  | Lower.Unsupported (pos, msg) ->
    Printf.eprintf "%s: %d:%d: unsupported: %s\n" file pos.Token.line
      pos.Token.col msg;
    2
  | Irparse.Parse_error (line, msg) ->
    Printf.eprintf "%s:%d: %s\n" file line msg;
    2
  | Verify.Invalid msg ->
    Printf.eprintf "%s: invalid IR: %s\n" file msg;
    2

(* Print a run as [run] reports it and return its exit status.  The
   program's output goes to stdout; the call trace, the guest profile,
   the report of a detected error, the leaks and how a native run ended
   go to stderr. *)
let report_run ?profile ?profile_out ?(detect_leaks = false) tool
    (r : Engine.result) : int =
  let name = Engine.tool_name tool in
  Option.iter
    (fun (m : Interp.run_result) -> prerr_string m.Interp.trace_output)
    r.Engine.managed;
  Option.iter (fun (p, format) -> emit_profile p ~format ~out:profile_out) profile;
  print_string r.Engine.output;
  (match (r.Engine.outcome, r.Engine.managed) with
  | Outcome.Detected _, Some { Interp.report = Some rep; _ } ->
    prerr_string (Bugreport.render rep)
  | Outcome.Detected { tool = t; kind; message }, _ ->
    Printf.eprintf "[%s] ERROR DETECTED (%s): %s\n" t kind message
  | _ -> ());
  (match r.Engine.managed with
  | Some m when detect_leaks ->
    if m.Interp.leaks > 0 then begin
      Printf.eprintf "[Safe Sulong] %d memory leak(s):\n" m.Interp.leaks;
      List.iter (Printf.eprintf "  %s\n") m.Interp.leak_details
    end
    else Printf.eprintf "[Safe Sulong] no memory leaks\n"
  | _ -> ());
  (match (r.Engine.outcome, r.Engine.managed) with
  | Outcome.Finished code, None ->
    Printf.eprintf "[%s] exited with %d (%d operations)\n" name code
      r.Engine.steps
  | Outcome.Crashed what, _ ->
    Printf.eprintf "[%s] program crashed: %s\n" name what
  | Outcome.Timeout, _ -> Printf.eprintf "[%s] step limit exceeded\n" name
  | _ -> ());
  r.Engine.exit_code

let do_run file engine level tiered args input_text detect_uninit detect_leaks
    trace_calls profile profile_out metrics trace_file =
  let src = read_file file in
  match engine_of_string engine level with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok _ when
      (match profile with
      | Some f -> f <> "top" && f <> "folded" && f <> "json"
      | None -> false) ->
    Printf.eprintf "run: --profile takes top, folded or json\n";
    2
  | Ok tool -> begin
    obs_begin ~metrics ~trace_file;
    let managed = tool = Engine.Safe_sulong in
    let code =
      diagnosing file (fun () ->
          if profile <> None && not managed then
            Printf.eprintf "run: --profile is Safe Sulong only; ignored\n";
          let profile =
            if managed then
              Option.map (fun format -> (Profile.create (), format)) profile
            else None
          in
          let r =
            Engine.run ~argv:(file :: args) ~input:input_text
              ?step_limit:(if managed then Some Engine.long_step_limit else None)
              ~detect_uninit ~trace:trace_calls
              ?tier:(if tiered then Some (Tier.controller ()) else None)
              ?profile:(Option.map fst profile) ~file tool src
          in
          report_run ?profile ?profile_out ~detect_leaks tool r)
    in
    obs_end ~metrics ~trace_file code
  end

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"C source file")

let engine_arg =
  Arg.(
    value
    & opt string "sulong"
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:"Execution engine: sulong, clang, asan, or valgrind.")

let level_arg =
  Arg.(
    value & opt int 0
    & info [ "O" ] ~docv:"N" ~doc:"Optimization level (0 or 3).")

let tier_flag =
  Arg.(
    value & flag
    & info [ "tier" ]
        ~doc:
          "Run under the two-tier engine (Safe Sulong only): hot functions \
           are closure-compiled after crossing the hotness threshold.  \
           Compiled code reports a managed error itself, with the \
           interpreter's source locations and call stack, and the function \
           deoptimizes back to the interpreter.")

let args_arg =
  Arg.(
    value & opt_all string []
    & info [ "a"; "arg" ] ~docv:"ARG" ~doc:"Program argument (repeatable).")

let input_arg =
  Arg.(
    value & opt string ""
    & info [ "i"; "input" ] ~docv:"TEXT" ~doc:"Standard input for the program.")

let uninit_flag =
  Arg.(
    value & flag
    & info [ "detect-uninit" ]
        ~doc:
          "Report reads of uninitialized memory (Safe Sulong only; the \
           paper's future-work extension).")

let leaks_flag =
  Arg.(
    value & flag
    & info [ "detect-leaks" ]
        ~doc:"Report heap objects never freed (Safe Sulong only).")

let trace_flag =
  Arg.(
    value & flag
    & info [ "trace-calls" ]
        ~doc:"Print every function entry/exit to stderr (Safe Sulong only).")

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "text") (some string) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "Collect pipeline and runtime metrics and print them to stderr \
           at exit; FORMAT is text (default) or json.")

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the phases (parse, \
           sema, lower, prepare, link, execute, JIT compiles) to $(docv); \
           load it via chrome://tracing or Perfetto.")

let profile_arg =
  Arg.(
    value
    & opt ~vopt:(Some "top") (some string) None
    & info [ "profile" ] ~docv:"FORMAT"
        ~doc:
          "Profile the guest program (Safe Sulong only): exact per-function \
           and per-block attribution of managed steps and wall time, \
           identical across the interpreter and the closure-compiled tier. \
           FORMAT is top (default; a top-N table), folded \
           (flamegraph-compatible folded stacks for flamegraph.pl or \
           speedscope), or json.")

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:"Write the profile to $(docv) instead of stderr.")

let run_cmd =
  let doc = "compile and execute a C file under a bug-finding engine" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const do_run $ file_arg $ engine_arg $ level_arg $ tier_flag $ args_arg
      $ input_arg $ uninit_flag $ leaks_flag $ trace_flag $ profile_arg
      $ profile_out_arg $ metrics_arg $ trace_file_arg)

(* ---------------- ir ---------------- *)

let do_ir file level with_libc =
  let src = read_file file in
  diagnosing file (fun () ->
      (* a unit to print, not a program to run: [main] is optional *)
      let m = Loader.compile_user ~main:false src in
      let m = if with_libc then Loader.link_libc (Loader.libc ()) m else m in
      if level = 3 then ignore (Pipeline.o3 m);
      print_string (Irprint.module_to_string m);
      0)

let libc_flag =
  Arg.(value & flag & info [ "with-libc" ] ~doc:"Link the managed libc in.")

let ir_cmd =
  let doc = "print the IR the front end (and optionally -O3) produces" in
  Cmd.v (Cmd.info "ir" ~doc)
    Term.(const do_ir $ file_arg $ level_arg $ libc_flag)

(* ---------------- run-ir ---------------- *)

(* [run] without the front end: the module gets the link check and the
   libc link (with its verification) a C program gets, then runs and
   reports as [run] does. *)
let do_run_ir file args input_text =
  diagnosing file (fun () ->
      let m = Irparse.parse (read_file file) in
      Loader.check_references [] m;
      report_run Engine.Safe_sulong
        (Engine.run_module ~argv:(file :: args) ~input:input_text
           ~step_limit:Engine.long_step_limit Engine.Safe_sulong
           (Loader.link_libc ~shared:true (Loader.libc ()) m)))

let ir_file_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Textual IR file (as printed by 'sulong ir')")

let run_ir_cmd =
  let doc = "parse a textual IR file and execute it under Safe Sulong" in
  Cmd.v (Cmd.info "run-ir" ~doc)
    Term.(const do_run_ir $ ir_file_arg $ args_arg $ input_arg)

(* ---------------- compare ---------------- *)

let do_compare file args input_text =
  let src = read_file file in
  let tools =
    [
      Engine.Safe_sulong; Engine.Clang Pipeline.O0; Engine.Clang Pipeline.O3;
      Engine.Asan Pipeline.O0; Engine.Asan Pipeline.O3;
      Engine.Valgrind Pipeline.O0; Engine.Valgrind Pipeline.O3;
    ]
  in
  diagnosing file (fun () ->
      List.iter
        (fun tool ->
          let r = Engine.run ~argv:(file :: args) ~input:input_text tool src in
          Printf.printf "%-14s %s\n" (Engine.tool_name tool)
            (Outcome.to_string r.Engine.outcome))
        tools;
      0)

let compare_cmd =
  let doc = "run a C file under every tool and print the detection matrix" in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const do_compare $ file_arg $ args_arg $ input_arg)

(* ---------------- corpus ---------------- *)

let do_corpus id_opt =
  match id_opt with
  | None ->
    List.iter
      (fun (p : Groundtruth.program) ->
        Printf.printf "%-8s %-20s %s\n" p.Groundtruth.id p.Groundtruth.project
          p.Groundtruth.description)
      Corpus.all;
    0
  | Some id -> begin
    match Corpus.find id with
    | None ->
      Printf.eprintf "no corpus program %S\n" id;
      2
    | Some p ->
      Printf.printf "%s (%s): %s\n\n%s\n" p.Groundtruth.id p.Groundtruth.project
        p.Groundtruth.description p.Groundtruth.source;
      let r = Effectiveness.run_program p in
      List.iter
        (fun (tool, outcome) ->
          Printf.printf "  %-14s %s\n" (Engine.tool_name tool)
            (Outcome.short outcome))
        r.Effectiveness.results;
      0
  end

let id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "id" ] ~docv:"ID" ~doc:"Show and run one corpus program.")

let corpus_cmd =
  let doc = "list the 68-bug corpus, or run one bug under every tool" in
  Cmd.v (Cmd.info "corpus" ~doc) Term.(const do_corpus $ id_arg)

(* ---------------- report ---------------- *)

let do_report which =
  (match which with
  | "fig1" -> Report.fig1 ()
  | "fig2" -> Report.fig2 ()
  | "tab1" | "tab2" | "cmp" | "effectiveness" -> Report.effectiveness ()
  | "startup" -> Report.startup ()
  | "fig15" -> Report.fig15 ()
  | "fig16" -> Report.fig16 ()
  | "ablations" -> Report.ablations ()
  | "all" | _ -> Report.run_all ());
  0

let which_arg =
  Arg.(
    value & pos 0 string "all"
    & info [] ~docv:"EXPERIMENT"
        ~doc:
          "fig1, fig2, tab1, tab2, cmp, startup, fig15, fig16, ablations or \
           all.")

let report_cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v (Cmd.info "report" ~doc) Term.(const do_report $ which_arg)

(* ---------------- difftest ---------------- *)

let do_difftest seeds seed_start features_str shrink json_file jobs chunk
    ledger resume_file bugdb corpus metrics trace_file =
  obs_begin ~metrics ~trace_file;
  let features =
    try Cgen.features_of_string features_str
    with Invalid_argument msg ->
      prerr_endline ("difftest: " ^ msg);
      exit 2
  in
  (* The checked-in reproducers run first — plus any exported corpus
     directory — so a regression makes the campaign fail before any
     seed is spent. *)
  let corpus_regressions =
    match corpus with
    | None -> []
    | Some dir -> (
      match Difftest.load_corpus ~dir with
      | [] ->
        prerr_endline ("difftest: --corpus: no reproducers in " ^ dir);
        exit 2
      | rs -> rs
      | exception Invalid_argument msg ->
        prerr_endline ("difftest: --corpus: " ^ msg);
        exit 2)
  in
  let regression_failures =
    List.filter_map
      (fun reg ->
        match Difftest.check_regression reg with
        | Ok () -> None
        | Error msg -> Some msg)
      (Difftest.regressions @ corpus_regressions)
  in
  List.iter (Printf.printf "REGRESSION %s\n") regression_failures;
  (* Per-chunk completions stream back from the workers; print whenever
     another century of seeds is crossed (chunks rarely land on
     multiples of 100). *)
  let last_printed = ref 0 in
  let progress i =
    if i / 100 > !last_printed / 100 || i = seeds then begin
      last_printed := i;
      Printf.printf "  ...%d seeds checked\n%!" i
    end
  in
  let campaign_needed =
    jobs > 1 || ledger <> None || resume_file <> None || bugdb <> None
  in
  let outcome =
    match resume_file with
    | Some file -> (
      match Campaign.resume ~jobs ?bugdb ~progress ~ledger:file () with
      | o ->
        Printf.printf
          "difftest: resumed %s: %d seed(s) already in the ledger\n%!" file
          o.Campaign.co_resumed_seeds;
        Some o
      | exception Campaign.Ledger_error msg ->
        prerr_endline ("difftest: --resume: " ^ msg);
        exit 2)
    | None ->
      Printf.printf
        "difftest: %d seed(s) from %d across %d configurations [features \
         %s]%s%s\n%!"
        seeds seed_start
        (List.length Oracle.configs)
        (Cgen.features_name features)
        (if shrink then " (shrinking divergences)" else "")
        (if jobs > 1 then Printf.sprintf " [%d jobs, chunks of %d]" jobs chunk
         else "");
      if campaign_needed then
        Some
          (Campaign.run ~features ~shrink ~jobs ~chunk ?ledger ?bugdb
             ~progress ~seed_start ~seeds ())
      else None
  in
  let r, deaths, interrupted =
    match outcome with
    | Some o ->
      (o.Campaign.co_report, o.Campaign.co_worker_deaths,
       o.Campaign.co_interrupted)
    | None ->
      (Difftest.run ~features ~shrink ~progress ~seed_start ~seeds (), 0, false)
  in
  List.iter
    (fun (d : Difftest.divergence) ->
      Printf.printf "\nDIVERGENCE seed %d: %s\n  signature: %s\n%s"
        d.Difftest.dv_seed d.Difftest.dv_mismatch
        (Difftest.signature_key d.Difftest.dv_sig)
        d.Difftest.dv_source;
      (match d.Difftest.dv_events with
      | [] -> ()
      | evs ->
        Printf.printf "  engine events at detection:\n";
        List.iter (Printf.printf "    %s\n") evs);
      match d.Difftest.dv_reduced with
      | Some reduced ->
        Printf.printf "reduced (%d oracle calls):\n%s" d.Difftest.dv_oracle_calls
          reduced
      | None -> ())
    r.Difftest.rp_divergences;
  let n_div = List.length r.Difftest.rp_divergences in
  Printf.printf
    "difftest: %d agree, %d rejected, %d divergence(s) in %.1fs (%.1f seeds/s)%s\n"
    r.Difftest.rp_agree r.Difftest.rp_reject n_div r.Difftest.rp_elapsed_s
    (float_of_int
       (r.Difftest.rp_agree + r.Difftest.rp_reject + n_div
       - (match outcome with
         | Some o -> o.Campaign.co_resumed_seeds
         | None -> 0))
    /. (r.Difftest.rp_elapsed_s +. 1e-9))
    (match outcome with
    | Some o when deaths > 0 ->
      Printf.sprintf " [%d worker death(s), %d chunk(s) requeued]" deaths
        o.Campaign.co_requeues
    | _ -> "");
  (match outcome with
  | Some o when Bugstore.size o.Campaign.co_bugs > 0 ->
    Printf.printf "unique bug signatures: %d (%d new)\n"
      (Bugstore.size o.Campaign.co_bugs)
      o.Campaign.co_new_bugs;
    List.iter
      (fun (e : Bugstore.entry) ->
        Printf.printf "  %-40s first seed %d, %d hit(s)\n" e.Bugstore.be_key
          e.Bugstore.be_first_seed e.Bugstore.be_count)
      (Bugstore.entries o.Campaign.co_bugs)
  | _ -> ());
  (* Per-seed cost lands in the ledger, so a --resume can rank the
     expensive seeds without rerunning anything. *)
  (match outcome with
  | Some o -> (
    match Campaign.slowest_seeds ~n:5 o.Campaign.co_chunks with
    | [] -> ()
    | slow ->
      Printf.printf "slowest seeds:\n";
      List.iter
        (fun (s : Difftest.seed_stat) ->
          Printf.printf "  seed %-8d %8.1f ms %14d managed steps\n"
            s.Difftest.ss_seed
            (s.Difftest.ss_elapsed_s *. 1e3)
            s.Difftest.ss_steps)
        slow)
  | None -> ());
  if interrupted then begin
    (match ledger with
    | Some file ->
      Printf.printf "interrupted; resume with: sulong difftest --resume %s\n"
        file
    | None ->
      print_endline
        "interrupted (no --ledger given, so the finished seeds are lost)");
    ignore (obs_end ~metrics ~trace_file 130);
    130
  end
  else begin
    (match json_file with
    | Some file ->
      Difftest.append_row ~file
        (Difftest.report_row ~jobs ~worker_deaths:deaths r);
      Printf.printf "appended row to %s\n" file
    | None -> ());
    obs_end ~metrics ~trace_file
      (if n_div > 0 || regression_failures <> [] then 1 else 0)
  end

let seeds_arg =
  Arg.(
    value & opt int 500
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to test.")

let seed_start_arg =
  Arg.(
    value & opt int 0
    & info [ "seed-start" ] ~docv:"K" ~doc:"First seed of the range.")

let features_arg =
  Arg.(
    value & opt string "int,float,call,mem,ptr"
    & info [ "features" ] ~docv:"LIST"
        ~doc:
          "Generator feature set: a comma-separated subset of \
           int,float,call,mem,ptr (int is always on).")

let shrink_arg =
  Arg.(
    value & flag
    & info [ "shrink" ]
        ~doc:"Greedily reduce divergent programs before reporting them.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Append a JSON result row (seeds/sec, divergences) to $(docv).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run the campaign on a pool of $(docv) forked workers fed from a \
           work-stealing chunk queue; dead workers are respawned and their \
           in-flight chunk is requeued, so no seed is lost.")

let chunk_arg =
  Arg.(
    value & opt int Campaign.default_chunk
    & info [ "chunk" ] ~docv:"N"
        ~doc:
          "Seeds per work-stealing chunk (the unit of scheduling, ledger \
           writes and loss-on-worker-death).")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Write the campaign ledger to $(docv): a JSON-lines file with one \
           header line and one line per completed chunk, flushed as results \
           arrive, so an interrupted campaign is resumable with --resume.")

let resume_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "resume" ] ~docv:"LEDGER"
        ~doc:
          "Continue the interrupted campaign recorded in $(docv): campaign \
           parameters come from the ledger header, completed chunks are \
           skipped, and new completions append to the same file.")

let bugdb_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bugdb" ] ~docv:"FILE"
        ~doc:
          "Persist deduplicated divergences to the JSON bug store $(docv) \
           (read-modify-write): one entry per provenance signature with the \
           first-seen seed and smallest reproducer.")

let corpus_dir_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Also run every exported reproducer in $(docv) (pairs of NAME.c \
           and NAME.expected, as written by `sulong bugdb export`) as \
           regressions before spending any seed.")

let difftest_cmd =
  let doc =
    "differential testing: generated well-defined programs must behave \
     identically under every engine configuration"
  in
  Cmd.v (Cmd.info "difftest" ~doc)
    Term.(
      const do_difftest $ seeds_arg $ seed_start_arg $ features_arg
      $ shrink_arg $ json_arg $ jobs_arg $ chunk_arg $ ledger_arg
      $ resume_arg $ bugdb_arg $ corpus_dir_arg $ metrics_arg
      $ trace_file_arg)

(* ---------------- bugdb ---------------- *)

(* `sulong bugdb export` promotes the smallest shrunk reproducer of
   every convicted signature in a campaign bug store into an on-disk
   regressions corpus: NAME.c plus NAME.expected, the format
   [Difftest.load_corpus] (and `difftest --corpus`) consumes.  Each
   reproducer re-runs through the full oracle first — an entry whose
   bug is still unfixed (the oracle still diverges) is reported and
   fails the export, so the corpus only ever contains programs with an
   agreed-upon expected output. *)

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> c
      | _ -> '-')
    s
  |> String.lowercase_ascii
  |> fun s ->
  (* collapse runs of '-' and trim to keep file names readable *)
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c <> '-' || (Buffer.length b > 0
                      && Buffer.nth b (Buffer.length b - 1) <> '-')
      then Buffer.add_char b c)
    s;
  let s = Buffer.contents b in
  let s = if String.length s > 40 then String.sub s 0 40 else s in
  match String.length s with
  | 0 -> "bug"
  | n when s.[n - 1] = '-' -> String.sub s 0 (n - 1)
  | _ -> s

let do_bugdb_export bugdb_file out_dir =
  let store =
    try Bugstore.load ~file:bugdb_file
    with Bugstore.Malformed msg ->
      prerr_endline ("bugdb export: " ^ msg);
      exit 2
  in
  match Bugstore.entries store with
  | [] ->
    Printf.printf "bugdb export: %s has no entries; nothing to export\n"
      bugdb_file;
    0
  | entries ->
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let unfixed = ref 0 in
    List.iter
      (fun (e : Bugstore.entry) ->
        let name =
          Printf.sprintf "seed%04d-%s" e.Bugstore.be_first_seed
            (slug e.Bugstore.be_kind)
        in
        match Oracle.check e.Bugstore.be_repro with
        | Oracle.Agree out ->
          let write file s =
            let oc = open_out_bin (Filename.concat out_dir file) in
            output_string oc s;
            close_out oc
          in
          write (name ^ ".c") e.Bugstore.be_repro;
          write (name ^ ".expected") out;
          Printf.printf "exported %-44s (%d hit(s), %d bytes)\n" name
            e.Bugstore.be_count
            (String.length e.Bugstore.be_repro)
        | Oracle.Reject why ->
          incr unfixed;
          Printf.printf "REJECTED %-44s %s\n" name why
        | Oracle.Diverge { mismatch; _ } ->
          incr unfixed;
          Printf.printf "UNFIXED  %-44s %s\n" name mismatch)
      entries;
    if !unfixed > 0 then begin
      Printf.printf
        "bugdb export: %d entr%s still diverge — fix the engines (or rerun \
         the campaign) before promoting\n"
        !unfixed
        (if !unfixed = 1 then "y" else "ies");
      1
    end
    else 0

let bugdb_file_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "bugdb" ] ~docv:"FILE" ~doc:"Campaign bug store to export from.")

let out_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Directory receiving NAME.c/NAME.expected pairs (created).")

let bugdb_cmd =
  let doc = "operations on campaign bug stores" in
  let export_doc =
    "re-verify every stored reproducer and promote it into a regressions \
     corpus"
  in
  Cmd.group (Cmd.info "bugdb" ~doc)
    [
      Cmd.v
        (Cmd.info "export" ~doc:export_doc)
        Term.(const do_bugdb_export $ bugdb_file_arg $ out_dir_arg);
    ]

(* ---------------- bench ---------------- *)

(* Time every [Microbench] row, print the rows, the per-benchmark
   interp/tiered speedups and the metered rows, and with --json write
   them all as one JSON array (the [BENCH_interp.json] log that tracks
   the trajectory across changes).  With --profile, each reset-based
   managed row's guest profile goes to stderr, so the rows on stdout
   stay log-greppable.

   `sulong bench --compare OLD.json NEW.json` diffs two such logs and
   exits nonzero when any ns_per_op row regressed by more than 10%. *)

let do_bench_run quota_s profile json_file =
  let rows =
    List.map
      (fun (u : Microbench.unit_of_work) ->
        let ns, runs = Microbench.time ~quota_s u.Microbench.u_run in
        Printf.printf "  %-52s %14.0f ns/op (%d runs)\n%!" u.Microbench.u_name
          ns runs;
        Option.iter
          (fun p ->
            Printf.eprintf "%s\n%s%!" u.Microbench.u_name (Profile.top_table p))
          u.Microbench.u_profile;
        { Microbench.name = u.Microbench.u_name; ns_per_op = ns; runs })
      (Microbench.units ~profile)
  in
  let speedups = Microbench.speedups rows in
  List.iter (fun (n, x) -> Printf.printf "  %-52s %14.2f x\n" n x) speedups;
  let obs = Microbench.obs_rows () in
  List.iter (fun (n, v) -> Printf.printf "  %-52s %14s\n" n v) obs;
  (match json_file with
  | Some file ->
    Out_channel.with_open_text file (fun oc ->
        output_string oc (Microbench.to_json rows speedups obs));
    Printf.printf "wrote %s\n" file
  | None -> ());
  0

let do_bench_compare old_file new_file =
  let old_rows = Microbench.ns_rows old_file in
  let new_rows = Microbench.ns_rows new_file in
  let tolerance = 1.10 in
  let regressions = ref 0 in
  List.iter
    (fun (name, ns_new) ->
      match List.assoc_opt name old_rows with
      | Some ns_old when ns_old > 0.0 ->
        let ratio = ns_new /. ns_old in
        let flag = if ratio > tolerance then "REGRESSION" else "ok" in
        if ratio > tolerance then incr regressions;
        Printf.printf "%-56s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n" name
          ns_old ns_new
          ((ratio -. 1.0) *. 100.0)
          flag
      | _ -> Printf.printf "%-56s %28.0f ns/op  (new row)\n" name ns_new)
    new_rows;
  if !regressions > 0 then begin
    Printf.printf "bench: %d row(s) regressed by more than %.0f%%\n"
      !regressions ((tolerance -. 1.0) *. 100.0);
    1
  end
  else begin
    Printf.printf "bench: no ns_per_op row regressed by more than %.0f%%\n"
      ((tolerance -. 1.0) *. 100.0);
    0
  end

let do_bench quota_s profile json_file compare_files =
  match compare_files with
  | [] -> do_bench_run quota_s profile json_file
  | [ old_file; new_file ] -> (
    try do_bench_compare old_file new_file
    with Trace.Bad msg | Sys_error msg ->
      prerr_endline ("bench: --compare: " ^ msg);
      2)
  | _ ->
    prerr_endline "bench: --compare takes exactly OLD.json NEW.json";
    2

let bench_json_arg =
  Arg.(
    value
    & opt ~vopt:(Some "BENCH_interp.json") (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write every row as one JSON array to $(docv) (default \
           BENCH_interp.json), replacing the file.")

let bench_quota_arg =
  Arg.(
    value & opt float 0.5
    & info [ "quota" ] ~docv:"SECONDS"
        ~doc:
          "Per-row timing quota (each row also runs at least 5 times); \
           lower it (e.g. 0.05) for a smoke run that only checks every \
           row still executes.")

let bench_compare_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "compare" ] ~docv:"FILE"
        ~doc:
          "Given twice (--compare OLD.json --compare NEW.json), diff the two \
           bench logs instead of timing, and exit nonzero when any \
           ns_per_op row regressed by more than 10%.")

let bench_profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print the guest profile (top functions and hot blocks by \
           managed steps) of each managed-interpreter and closure-compiled \
           row to stderr after timing it.")

let bench_cmd =
  let doc = "time the unit of work behind each table and figure" in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const do_bench $ bench_quota_arg $ bench_profile_arg $ bench_json_arg
      $ bench_compare_arg)

(* ---------------- obs-selftest ---------------- *)

(** End-to-end check of the observability subsystem, wired into the
    [@obs] build alias: run a known-buggy program with metrics and
    tracing on, then assert that the provenance report names the right
    source line, the metric registry saw the run (and that it prepared
    only the functions it entered), and the emitted trace is
    well-formed Chrome trace_event JSON. *)
let do_obs_selftest () =
  let failures = ref [] in
  let check name cond =
    if not cond then failures := name :: !failures
  in
  Metrics.reset ();
  Metrics.enabled := true;
  Trace.start ();
  let src =
    "int main(void) {\n\
    \  int *p = (int *)malloc(3 * sizeof(int));\n\
    \  long s = 0;\n\
    \  for (int i = 0; i <= 3; i++) s += p[i];\n\
    \  free(p);\n\
    \  return (int)s;\n\
     }\n"
  in
  (* each run through [Engine], as every program the tool runs *)
  let run ?argv ?tier ?profile src =
    Option.get
      (Engine.run ~step_limit:Engine.long_step_limit ?argv ?tier ?profile
         Engine.Safe_sulong src)
        .Engine.managed
  in
  let r = run ~argv:[ "selftest" ] src in
  check "managed error detected" (r.Interp.error <> None);
  (* Bodies are prepared at first call: exactly the functions the run
     entered, a fraction of the libc-linked module. *)
  let prepared = (Metrics.counter "interp.prepared_funcs").Metrics.c_value in
  let funcs = r.Interp.run_profile.Interp.funcs in
  let entered =
    Hashtbl.fold
      (fun _ (c : Interp.counters) n ->
        if c.Interp.c_invocations > 0 then n + 1 else n)
      funcs 0
  in
  check
    (Printf.sprintf "prepared functions (%d) are the entered ones (%d)"
       prepared entered)
    (prepared = entered);
  check
    (Printf.sprintf "prepared functions (%d) below the module's %d" prepared
       (Hashtbl.length funcs))
    (prepared < Hashtbl.length funcs);
  (match r.Interp.report with
  | Some rep ->
    check "report names the faulting line"
      (match Bugreport.fault_frame rep with
      | Some f -> f.Bugreport.bf_line = 4 && f.Bugreport.bf_file = "<input>"
      | None -> false);
    check "report has bounds detail" (rep.Bugreport.br_detail <> []);
    check "report has a stack" (rep.Bugreport.br_stack <> [])
  | None -> check "provenance report present" false);
  let json = Trace.finish () in
  (match Trace.validate json with
  | Ok () -> ()
  | Error e -> check (Printf.sprintf "trace is valid Chrome JSON (%s)" e) false);
  (* The faulting run executed once: one [execute] span, and the
     [prepare] spans a clean run has, [create]'s and one per body. *)
  let spans name =
    let b = Printf.sprintf "{\"name\":\"%s\",\"ph\":\"B\"" name in
    let n = String.length b in
    let rec go i k = if i + n > String.length json then k else go (i + 1) (if String.sub json i n = b then k + 1 else k) in
    go 0 0
  in
  check
    (Printf.sprintf "one execute span (%d)" (spans "execute"))
    (spans "execute" = 1);
  check
    (Printf.sprintf "prepare spans (%d) are create's and the %d bodies'"
       (spans "prepare") prepared)
    (spans "prepare" = 1 + prepared);
  (* Compiled code reports the faulting line itself. *)
  let tiered = run ~argv:[ "selftest" ] ~tier:(Tier.controller ~threshold:0 ()) src in
  check "tier 2 report names the faulting line"
    (Option.bind tiered.Interp.report Bugreport.fault_frame
     |> Option.map (fun f -> f.Bugreport.bf_line) = Some 4);
  let sn = Metrics.snapshot () in
  check "interp step counter recorded"
    (List.mem_assoc "interp.steps" sn.Metrics.sn_counters);
  check "heap alloc counter recorded"
    (List.mem_assoc "heap.allocs" sn.Metrics.sn_counters);
  check "alloc size histogram recorded"
    (List.exists
       (fun (n, _, _, _) -> n = "heap.alloc_size_bytes")
       sn.Metrics.sn_histograms);
  (* Guest profiler smoke: folded stacks non-empty and the conservation
     law — tree total and folded-line sum both equal the engine's final
     step counter. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let psrc =
    "int add(int a, int b) { return a + b; }\n\
     int main(void) {\n\
    \  int s = 0;\n\
    \  for (int i = 0; i < 50; i++) s = add(s, i);\n\
    \  printf(\"%d\\n\", s);\n\
    \  return 0;\n\
     }\n"
  in
  let prof = Profile.create () in
  let pr = run ~profile:prof psrc in
  check "profile: run finished" (pr.Interp.error = None && not pr.Interp.timed_out);
  check "profile: tree total equals step counter"
    (Profile.total_steps prof = pr.Interp.steps);
  let folded = Profile.folded prof in
  check "profile: folded output non-empty" (folded <> "");
  check "profile: folded names the callee" (contains folded "main;add ");
  let folded_sum =
    String.split_on_char '\n' folded
    |> List.fold_left
         (fun acc line ->
           match String.rindex_opt line ' ' with
           | Some i -> (
             match
               int_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
             with
             | Some n -> acc + n
             | None -> acc)
           | None -> acc)
         0
  in
  check "profile: folded stacks sum to step counter"
    (folded_sum = pr.Interp.steps);
  (* Flight recorder smoke: a forced-hot erroring run records tier-up
     and deopt events, and the bug report embeds the ring. *)
  Events.reset ();
  let bsrc =
    "int main(void) {\n\
    \  int a[3];\n\
    \  for (int i = 0; i <= 3; i++) a[i] = i;\n\
    \  return a[0];\n\
     }\n"
  in
  let br = run ~tier:(Tier.controller ~threshold:0 ()) bsrc in
  check "events: managed error detected" (br.Interp.error <> None);
  let ev_lines = Events.to_lines () in
  check "events: ring non-empty" (ev_lines <> []);
  check "events: tier-up recorded"
    (List.exists (fun l -> contains l "tier-up") ev_lines);
  check "events: deopt recorded"
    (List.exists (fun l -> contains l "deopt") ev_lines);
  (match br.Interp.report with
  | Some rep -> check "events: bug report embeds ring" (rep.Bugreport.br_events <> [])
  | None -> check "events: provenance report present" false);
  Metrics.enabled := false;
  match List.rev !failures with
  | [] ->
    print_endline "obs-selftest: OK";
    0
  | fs ->
    List.iter (Printf.eprintf "obs-selftest FAILED: %s\n") fs;
    1

let obs_selftest_cmd =
  let doc = "self-check of metrics, tracing and bug-report provenance" in
  Cmd.v (Cmd.info "obs-selftest" ~doc) Term.(const do_obs_selftest $ const ())

(* ---------------- main ---------------- *)

let () =
  let doc =
    "Safe Sulong reproduction: find C memory errors by abstracting from the \
     native execution model"
  in
  let info = Cmd.info "sulong" ~version:"1.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
       [ run_cmd; ir_cmd; run_ir_cmd; compare_cmd; corpus_cmd; report_cmd;
         difftest_cmd; bugdb_cmd; bench_cmd; obs_selftest_cmd ]))
