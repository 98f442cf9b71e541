(** Performance-reproduction tests (paper §4.2–4.3): benchmark
    correctness across engines, and the qualitative shape assertions for
    start-up, warm-up and peak performance. *)

(* ---------------- benchmark correctness ---------------- *)

let outputs_agree (b : Benchprogs.bench) () =
  let out tool =
    let r = Engine.run tool b.Benchprogs.b_source in
    (match r.Engine.outcome with
    | Outcome.Finished 0 -> ()
    | o ->
      Alcotest.failf "%s under %s: %s" b.Benchprogs.b_name
        (Engine.tool_name tool) (Outcome.to_string o));
    r.Engine.output
  in
  let reference = out (Engine.Clang Pipeline.O0) in
  Alcotest.(check bool) "produces output" true (String.length reference > 0);
  List.iter
    (fun tool -> Alcotest.(check string) (Engine.tool_name tool) reference (out tool))
    [ Engine.Safe_sulong; Engine.Clang Pipeline.O3; Engine.Asan Pipeline.O0 ]

let bench_tests =
  List.map
    (fun (b : Benchprogs.bench) ->
      Alcotest.test_case b.Benchprogs.b_name `Slow (outputs_agree b))
    Benchprogs.all

(* ---------------- spot checks on benchmark results ---------------- *)

let bench_output name =
  match Benchprogs.find name with
  | Some b -> (Engine.run Engine.Safe_sulong b.Benchprogs.b_source).Engine.output
  | None -> Alcotest.fail ("no benchmark " ^ name)

let test_fannkuch_value () =
  (* Pfannkuchen(7) = 16 is the published value *)
  Alcotest.(check bool) "Pfannkuchen(7) = 16" true
    (Util.string_contains ~needle:"Pfannkuchen(7) = 16" (bench_output "fannkuchredux"))

let test_meteor_value () =
  (* domino tilings of 5x6 = 1183 (OEIS A004003 family) *)
  Alcotest.(check string) "tilings" "1183 solutions found\n" (bench_output "meteor")

let test_nbody_energy_conserved () =
  let out = bench_output "nbody" in
  match String.split_on_char '\n' out with
  | before :: after :: _ ->
    let e0 = float_of_string before and e1 = float_of_string after in
    Alcotest.(check bool) "energy roughly conserved" true
      (Float.abs (e0 -. e1) < 1e-3);
    Alcotest.(check bool) "energy negative" true (e0 < 0.0)
  | _ -> Alcotest.fail "unexpected nbody output"

let test_spectralnorm_value () =
  let out = bench_output "spectralnorm" in
  let v = float_of_string (String.trim out) in
  (* the published constant is 1.274224...; n=24 is close *)
  Alcotest.(check bool) "close to 1.2742" true (Float.abs (v -. 1.2742) < 0.01)

(* ---------------- peak shape (Fig. 16) ---------------- *)

let measurements =
  lazy (List.map Measure.measure_bench (Benchprogs.binarytrees :: Benchprogs.perf_suite))

let find_ms name =
  List.find (fun m -> m.Simulate.ms_name = name) (Lazy.force measurements)

let test_o3_faster_than_o0 () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Simulate.ms_name ^ ": O3 <= O0") true
        (m.Simulate.clang_o3 <= m.Simulate.clang_o0))
    (Lazy.force measurements)

let test_asan_slower_than_o0 () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Simulate.ms_name ^ ": ASan > O0") true
        (m.Simulate.asan > m.Simulate.clang_o0))
    (Lazy.force measurements)

let test_sulong_peak_beats_asan () =
  (* "In almost all benchmarks, Safe Sulong was faster than ASan" *)
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Simulate.ms_name ^ ": Sulong < ASan") true
        (Simulate.sulong_peak_cycles m < m.Simulate.asan))
    (Lazy.force measurements)

let test_valgrind_slowest () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Simulate.ms_name ^ ": Valgrind slowest") true
        (m.Simulate.valgrind > m.Simulate.asan))
    (Lazy.force measurements)

let test_binarytrees_story () =
  (* the paper's allocation-intensity result: ASan ~14x, Valgrind ~58x,
     Safe Sulong only ~1.7x *)
  let m = find_ms "binarytrees" in
  let asan_x = m.Simulate.asan /. m.Simulate.clang_o0 in
  let vg_x = m.Simulate.valgrind /. m.Simulate.clang_o0 in
  let sulong_x = Simulate.sulong_peak_cycles m /. m.Simulate.clang_o0 in
  Alcotest.(check bool) (Printf.sprintf "ASan heavy (%.1fx)" asan_x) true
    (asan_x > 8.0);
  Alcotest.(check bool) (Printf.sprintf "Valgrind heavier (%.1fx)" vg_x) true
    (vg_x > 25.0);
  Alcotest.(check bool) (Printf.sprintf "Sulong mild (%.2fx)" sulong_x) true
    (sulong_x < 3.0)

let test_valgrind_range () =
  (* paper: 10x-58x across 5 benchmarks, lower on FP-heavy ones *)
  List.iter
    (fun m ->
      let x = m.Simulate.valgrind /. m.Simulate.clang_o0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s valgrind factor %.1f in [2, 70]" m.Simulate.ms_name x)
        true
        (x >= 2.0 && x <= 70.0))
    (Lazy.force measurements)

let test_sulong_worst_is_fastaredux () =
  (* rank order: fastaredux is Safe Sulong's worst benchmark *)
  let rel m = Simulate.sulong_peak_cycles m /. m.Simulate.clang_o0 in
  let worst =
    List.fold_left
      (fun (wn, wv) m ->
        if m.Simulate.ms_name = "binarytrees" then (wn, wv)
        else begin
          let v = rel m in
          if v > wv then (m.Simulate.ms_name, v) else (wn, wv)
        end)
      ("", 0.0) (Lazy.force measurements)
  in
  Alcotest.(check string) "worst benchmark" "fastaredux" (fst worst)

let test_peak_boxplots_sane () =
  let rng = Prng.create 5 in
  let row = Simulate.peak ~rng (find_ms "mandelbrot") in
  Alcotest.(check bool) "O0 median is 1.0" true
    (Float.abs (row.Simulate.pk_clang_o0.Stats.med -. 1.0) < 0.05);
  Alcotest.(check bool) "boxes ordered" true
    (row.Simulate.pk_sulong.Stats.low <= row.Simulate.pk_sulong.Stats.high)

(* ---------------- start-up (paper §4.2) ---------------- *)

let test_startup_ordering () =
  let rows = Simulate.startup (Measure.measure_bench Benchprogs.hello) in
  let ms tool =
    (List.find (fun r -> r.Simulate.su_tool = tool) rows).Simulate.su_ms
  in
  Alcotest.(check bool) "Sulong slowest to start" true
    (ms "Safe Sulong" > ms "Valgrind");
  Alcotest.(check bool) "Valgrind beats only Sulong" true
    (ms "Valgrind" > ms "ASan");
  Alcotest.(check bool) "Sulong around 600ms" true
    (ms "Safe Sulong" > 450.0 && ms "Safe Sulong" < 800.0);
  Alcotest.(check bool) "Valgrind around 500ms" true
    (ms "Valgrind" > 350.0 && ms "Valgrind" < 650.0);
  Alcotest.(check bool) "ASan under 10ms" true (ms "ASan" < 10.0)

(* ---------------- warm-up (Fig. 15) ---------------- *)

let test_warmup_shape () =
  let ms = Measure.measure_bench Benchprogs.meteor in
  let w = Simulate.warmup ~duration_s:30 ms in
  let series name =
    (List.find (fun s -> s.Simulate.ws_tool = name) w.Simulate.wr_series)
      .Simulate.ws_points
  in
  let rate_at points sec = Option.value (List.assoc_opt sec points) ~default:0 in
  let sulong = series "Safe Sulong" and asan = series "ASan" in
  let vg = series "Valgrind" in
  (* start: Sulong slowest *)
  Alcotest.(check bool) "Sulong starts slower than Valgrind" true
    (rate_at sulong 1 < rate_at vg 1);
  (* the first iteration takes a while *)
  Alcotest.(check bool) "first iteration after 1s" true
    (w.Simulate.wr_first_iteration_s > 1.0);
  (* end: Sulong fastest (the paper's peak result) *)
  Alcotest.(check bool) "Sulong ends above ASan" true
    (rate_at sulong 29 > rate_at asan 29);
  Alcotest.(check bool) "ASan above Valgrind throughout" true
    (rate_at asan 29 > rate_at vg 29);
  (* ASan and Valgrind have no visible warm-up *)
  Alcotest.(check bool) "ASan flat" true
    (abs (rate_at asan 2 - rate_at asan 29) <= 2);
  (* compiles happened *)
  Alcotest.(check bool) "functions were compiled" true
    (List.length w.Simulate.wr_compiles >= 3)

let test_warmup_crossover_order () =
  let ms = Measure.measure_bench Benchprogs.meteor in
  let w = Simulate.warmup ~duration_s:30 ms in
  let series name =
    (List.find (fun s -> s.Simulate.ws_tool = name) w.Simulate.wr_series)
      .Simulate.ws_points
  in
  let first_sec_above a b =
    let rec go = function
      | [] -> None
      | (sec, _) :: rest ->
        let ra = Option.value (List.assoc_opt sec a) ~default:0 in
        let rb = Option.value (List.assoc_opt sec b) ~default:0 in
        if ra > rb && ra > 0 then Some sec else go rest
    in
    go a
  in
  let sulong = series "Safe Sulong" in
  let vg = series "Valgrind" and asan = series "ASan" in
  match (first_sec_above sulong vg, first_sec_above sulong asan) with
  | Some cross_vg, Some cross_asan ->
    Alcotest.(check bool)
      (Printf.sprintf "passes Valgrind (s %d) before ASan (s %d)" cross_vg
         cross_asan)
      true (cross_vg <= cross_asan)
  | _ -> Alcotest.fail "Safe Sulong never overtook the other tools"

(* ---------------- ablation: mementos ---------------- *)

let test_mementos_ablation () =
  (* with mementos disabled, behaviour is identical (checking is
     byte-granular either way); the reported object classes differ *)
  let src = Benchprogs.binarytrees.Benchprogs.b_source in
  let with_m = Engine.run ~mementos:true Engine.Safe_sulong src in
  let without_m = Engine.run ~mementos:false Engine.Safe_sulong src in
  Alcotest.(check string) "same output" with_m.Engine.output without_m.Engine.output;
  Alcotest.(check int) "same step count" with_m.Engine.steps without_m.Engine.steps

(* ---------------- bench rows ---------------- *)

(* `sulong bench` times exactly the rows of the checked-in log, in log
   order, and derives exactly its speedup rows: a `--compare` against
   BENCH_interp.json then matches every row, and a renamed row cannot
   slip through as "(new row)". *)
let test_bench_rows_match_log () =
  let log = "../BENCH_interp.json" in
  Alcotest.(check (list string))
    "timed rows" (List.map fst (Microbench.ns_rows log))
    (List.map (fun u -> u.Microbench.u_name) (Microbench.units ~profile:false));
  let logged_speedups =
    match Trace.parse_json (In_channel.with_open_bin log In_channel.input_all) with
    | Trace.Jarr rows ->
      List.filter_map
        (function
          | Trace.Jobj f when List.mem_assoc "value" f -> (
            match List.assoc_opt "name" f with
            | Some (Trace.Jstr n) when not (String.starts_with ~prefix:"obs: " n)
              ->
              Some n
            | _ -> None)
          | _ -> None)
        rows
    | _ -> Alcotest.fail (log ^ " is not a JSON array")
  in
  Alcotest.(check (list string))
    "speedup rows" logged_speedups
    (List.map (fun (n, _, _) -> n) Microbench.speedup_pairs)

let () =
  Alcotest.run "perf"
    [
      ( "bench log",
        [
          Alcotest.test_case "row names match BENCH_interp.json" `Quick
            test_bench_rows_match_log;
        ] );
      ("benchmark correctness", bench_tests);
      ( "benchmark values",
        [
          Alcotest.test_case "fannkuch" `Quick test_fannkuch_value;
          Alcotest.test_case "meteor tilings" `Quick test_meteor_value;
          Alcotest.test_case "nbody energy" `Quick test_nbody_energy_conserved;
          Alcotest.test_case "spectralnorm" `Quick test_spectralnorm_value;
        ] );
      ( "peak shape",
        [
          Alcotest.test_case "O3 <= O0" `Slow test_o3_faster_than_o0;
          Alcotest.test_case "ASan > O0" `Slow test_asan_slower_than_o0;
          Alcotest.test_case "Sulong beats ASan" `Slow test_sulong_peak_beats_asan;
          Alcotest.test_case "Valgrind slowest" `Slow test_valgrind_slowest;
          Alcotest.test_case "binarytrees story" `Slow test_binarytrees_story;
          Alcotest.test_case "Valgrind range" `Slow test_valgrind_range;
          Alcotest.test_case "Sulong worst on fastaredux" `Slow
            test_sulong_worst_is_fastaredux;
          Alcotest.test_case "boxplots sane" `Slow test_peak_boxplots_sane;
        ] );
      ( "startup+warmup",
        [
          Alcotest.test_case "startup ordering" `Slow test_startup_ordering;
          Alcotest.test_case "warmup shape" `Slow test_warmup_shape;
          Alcotest.test_case "crossover order" `Slow test_warmup_crossover_order;
          Alcotest.test_case "mementos ablation" `Slow test_mementos_ablation;
        ] );
    ]
