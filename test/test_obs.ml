(** Tests for the observability subsystem (lib/obs): metric histogram
    bucketing and cross-process merging, trace span nesting and Chrome
    JSON well-formedness, ASan-style provenance reports (one golden bug
    per [Merror] kind plus a whole-corpus sweep), and the C11 6.8.4.2
    switch-label conversion semantics the differential campaign now
    exercises without the old [(long)] scrutinee cast. *)

(* Naive substring search; enough for asserting on rendered reports. *)
let contains (haystack : string) (needle : string) : bool =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let with_metrics (f : unit -> 'a) : 'a =
  Metrics.reset ();
  Metrics.enabled := true;
  Fun.protect f ~finally:(fun () ->
      Metrics.enabled := false;
      Metrics.reset ())

(* ---------------- metrics: log2 bucketing ---------------- *)

let test_bucket_of () =
  let check what expected v =
    Alcotest.(check int) what expected (Metrics.bucket_of v)
  in
  check "zero" 0 0.0;
  check "negative" 0 (-3.0);
  check "below one" 0 0.99;
  check "nan" 0 Float.nan;
  check "one" 1 1.0;
  check "just under two" 1 1.99;
  check "two" 2 2.0;
  check "three" 2 3.0;
  check "four" 3 4.0;
  check "1024" 11 1024.0;
  check "2^62" 63 4.611686018427387904e18;
  check "huge saturates" 63 1e300;
  check "infinity saturates" 63 Float.infinity

let test_histogram_observe () =
  with_metrics (fun () ->
      let h = Metrics.histogram "t.h" in
      List.iter (Metrics.observe h) [ 0.0; 1.0; 1.5; 2.0; 1000.0 ];
      Alcotest.(check int) "count" 5 h.Metrics.h_count;
      Alcotest.(check (float 1e-9)) "sum" 1004.5 h.Metrics.h_sum;
      Alcotest.(check int) "bucket 0" 1 h.Metrics.h_buckets.(0);
      Alcotest.(check int) "bucket 1" 2 h.Metrics.h_buckets.(1);
      Alcotest.(check int) "bucket 2" 1 h.Metrics.h_buckets.(2);
      Alcotest.(check int) "bucket 10" 1 h.Metrics.h_buckets.(10))

(* Merging a snapshot twice must double counters and histogram buckets
   but keep the max for gauges — the sharded-difftest aggregation
   semantics. *)
let test_snapshot_merge () =
  with_metrics (fun () ->
      Metrics.add (Metrics.counter "t.c") 7;
      Metrics.set (Metrics.gauge "t.g") 3.5;
      Metrics.observe (Metrics.histogram "t.h") 5.0;
      let sn = Metrics.snapshot () in
      Metrics.reset ();
      Metrics.merge sn;
      Metrics.merge sn;
      let m = Metrics.snapshot () in
      Alcotest.(check (list (pair string int)))
        "counters add" [ ("t.c", 14) ] m.Metrics.sn_counters;
      Alcotest.(check (list (pair string (float 1e-9))))
        "gauges keep max" [ ("t.g", 3.5) ] m.Metrics.sn_gauges;
      match m.Metrics.sn_histograms with
      | [ (name, count, sum, buckets) ] ->
        Alcotest.(check string) "histogram name" "t.h" name;
        Alcotest.(check int) "histogram count adds" 2 count;
        Alcotest.(check (float 1e-9)) "histogram sum adds" 10.0 sum;
        Alcotest.(check int) "histogram bucket adds" 2 buckets.(3)
      | hs ->
        Alcotest.fail
          (Printf.sprintf "expected one histogram, got %d" (List.length hs)))

let test_disabled_time_is_noop () =
  Metrics.reset ();
  Metrics.enabled := false;
  Alcotest.(check int) "result passes through" 42
    (Metrics.time "t.never" (fun () -> 42));
  let sn = Metrics.snapshot () in
  Alcotest.(check int) "no histogram created" 0
    (List.length sn.Metrics.sn_histograms)

(* ---------------- metrics: JSON float safety ---------------- *)

(* JSON has no NaN/Infinity literals; a gauge set from a 0/0 rate must
   render as null, not "nan" (which every parser rejects). *)
let test_json_float_nonfinite () =
  Alcotest.(check string) "nan" "null" (Metrics.json_float Float.nan);
  Alcotest.(check string) "+inf" "null" (Metrics.json_float Float.infinity);
  Alcotest.(check string) "-inf" "null" (Metrics.json_float Float.neg_infinity);
  Alcotest.(check string) "finite" "3.5" (Metrics.json_float 3.5);
  Alcotest.(check string) "integral" "42" (Metrics.json_float 42.0)

let test_to_json_nonfinite_parses () =
  with_metrics (fun () ->
      Metrics.set (Metrics.gauge "t.rate") (0.0 /. 0.0);
      Metrics.set (Metrics.gauge "t.peak") Float.infinity;
      let doc = Metrics.to_json () in
      Alcotest.(check bool) "no bare nan" false (contains doc "nan");
      Alcotest.(check bool) "no bare inf" false (contains doc "inf");
      match Trace.parse_json doc with
      | _ -> ()
      | exception Trace.Bad msg ->
        Alcotest.fail ("metrics JSON with non-finite gauges rejected: " ^ msg))

(* ---------------- metrics: quantile interpolation ---------------- *)

(* Bucket 0 spans [0,1), bucket i spans [2^(i-1), 2^i); positions inside
   a bucket interpolate linearly. *)
let test_quantile_interpolation () =
  let bs = Array.make 64 0 in
  bs.(1) <- 4;
  (* four samples in [1,2): p50 lands halfway through the bucket *)
  Alcotest.(check (float 1e-9)) "p50 mid-bucket" 1.5
    (Metrics.quantile ~count:4 bs 0.50);
  Alcotest.(check (float 1e-9)) "p100 bucket top" 2.0
    (Metrics.quantile ~count:4 bs 1.0);
  let bs2 = Array.make 64 0 in
  bs2.(1) <- 2;
  bs2.(3) <- 2;
  (* two in [1,2), two in [4,8): p90's target rank 3.6 sits 0.8 into
     the second populated bucket -> 4 + 0.8*4 = 7.2 *)
  Alcotest.(check (float 1e-9)) "p90 across buckets" 7.2
    (Metrics.quantile ~count:4 bs2 0.90);
  Alcotest.(check (float 1e-9)) "empty histogram" 0.0
    (Metrics.quantile ~count:0 bs2 0.99)

let test_quantiles_in_renderings () =
  with_metrics (fun () ->
      let h = Metrics.histogram "t.lat" in
      List.iter (Metrics.observe h) [ 1.0; 1.2; 1.4; 1.6 ];
      let txt = Metrics.to_text () in
      Alcotest.(check bool) "to_text has p50" true (contains txt "p50=1.5");
      Alcotest.(check bool) "to_text has p99" true (contains txt "p99=");
      let doc = Metrics.to_json () in
      Alcotest.(check bool) "to_json has p50" true (contains doc "\"p50\":1.5");
      match Trace.parse_json doc with
      | _ -> ()
      | exception Trace.Bad msg -> Alcotest.fail ("metrics JSON rejected: " ^ msg))

(* ---------------- tracing: spans and validation ---------------- *)

let test_span_nesting () =
  Trace.start ();
  Trace.span "outer" (fun () ->
      Trace.span "inner" (fun () -> ());
      Trace.instant ~args:[ ("k", "v") ] "tick");
  let doc = Trace.finish () in
  (match Trace.validate doc with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("trace rejected: " ^ msg));
  Alcotest.(check bool) "outer present" true (contains doc "\"outer\"");
  Alcotest.(check bool) "inner present" true (contains doc "\"inner\"");
  Alcotest.(check bool) "instant args present" true (contains doc "\"k\":\"v\"")

(* The "E" must be emitted on the exception path too, or the document
   ends with an unclosed span. *)
let test_span_exception_safe () =
  Trace.start ();
  (try Trace.span "boom" (fun () -> failwith "inside") with Failure _ -> ());
  match Trace.validate (Trace.finish ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("trace rejected: " ^ msg)

let test_validate_rejects () =
  let rejected what doc =
    match Trace.validate doc with
    | Ok () -> Alcotest.fail (what ^ ": bad document accepted")
    | Error _ -> ()
  in
  rejected "truncated JSON" "{";
  rejected "missing traceEvents" "{}";
  rejected "traceEvents not an array" "{\"traceEvents\":3}";
  rejected "unclosed span"
    "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
  rejected "mismatched close"
    "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1},{\"name\":\"b\",\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":1}]}";
  rejected "close without open"
    "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"E\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
  rejected "unknown phase"
    "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"Q\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
  match Trace.validate "{\"traceEvents\":[]}" with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("empty trace rejected: " ^ msg)

(* When no sink is installed, every call must be a silent no-op. *)
let test_trace_inactive_noop () =
  Alcotest.(check bool) "inactive" false (Trace.active ());
  Trace.instant "nothing";
  Alcotest.(check int) "span passes through" 9 (Trace.span "s" (fun () -> 9))

(* Hostile strings — quotes, backslashes, control characters — pushed
   through every emitter; the resulting document must stay parseable
   and the validator must accept it. *)
let test_trace_escaping_torture () =
  let nasty = "qu\"ote\\back\nnew\tline\x01ctl" in
  Trace.start ();
  Trace.span nasty ~args:[ (nasty, nasty) ] (fun () ->
      Trace.instant ~args:[ ("k\"", "v\\") ] nasty);
  Trace.counter nasty [ (nasty, 1.5); ("n", Float.nan) ];
  Trace.metadata ~pid:7 ~name:"process_name" nasty;
  let doc = Trace.finish () in
  (match Trace.validate doc with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("torture trace rejected: " ^ msg));
  match Trace.parse_json doc with
  | Trace.Jobj fields ->
    (match List.assoc_opt "traceEvents" fields with
    | Some (Trace.Jarr evs) ->
      (* every hostile name must round-trip through escape+parse *)
      let names =
        List.filter_map
          (function
            | Trace.Jobj f -> (
              match List.assoc_opt "name" f with
              | Some (Trace.Jstr s) -> Some s
              | _ -> None)
            | _ -> None)
          evs
      in
      Alcotest.(check bool) "nasty name round-trips" true
        (List.mem nasty names)
    | _ -> Alcotest.fail "traceEvents not an array")
  | _ -> Alcotest.fail "torture trace did not parse to an object"
  | exception Trace.Bad msg ->
    Alcotest.fail ("torture trace did not parse: " ^ msg)

(* "M" metadata events label pid/tid tracks; the validator must accept
   the phase and the document must carry the label. *)
let test_trace_metadata_event () =
  Trace.start ();
  Trace.metadata ~pid:1234 ~name:"process_name" "worker 3";
  Trace.metadata ~pid:1234 ~tid:2 ~name:"thread_name" "replay";
  let doc = Trace.finish () in
  (match Trace.validate doc with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("metadata trace rejected: " ^ msg));
  Alcotest.(check bool) "ph M present" true (contains doc "\"ph\":\"M\"");
  Alcotest.(check bool) "worker label present" true (contains doc "worker 3");
  Alcotest.(check bool) "explicit pid present" true (contains doc "\"pid\":1234")

(* ---------------- flight recorder: ring semantics ---------------- *)

let test_events_ring_capacity () =
  with_metrics (fun () ->
      Events.reset ();
      for i = 0 to 299 do
        Events.record
          (Events.Osr_enter { ev_fn = "f"; ev_block = Printf.sprintf "b%d" i })
      done;
      let entries = Events.recent () in
      Alcotest.(check int) "ring keeps last capacity entries" Events.capacity
        (List.length entries);
      (match entries with
      | first :: _ ->
        Alcotest.(check int) "oldest surviving seq" (300 - Events.capacity)
          first.Events.e_seq
      | [] -> Alcotest.fail "empty ring");
      let last = List.nth entries (List.length entries - 1) in
      Alcotest.(check int) "newest seq" 299 last.Events.e_seq;
      (* per-kind counters count every record, not just survivors *)
      Alcotest.(check int) "events.osr_enter counter" 300
        (Metrics.counter "events.osr_enter").Metrics.c_value;
      Events.reset ();
      Alcotest.(check int) "reset empties the ring" 0
        (List.length (Events.recent ())))

let test_events_render () =
  with_metrics (fun () ->
      Events.reset ();
      Events.record
        (Events.Tier_up { ev_fn = "hot"; ev_ops = 12; ev_invocations = 3; ev_osr = true });
      match Events.to_lines () with
      | [ line ] ->
        Alcotest.(check bool) "renders kind" true (contains line "tier-up");
        Alcotest.(check bool) "renders fn" true (contains line "hot");
        Alcotest.(check bool) "renders hotness" true (contains line "ops=12");
        Alcotest.(check bool) "renders osr flag" true
          (contains line "at loop header")
      | ls -> Alcotest.failf "expected one line, got %d" (List.length ls))

(* A report lists every entry still in the ring, so the ring renders
   each entry once and hands later calls the same strings. *)
let test_events_render_once () =
  with_metrics (fun () ->
      Events.reset ();
      for i = 0 to 299 do
        Events.record
          (Events.Inline_reject
             { ev_caller = "main"; ev_callee = Printf.sprintf "f%d" i;
               ev_size = i; ev_budget = 300 - i; ev_reason = "too big" })
      done;
      let lines = Events.to_lines () in
      Alcotest.(check (list string)) "cached lines render as before"
        (List.map Events.render (Events.recent ()))
        lines;
      Alcotest.(check bool) "a second call returns the same strings" true
        (List.for_all2 ( == ) lines (Events.to_lines ()));
      Events.reset ();
      Events.record
        (Events.Deopt { ev_fn = "g"; ev_kind = "out-of-bounds"; ev_osr = true });
      Alcotest.(check (list string)) "reset forgets the old lines"
        [ "#0     deopt          g (out-of-bounds, osr frame)" ]
        (Events.to_lines ()))

(* ---------------- guest profiler: delta attribution ---------------- *)

(* Synthetic step counters drive the delta bookkeeping: every steps-
   since-last-event span lands on the node that was current when the
   event fired, and the books always sum to the final counter. *)
let test_profile_delta_attribution () =
  let p = Profile.create () in
  Profile.enter p ~steps:10 "main";
  (* 10 steps of pre-main glue -> root *)
  Profile.enter p ~steps:30 "f";
  (* 20 steps of main before the call *)
  Profile.leave p ~steps:75;
  (* 45 steps inside f *)
  Profile.finalize p ~steps:100;
  (* 25 steps of main after the return *)
  Alcotest.(check int) "conservation: folded sums == counter" 100
    (Profile.total_steps p);
  let folded = Profile.folded p in
  Alcotest.(check bool) "root glue line" true (contains folded "(engine) 10\n");
  Alcotest.(check bool) "main self" true
    (contains folded "(engine);main 45\n");
  Alcotest.(check bool) "f under main" true
    (contains folded "(engine);main;f 45\n")

let test_profile_block_attribution () =
  let p = Profile.create () in
  Profile.enter p ~steps:0 "main";
  let entry = Profile.block_stat p ~func:"main" ~label:"entry" in
  let body = Profile.block_stat p ~func:"main" ~label:"for.body" in
  Profile.note_block p ~steps:0 entry;
  Profile.note_block p ~steps:12 body;
  (* the 12 steps belong to entry, the block being left *)
  Profile.finalize p ~steps:40;
  Alcotest.(check int) "entry block" 12 entry.Profile.bs_steps;
  Alcotest.(check int) "body block" 28 body.Profile.bs_steps;
  Alcotest.(check int) "block books complete" 40 (Profile.total_block_steps p)

(* [Interp.reset] rewinds the step counter; [rewind] must re-arm the
   deltas without discarding earlier runs (bench iterations sum). *)
let test_profile_rewind_accumulates () =
  let p = Profile.create () in
  Profile.enter p ~steps:10 "main";
  Profile.finalize p ~steps:100;
  Profile.rewind p;
  Profile.enter p ~steps:7 "main";
  Profile.finalize p ~steps:9;
  Alcotest.(check int) "two runs sum" 109 (Profile.total_steps p);
  match Profile.by_function p with
  | fs :: _ ->
    Alcotest.(check string) "main hottest" "main" fs.Profile.fs_name;
    Alcotest.(check int) "calls across runs" 2 fs.Profile.fs_calls
  | [] -> Alcotest.fail "no function stats"

(* ---------------- provenance: one golden bug per kind -------------- *)

(* Each program is written as an explicit line list so the expected
   fault line is visible in the test itself (line 1 = first element). *)
let run_lines ?(argv = [ "prog" ]) (lines : string list) : Interp.run_result =
  Cases.sulong ~argv (String.concat "\n" lines)

let check_report ~kind ~line ?(detail = []) (r : Interp.run_result) :
    Bugreport.t =
  (match r.Interp.error with
  | Some (cat, _) ->
    Alcotest.(check string) "error kind" kind (Merror.category_name cat)
  | None -> Alcotest.fail (kind ^ ": no error detected"));
  match r.Interp.report with
  | None -> Alcotest.fail (kind ^ ": no provenance report")
  | Some rep ->
    Alcotest.(check string) "report kind" kind rep.Bugreport.br_kind;
    (match Bugreport.fault_frame rep with
    | None -> Alcotest.fail (kind ^ ": no faulting source location")
    | Some f ->
      Alcotest.(check string) "faulting file" "<input>" f.Bugreport.bf_file;
      Alcotest.(check int) "faulting line" line f.Bugreport.bf_line);
    Alcotest.(check bool) "stack non-empty" true (rep.Bugreport.br_stack <> []);
    let rendered = Bugreport.render rep in
    List.iter
      (fun needle ->
        if not (contains rendered needle) then
          Alcotest.fail
            (Printf.sprintf "%s: report lacks %S:\n%s" kind needle rendered))
      detail;
    rep

let test_report_out_of_bounds () =
  let r =
    run_lines
      [
        "int main(void) {";
        "  int *p = malloc(3 * sizeof(int));";
        "  p[3] = 7;";
        "  return 0;";
        "}";
      ]
  in
  let rep =
    check_report ~kind:"out-of-bounds" ~line:3
      ~detail:
        [
          "write of 4 byte(s) at offset 12";
          "object bounds: [0, 12)";
          "access range: [12, 16)";
          "at <input>:3";
          "in main";
        ]
      r
  in
  Alcotest.(check bool) "has bounds detail" true (rep.Bugreport.br_detail <> [])

let test_report_use_after_free () =
  let r =
    run_lines
      [
        "int main(void) {";
        "  int *p = malloc(4);";
        "  free(p);";
        "  return *p;";
        "}";
      ]
  in
  ignore (check_report ~kind:"use-after-free" ~line:4 r)

let test_report_double_free () =
  let r =
    run_lines
      [
        "int main(void) {";
        "  int *p = malloc(4);";
        "  free(p);";
        "  free(p);";
        "  return 0;";
        "}";
      ]
  in
  ignore (check_report ~kind:"double-free" ~line:4 r)

let test_report_invalid_free () =
  let r =
    run_lines
      [
        "int main(void) {";
        "  int x = 0;";
        "  free(&x);";
        "  return 0;";
        "}";
      ]
  in
  ignore (check_report ~kind:"invalid-free" ~line:3 r)

let test_report_null_deref () =
  let r =
    run_lines
      [ "int main(void) {"; "  int *p = 0;"; "  return *p;"; "}" ]
  in
  ignore (check_report ~kind:"null-dereference" ~line:3 r)

let test_report_varargs () =
  let r =
    run_lines
      [
        "int bad(int n, ...) {";
        "  return *(int *)get_vararg(3);";
        "}";
        "int main(void) { return bad(1, 2); }";
      ]
  in
  ignore (check_report ~kind:"varargs" ~line:2 r)

(* Every provenance report must embed the flight-recorder ring: the
   managed-error raise itself is recorded, so even an untiered run has
   at least one event. *)
let test_bugreport_embeds_events () =
  Events.reset ();
  let r =
    run_lines [ "int main(void) {"; "  int *p = 0;"; "  return *p;"; "}" ]
  in
  match r.Interp.report with
  | None -> Alcotest.fail "no report"
  | Some rep ->
    Alcotest.(check bool) "report carries events" true
      (rep.Bugreport.br_events <> []);
    let rendered = Bugreport.render rep in
    Alcotest.(check bool) "render has events section" true
      (contains rendered "recent engine events:");
    Alcotest.(check bool) "error raise recorded" true
      (contains rendered "null-dereference")

let test_report_division_by_zero () =
  let r =
    run_lines
      [ "int main(int argc, char **argv) {"; "  return 7 / (argc - 1);"; "}" ]
  in
  ignore (check_report ~kind:"division-by-zero" ~line:2 r)

(* The stack trace must name every active call, innermost first, with
   the caller's line pointing at the call site. *)
let test_report_stack_trace () =
  let r =
    run_lines
      [
        "int inner(int *p) { return p[5]; }";
        "int outer(int *p) { return inner(p); }";
        "int main(void) {";
        "  int *p = malloc(4);";
        "  return outer(p);";
        "}";
      ]
  in
  match r.Interp.report with
  | None -> Alcotest.fail "no report"
  | Some rep ->
    let funcs = List.map (fun f -> f.Bugreport.bf_func) rep.Bugreport.br_stack in
    Alcotest.(check (list string))
      "call stack innermost first" [ "inner"; "outer"; "main" ] funcs;
    let lines = List.map (fun f -> f.Bugreport.bf_line) rep.Bugreport.br_stack in
    Alcotest.(check (list int)) "per-frame lines" [ 1; 2; 5 ] lines

(* Every corpus bug must come back with a provenance report carrying a
   real C source line, in the managed run [Engine.run] returns. *)
let test_corpus_reports () =
  List.iter
    (fun (p : Groundtruth.program) ->
      let r =
        Engine.run ~argv:p.Groundtruth.argv ~input:p.Groundtruth.input
          Engine.Safe_sulong p.Groundtruth.source
      in
      match r.Engine.managed with
      | None -> Alcotest.fail (p.Groundtruth.id ^ ": no managed run")
      | Some { Interp.error = None; _ } ->
        Alcotest.fail (p.Groundtruth.id ^ ": Safe Sulong missed the bug")
      | Some { Interp.report = None; _ } ->
        Alcotest.fail (p.Groundtruth.id ^ ": no provenance report")
      | Some { Interp.error = Some (cat, _); report = Some rep; _ } ->
        (match Bugreport.fault_frame rep with
        | None ->
          Alcotest.fail (p.Groundtruth.id ^ ": no faulting source line")
        | Some f ->
          if f.Bugreport.bf_line <= 0 then
            Alcotest.fail (p.Groundtruth.id ^ ": nonpositive fault line"));
        (match cat with
        | Merror.Out_of_bounds _ ->
          if
            not
              (List.exists
                 (fun d -> contains d "object bounds")
                 rep.Bugreport.br_detail)
          then Alcotest.fail (p.Groundtruth.id ^ ": no bounds detail")
        | _ -> ()))
    Corpus.all

(* ---------------- switch: C11 6.8.4.2 label conversion ------------- *)

(* A case label wider than the promoted controlling type is converted to
   that type: 0x100000001 on an int scrutinee matches 1. *)
let test_switch_label_conversion () =
  let r =
    run_lines
      [
        "int main(void) {";
        "  int x = 1;";
        "  switch (x) {";
        "  case 0x100000001: return 42;";
        "  default: return 7;";
        "  }";
        "}";
      ]
  in
  Alcotest.(check int) "label converted to int" 42 r.Interp.exit_code

(* The controlling expression undergoes integer promotion first: a char
   scrutinee switches as int, so the same wide label still matches. *)
let test_switch_scrutinee_promotion () =
  let r =
    run_lines
      [
        "int main(void) {";
        "  char c = 1;";
        "  switch (c) {";
        "  case 0x100000001: return 5;";
        "  default: return 9;";
        "  }";
        "}";
      ]
  in
  Alcotest.(check int) "char promoted to int" 5 r.Interp.exit_code

(* Labels that collide only after conversion are a compile-time error
   (C11 6.8.4.2p3: no two case labels with the same converted value). *)
let test_switch_duplicate_after_conversion () =
  let src =
    String.concat "\n"
      [
        "int main(void) {";
        "  switch (1) {";
        "  case 1: return 1;";
        "  case 0x100000001: return 2;";
        "  }";
        "  return 0;";
        "}";
      ]
  in
  match Cases.sulong src with
  | exception Diag.Error (_, msg) ->
    Alcotest.(check bool)
      "mentions duplicate label" true
      (contains msg "duplicate case label")
  | _ -> Alcotest.fail "duplicate-after-conversion label accepted"

(* C11 6.8.4.2p1: the controlling expression shall have integer type. *)
let test_switch_rejects_non_integer () =
  let src =
    String.concat "\n"
      [
        "int main(void) {";
        "  double d = 1.0;";
        "  switch (d) { default: return 0; }";
        "}";
      ]
  in
  match Cases.sulong src with
  | exception Diag.Error (_, _) -> ()
  | _ -> Alcotest.fail "floating switch scrutinee accepted"

(* A long scrutinee keeps 64-bit labels distinct: no false sharing. *)
let test_switch_long_scrutinee_exact () =
  let r =
    run_lines
      [
        "int main(void) {";
        "  long x = 0x100000001;";
        "  switch (x) {";
        "  case 1: return 3;";
        "  case 0x100000001: return 11;";
        "  default: return 4;";
        "  }";
        "}";
      ]
  in
  Alcotest.(check int) "long labels stay distinct" 11 r.Interp.exit_code

(* ---------------- metrics: operation counts ---------------- *)

(* The interpreter's [interp.op.*] counters and [interp.phi_copies] are
   sums of the per-function kind counters, so together they equal
   [interp.steps] — also when the run stops at its step limit, on any
   kind of operation.  The program runs after the safe-jit pipeline
   (phi copies), calls through a pointer and mixes float work in. *)
let op_sum_src =
  {|
int twice(int x) { return 2 * x; }
int main(void) {
  int (*f)(int) = twice;
  double d = 0.5;
  long s = 0;
  for (int i = 0; i < 300; i++) {
    s += f(i);
    d = d * 1.5 + i;
    if (d > 1000.0) d = 0.5;
  }
  printf("%ld %f\n", s, d);
  return 0;
}
|}

let test_op_metrics_sum_to_steps () =
  let m = Loader.load_program op_sum_src in
  ignore (Pipeline.safe_jit m);
  Verify.verify m;
  let run ?tier limit =
    with_metrics (fun () ->
        let r = Interp.run (Interp.create ~step_limit:limit ?tier m) in
        let counters = (Metrics.snapshot ()).Metrics.sn_counters in
        let get name = Option.value (List.assoc_opt name counters) ~default:0 in
        let ops =
          List.fold_left
            (fun acc (name, v) ->
              if
                String.starts_with ~prefix:"interp.op." name
                || name = "interp.phi_copies"
              then acc + v
              else acc)
            0 counters
        in
        (r, ops, get "interp.steps", get "interp.phi_copies"))
  in
  let full, _, _, phis = run 10_000_000 in
  if phis = 0 then Alcotest.fail "no phi copy executed";
  let limits =
    List.init 40 (fun k -> 2_000 + k) @ [ full.Interp.steps; 10_000_000 ]
  in
  List.iter
    (fun (what, tier) ->
      List.iter
        (fun limit ->
          let r, ops, steps, _ = run ?tier limit in
          let at = Printf.sprintf "%s, limit %d" what limit in
          Alcotest.(check int) (at ^ ": interp.steps") r.Interp.steps steps;
          Alcotest.(check int) (at ^ ": operation counters sum to steps") steps ops)
        limits)
    [ ("interpreter", None); ("threshold 0", Some (Tier.controller ~threshold:0 ())) ]

(* ---------------- runner ---------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "log2 bucketing" `Quick test_bucket_of;
          Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
          Alcotest.test_case "snapshot merge" `Quick test_snapshot_merge;
          Alcotest.test_case "disabled time is a no-op" `Quick
            test_disabled_time_is_noop;
          Alcotest.test_case "non-finite floats render as null" `Quick
            test_json_float_nonfinite;
          Alcotest.test_case "to_json with non-finite gauges parses" `Quick
            test_to_json_nonfinite_parses;
          Alcotest.test_case "quantile interpolation" `Quick
            test_quantile_interpolation;
          Alcotest.test_case "p50/p90/p99 in renderings" `Quick
            test_quantiles_in_renderings;
          Alcotest.test_case "interp.op.* and phi copies sum to interp.steps"
            `Quick test_op_metrics_sum_to_steps;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception-safe spans" `Quick
            test_span_exception_safe;
          Alcotest.test_case "validator rejects malformed" `Quick
            test_validate_rejects;
          Alcotest.test_case "inactive sink is a no-op" `Quick
            test_trace_inactive_noop;
          Alcotest.test_case "escaping torture stays well-formed" `Quick
            test_trace_escaping_torture;
          Alcotest.test_case "metadata events label tracks" `Quick
            test_trace_metadata_event;
        ] );
      ( "events",
        [
          Alcotest.test_case "ring capacity and ordering" `Quick
            test_events_ring_capacity;
          Alcotest.test_case "render shapes" `Quick test_events_render;
          Alcotest.test_case "each entry renders once" `Quick
            test_events_render_once;
          Alcotest.test_case "bug reports embed the ring" `Quick
            test_bugreport_embeds_events;
        ] );
      ( "profile",
        [
          Alcotest.test_case "delta attribution + conservation" `Quick
            test_profile_delta_attribution;
          Alcotest.test_case "block attribution" `Quick
            test_profile_block_attribution;
          Alcotest.test_case "rewind accumulates across runs" `Quick
            test_profile_rewind_accumulates;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "out-of-bounds golden" `Quick
            test_report_out_of_bounds;
          Alcotest.test_case "use-after-free golden" `Quick
            test_report_use_after_free;
          Alcotest.test_case "double-free golden" `Quick
            test_report_double_free;
          Alcotest.test_case "invalid-free golden" `Quick
            test_report_invalid_free;
          Alcotest.test_case "null-dereference golden" `Quick
            test_report_null_deref;
          Alcotest.test_case "varargs golden" `Quick test_report_varargs;
          Alcotest.test_case "division-by-zero golden" `Quick
            test_report_division_by_zero;
          Alcotest.test_case "stack trace shape" `Quick
            test_report_stack_trace;
          Alcotest.test_case "whole-corpus sweep" `Slow test_corpus_reports;
        ] );
      ( "switch",
        [
          Alcotest.test_case "label conversion" `Quick
            test_switch_label_conversion;
          Alcotest.test_case "scrutinee promotion" `Quick
            test_switch_scrutinee_promotion;
          Alcotest.test_case "duplicate after conversion" `Quick
            test_switch_duplicate_after_conversion;
          Alcotest.test_case "non-integer scrutinee rejected" `Quick
            test_switch_rejects_non_integer;
          Alcotest.test_case "long scrutinee exact" `Quick
            test_switch_long_scrutinee_exact;
        ] );
    ]
