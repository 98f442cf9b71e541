(** The wall-clock microbenchmarks behind `sulong bench`: one named unit
    of work per table or figure of the evaluation (plus a call/switch
    dispatch kernel), the repository's one timing loop, and the rows of
    [BENCH_interp.json] built from them.  Row names are stable — `sulong
    bench --compare` matches rows by name — and the test suite checks
    them against the checked-in log. *)

(* ---------------- the timing loop ---------------- *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let min_runs = 5

(** Time [thunk] on the monotonic wall clock: one untimed warm-up run
    (fills caches, forces the lazies), a major collection (a row is not
    charged for its predecessor's garbage), then timed runs until at
    least [quota_s] seconds have passed and at least [min_runs] runs
    were made.  Returns the median run in ns — unlike a mean, it
    ignores the odd run that absorbs a GC pause — and the number of
    timed runs. *)
let time ~quota_s (thunk : unit -> unit) : float * int =
  thunk ();
  Gc.major ();
  let quota_ns = quota_s *. 1e9 in
  let t0 = now_ns () in
  let samples = ref [] and runs = ref 0 in
  while now_ns () -. t0 < quota_ns || !runs < min_runs do
    let s = now_ns () in
    thunk ();
    samples := (now_ns () -. s) :: !samples;
    incr runs
  done;
  (Stats.median !samples, !runs)

(* ---------------- the units of work ---------------- *)

type unit_of_work = {
  u_name : string;
  u_run : unit -> unit;
  u_profile : Profile.t option;
      (** the guest profile of a reset-based managed row, accumulated
          over every run, when [units ~profile:true] asked for it *)
}

let plain name run = { u_name = name; u_run = run; u_profile = None }

(* FIG1/FIG2: keyword classification over the synthetic databases. *)
let cve_entries = lazy (Gen.generate Gen.Cve)

(* TAB1/TAB2/CMP: one representative corpus program (the unit of work
   the effectiveness experiment repeats 68 x 5 times). *)
let corpus_run tool () =
  let p = List.hd Corpus.all in
  ignore
    (Engine.run ~argv:p.Groundtruth.argv ~input:p.Groundtruth.input tool
       p.Groundtruth.source)

(* DISPATCH: isolates the interpreter's control-transfer machinery —
   direct calls, an indirect call through a flipping function pointer,
   and a switch — with almost no memory traffic, so the cost of branch /
   call / switch dispatch dominates. *)
let dispatch_src =
  {|
int add1(int x) { return x + 1; }
int mul2(int x) { return x * 2; }
int pick(int i) {
  switch (i & 7) {
  case 0: return 1;
  case 1: return 3;
  case 2: return 5;
  case 3: return 7;
  case 4: return 11;
  case 5: return 13;
  case 6: return 17;
  default: return 19;
  }
}
int main(void) {
  long s = 0;
  int (*fp)(int);
  for (int i = 0; i < 120000; i++) {
    if (i & 1) fp = add1; else fp = mul2;
    s += fp(i);
    s += add1(i);
    s += pick(i);
  }
  printf("%ld\n", s);
  return 0;
}
|}

let meteor = lazy (Loader.load_program Benchprogs.meteor.Benchprogs.b_source)

let whetstone =
  lazy (Loader.load_program Benchprogs.whetstone.Benchprogs.b_source)

let dispatch = lazy (Loader.load_program dispatch_src)

(* A reset-based managed row: the state (and, for the tiered rows, the
   tier controller) is created at the first run and rewound with
   [Interp.reset] between runs.  [pf_tier] survives the reset — the
   compiled-body cache — so the tiered rows time warm execution rather
   than per-run recompilation, the same shape as the paper's warmed-up
   measurements.  Sharing one module between the interp and tiered
   states is safe: the interpreter only reads the module it prepares.
   A profiler, when asked for, keeps its books across resets. *)
let managed ~profile ~tiered name (m : Irmod.t Lazy.t) =
  let prof = if profile then Some (Profile.create ()) else None in
  let st =
    lazy
      (let m = Lazy.force m in
       if tiered then
         Interp.create ~tier:(Tier.controller ~threshold:0 ()) ?profile:prof m
       else Interp.create ?profile:prof m)
  in
  {
    u_name = name;
    u_run =
      (fun () ->
        let st = Lazy.force st in
        Interp.reset st;
        ignore (Interp.run st));
    u_profile = prof;
  }

let whetstone_o3 ~inline () =
  let m = Loader.compile_user Benchprogs.whetstone.Benchprogs.b_source in
  if inline then ignore (Inline.run m);
  Pipeline.compile_native ~level:Pipeline.O3 m

let binarytrees ~mementos () =
  ignore
    (Engine.run ~mementos Engine.Safe_sulong
       Benchprogs.binarytrees.Benchprogs.b_source)

(** Every row, in log order.  Building the list is cheap: modules and
    states are created by each row's first (warm-up) run. *)
let units ~profile : unit_of_work list =
  let managed = managed ~profile in
  [
    plain "fig1+2: classify CVE database" (fun () ->
        ignore (Classify.trends (Lazy.force cve_entries)));
    plain "tab1+2: corpus program under Safe Sulong"
      (corpus_run Engine.Safe_sulong);
    plain "cmp: corpus program under ASan" (corpus_run (Engine.Asan Pipeline.O0));
    (* front end + libc link: the work behind the start-up numbers *)
    plain "startup: load hello world" (fun () ->
        ignore (Loader.load_program Benchprogs.hello.Benchprogs.b_source));
    (* the unit the warm-up experiment repeats; the interp/tiered ratio
       is the repo's stand-in for the paper's warmed-up-Graal speedup *)
    managed ~tiered:false "fig15: meteor iteration (managed interpreter)" meteor;
    managed ~tiered:true "fig15: meteor iteration (closure-compiled tier)"
      meteor;
    (* float-heavy: the tiered row exercises the unboxed F64 registers *)
    managed ~tiered:false "fig16: whetstone (managed interpreter)" whetstone;
    managed ~tiered:true "fig16: whetstone (closure-compiled tier)" whetstone;
    plain "fig16: whetstone native -O0"
      (let m =
         lazy (Loader.compile_user Benchprogs.whetstone.Benchprogs.b_source)
       in
       fun () -> ignore (Nexec.run (Nexec.create (Irmod.copy (Lazy.force m)))));
    plain "fig16: the -O3 pipeline on whetstone" (whetstone_o3 ~inline:false);
    (* the ablations of DESIGN.md par.5 *)
    plain "ablation: binarytrees with allocation mementos"
      (binarytrees ~mementos:true);
    plain "ablation: binarytrees without mementos" (binarytrees ~mementos:false);
    plain "ablation: -O3 + inlining pipeline on whetstone"
      (whetstone_o3 ~inline:true);
    (* last: its heavy allocation perturbs the GC for whatever follows *)
    managed ~tiered:false "micro: call/switch dispatch (managed interpreter)"
      dispatch;
    managed ~tiered:true "micro: call/switch dispatch (closure-compiled tier)"
      dispatch;
  ]

(* ---------------- derived rows and the log ---------------- *)

type row = { name : string; ns_per_op : float; runs : int }

(* (speedup row, interpreter row, tiered row).  The meteor ratio is the
   headline tiered-engine number. *)
let speedup_pairs =
  [
    ( "fig15: interp/tiered speedup",
      "fig15: meteor iteration (managed interpreter)",
      "fig15: meteor iteration (closure-compiled tier)" );
    ( "fig16: whetstone interp/tiered speedup",
      "fig16: whetstone (managed interpreter)",
      "fig16: whetstone (closure-compiled tier)" );
    ( "micro: dispatch interp/tiered speedup",
      "micro: call/switch dispatch (managed interpreter)",
      "micro: call/switch dispatch (closure-compiled tier)" );
  ]

(** The wall-clock interp/tiered ratio of each row pair. *)
let speedups (rows : row list) : (string * float) list =
  let find n = List.find_opt (fun r -> r.name = n) rows in
  List.filter_map
    (fun (name, interp, tiered) ->
      match (find interp, find tiered) with
      | Some i, Some t when t.ns_per_op > 0.0 ->
        Some (name, i.ns_per_op /. t.ns_per_op)
      | _ -> None)
    speedup_pairs

(** The observability counters of one metered meteor iteration, as
    (["obs: " ^ metric], rendered value) rows.  The registry is enabled
    only around this run, so the timing rows are measured with metrics
    off; the state is a fresh one because the interpreter samples
    [Metrics.enabled] at [create] time. *)
let obs_rows () : (string * string) list =
  Metrics.reset ();
  Metrics.enabled := true;
  ignore
    (Engine.run_module ~step_limit:Engine.long_step_limit Engine.Safe_sulong
       (Lazy.force meteor));
  Metrics.enabled := false;
  let sn = Metrics.snapshot () in
  List.map
    (fun (n, v) -> ("obs: " ^ n, v))
    (List.map (fun (n, v) -> (n, string_of_int v)) sn.Metrics.sn_counters
    @ List.map (fun (n, v) -> (n, Metrics.float_str v)) sn.Metrics.sn_gauges
    @ List.concat_map
        (fun (n, count, sum, _) ->
          let mean = if count = 0 then 0.0 else sum /. float_of_int count in
          [
            (n ^ ".count", string_of_int count);
            (n ^ ".mean", Metrics.float_str mean);
          ])
        sn.Metrics.sn_histograms)

(** The [BENCH_interp.json] array: the timed rows
    ([{"name", "ns_per_op", "runs"}]), then the speedups and the
    metered rows ([{"name", "value"}]). *)
let to_json (rows : row list) (speedups : (string * float) list)
    (obs : (string * string) list) : string =
  let value name v =
    Printf.sprintf "  {\"name\": \"%s\", \"value\": %s}"
      (Metrics.json_escape name) v
  in
  let lines =
    List.map
      (fun r ->
        Printf.sprintf "  {\"name\": \"%s\", \"ns_per_op\": %.0f, \"runs\": %d}"
          (Metrics.json_escape r.name) r.ns_per_op r.runs)
      rows
    @ List.map (fun (n, x) -> value n (Printf.sprintf "%.2f" x)) speedups
    @ List.map (fun (n, v) -> value n v) obs
  in
  "[\n" ^ String.concat ",\n" lines ^ "\n]\n"

(** The ns_per_op rows of a bench log, in file order — what `sulong
    bench --compare` diffs.  Raises [Trace.Bad] on a malformed log. *)
let ns_rows (file : string) : (string * float) list =
  match Trace.parse_json (In_channel.with_open_bin file In_channel.input_all) with
  | Trace.Jarr rows ->
    List.filter_map
      (function
        | Trace.Jobj fields -> (
          match
            (List.assoc_opt "name" fields, List.assoc_opt "ns_per_op" fields)
          with
          | Some (Trace.Jstr name), Some (Trace.Jnum ns) -> Some (name, ns)
          | _ -> None)
        | _ -> None)
      rows
  | _ -> raise (Trace.Bad (file ^ " is not a JSON array of rows"))
