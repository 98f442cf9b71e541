(** Driver for the differential-testing campaign: generate a seed range,
    run each program through the oracle, optionally shrink divergent
    cases, and report machine-readable results.

    Checked-in regression programs pin the divergences this subsystem
    convicted: the front-end constant-folding bugs (logical-shift
    folding for unsigned operands, unsigned comparisons folded with
    signed compare, float-to-int casts folded with platform-dependent
    [Int64.of_float]) and the single-precision rounding bugs (F32
    add/div results and int-to-F32 conversions kept at double
    precision).  Reverting any one fix makes the corresponding
    regression fail. *)

(** Provenance signature of a divergence: the same underlying bug keeps
    convicting different seeds, so campaigns deduplicate on (error kind,
    faulting source position, which-configurations-disagree bitset)
    rather than on seeds.  [sg_kind] joins the distinct outcome keys
    observed ("detected:out-of-bounds|finished:0"); [sg_loc] is the
    managed bug report's [file:line:col] when one configuration produced
    a report (empty otherwise); [sg_configs] sets bit [i] when
    observation [i] — the order of [Oracle.configs], plus the reference
    evaluator as the final pseudo-observation — disagrees with
    observation 0. *)
type signature = {
  sg_kind : string;
  sg_loc : string;
  sg_configs : int;
}

let signature_of_observations (obs : Oracle.observation list) : signature =
  match obs with
  | [] -> { sg_kind = "?"; sg_loc = ""; sg_configs = 0 }
  | first :: _ ->
    let bits = ref 0 in
    List.iteri
      (fun i (o : Oracle.observation) ->
        if
          o.Oracle.ob_key <> first.Oracle.ob_key
          || o.Oracle.ob_output <> first.Oracle.ob_output
        then bits := !bits lor (1 lsl i))
      obs;
    let kinds =
      List.sort_uniq compare (List.map (fun o -> o.Oracle.ob_key) obs)
    in
    let loc =
      match List.filter_map (fun o -> o.Oracle.ob_loc) obs with
      | l :: _ -> l
      | [] -> ""
    in
    { sg_kind = String.concat "|" kinds; sg_loc = loc; sg_configs = !bits }

let signature_key (s : signature) : string =
  Printf.sprintf "%s @ %s # 0x%x" s.sg_kind
    (if s.sg_loc = "" then "-" else s.sg_loc)
    s.sg_configs

type divergence = {
  dv_seed : int;
  dv_mismatch : string;
  dv_sig : signature;
  dv_source : string;
  dv_reduced : string option;
  dv_oracle_calls : int;  (** oracle calls spent shrinking *)
  dv_events : string list;
      (** the engine flight recorder's ring at detection time
          ([Events.to_lines], oldest first): which tier-up / deopt /
          cache decisions preceded the divergence.  Captured before
          shrinking, which would flood the ring with reduction runs. *)
}

type report = {
  rp_seed_start : int;
  rp_seeds : int;
  rp_features : string;  (** generator feature set, e.g. "int,float" *)
  rp_agree : int;
  rp_reject : int;
  rp_divergences : divergence list;
  rp_elapsed_s : float;
}

let diverges (p : Cprog.program) : bool =
  match Oracle.check ~expected:(Cprog.expected_prefix p) (Cprog.render p) with
  | Oracle.Diverge _ -> true
  | Oracle.Agree _ | Oracle.Reject _ -> false

(** Run one seed; [shrink] spends up to [shrink_budget] extra oracle
    calls reducing a divergent program. *)
let run_seed ?(features = Cgen.all_features) ?(shrink = false)
    ?(shrink_budget = 200) (seed : int) :
    [ `Agree | `Reject of string | `Diverge of divergence ] =
  (* A fresh ring per seed keeps the recorded event trail deterministic
     (a campaign worker and an in-process rerun of the same seed attach
     identical [dv_events] to the divergence). *)
  Events.reset ();
  let p = Cgen.generate ~features ~seed () in
  let src = Cprog.render p in
  match Oracle.check ~expected:(Cprog.expected_prefix p) src with
  | Oracle.Agree _ -> `Agree
  | Oracle.Reject why -> `Reject why
  | Oracle.Diverge { mismatch; observations } ->
    let events = Events.to_lines () in
    let reduced, calls =
      if shrink then begin
        let r = Shrink.reduce ~test:diverges ~budget:shrink_budget p in
        (Some (Cprog.render r.Shrink.reduced), r.Shrink.oracle_calls)
      end
      else (None, 0)
    in
    `Diverge
      {
        dv_seed = seed;
        dv_mismatch = mismatch;
        dv_sig = signature_of_observations observations;
        dv_source = src;
        dv_reduced = reduced;
        dv_oracle_calls = calls;
        dv_events = events;
      }

(** Per-seed cost record for the campaign ledger: wall-clock spent on
    the seed (including shrinking) and the guest steps its managed
    configurations executed.  What lets a [--resume] print a
    slowest-seeds table without rerunning anything. *)
type seed_stat = {
  ss_seed : int;
  ss_elapsed_s : float;
  ss_steps : int;
}

(** [run_seed] plus its cost: wall time and the [Oracle.steps_total]
    delta (shrink replays count toward the seed that needed them). *)
let run_seed_timed ?features ?shrink ?shrink_budget (seed : int) :
    [ `Agree | `Reject of string | `Diverge of divergence ] * seed_stat =
  let t0 = Unix.gettimeofday () in
  let s0 = Oracle.steps_total () in
  let r = run_seed ?features ?shrink ?shrink_budget seed in
  ( r,
    {
      ss_seed = seed;
      ss_elapsed_s = Unix.gettimeofday () -. t0;
      ss_steps = Oracle.steps_total () - s0;
    } )

(* Observability: campaign counters plus a trace instant every
   [progress_every] seeds, so a long campaign shows up as a heartbeat in
   the Chrome trace. *)
let progress_every = 100

let record_report (r : report) : unit =
  Metrics.add (Metrics.counter "difftest.seeds") r.rp_seeds;
  Metrics.add (Metrics.counter "difftest.agree") r.rp_agree;
  Metrics.add (Metrics.counter "difftest.rejects") r.rp_reject;
  Metrics.add
    (Metrics.counter "difftest.divergences")
    (List.length r.rp_divergences);
  if r.rp_seeds > 0 then
    Metrics.set
      (Metrics.gauge "difftest.divergence_rate")
      (float_of_int (List.length r.rp_divergences) /. float_of_int r.rp_seeds)

let run ?(features = Cgen.all_features) ?(shrink = false) ?(shrink_budget = 200)
    ?(progress = fun (_ : int) -> ()) ~(seed_start : int) ~(seeds : int) () :
    report =
  let t0 = Unix.gettimeofday () in
  let agree = ref 0 and reject = ref 0 and divs = ref [] in
  for i = 0 to seeds - 1 do
    let seed = seed_start + i in
    (match run_seed ~features ~shrink ~shrink_budget seed with
    | `Agree -> incr agree
    | `Reject _ -> incr reject
    | `Diverge d -> divs := d :: !divs);
    if (i + 1) mod progress_every = 0 || i = seeds - 1 then
      Trace.instant
        ~args:
          [
            ("done", string_of_int (i + 1));
            ("of", string_of_int seeds);
            ("divergences", string_of_int (List.length !divs));
          ]
        "difftest-progress";
    progress (i + 1)
  done;
  let r =
    {
      rp_seed_start = seed_start;
      rp_seeds = seeds;
      rp_features = Cgen.features_name features;
      rp_agree = !agree;
      rp_reject = !reject;
      rp_divergences = List.rev !divs;
      rp_elapsed_s = Unix.gettimeofday () -. t0;
    }
  in
  record_report r;
  r

(* ------------------------------------------------------------------ *)
(* JSON log                                                            *)
(* ------------------------------------------------------------------ *)

let report_row ?(jobs = 1) ?(worker_deaths = 0) (r : report) : string =
  let seeds_per_s =
    if r.rp_elapsed_s > 0.0 then float_of_int r.rp_seeds /. r.rp_elapsed_s
    else 0.0
  in
  Printf.sprintf
    "  {\"name\": \"difftest\", \"features\": \"%s\", \"seed_start\": %d, \
     \"seeds\": %d, \"agree\": %d, \"rejects\": %d, \"divergences\": %d, \
     \"elapsed_s\": %.3f, \"seeds_per_s\": %.1f%s%s}"
    r.rp_features r.rp_seed_start r.rp_seeds r.rp_agree r.rp_reject
    (List.length r.rp_divergences)
    r.rp_elapsed_s seeds_per_s
    (if jobs > 1 then
       Printf.sprintf ", \"jobs\": %d, \"worker_deaths\": %d" jobs
         worker_deaths
     else "")
    (match r.rp_divergences with
    | [] -> ""
    | ds ->
      Printf.sprintf ", \"diverging_seeds\": [%s]"
        (String.concat ", "
           (List.map (fun d -> string_of_int d.dv_seed) ds)))

(** Append a row to a JSON-array log file (same shape as
    BENCH_interp.json), creating it when missing. *)
let append_row ~(file : string) (row : string) : unit =
  let existing =
    if Sys.file_exists file then begin
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some s
    end
    else None
  in
  let content =
    match existing with
    | None -> "[\n" ^ row ^ "\n]\n"
    | Some s ->
      let trimmed = String.trim s in
      let body =
        (* Drop the closing bracket; keep prior rows. *)
        if String.length trimmed >= 1
           && trimmed.[String.length trimmed - 1] = ']'
        then String.trim (String.sub trimmed 0 (String.length trimmed - 1))
        else trimmed
      in
      if body = "[" then "[\n" ^ row ^ "\n]\n"
      else body ^ ",\n" ^ row ^ "\n]\n"
  in
  let oc = open_out_bin file in
  output_string oc content;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Regression reproducers                                              *)
(* ------------------------------------------------------------------ *)

(** [(name, source, exact expected output)].  Each program computes the
    same expression in a folded constant context *and* at runtime; with
    any folding fix reverted, the folded and reference values disagree
    and the oracle convicts the front end. *)
let regressions : (string * string * string) list =
  [
    ( "unsigned-shr-fold",
      (* (0u - 1u) >> 4 must use a *logical* shift at unsigned int:
         0xFFFFFFFF >> 4 = 0x0FFFFFFF.  The pre-fix folders shifted the
         canonical sign-extended value arithmetically, yielding -1. *)
      "enum { E = (0u - 1u) >> 4 };\n\
       static unsigned int g = (0u - 1u) >> 4;\n\
       int main(void) {\n\
      \  unsigned int x = 0u - 1u;\n\
      \  unsigned int y = x >> 4;\n\
      \  printf(\"%ld %ld %ld\\n\", (long)E, (long)g, (long)y);\n\
      \  return 0;\n\
       }\n",
      "268435455 268435455 268435455\n" );
    ( "unsigned-cmp-fold",
      (* Comparisons whose usual-arithmetic type is unsigned must
         compare zero-extended values: 0xFFFFFFFFu > 0u is 1, and
         -1 < 1u converts -1 to 0xFFFFFFFF so the result is 0.  The
         pre-fix folder used the signed polymorphic compare. *)
      "enum { GT = (0u - 1u) > 0u, LT = -1 < 1u };\n\
       int main(void) {\n\
      \  unsigned int a = 0u - 1u;\n\
      \  int m1 = -1;\n\
      \  unsigned int one = 1u;\n\
      \  int rgt = a > 0u;\n\
      \  int rlt = m1 < one;\n\
      \  printf(\"%ld %ld %ld %ld\\n\", (long)GT, (long)LT, (long)rgt, \
       (long)rlt);\n\
      \  return 0;\n\
       }\n",
      "1 0 1 0\n" );
    ( "global-init-conversion",
      (* A global initializer converts to the *declared* type before the
         image bytes are emitted: widening from a narrower unsigned type
         zero-extends.  The pre-fix folder emitted the canonical
         sign-extended value, baking 0xFFFF9373 (not 0x00009373) into
         the unsigned int — the first bug this oracle found by itself
         (seed 0 of the first campaign, shrunk to this form). *)
      "static unsigned int g = (unsigned short)0x9373ul;\n\
       static long h = 0x80000000u;\n\
       int main(void) {\n\
      \  unsigned short x = 0x9373ul;\n\
      \  unsigned int rg = x;\n\
      \  unsigned int u = 0x80000000u;\n\
      \  long rh = u;\n\
      \  printf(\"%ld %ld %ld %ld\\n\", (long)g, h, (long)rg, rh);\n\
      \  return 0;\n\
       }\n",
      "37747 2147483648 37747 2147483648\n" );
    ( "float-to-int-fold",
      (* Every float-to-int conversion — folded or executed, managed or
         native — goes through Scalar.float_to_int: truncation toward
         zero with NaN -> 0 and saturation at the integer range.  A
         folder reverting to Int64.of_float diverges from the engines on
         NaN/infinity at -O3 (where the cast folds) vs -O0 (where it
         executes). *)
      "int main(void) {\n\
      \  double zero = 0.0;\n\
      \  double big = 1e300;\n\
      \  long a = (long)(zero / zero);\n\
      \  long b = (long)(1.0 / zero);\n\
      \  long c = (long)(0.0 - (1.0 / zero));\n\
      \  long d = (long)big;\n\
      \  printf(\"%ld %ld %ld %ld\\n\", a, b, c, d);\n\
      \  return 0;\n\
       }\n",
      "0 9223372036854775807 -9223372036854775808 9223372036854775807\n" );
    ( "f32-add-rounding",
      (* Single-precision addition must round its result to binary32:
         16777216.0f + 1.0f is 16777216.0f (2^24 + 1 is not
         representable).  Pre-fix, every engine computed the sum at
         double precision and kept 16777217.0 (bits 0x4170000000000080),
         visible in the bit-exact printout.  [a] folds at -O3; [b]
         executes everywhere. *)
      "int main(void) {\n\
      \  float one = 1.0f;\n\
      \  float a = 16777216.0f + 1.0f;\n\
      \  float b = 16777216.0f + one;\n\
      \  double pa = (double)a;\n\
      \  double pb = (double)b;\n\
      \  printf(\"%lx %lx\\n\", *(unsigned long *)&pa, *(unsigned long \
       *)&pb);\n\
      \  return 0;\n\
       }\n",
      "4170000000000000 4170000000000000\n" );
    ( "f32-div-rounding",
      (* 1.0f / 3.0f rounded to binary32 widens to 0x3fd5555560000000;
         the unrounded double quotient is 0x3fd5555555555555.  Catches
         an engine (or the folder, at -O3) that skips the F32 rounding
         step on division specifically. *)
      "int main(void) {\n\
      \  float three = 3.0f;\n\
      \  float a = 1.0f / 3.0f;\n\
      \  float b = 1.0f / three;\n\
      \  double pa = (double)a;\n\
      \  double pb = (double)b;\n\
      \  printf(\"%lx %lx\\n\", *(unsigned long *)&pa, *(unsigned long \
       *)&pb);\n\
      \  return 0;\n\
       }\n",
      "3fd5555560000000 3fd5555560000000\n" );
    ( "sitofp-f32-rounding",
      (* An int-to-float conversion whose destination is binary32 must
         round: (float)16777217 is 16777216.0f.  Pre-fix, Sitofp
         produced the exact double 16777217.0 in an F32 slot — in the
         folder, the interpreter, the native emulator and the tier-2
         closure compiler alike. *)
      "int main(void) {\n\
      \  int n = 16777217;\n\
      \  float a = (float)16777217;\n\
      \  float b = (float)n;\n\
      \  double pa = (double)a;\n\
      \  double pb = (double)b;\n\
      \  printf(\"%lx %lx\\n\", *(unsigned long *)&pa, *(unsigned long \
       *)&pb);\n\
      \  return 0;\n\
       }\n",
      "4170000000000000 4170000000000000\n" );
    ( "mem2reg-late-phi-operand",
      (* Two-round promotion: round 1 promotes the pointer alloca [p0],
         turning [*p0] into direct loads of [v0]'s alloca; round 2
         promotes [v0] itself.  A phi's incoming operand names a value
         from its *predecessor*, a block the renaming walk's pre-order
         dominator-tree traversal may visit after the phi's own block —
         pre-fix, the walk rewrote the phi before the predecessor's
         load had a substitution, then deleted the load, leaving the
         safe-jit and -O3 pipelines with IR that fails verification
         ("phi uses undefined register").  Found by the first ptr
         campaign (seeds 411 and 479), shrunk to this form. *)
      "static short g0 = 0;\n\
       static unsigned short g1 = 1;\n\
       int main(void) {\n\
      \  unsigned int v0 = 7;\n\
      \  unsigned int *p0 = &v0;\n\
      \  g1 = ((*p0) && g0);\n\
      \  int r = (g0 ? 1 : (*p0));\n\
      \  printf(\"g1_end=%ld\\n\", (long)g1);\n\
      \  printf(\"r=%ld\\n\", (long)r);\n\
      \  return 0;\n\
       }\n",
      "g1_end=0\nr=7\n" );
  ]

(** Run one regression through the full oracle; the common output must
    equal the expected text exactly. *)
let check_regression ((name, src, expected) : string * string * string) :
    (unit, string) result =
  match Oracle.check ~expected src with
  | Oracle.Agree out when out = expected -> Ok ()
  | Oracle.Agree out ->
    Error (Printf.sprintf "%s: agreed on %S, expected %S" name out expected)
  | Oracle.Reject why -> Error (Printf.sprintf "%s: rejected: %s" name why)
  | Oracle.Diverge { mismatch; observations } ->
    Error
      (Printf.sprintf "%s: diverged: %s\n%s" name mismatch
         (String.concat "\n"
            (List.map
               (fun o ->
                 Printf.sprintf "  %-18s %-14s %S" o.Oracle.ob_config
                   o.Oracle.ob_key o.Oracle.ob_output)
               observations)))

(** On-disk regressions corpus, as written by `sulong bugdb export`:
    [<name>.c] next to [<name>.expected], both read whole.  Entries are
    the same [(name, source, expected)] triples as [regressions], so
    [check_regression] runs them unchanged.  A missing directory is an
    empty corpus; a [.c] without its [.expected] is an error (a corpus
    that silently skips members would pass vacuously). *)
let load_corpus ~(dir : string) : (string * string * string) list =
  if not (Sys.file_exists dir) then []
  else
    let read file =
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".c" then begin
             let name = Filename.chop_suffix f ".c" in
             let expected_file = Filename.concat dir (name ^ ".expected") in
             if not (Sys.file_exists expected_file) then
               invalid_arg
                 (Printf.sprintf "corpus %s: %s has no %s.expected" dir f name);
             Some (name, read (Filename.concat dir f), read expected_file)
           end
           else None)
