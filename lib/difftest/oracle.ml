(** The cross-engine differential oracle.

    Runs one C source through every engine configuration — the managed
    Safe Sulong interpreter (plain, folded, safe-JIT-optimized, and with
    front-end immediate folding disabled), plus the modeled Clang -O0 and
    -O3 native pipelines, each an [Engine.run_module] call — and demands
    identical outcome, output and exit status from all of them.  Additionally, when the caller knows a
    reference-predicted prefix of the output (see [Cprog.expected_lines]),
    the common output must start with it: front-end constant folding is
    shared by every configuration, so a folding bug produces outputs
    that are *consistently* wrong and only an independent reference can
    convict them. *)

type observation = {
  ob_config : string;
  ob_key : string;  (** normalized outcome: [finished:N], [detected:K], … *)
  ob_output : string;
  ob_loc : string option;
      (** fault provenance [file:line:col] from the managed bug report,
          when the configuration detected an error with one — feeds the
          campaign's deduplication signature (Difftest.signature) *)
}

type verdict =
  | Agree of string  (** all configurations agree; common stdout *)
  | Reject of string
      (** every configuration failed identically before/without running
          (front-end rejection) or finished abnormally in the same way —
          the input is outside the supported subset, not a divergence *)
  | Diverge of { mismatch : string; observations : observation list }

type config = {
  cfg_name : string;
  cfg_target :
    [ `Managed of [ `Plain | `Tiered | `FoldOnly | `SafeJit ]
    | `Native of Pipeline.level ];
  cfg_fe_fold : bool;  (** front-end immediate folding ([Lower.fold_immediates]) *)
}

(** Every configuration the oracle compares.  The [nofefold] variants
    re-run lowering with immediate folding off, so literal conversions
    execute as real cast instructions — any disagreement between the
    folded and executed form of a conversion shows up as a divergence
    between these rows. *)
let configs : config list =
  [
    { cfg_name = "sulong"; cfg_target = `Managed `Plain; cfg_fe_fold = true };
    (* The real tier-2 engine, forced hot (threshold 0) so every
       function runs closure-compiled: generated programs are far too
       small to cross the production threshold, and the point is to
       convict any divergence between interpreted and compiled code. *)
    { cfg_name = "sulong/tiered"; cfg_target = `Managed `Tiered; cfg_fe_fold = true };
    { cfg_name = "sulong/nofefold"; cfg_target = `Managed `Plain; cfg_fe_fold = false };
    { cfg_name = "sulong/fold"; cfg_target = `Managed `FoldOnly; cfg_fe_fold = true };
    { cfg_name = "sulong/safe-jit"; cfg_target = `Managed `SafeJit; cfg_fe_fold = true };
    { cfg_name = "clang-O0"; cfg_target = `Native Pipeline.O0; cfg_fe_fold = true };
    { cfg_name = "clang-O0/nofefold"; cfg_target = `Native Pipeline.O0; cfg_fe_fold = false };
    { cfg_name = "clang-O3"; cfg_target = `Native Pipeline.O3; cfg_fe_fold = true };
  ]

(* Generated programs are tiny (loop bounds <= 16, nesting <= 2); a small
   step budget keeps a pathological case from stalling a whole run. *)
let step_limit = 10_000_000

(* Guest-step accounting for the campaign's per-seed cost ledger: every
   managed configuration's final [steps] adds to this process-wide
   total; callers read the delta around a [check] (native configurations
   execute no managed steps and contribute nothing). *)
let steps_counter = ref 0
let steps_total () = !steps_counter

let with_fe_fold flag f =
  let saved = !Lower.fold_immediates in
  Lower.fold_immediates := flag;
  Fun.protect ~finally:(fun () -> Lower.fold_immediates := saved) f

let outcome_key (o : Outcome.t) : string =
  match o with
  | Outcome.Finished n -> Printf.sprintf "finished:%d" n
  | Outcome.Detected { kind; _ } -> "detected:" ^ kind
  | Outcome.Crashed _ -> "crashed"
  | Outcome.Timeout -> "timeout"

(* Parse/sema/lower rejections and verifier failures turn into error
   keys; a rejection is uniform across configurations and classified as
   such by [check], while a config-dependent exception (e.g. a transform
   producing IR the verifier rejects) diverges. *)
let guard (f : unit -> 'a) : ('a, string) result =
  try Ok (f ()) with e -> Error ("error:" ^ Printexc.to_string e)

(** Front-end products shared by every configuration with the same
    immediate-folding setting: the user module is parsed once and the
    managed link (link + verify of the user's functions) runs once,
    instead of once per configuration.  Safe to share because nothing
    downstream mutates them: the native pipeline and the managed
    middle-end configurations each rewrite an [Irmod.copy] of the user
    module, and the interpreter only reads the module it prepares.  Lazy
    so a seed exercising only one folding mode never pays for the other,
    and so a front-end failure memoizes as the same error key the
    failing configurations all report. *)
type frontend = {
  fe_user : (Irmod.t, string) result Lazy.t;
  fe_managed : (Irmod.t, string) result Lazy.t;
}

let frontend_of (src : string) (fold : bool) : frontend =
  let fe_user =
    lazy (guard (fun () -> with_fe_fold fold (fun () -> Loader.compile_user src)))
  in
  let fe_managed =
    lazy
      (Result.bind (Lazy.force fe_user) (fun user ->
           (* the shared (uncopied) libc: [link] is pure and the
              interpreter only reads the module it runs *)
           guard (fun () -> Loader.link_libc ~shared:true (Loader.libc ()) user)))
  in
  { fe_user; fe_managed }

(* The fault location of a managed run that detected an error. *)
let fault_loc (r : Engine.result) : string option =
  Option.bind r.Engine.managed (fun (m : Interp.run_result) ->
      Option.bind m.Interp.report (fun rep ->
          Option.map Bugreport.frame_loc (Bugreport.fault_frame rep)))

(** One configuration's run: an [Engine.run_module] call on the shared
    front end ([Engine.optimized] for the middle-end configurations). *)
let run_config (fe : frontend) (c : config) : observation =
  let run =
    match c.cfg_target with
    | `Native level ->
      Result.bind (Lazy.force fe.fe_user) (fun user ->
          guard (fun () ->
              Engine.run_module ~step_limit (Engine.Clang level) user))
    | `Managed mode ->
      Result.bind (Lazy.force fe.fe_managed) (fun linked ->
          guard (fun () ->
              let m, tier =
                match mode with
                | `Plain -> (linked, None)
                | `Tiered -> (linked, Some (Tier.controller ~threshold:0 ()))
                | (`FoldOnly | `SafeJit) as mode ->
                  (* the user module linked, so it was built *)
                  ( Engine.optimized mode (Result.get_ok (Lazy.force fe.fe_user)),
                    None )
              in
              Engine.run_module ~step_limit ?tier Engine.Safe_sulong m))
  in
  match run with
  | Error key ->
    { ob_config = c.cfg_name; ob_key = key; ob_output = ""; ob_loc = None }
  | Ok r ->
    if r.Engine.managed <> None then
      steps_counter := !steps_counter + r.Engine.steps;
    {
      ob_config = c.cfg_name;
      ob_key = outcome_key r.Engine.outcome;
      ob_output = r.Engine.output;
      ob_loc = fault_loc r;
    }

let has_prefix ~prefix s =
  let pl = String.length prefix in
  String.length s >= pl && String.sub s 0 pl = prefix

let is_error key = has_prefix ~prefix:"error:" key

(** Run [src] under every configuration, in [configs] order. *)
let observations (src : string) : observation list =
  let fold_fe = frontend_of src true in
  let nofold_fe = frontend_of src false in
  List.map
    (fun c -> run_config (if c.cfg_fe_fold then fold_fe else nofold_fe) c)
    configs

(** Compare [src] across all configurations.  [expected] is the
    reference-predicted output prefix, when available. *)
let check ?expected (src : string) : verdict =
  let obs = observations src in
  match obs with
  | [] -> assert false
  | first :: rest ->
    let same o = o.ob_key = first.ob_key && o.ob_output = first.ob_output in
    let disagreeing = List.filter (fun o -> not (same o)) rest in
    if disagreeing <> [] then
      let d = List.hd disagreeing in
      let what =
        if d.ob_key <> first.ob_key then
          Printf.sprintf "outcome %s (%s) vs %s (%s)" first.ob_key
            first.ob_config d.ob_key d.ob_config
        else
          Printf.sprintf "output differs between %s and %s" first.ob_config
            d.ob_config
      in
      Diverge { mismatch = what; observations = obs }
    else if is_error first.ob_key then Reject first.ob_key
    else if first.ob_key <> "finished:0" then
      (* Uniform abnormal end: for generated inputs this means the
         generator escaped the well-defined subset, not that an engine
         misbehaved — surfaced as a reject so runs stay zero-divergence
         only when genuinely clean. *)
      Reject ("abnormal: " ^ first.ob_key)
    else begin
      match expected with
      | Some prefix when not (has_prefix ~prefix first.ob_output) ->
        Diverge
          {
            mismatch = "all configurations disagree with the reference \
                        evaluator on a constant expression";
            observations =
              obs
              @ [ { ob_config = "reference"; ob_key = "finished:0";
                    ob_output = prefix; ob_loc = None } ];
          }
      | _ -> Agree first.ob_output
    end
