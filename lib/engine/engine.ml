(** The uniform tool driver: compile a C source through the pipeline a
    given tool implies and execute it, returning a comparable outcome.

    | tool           | middle end   | backend fold | libc            | checking                    |
    |----------------|--------------|--------------|-----------------|-----------------------------|
    | Safe Sulong    | none         | no           | managed C libc  | automatic managed checks    |
    | Clang -O0/-O3  | none / UB O3 | yes          | precompiled     | none (the native machine)   |
    | ASan -O0/-O3   | none / UB O3 | yes          | precompiled     | inserted checks+interceptors|
    | Valgrind (-O0/-O3 binaries) | same as Clang | yes | precompiled | dynamic per-access checks   | *)

type tool =
  | Safe_sulong
  | Clang of Pipeline.level
  | Asan of Pipeline.level
  | Valgrind of Pipeline.level

let tool_name = function
  | Safe_sulong -> "Safe Sulong"
  | Clang l -> "Clang " ^ Pipeline.level_name l
  | Asan l -> "ASan " ^ Pipeline.level_name l
  | Valgrind l -> "Valgrind " ^ Pipeline.level_name l

type result = {
  outcome : Outcome.t;
  exit_code : int;
  output : string;
  steps : int;
  managed_profile : Interp.profile option;
  native_profile : Nexec.profile option;
}

let default_step_limit = 200_000_000

(** ASan options that the effectiveness experiment ablates. *)
type asan_options = {
  strtok_interceptor : bool;
  quarantine_cap : int;
  fno_common : bool;
}

let default_asan =
  { strtok_interceptor = false; quarantine_cap = 1 lsl 18; fno_common = true }

(* The status [sulong run] exits with: a failed symbol binding ends
   with the dynamic linker's 127, any other crash with 139. *)
let exit_status (o : Outcome.t) (crash : Nexec.crash option) =
  match (o, crash) with
  | Outcome.Finished code, _ -> code
  | Outcome.Detected _, _ -> 1
  | Outcome.Crashed _, Some (Nexec.Unbound _) -> 127
  | Outcome.Crashed _, _ -> 139
  | Outcome.Timeout, _ -> 124

let run_sulong ~argv ~input ~step_limit ~mementos ~detect_uninit ~tier
    (src : string) : result =
  let m = Loader.load_program src in
  Pipeline.compile_sulong m;
  let st =
    match tier with
    | `Interp -> Interp.create ~step_limit ~mementos ~detect_uninit ~input m
    | `Tiered ->
      (* interpreter + profile-driven closure compiler with deopt; the
         observable behavior is identical to [`Interp] by contract *)
      Interp.create ~step_limit ~mementos ~detect_uninit ~input
        ~tier:(Tier.controller ()) m
  in
  let r = Interp.run ~argv st in
  let outcome =
    if r.Interp.timed_out then Outcome.Timeout
    else
      match r.Interp.error with
      | Some (cat, msg) ->
        Outcome.Detected
          { tool = "Safe Sulong"; kind = Merror.category_name cat; message = msg }
      | None -> Outcome.Finished r.Interp.exit_code
  in
  {
    outcome;
    exit_code = exit_status outcome None;
    output = r.Interp.output;
    steps = r.Interp.steps;
    managed_profile = Some r.Interp.run_profile;
    native_profile = None;
  }

let native_outcome (r : Nexec.run_result) : Outcome.t =
  if r.Nexec.timed_out then Outcome.Timeout
  else
    match (r.Nexec.report, r.Nexec.crash) with
    | Some rep, _ ->
      Outcome.Detected
        { tool = rep.Hooks.tool; kind = rep.Hooks.kind; message = rep.Hooks.message }
    | None, Some (Nexec.Segv addr) -> Outcome.Crashed (Printf.sprintf "SIGSEGV at 0x%Lx" addr)
    | None, Some (Nexec.Trap t) -> Outcome.Crashed t
    | None, Some (Nexec.Unbound name) ->
      Outcome.Crashed ("undefined symbol: " ^ name)
    | None, None -> Outcome.Finished r.Nexec.exit_code

let wrap_native (r : Nexec.run_result) ~(promote_crash : string option) :
    result =
  let outcome =
    match (native_outcome r, r.Nexec.crash, promote_crash) with
    | Outcome.Crashed what, Some (Nexec.Segv _ | Nexec.Trap _), Some tool ->
      (* Sanitizers catch fatal signals and report them; a failed symbol
         binding ends the process before the program runs on. *)
      Outcome.Detected { tool; kind = "SEGV"; message = what }
    | o, _, _ -> o
  in
  {
    outcome;
    exit_code = exit_status outcome r.Nexec.crash;
    output = r.Nexec.output;
    steps = r.Nexec.steps;
    managed_profile = None;
    native_profile = Some r.Nexec.run_profile;
  }

let run_clang_module ?(argv = [ "program" ]) ?(input = "")
    ?(step_limit = default_step_limit) ~level (user : Irmod.t) : result =
  (* [compile_native] rewrites in place; copy so the caller can reuse
     one front-ended module across levels (the differential oracle
     parses once and fans out from here). *)
  let m = Irmod.copy user in
  Pipeline.compile_native ~level m;
  let st = Nexec.create ~step_limit ~input m in
  wrap_native (Nexec.run ~argv st) ~promote_crash:None

let run_clang ~level ~argv ~input ~step_limit (src : string) : result =
  run_clang_module ~argv ~input ~step_limit ~level (Loader.compile_user src)

let run_asan ~level ~options ~argv ~input ~step_limit (src : string) : result =
  let m = Loader.compile_user src in
  Pipeline.compile_native ~level m;
  (* Instrumentation attaches to whatever accesses survived compilation. *)
  Asan.instrument m;
  Verify.verify m;
  let mem = Mem.create () in
  let alloc = Alloc.create mem in
  let _asan, hooks =
    Asan.make ~quarantine_cap:options.quarantine_cap
      ~strtok_interceptor:options.strtok_interceptor
      ~fno_common:options.fno_common ~mem ~alloc ()
  in
  let st = Nexec.create ~hooks ~global_gap:32 ~step_limit ~input ~mem ~alloc m in
  wrap_native (Nexec.run ~argv st) ~promote_crash:(Some "AddressSanitizer")

let run_valgrind ~level ~argv ~input ~step_limit (src : string) : result =
  let m = Loader.compile_user src in
  Pipeline.compile_native ~level m;
  let mem = Mem.create () in
  let alloc = Alloc.create mem in
  let _mc, hooks = Memcheck.make ~mem ~alloc () in
  let st = Nexec.create ~hooks ~step_limit ~input ~mem ~alloc m in
  wrap_native (Nexec.run ~argv st) ~promote_crash:(Some "Memcheck")

(** Run [src] under [tool].  [tier] selects the Safe Sulong execution
    configuration: the interpreter alone (default) or the real two-tier
    engine (interpreter + closure compiler); other tools ignore it. *)
let run ?(argv = [ "program" ]) ?(input = "") ?(step_limit = default_step_limit)
    ?(mementos = true) ?(detect_uninit = false) ?(asan_options = default_asan)
    ?(tier = `Interp) (tool : tool) (src : string) : result =
  match tool with
  | Safe_sulong ->
    run_sulong ~argv ~input ~step_limit ~mementos ~detect_uninit ~tier src
  | Clang level -> run_clang ~level ~argv ~input ~step_limit src
  | Asan level ->
    run_asan ~level ~options:asan_options ~argv ~input ~step_limit src
  | Valgrind level -> run_valgrind ~level ~argv ~input ~step_limit src
