(** The uniform tool driver and the library's one run path; the table of
    what each tool runs is in engine.mli. *)

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
  managed : Interp.run_result option;
  native_profile : Nexec.profile option;
}

let default_step_limit = 200_000_000
let long_step_limit = 500_000_000

(** ASan options that the effectiveness experiment ablates. *)
type asan_options = {
  strtok_interceptor : bool;
  quarantine_cap : int;
  fno_common : bool;
}

let default_asan =
  { strtok_interceptor = false; quarantine_cap = 1 lsl 18; fno_common = true }

(* ---------------- the managed middle ends ---------------- *)

type middle_end = [ `FoldOnly | `SafeJit ]

let pipeline : middle_end -> Irmod.t -> unit = function
  | `FoldOnly -> fun m -> ignore (Pipeline.fixpoint [ ("fold", Fold.run) ] m)
  | `SafeJit -> fun m -> ignore (Pipeline.safe_jit m)

(* The libc after each middle end, built and verified in full once per
   process: the libc is the same for every program. *)
let folded_libc = lazy (Loader.optimized_libc (pipeline `FoldOnly))
let safe_jit_libc = lazy (Loader.optimized_libc (pipeline `SafeJit))

let optimized_libc = function
  | `FoldOnly -> Lazy.force folded_libc
  | `SafeJit -> Lazy.force safe_jit_libc

let optimized mode (user : Irmod.t) : Irmod.t =
  let m = Irmod.copy user in
  pipeline mode m;
  Loader.link_libc ~shared:true (optimized_libc mode) m

(* ---------------- running ---------------- *)

(* The status [sulong run] exits with: a failed symbol binding ends
   with the dynamic linker's 127, any other crash with 139. *)
let exit_status (o : Outcome.t) (crash : Nexec.crash option) =
  match (o, crash) with
  | Outcome.Finished code, _ -> code
  | Outcome.Detected _, _ -> 1
  | Outcome.Crashed _, Some (Nexec.Unbound _) -> 127
  | Outcome.Crashed _, _ -> 139
  | Outcome.Timeout, _ -> 124

let native_outcome ~sanitizer (r : Nexec.run_result) : Outcome.t =
  let crashed = function
    | Nexec.Segv addr -> Printf.sprintf "SIGSEGV at 0x%Lx" addr
    | Nexec.Trap t -> t
    | Nexec.Unbound name -> "undefined symbol: " ^ name
  in
  match (r.Nexec.report, r.Nexec.crash, sanitizer) with
  | _ when r.Nexec.timed_out -> Outcome.Timeout
  | Some rep, _, _ ->
    Outcome.Detected
      { tool = rep.Hooks.tool; kind = rep.Hooks.kind; message = rep.Hooks.message }
  | None, Some ((Nexec.Segv _ | Nexec.Trap _) as c), Some tool ->
    (* Sanitizers catch fatal signals and report them; a failed symbol
       binding ends the process before the program runs on. *)
    Outcome.Detected { tool; kind = "SEGV"; message = crashed c }
  | None, Some c, _ -> Outcome.Crashed (crashed c)
  | None, None, _ -> Outcome.Finished r.Nexec.exit_code

let run_module ?(argv = [ "program" ]) ?(input = "")
    ?(step_limit = default_step_limit) ?(mementos = true)
    ?(detect_uninit = false) ?(trace = false) ?tier ?profile
    ?(asan_options = default_asan) (tool : tool) (m : Irmod.t) : result =
  match tool with
  | Safe_sulong ->
    let r =
      Interp.run ~argv
        (Interp.create ~step_limit ~mementos ~detect_uninit ~trace ~input
           ?tier ?profile m)
    in
    let outcome =
      match r.Interp.error with
      | _ when r.Interp.timed_out -> Outcome.Timeout
      | Some (cat, msg) ->
        Outcome.Detected
          { tool = "Safe Sulong"; kind = Merror.category_name cat; message = msg }
      | None -> Outcome.Finished r.Interp.exit_code
    in
    { outcome; exit_code = exit_status outcome None; output = r.Interp.output;
      steps = r.Interp.steps; managed = Some r; native_profile = None }
  | Clang level | Asan level | Valgrind level ->
    (* [compile_native] rewrites in place: copy, so one front-end product
       serves every tool and level (the differential oracle parses once
       and fans out from here). *)
    let m = Irmod.copy m in
    Pipeline.compile_native ~level m;
    let mem = Mem.create () in
    let alloc = Alloc.create mem in
    let hooks, global_gap, sanitizer =
      match tool with
      | Asan _ ->
        (* Instrumentation attaches to whatever accesses survived
           compilation. *)
        Asan.instrument m;
        Verify.verify m;
        let _, hooks =
          Asan.make ~quarantine_cap:asan_options.quarantine_cap
            ~strtok_interceptor:asan_options.strtok_interceptor
            ~fno_common:asan_options.fno_common ~mem ~alloc ()
        in
        (Some hooks, 32, Some "AddressSanitizer")
      | Valgrind _ -> (Some (snd (Memcheck.make ~mem ~alloc ())), 0, Some "Memcheck")
      | Clang _ | Safe_sulong -> (None, 0, None)
    in
    let r =
      Nexec.run ~argv
        (Nexec.create ?hooks ~global_gap ~step_limit ~input ~mem ~alloc m)
    in
    let outcome = native_outcome ~sanitizer r in
    { outcome; exit_code = exit_status outcome r.Nexec.crash;
      output = r.Nexec.output; steps = r.Nexec.steps; managed = None;
      native_profile = Some r.Nexec.run_profile }

let run ?argv ?input ?step_limit ?mementos ?detect_uninit ?trace ?tier
    ?profile ?asan_options ?file (tool : tool) (src : string) : result =
  let user = Loader.compile_user ?file src in
  let m =
    match tool with
    | Safe_sulong ->
      (* The interpreter only reads the module it runs: link the shared
         libc, not a copy of it. *)
      Loader.link_libc ~shared:true (Loader.libc ()) user
    | Clang _ | Asan _ | Valgrind _ -> user
  in
  run_module ?argv ?input ?step_limit ?mementos ?detect_uninit ?trace ?tier
    ?profile ?asan_options tool m
