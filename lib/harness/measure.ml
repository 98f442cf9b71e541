(** Run the performance benchmarks under every engine and price the
    resulting dynamic profiles with [Costmodel], producing the
    [Simulate.measurement] consumed by the paper's three time-domain
    experiments (start-up, warm-up, peak).  Lives in the harness layer so
    that [lib/jit] — which the tiered engine itself links — stays free of
    [Engine]/[Corpus] dependencies. *)

let profile_exn = function
  | Some p -> p
  | None -> failwith "measure: engine did not produce a profile"

let managed_profile (r : Engine.result) =
  profile_exn
    (Option.map (fun (m : Interp.run_result) -> m.Interp.run_profile)
       r.Engine.managed)

(** Run [src] under all engines once and price the profiles. *)
let measure ?(argv = [ "bench" ]) ?(input = "") ~name (src : string) :
    Simulate.measurement =
  let run tool = Engine.run ~argv ~input ~step_limit:Engine.long_step_limit tool src in
  let o0 = run (Engine.Clang Pipeline.O0) in
  let o3 = run (Engine.Clang Pipeline.O3) in
  let asan_r = run (Engine.Asan Pipeline.O0) in
  let vg_r = run (Engine.Valgrind Pipeline.O0) in
  let sulong_r = run Engine.Safe_sulong in
  (* Safe Sulong compiled tier: interpret the safe-jit-optimized module
     to measure what Graal-compiled code would execute. *)
  let compiled_m = Engine.optimized `SafeJit (Loader.compile_user src) in
  let compiled_r =
    Engine.run_module ~argv ~input ~step_limit:Engine.long_step_limit Engine.Safe_sulong
      compiled_m
  in
  (match compiled_r.Engine.outcome with
  | Outcome.Detected { message; _ } ->
    failwith ("measure: compiled-tier run failed: " ^ message)
  | _ -> ());
  let interp_profile = managed_profile sulong_r in
  let sulong_interp_fns =
    Hashtbl.fold
      (fun fname c acc ->
        let ops = Interp.total_ops c in
        if ops = 0 then acc
        else (fname, Costmodel.sulong_interp_fn_cycles c, ops) :: acc)
      interp_profile.Interp.funcs []
  in
  let sulong_compiled_fns =
    Hashtbl.fold
      (fun fname c acc ->
        (fname, Costmodel.sulong_compiled_fn_cycles c) :: acc)
      (managed_profile compiled_r).Interp.funcs []
  in
  let static_sizes =
    List.map
      (fun (f : Irfunc.t) -> (f.Irfunc.name, Irfunc.instr_count f))
      compiled_m.Irmod.funcs
  in
  {
    Simulate.ms_name = name;
    clang_o0 = Costmodel.clang_cycles (profile_exn o0.Engine.native_profile);
    clang_o3 = Costmodel.clang_cycles (profile_exn o3.Engine.native_profile);
    asan = Costmodel.asan_cycles (profile_exn asan_r.Engine.native_profile);
    valgrind = Costmodel.valgrind_cycles (profile_exn vg_r.Engine.native_profile);
    valgrind_translation =
      Costmodel.valgrind_translation_cycles
        (profile_exn vg_r.Engine.native_profile);
    sulong_interp_fns;
    sulong_compiled_fns;
    sulong_alloc =
      Costmodel.sulong_alloc_cycles
        ~allocs:interp_profile.Interp.p_allocs
        ~bytes:interp_profile.Interp.p_alloc_bytes;
    static_sizes;
    sulong_module_instrs = Irmod.instr_count compiled_m;
  }

let measure_bench (b : Benchprogs.bench) : Simulate.measurement =
  measure ~name:b.Benchprogs.b_name b.Benchprogs.b_source
