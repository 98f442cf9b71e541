(** Optimization pipelines, mirroring the configurations the paper
    compares:

    - [o0]: no middle-end optimization at all (the front-end output).
    - [o3]: the UB-exploiting Clang/LLVM middle end.
    - [backend]: code-generation folding that *all* native pipelines get,
      even at -O0 (paper case study 3).
    - [safe_jit]: what Graal may do for Safe Sulong — optimizations under
      safe semantics (run-time errors must still surface), so no dead
      -store/dead-loop deletion of trapping accesses and no UB tricks.

    Each function returns the number of pass iterations that changed
    something (useful for tests and the ablation bench). *)

type level = O0 | O3

let level_name = function O0 -> "-O0" | O3 -> "-O3"

(* Each pass runs under a [Metrics.time] histogram ("pass.<name>_us")
   and a trace span; both are no-ops when observability is off. *)
let timed name pass m =
  Trace.span name (fun () ->
      Metrics.time (Printf.sprintf "pass.%s_us" name) (fun () -> pass m))

(** Run [passes] in order over [m], round after round, until a round
    changes nothing or 8 rounds did; the number of rounds that changed
    something. *)
let fixpoint passes m =
  let rounds = ref 0 in
  let changed = ref true in
  while !changed && !rounds < 8 do
    changed :=
      List.fold_left (fun acc (name, pass) -> timed name pass m || acc)
        false passes;
    if !changed then incr rounds
  done;
  !rounds

(** The -O3 middle end (UB semantics). *)
let o3 (m : Irmod.t) : int =
  fixpoint
    [
      ("fold", Fold.run);
      ("mem2reg", Mem2reg.run);
      ("fold", Fold.run);
      ("dce", Dce.run ~semantics:`Ub);
      ("dse", Dse.run);
      ("ubopt", Ubopt.run);
      ("simplifycfg", Simplifycfg.run);
      ("dce", Dce.run ~semantics:`Ub);
    ]
    m

(** Safe-semantics optimization (the JIT tier of Safe Sulong). *)
let safe_jit (m : Irmod.t) : int =
  fixpoint
    [
      ("fold", Fold.run);
      ("mem2reg", Mem2reg.run);
      ("fold", Fold.run);
      ("dce", Dce.run ~semantics:`Safe);
      ("simplifycfg", Simplifycfg.run);
    ]
    m

(** Native code generation folding: every native pipeline, every level. *)
let backend (m : Irmod.t) : bool = timed "backendfold" Backendfold.run m

(** Compile [m] for a native engine at [level] (mutates [m]). *)
let compile_native ~(level : level) (m : Irmod.t) : unit =
  (match level with O0 -> () | O3 -> ignore (o3 m));
  ignore (backend m);
  timed "verify" Verify.verify m

(** Compile [m] for Safe Sulong: nothing — the interpreter executes the
    front-end output; [safe_jit] only models what the dynamic compiler
    would do for the cost model. *)
let compile_sulong (_m : Irmod.t) : unit = ()
