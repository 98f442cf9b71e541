(** The uniform tool driver and the library's one run path: every
    program the library runs goes through [run_module], under the
    pipeline a given tool implies.

    | tool           | middle end   | backend fold | libc            | checking                    |
    |----------------|--------------|--------------|-----------------|-----------------------------|
    | Safe Sulong    | none         | no           | managed C libc  | automatic managed checks    |
    | Clang -O0/-O3  | none / UB O3 | yes          | precompiled     | none (the native machine)   |
    | ASan -O0/-O3   | none / UB O3 | yes          | precompiled     | inserted checks+interceptors|
    | Valgrind       | same as Clang| yes          | precompiled     | dynamic per-access checks   | *)

type tool =
  | Safe_sulong
  | Clang of Pipeline.level
  | Asan of Pipeline.level
  | Valgrind of Pipeline.level

val tool_name : tool -> string

type result = {
  outcome : Outcome.t;
  exit_code : int;
      (** the status the process ends with, as [sulong run] reports it:
          the program's own when it finished, 1 on a detection, 124 on a
          timeout, 127 when the dynamic linker could not bind a symbol
          the program calls, 139 on any other crash *)
  output : string;
  steps : int;  (** IR operations executed *)
  managed : Interp.run_result option;
      (** Safe Sulong runs: the managed run itself, with its provenance
          report, leaks, call trace and profile *)
  native_profile : Nexec.profile option;  (** native-engine runs *)
}

val default_step_limit : int

(** The budget of the runs that must reach their end whatever the
    program: Safe Sulong under [sulong run] and [run-ir], and the
    measurement, ablation and bench harnesses.  It equals the default
    [Interp.create] and [Nexec.create] keep for their direct callers. *)
val long_step_limit : int

(** ASan options the effectiveness experiment ablates: the strtok
    interceptor the paper's authors later contributed, the quarantine
    byte budget (P3), and -fno-common (zero-initialized globals are
    instrumented only when true, as in the paper §4.1). *)
type asan_options = {
  strtok_interceptor : bool;
  quarantine_cap : int;
  fno_common : bool;
}

val default_asan : asan_options

(** The middle ends of the oracle's [sulong/fold] (the folder to a
    fixpoint) and [sulong/safe-jit] ([Pipeline.safe_jit]). *)
type middle_end = [ `FoldOnly | `SafeJit ]

val pipeline : middle_end -> Irmod.t -> unit

(** The libc after a middle end, built and verified in full once per
    process. *)
val optimized_libc : middle_end -> Loader.library

(** The one way to build the module a middle end makes of a user module:
    the pipeline over a copy of it alone, linked against [optimized_libc]
    and checked with [Verify.verify_link].  Every pass works function by
    function, so that is the module the pipeline makes of the whole
    linked program (test_ir_opt's per-part law).  It shares the cached
    libc: run it, do not rewrite it. *)
val optimized : middle_end -> Irmod.t -> Irmod.t

(** Run [m] under [tool].  [m] is the module the tool loads: the
    libc-linked module for Safe Sulong, the user's module
    ([Loader.compile_user]) for the others, copied before the native
    pipeline rewrites it.  [step_limit] defaults to [default_step_limit].
    [mementos] (allocation-site typing, an ablation), [detect_uninit],
    [trace] (the call trace), [tier] (the two-tier engine: observably
    identical, faster warm) and [profile] pass through to
    [Interp.create]; [asan_options] configures ASan. *)
val run_module :
  ?argv:string list ->
  ?input:string ->
  ?step_limit:int ->
  ?mementos:bool ->
  ?detect_uninit:bool ->
  ?trace:bool ->
  ?tier:Interp.tierctl ->
  ?profile:Profile.t ->
  ?asan_options:asan_options ->
  tool ->
  Irmod.t ->
  result

(** The front end [tool] implies ([Loader.compile_user]; [file] names
    the source in diagnostics and reports), then [run_module].  Safe
    Sulong links the program against the shared libc
    ([Loader.link_libc ~shared:true]): the interpreter only reads the
    module it runs, so no verdict copies the libc. *)
val run :
  ?argv:string list ->
  ?input:string ->
  ?step_limit:int ->
  ?mementos:bool ->
  ?detect_uninit:bool ->
  ?trace:bool ->
  ?tier:Interp.tierctl ->
  ?profile:Profile.t ->
  ?asan_options:asan_options ->
  ?file:string ->
  tool ->
  string ->
  result
