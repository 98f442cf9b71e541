(** The uniform tool driver: compile a C source through the pipeline a
    given tool implies and execute it.

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
  managed_profile : Interp.profile option;  (** Safe Sulong runs *)
  native_profile : Nexec.profile option;    (** native-engine runs *)
}

val default_step_limit : int

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

(** Run [src] under [tool].  [detect_uninit] enables Safe Sulong's
    uninitialized-read detection; [mementos] toggles allocation-site
    typing (an ablation).  [tier] (Safe Sulong only, default [`Interp])
    selects the execution configuration: the threaded interpreter alone,
    or the real two-tier engine that closure-compiles hot functions and
    deoptimizes on managed errors — observably identical, faster warm. *)
val run :
  ?argv:string list ->
  ?input:string ->
  ?step_limit:int ->
  ?mementos:bool ->
  ?detect_uninit:bool ->
  ?asan_options:asan_options ->
  ?tier:[ `Interp | `Tiered ] ->
  tool ->
  string ->
  result

(** Run an already-front-ended user module (from [Loader.compile_user])
    under plain Clang semantics at [level].  The module is copied before
    the native pipeline rewrites it, so one front-end product can be
    reused across levels — the differential oracle's per-seed parse is
    done once, not once per configuration. *)
val run_clang_module :
  ?argv:string list ->
  ?input:string ->
  ?step_limit:int ->
  level:Pipeline.level ->
  Irmod.t ->
  result
