(** Program loading: compile a user C source against the prelude, link
    the managed libc, and (optionally) run the result.  The libc is paid
    for once per process: its front end runs and its module is verified
    in full when the cache fills, and the prelude is lexed and parsed
    once; per program only the user's source is parsed and only the
    user's definitions (and the libc functions calling a name they give
    another signature) are verified. *)

(** The managed libc as a fresh IR module (front-end output, cached and
    deep-copied per call). *)
val libc_module : unit -> Irmod.t

(** The cached libc module itself, without the per-call deep copy.  The
    result must be treated as frozen: a module linked from it aliases
    its functions, so run mutating passes only on an [Irmod.copy].  Used
    by the differential oracle, whose managed configurations copy before
    any middle-end rewrite. *)
val libc_module_shared : unit -> Irmod.t

(** Compile a user program (prelude visible, libc *not* linked) — what
    the native engines execute against the precompiled libc.  [file] is
    the source-file name recorded in diagnostics and bug reports.  The
    parse continues from the prelude's saved state, so the result is
    what compiling [prelude ^ src] with the prelude's lines numbered
    below 1 gives.  A call to, or the address of, a function that
    neither the program nor the runtime (the libc, the host builtins)
    defines raises [Diag.Error] at the reference. *)
val compile_user : ?file:string -> string -> Irmod.t

(** The link check [compile_user] makes, on [m] compiled from [prog]
    ([[]] for IR input): raise [Diag.Error] at the first call to, or
    address of, a function that neither [m] nor the runtime defines. *)
val check_references : Ast.program -> Irmod.t -> unit

(** Link a user module against the managed libc and verify it: the
    user's globals and functions are checked against the linked
    module's names and signatures, and so are the libc functions that
    call a name the user gave another signature ([Verify.verify_link]).
    That raises exactly the [Verify.Invalid] a full [Verify.verify] of
    the linked module would (the libc was verified in full once).
    [shared] (default false) links the cached libc itself instead of a
    deep copy; the result then aliases the cache and must be treated as
    frozen. *)
val link_libc : ?shared:bool -> Irmod.t -> Irmod.t

(** Compile and link the complete managed program (user + libc); the
    module Safe Sulong interprets.  [link_libc] of [compile_user]. *)
val load_program : ?file:string -> string -> Irmod.t

(** Compile, link and interpret in one call.  The optional arguments
    pass through to [Interp.create]. *)
val run_source :
  ?argv:string list ->
  ?input:string ->
  ?step_limit:int ->
  ?mementos:bool ->
  ?detect_uninit:bool ->
  ?trace:bool ->
  string ->
  Interp.run_result
