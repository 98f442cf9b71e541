(** Program loading: compile a user C source against the prelude and
    link the managed libc ([Engine] runs the result).  The libc is paid
    for once per process: its front end runs and its module is verified
    in full when the cache fills, and the prelude is lexed and parsed
    once; per program only the user's source is parsed and only the
    user's definitions (and the libc functions calling a name they give
    another signature) are verified. *)

(** A library a program links against: a module that passed
    [Verify.verify] in full, its names ([Verify.index]) and each name
    its functions call directly with that name's signature in it
    ([Verify.callees]).  Frozen: a module linked from it shares its
    functions, so run mutating passes only on an [Irmod.copy]. *)
type library = {
  lib : Irmod.t;
  lib_names : Verify.names;
  lib_callees : (string * Verify.signature) list;
}

(** The managed libc as the front end produced it, compiled and verified
    once per process. *)
val libc : unit -> library

(** The managed libc as a fresh IR module (front-end output, cached and
    deep-copied per call). *)
val libc_module : unit -> Irmod.t

(** The cached libc module itself, without the per-call deep copy: the
    [lib] of [libc ()], frozen. *)
val libc_module_shared : unit -> Irmod.t

(** The libc after [pipeline], run on a fresh copy of it, as a library
    (so verified in full).  The differential oracle builds one per
    middle-end configuration, once per process. *)
val optimized_libc : (Irmod.t -> unit) -> library

(** Compile a user program (prelude visible, libc *not* linked) — what
    the native engines execute against the precompiled libc.  [file] is
    the source-file name recorded in diagnostics and bug reports.  The
    parse continues from the prelude's saved state, so the result is
    what compiling [prelude ^ src] with the prelude's lines numbered
    below 1 gives.  A call to, or the address of, a function that
    neither the program nor the runtime (the libc, the host builtins)
    defines raises [Diag.Error] at the reference, and so does a program
    without [main] unless [main] is false ([check_references]). *)
val compile_user : ?file:string -> ?main:bool -> string -> Irmod.t

(** The link check [compile_user] makes, on [m] compiled from [prog]
    ([[]] for IR input): raise [Diag.Error] at the first call to, or
    address of, a function that neither [m] nor the runtime defines.
    Unless [main] is false (a unit [sulong ir] prints), [m] must define
    [main]; without one it raises [Diag.Error] at line 0. *)
val check_references : ?main:bool -> Ast.program -> Irmod.t -> unit

(** Link a user module against [lib] and verify it: the user's globals
    and functions are checked against the linked module's names and
    signatures, and so are the library functions that call a name the
    user gave another signature ([Verify.verify_link]).  That raises
    exactly the [Verify.Invalid] a full [Verify.verify] of the linked
    module would.  [shared] (default false) links [lib]'s module itself
    instead of a deep copy; the result then shares the library's
    functions and must be treated as frozen. *)
val link_libc : ?shared:bool -> library -> Irmod.t -> Irmod.t

(** Compile and link the complete managed program (user + libc); the
    module Safe Sulong interprets.  [link_libc] of [compile_user]. *)
val load_program : ?file:string -> string -> Irmod.t
