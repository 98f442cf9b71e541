(** Program loading: compile a user C source behind the prelude, compile
    the managed libc (cached — Safe Sulong parses libc at every start-up,
    which the start-up cost model charges for; *we* cache the front-end
    work and only account for it in the model), and link.

    The libc is paid for once per process: its front end runs and its
    module is verified in full when the cache fills, and the prelude is
    lexed and parsed once.  Per program, only the user's source is parsed
    (continuing from the saved prelude state) and only the user's
    functions are verified, against the linked module's names.

    The result is the module Safe Sulong interprets: user code first (its
    definitions win), libc filling in the rest. *)

let libc_cache : Irmod.t option ref = ref None

(** The cached libc front-end product, shared.  Callers must treat the
    result — and anything a module linked from it aliases — as frozen:
    copy before running a mutating pass. *)
let libc_module_shared () : Irmod.t =
  match !libc_cache with
  | Some m -> m
  | None ->
    let m, _env =
      Lower.frontend ~string_prefix:".libc.str" ~file:"<libc>"
        Libc_src.source
    in
    Trace.span "verify" (fun () -> Verify.verify m);
    libc_cache := Some m;
    m

(** The libc as an IR module (front-end output, unoptimized). *)
let libc_module () : Irmod.t = Irmod.copy (libc_module_shared ())

(* The prelude goes in front of every user source; it is lexed from
   below line 1 so the *user's* first line is line 1 in diagnostics and
   provenance reports.  The prelude holds only declarations, so no
   negative line ever reaches an executed Srcloc, and Sema never writes
   the prelude's AST nodes that every user parse shares. *)
let prelude_lines =
  String.fold_left
    (fun acc c -> if c = '\n' then acc + 1 else acc)
    0 Libc_src.prelude

let prelude =
  lazy (Parser.parse_prefix ~start_line:(1 - prelude_lines) Libc_src.prelude)

(** Compile [src] (user program) against the prelude, without linking. *)
let compile_user ?(file = "<input>") (src : string) : Irmod.t =
  let prog =
    Trace.span "parse" (fun () -> Parser.parse_after (Lazy.force prelude) src)
  in
  fst (Lower.check_and_lower ~file prog)

(** Link [user] against the libc and verify the result.  The libc passed
    full verification when the cache filled, and linking only adds names
    and drops the libc functions the user redefines, so each libc
    function left stays valid: checking the user's functions against the
    linked module's names raises exactly what [Verify.verify] of the
    whole linked module would. *)
let link_libc ?(shared = false) (user : Irmod.t) : Irmod.t =
  let linked =
    Trace.span "link" (fun () ->
        Irmod.link user
          (if shared then libc_module_shared () else libc_module ()))
  in
  Trace.span "verify" (fun () -> Verify.verify_funcs linked user.Irmod.funcs);
  linked

(** Compile and link a complete program: user code + managed libc. *)
let load_program ?file (src : string) : Irmod.t =
  link_libc (compile_user ?file src)

(** Convenience for tests and examples: compile, link, interpret.  All
    interpreter knobs (step/depth limits, call tracing, PRNG seed) pass
    straight through to [Interp.create]. *)
let run_source ?(argv = [ "program" ]) ?(input = "") ?step_limit
    ?depth_limit ?(mementos = true) ?(detect_uninit = false) ?trace ?seed
    (src : string) : Interp.run_result =
  let m = load_program src in
  let st =
    Interp.create ?step_limit ?depth_limit ~mementos ~detect_uninit ?trace
      ?seed ~input m
  in
  Interp.run ~argv st
