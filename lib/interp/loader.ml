(** Program loading: compile a user C source behind the prelude, compile
    the managed libc (cached — Safe Sulong parses libc at every start-up,
    which the start-up cost model charges for; *we* cache the front-end
    work and only account for it in the model), and link.

    The libc is paid for once per process: its front end runs and its
    module is verified in full when the cache fills, and the prelude is
    lexed and parsed once.  Per program, only the user's source is parsed
    (continuing from the saved prelude state) and only the user's
    globals and functions are verified, against the linked module's
    names.

    The result is the module Safe Sulong interprets: user code first (its
    definitions win), libc filling in the rest. *)

(** A library a program links against: a module that passed
    [Verify.verify] in full, its names ([Verify.index]), and each name
    its functions call directly with that name's signature in it
    ([Verify.callees]), which is what [Verify.verify_link] needs to
    check a link against it.  Frozen: a module linked from it shares its
    functions. *)
type library = {
  lib : Irmod.t;
  lib_names : Verify.names;
  lib_callees : (string * Verify.signature) list;
}

let library (m : Irmod.t) : library =
  Trace.span "verify" (fun () -> Verify.verify m);
  let lib_names = Verify.index m in
  { lib = m; lib_names; lib_callees = Verify.callees lib_names m }

let libc_cache : library option ref = ref None

(** The libc as the front end produced it, compiled and verified once
    per process. *)
let libc () : library =
  match !libc_cache with
  | Some l -> l
  | None ->
    (* Lowered with immediate folding on, as every production pipeline
       lowers, even when the first caller is a front end the
       differential oracle runs with folding off. *)
    let fold = !Lower.fold_immediates in
    Lower.fold_immediates := true;
    let m, _env =
      Fun.protect
        ~finally:(fun () -> Lower.fold_immediates := fold)
        (fun () ->
          Lower.frontend ~string_prefix:".libc.str" ~file:"<libc>"
            Libc_src.source)
    in
    let l = library m in
    libc_cache := Some l;
    l

(** The cached libc front-end product, shared.  Callers must treat the
    result — and anything a module linked from it aliases — as frozen:
    copy before running a mutating pass. *)
let libc_module_shared () : Irmod.t = (libc ()).lib

(** The libc as an IR module (front-end output, unoptimized). *)
let libc_module () : Irmod.t = Irmod.copy (libc_module_shared ())

(** The libc after [pipeline], which runs on a copy; verified in full. *)
let optimized_libc (pipeline : Irmod.t -> unit) : library =
  let m = libc_module () in
  pipeline m;
  library m

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

(* The libc's function names: the runtime besides the host builtins. *)
let libc_funcs =
  lazy
    (let t = Hashtbl.create 128 in
     List.iter
       (fun (f : Irfunc.t) -> Hashtbl.replace t f.Irfunc.name ())
       (libc_module_shared ()).Irmod.funcs;
     t)

(* Link check of a lowered user program: every function it calls or
   takes the address of is defined by the program or by the runtime
   (the libc or a host builtin).  An undefined one is a diagnostic at
   the reference: the statement's position in a function, the
   declaration's in a global initializer.  A program must define [main]
   (unless [main] is false: a unit that is only printed). *)
let check_references ?(main = true) (prog : Ast.program) (m : Irmod.t) =
  let defined name =
    Irmod.has_func m name || Interp.is_builtin name
    || Hashtbl.mem (Lazy.force libc_funcs) name
  in
  let undefined pos name =
    Diag.error pos "undefined reference to function %s" name
  in
  if main && not (Irmod.has_func m "main") then
    undefined Token.dummy_pos "main";
  List.iter
    (fun (g : Irmod.global) ->
      let decl_pos pos = function
        | Ast.Gvar d when d.Ast.d_name = g.Irmod.g_name -> d.Ast.d_pos
        | _ -> pos
      in
      let rec init = function
        | Irmod.Gfunc_addr name when not (defined name) ->
          undefined (List.fold_left decl_pos Token.dummy_pos prog) name
        | Irmod.Garray items | Irmod.Gstruct_init items -> List.iter init items
        | _ -> ()
      in
      init g.Irmod.g_init)
    m.Irmod.globals;
  List.iter
    (fun (f : Irfunc.t) ->
      let line, col = f.Irfunc.src_pos in
      let pos = ref { Token.line; col } in
      let value = function
        | Instr.FuncAddr name when not (defined name) -> undefined !pos name
        | _ -> ()
      in
      List.iter
        (fun (b : Irfunc.block) ->
          List.iter
            (fun i ->
              (match i with
              | Instr.Srcloc (line, col) -> pos := { Token.line; col }
              | Instr.Call (_, _, Instr.Direct name, _)
                when not (defined name) ->
                undefined !pos name
              | _ -> ());
              List.iter value (Instr.uses_of i))
            b.Irfunc.instrs;
          List.iter value (Instr.term_uses b.Irfunc.term))
        f.Irfunc.blocks)
    m.Irmod.funcs

(** Compile [src] (user program) against the prelude, without linking. *)
let compile_user ?(file = "<input>") ?main (src : string) : Irmod.t =
  let prog =
    Trace.span "parse" (fun () -> Parser.parse_after (Lazy.force prelude) src)
  in
  let m = fst (Lower.check_and_lower ~file prog) in
  check_references ?main prog m;
  m

(** Link [user] against [lib] and verify the result.  [lib] passed full
    verification, so [Verify.verify_link] checks only the user's globals
    and functions and the library functions that call a name the user
    gave another signature, which raises exactly what [Verify.verify] of
    the whole linked module would. *)
let link_libc ?(shared = false) (lib : library) (user : Irmod.t) : Irmod.t =
  let linked =
    Trace.span "link" (fun () ->
        Irmod.link user (if shared then lib.lib else Irmod.copy lib.lib))
  in
  Trace.span "verify" (fun () ->
      Verify.verify_link ~lib_names:lib.lib_names ~lib_callees:lib.lib_callees
        linked user);
  linked

(** Compile and link a complete program: user code + managed libc. *)
let load_program ?file (src : string) : Irmod.t =
  link_libc (libc ()) (compile_user ?file src)
