(** IR well-formedness checks, run after lowering and after every
    optimization pass in tests.  Catching a malformed module here is much
    cheaper than debugging an engine crash.  The checks are linear in the
    size of the module: top-level names resolve through one index built
    per call, and an error message (which may render the offending
    instruction) is built only when its check fails.

    A function's check reads only the function and the module's name
    sets, so [verify_funcs m fs] can check just some of [m]'s functions:
    the loader verifies the libc once and, per program, only the user's
    functions against the linked module's names. *)

exception Invalid of string

let fail fmt = Format.kasprintf (fun msg -> raise (Invalid msg)) fmt

(* The module's top-level names, by what may refer to them: [@g] as a
   value names a global or a function; a function address or a direct
   callee names a function or an extern. *)
type names = {
  data : (string, unit) Hashtbl.t;  (** globals and functions *)
  code : (string, unit) Hashtbl.t;  (** functions and externs *)
}

let index (m : Irmod.t) =
  let data = Hashtbl.create 256 and code = Hashtbl.create 256 in
  List.iter (fun g -> Hashtbl.replace data g.Irmod.g_name ()) m.Irmod.globals;
  List.iter
    (fun f ->
      Hashtbl.replace data f.Irfunc.name ();
      Hashtbl.replace code f.Irfunc.name ())
    m.Irmod.funcs;
  List.iter (fun e -> Hashtbl.replace code e.Irmod.e_name ()) m.Irmod.externs;
  { data; code }

(* Where a checked value occurs: an instruction (rendered into the
   message) or the block's terminator. *)
let site_to_string = function
  | Some i -> Irprint.instr_to_string i
  | None -> "terminator"

let verify_func names (f : Irfunc.t) =
  let labels = List.map (fun b -> b.Irfunc.label) f.Irfunc.blocks in
  let label_set = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem label_set l then
        fail "%s: duplicate block label %s" f.Irfunc.name l;
      Hashtbl.replace label_set l ())
    labels;
  (* Collect all defined registers (params + instruction results). *)
  let defined = Hashtbl.create 64 in
  List.iter (fun (r, _) -> Hashtbl.replace defined r ()) f.Irfunc.params;
  List.iter
    (fun (b : Irfunc.block) ->
      List.iter
        (fun i ->
          match Instr.def_of i with
          | Some r ->
            if Hashtbl.mem defined r then
              fail "%s: register %%%d defined twice" f.Irfunc.name r;
            Hashtbl.replace defined r ()
          | None -> ())
        b.instrs)
    f.Irfunc.blocks;
  let check_value site = function
    | Instr.Reg r ->
      if not (Hashtbl.mem defined r) then
        fail "%s: %s uses undefined register %%%d" f.Irfunc.name
          (site_to_string site) r
    | Instr.GlobalAddr g ->
      if not (Hashtbl.mem names.data g) then
        fail "%s: %s references unknown global @%s" f.Irfunc.name
          (site_to_string site) g
    | Instr.FuncAddr fn ->
      if not (Hashtbl.mem names.code fn) then
        fail "%s: %s references unknown function @%s" f.Irfunc.name
          (site_to_string site) fn
    | Instr.ImmInt (v, s) ->
      (* every engine and folder computes on canonical values only *)
      if Irtype.is_float_scalar s || Scalar.normalize_int s v <> v then
        fail "%s: %s has non-canonical immediate %s %Ld" f.Irfunc.name
          (site_to_string site) (Irtype.scalar_to_string s) v
    | Instr.ImmFloat _ | Instr.Null -> ()
  in
  List.iter
    (fun (b : Irfunc.block) ->
      List.iter
        (fun i ->
          List.iter (check_value (Some i)) (Instr.uses_of i);
          (match i with
          | Instr.Call (_, _, Instr.Direct callee, _) ->
            if not (Hashtbl.mem names.code callee) then
              fail "%s: call to unknown function @%s" f.Irfunc.name callee
          | Instr.Phi (_, _, incoming) ->
            List.iter
              (fun (l, _) ->
                if not (Hashtbl.mem label_set l) then
                  fail "%s: phi references unknown block %s" f.Irfunc.name l)
              incoming
          | _ -> ()))
        b.instrs;
      List.iter (check_value None) (Instr.term_uses b.Irfunc.term);
      List.iter
        (fun l ->
          if not (Hashtbl.mem label_set l) then
            fail "%s: branch to unknown block %s" f.Irfunc.name l)
        (Instr.term_successors b.Irfunc.term))
    f.Irfunc.blocks

(** Check [funcs], in order, against the top-level names of [m],
    including that no name is defined twice among them. *)
let verify_funcs (m : Irmod.t) (funcs : Irfunc.t list) =
  let names = index m in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (f : Irfunc.t) ->
      if Hashtbl.mem seen f.Irfunc.name then
        fail "duplicate function @%s" f.Irfunc.name;
      Hashtbl.replace seen f.Irfunc.name ();
      verify_func names f)
    funcs

let verify (m : Irmod.t) = verify_funcs m m.Irmod.funcs
