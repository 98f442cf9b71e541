(** IR well-formedness checks, run after lowering and after every
    optimization pass in tests.  Catching a malformed module here is much
    cheaper than debugging an engine crash.  The checks are linear in the
    size of the module (a phi's: in its entries times its block's
    predecessors): top-level names resolve through one index built per
    call, and an error message (which may render the offending
    instruction) is built only when its check fails.

    Beyond names, they reject the shapes no engine can execute: a type
    of the wrong class (integer or float) for its opcode, and a phi
    without an entry per predecessor or in the entry block.

    A function's or global's check reads only itself and the module's
    name sets, so [verify_part m part] can check just some of [m]'s
    definitions: the loader verifies the libc once and, per program,
    only the user's globals and functions against the linked module's
    names. *)

exception Invalid of string

let fail fmt = Format.kasprintf (fun msg -> raise (Invalid msg)) fmt

(* The module's top-level names, by what may refer to them: [@g] as a
   value or in a global initializer names a global or a function; a
   function address or a direct callee names a function or an
   extern. *)
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

(* Whether an instruction's types are of the class (integer or float)
   its opcode computes on: every engine stages the opcode's operation
   for that class.  A bitcast takes either. *)
let classes_match (i : Instr.instr) =
  let fl = Irtype.is_float_scalar in
  match i with
  | Instr.Binop (_, op, s, _, _) -> (
    match op with
    | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv -> fl s
    | _ -> not (fl s))
  | Instr.Icmp (_, _, s, _, _) -> not (fl s)
  | Instr.Fcmp (_, _, s, _, _) -> fl s
  | Instr.Cast (_, op, from, into, _) -> (
    match op with
    | Instr.Trunc | Instr.Zext | Instr.Sext | Instr.Ptrtoint | Instr.Inttoptr ->
      not (fl from || fl into)
    | Instr.Fptrunc | Instr.Fpext -> fl from && fl into
    | Instr.Fptosi | Instr.Fptoui -> fl from && not (fl into)
    | Instr.Sitofp | Instr.Uitofp -> (not (fl from)) && fl into
    | Instr.Bitcast -> true)
  | _ -> true

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
  (* Every block's predecessors (a label once per edge), built at the
     first phi: a phi needs an entry for each. *)
  let preds =
    lazy
      (let t = Hashtbl.create 16 in
       List.iter
         (fun (b : Irfunc.block) ->
           List.iter
             (fun l -> Hashtbl.add t l b.Irfunc.label)
             (Instr.term_successors b.Irfunc.term))
         f.Irfunc.blocks;
       t)
  in
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
  List.iteri
    (fun bi (b : Irfunc.block) ->
      List.iter
        (fun i ->
          List.iter (check_value (Some i)) (Instr.uses_of i);
          if not (classes_match i) then
            fail "%s: %s has a type of the wrong class for its opcode"
              f.Irfunc.name (Irprint.instr_to_string i);
          match i with
          | Instr.Call (_, _, Instr.Direct callee, _) ->
            if not (Hashtbl.mem names.code callee) then
              fail "%s: call to unknown function @%s" f.Irfunc.name callee
          | Instr.Phi (_, _, incoming) ->
            List.iter
              (fun (l, _) ->
                if not (Hashtbl.mem label_set l) then
                  fail "%s: phi references unknown block %s" f.Irfunc.name l)
              incoming;
            if bi = 0 then
              fail "%s: %s in the entry block" f.Irfunc.name
                (Irprint.instr_to_string i);
            List.iter
              (fun p ->
                if not (List.mem_assoc p incoming) then
                  fail "%s: %s has no entry for predecessor %s" f.Irfunc.name
                    (Irprint.instr_to_string i) p)
              (Hashtbl.find_all (Lazy.force preds) b.Irfunc.label)
          | _ -> ())
        b.instrs;
      List.iter (check_value None) (Instr.term_uses b.Irfunc.term);
      List.iter
        (fun l ->
          if not (Hashtbl.mem label_set l) then
            fail "%s: branch to unknown block %s" f.Irfunc.name l)
        (Instr.term_successors b.Irfunc.term))
    f.Irfunc.blocks

(* Every symbol a global's initializer names must exist. *)
let rec verify_ginit names g (init : Irmod.ginit) =
  match init with
  | Irmod.Gglobal_addr n ->
    if not (Hashtbl.mem names.data n) then
      fail "global @%s references unknown global @%s" g n
  | Irmod.Gfunc_addr n ->
    if not (Hashtbl.mem names.code n) then
      fail "global @%s references unknown function @%s" g n
  | Irmod.Garray items | Irmod.Gstruct_init items ->
    List.iter (verify_ginit names g) items
  | Irmod.Gzero | Irmod.Gint _ | Irmod.Gfloat _ | Irmod.Gstring _ -> ()

(** Check the globals, then the functions, of [part], in order, against
    the top-level names of [m], including that no function name is
    defined twice among them. *)
let verify_part (m : Irmod.t) (part : Irmod.t) =
  let names = index m in
  List.iter
    (fun (g : Irmod.global) -> verify_ginit names g.Irmod.g_name g.Irmod.g_init)
    part.Irmod.globals;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (f : Irfunc.t) ->
      if Hashtbl.mem seen f.Irfunc.name then
        fail "duplicate function @%s" f.Irfunc.name;
      Hashtbl.replace seen f.Irfunc.name ();
      verify_func names f)
    part.Irmod.funcs

let verify (m : Irmod.t) = verify_part m m
