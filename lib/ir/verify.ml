(** IR well-formedness checks, run after lowering and after every
    optimization pass in tests.  Catching a malformed module here is much
    cheaper than debugging an engine crash. *)

exception Invalid of string

let fail fmt = Format.kasprintf (fun msg -> raise (Invalid msg)) fmt

let verify_func (m : Irmod.t) (f : Irfunc.t) =
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
  let check_value where = function
    | Instr.Reg r ->
      if not (Hashtbl.mem defined r) then
        fail "%s: %s uses undefined register %%%d" f.Irfunc.name where r
    | Instr.GlobalAddr g ->
      if Irmod.find_global m g = None && Irmod.find_func m g = None then
        fail "%s: %s references unknown global @%s" f.Irfunc.name where g
    | Instr.FuncAddr fn ->
      if
        Irmod.find_func m fn = None
        && Irmod.find_extern m fn = None
      then fail "%s: %s references unknown function @%s" f.Irfunc.name where fn
    | Instr.ImmInt (v, s) ->
      (* every engine and folder computes on canonical values only *)
      if Irtype.is_float_scalar s || Scalar.normalize_int s v <> v then
        fail "%s: %s has non-canonical immediate %s %Ld" f.Irfunc.name where
          (Irtype.scalar_to_string s) v
    | Instr.ImmFloat _ | Instr.Null -> ()
  in
  List.iter
    (fun (b : Irfunc.block) ->
      List.iter
        (fun i ->
          List.iter (check_value (Irprint.instr_to_string i)) (Instr.uses_of i);
          (match i with
          | Instr.Call (_, _, Instr.Direct callee, _) ->
            if
              Irmod.find_func m callee = None
              && Irmod.find_extern m callee = None
            then
              fail "%s: call to unknown function @%s" f.Irfunc.name callee
          | Instr.Phi (_, _, incoming) ->
            List.iter
              (fun (l, _) ->
                if not (Hashtbl.mem label_set l) then
                  fail "%s: phi references unknown block %s" f.Irfunc.name l)
              incoming
          | _ -> ()))
        b.instrs;
      List.iter (check_value "terminator") (Instr.term_uses b.Irfunc.term);
      List.iter
        (fun l ->
          if not (Hashtbl.mem label_set l) then
            fail "%s: branch to unknown block %s" f.Irfunc.name l)
        (Instr.term_successors b.Irfunc.term))
    f.Irfunc.blocks

let verify (m : Irmod.t) =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (f : Irfunc.t) ->
      if Hashtbl.mem seen f.Irfunc.name then
        fail "duplicate function @%s" f.Irfunc.name;
      Hashtbl.replace seen f.Irfunc.name ();
      verify_func m f)
    m.Irmod.funcs
