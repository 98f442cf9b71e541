(** The "LLVM backend" peephole (paper §4.1 case study 3).

    Even at -O0, real code generation folds some constructs — the paper
    found Clang -O0 deleting a constant-index out-of-bounds read of a
    global array (Figure 13), which removed the bug before ASan's check
    could fire, while Safe Sulong (interpreting the front-end IR)
    still saw it.

    This pass runs as part of *native code generation only* — every
    native pipeline (plain, ASan, Memcheck) at every optimization level
    gets it; Safe Sulong never does, because it executes the front-end
    output directly.

    Rule: a load/store through a Gep on a global with all-constant
    indices whose byte range falls provably outside the global is
    undefined; the backend replaces the load's result with 0 and deletes
    the access. *)

let const_gep_offset (indices : Instr.gep_index list) : int option =
  List.fold_left
    (fun acc idx ->
      match (acc, idx) with
      | None, _ -> None
      | Some off, Instr.Gfield (_, fo) -> Some (off + fo)
      | Some off, Instr.Gindex (Instr.ImmInt (v, _), stride) ->
        Some (off + (Int64.to_int v * stride))
      | Some _, Instr.Gindex _ -> None)
    (Some 0) indices

let run (m : Irmod.t) : bool =
  let changed = ref false in
  let global_size name =
    Option.map (fun (g : Irmod.global) -> Irtype.mty_size g.Irmod.g_ty)
      (Irmod.find_global m name)
  in
  List.iter
    (fun (f : Irfunc.t) ->
      (* Map: gep result reg -> (global, const offset), built per function. *)
      let known_geps = Hashtbl.create 16 in
      Irfunc.iter_instrs f (fun _ i ->
          match i with
          | Instr.Gep (r, Instr.GlobalAddr g, idx) -> begin
            match const_gep_offset idx with
            | Some off -> Hashtbl.replace known_geps r (g, off)
            | None -> ()
          end
          | _ -> ());
      let provably_oob ptr size =
        match ptr with
        | Instr.Reg r -> begin
          match Hashtbl.find_opt known_geps r with
          | Some (g, off) -> begin
            match global_size g with
            | Some gsize -> off < 0 || off + size > gsize
            | None -> false
          end
          | None -> false
        end
        | _ -> false
      in
      let subst = Hashtbl.create 8 in
      Irfunc.rewrite_blocks f (fun b ->
          List.filter_map
            (fun i ->
              match i with
              | Instr.Load (r, s, p) when provably_oob p (Irtype.scalar_size s) ->
                changed := true;
                let zero =
                  if Irtype.is_float_scalar s then Instr.ImmFloat (0.0, s)
                  else if s = Irtype.Ptr then Instr.Null
                  else Instr.ImmInt (0L, s)
                in
                Hashtbl.replace subst r zero;
                None
              | Instr.Store (s, _, p) when provably_oob p (Irtype.scalar_size s) ->
                changed := true;
                None
              | i -> Some i)
            b.Irfunc.instrs);
      if Hashtbl.length subst > 0 then begin
        (* Propagate the folded zeros to all uses. *)
        let resolve v =
          match v with
          | Instr.Reg r -> Option.value (Hashtbl.find_opt subst r) ~default:v
          | v -> v
        in
        List.iter
          (fun (b : Irfunc.block) ->
            b.Irfunc.instrs <- List.map (Instr.map_values resolve) b.Irfunc.instrs;
            b.Irfunc.term <- Instr.map_term_values resolve b.Irfunc.term)
          f.Irfunc.blocks
      end)
    m.Irmod.funcs;
  !changed
