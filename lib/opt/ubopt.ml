(** UB-exploiting transformations (paper P2).

    [delete_dead_loops]: a natural loop whose body has no observable
    effects (no stores, no calls) and whose values are never used outside
    is removed — C's forward-progress assumption lets the compiler do
    this even when the trip count could run an access out of bounds
    (Figure 3, after [Dse] killed the dead stores).

    [remove_redundant_null_checks]: once a pointer has been dereferenced,
    a later NULL check on it folds to "not null" — the optimization
    behind CVE-2009-1897-class bugs ("compilers can remove redundant
    null-pointer checks, even at -O0"). *)

let delete_dead_loops_func (f : Irfunc.t) : bool =
  ignore (Cfg.remove_unreachable f);
  let info = Cfg.compute f in
  let blocks = Cfg.block_map f in
  let loops = Cfg.natural_loops f info in
  let changed = ref false in
  List.iter
    (fun (header, body) ->
      let body_set = Hashtbl.create 8 in
      List.iter (fun l -> Hashtbl.replace body_set l ()) body;
      (* Effects inside the loop? *)
      let pure = ref true in
      let defined_in_loop = Hashtbl.create 16 in
      List.iter
        (fun l ->
          match Hashtbl.find_opt blocks l with
          | None -> ()
          | Some b ->
            List.iter
              (fun i ->
                (match Instr.def_of i with
                | Some r -> Hashtbl.replace defined_in_loop r ()
                | None -> ());
                match i with
                | Instr.Store _ | Instr.Call _ | Instr.Sancheck _ | Instr.Load _
                | Instr.Alloca _ ->
                  pure := false
                | _ -> ())
              b.Irfunc.instrs)
        body;
      (* Values defined inside used outside? *)
      if !pure then begin
        List.iter
          (fun (b : Irfunc.block) ->
            if not (Hashtbl.mem body_set b.Irfunc.label) then begin
              let uses_inside v =
                match v with
                | Instr.Reg r -> Hashtbl.mem defined_in_loop r
                | _ -> false
              in
              List.iter
                (fun i -> if List.exists uses_inside (Instr.uses_of i) then pure := false)
                b.Irfunc.instrs;
              if List.exists uses_inside (Instr.term_uses b.Irfunc.term) then
                pure := false
            end)
          f.Irfunc.blocks
      end;
      (* The loop must have a unique exit edge (from the header) to
         redirect to. *)
      if !pure then begin
        match Hashtbl.find_opt blocks header with
        | Some hb -> begin
          let exits =
            List.filter
              (fun s -> not (Hashtbl.mem body_set s))
              (Instr.term_successors hb.Irfunc.term)
          in
          (* Only header-exiting loops (while/for shape); and the header
             itself must be pure apart from its branch. *)
          match exits with
          | [ exit_label ] ->
            let header_pure =
              List.for_all
                (fun i ->
                  match i with
                  | Instr.Store _ | Instr.Call _ | Instr.Sancheck _
                  | Instr.Load _ | Instr.Alloca _ ->
                    false
                  | _ -> true)
                hb.Irfunc.instrs
            in
            if header_pure then begin
              hb.Irfunc.instrs <-
                List.filter
                  (function Instr.Phi _ -> false | _ -> true)
                  hb.Irfunc.instrs;
              hb.Irfunc.term <- Instr.Br exit_label;
              changed := true
            end
          | _ -> ()
        end
        | None -> ()
      end)
    loops;
  if !changed then ignore (Cfg.remove_unreachable f);
  !changed

(* A header whose phis feed only the loop cannot simply be rewired if
   the exit uses them; we checked "no outside uses" above, but the exit
   block may have phis with incoming from the header — patch them by
   keeping the incoming edge (the value must be loop-invariant or the
   check above already rejected it). *)

let remove_redundant_null_checks_func (f : Irfunc.t) : bool =
  let changed = ref false in
  List.iter
    (fun (b : Irfunc.block) ->
      let derefed = Hashtbl.create 8 in
      b.Irfunc.instrs <-
        List.map
          (fun i ->
            match i with
            | Instr.Load (_, _, Instr.Reg p) | Instr.Store (_, _, Instr.Reg p) ->
              Hashtbl.replace derefed p ();
              i
            | Instr.Icmp (r, Instr.Ieq, _, Instr.Reg p, Instr.Null)
            | Instr.Icmp (r, Instr.Ieq, _, Instr.Null, Instr.Reg p)
              when Hashtbl.mem derefed p ->
              changed := true;
              Instr.Binop (r, Instr.Add, Irtype.I1, Instr.ImmInt (0L, Irtype.I1),
                           Instr.ImmInt (0L, Irtype.I1))
            | Instr.Icmp (r, Instr.Ine, _, Instr.Reg p, Instr.Null)
            | Instr.Icmp (r, Instr.Ine, _, Instr.Null, Instr.Reg p)
              when Hashtbl.mem derefed p ->
              changed := true;
              Instr.Binop (r, Instr.Add, Irtype.I1, Instr.ImmInt (1L, Irtype.I1),
                           Instr.ImmInt (0L, Irtype.I1))
            | i -> i)
          b.Irfunc.instrs)
    f.Irfunc.blocks;
  !changed

let run (m : Irmod.t) : bool =
  List.fold_left
    (fun acc f ->
      let a = delete_dead_loops_func f in
      let b = remove_redundant_null_checks_func f in
      acc || a || b)
    false m.Irmod.funcs
