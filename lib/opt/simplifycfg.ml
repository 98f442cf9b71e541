(** CFG cleanup: drop unreachable blocks, fold trivial jumps, and merge
    straight-line block pairs. *)

let merge_pairs (f : Irfunc.t) : bool =
  let info = Cfg.compute f in
  let blocks = Cfg.block_map f in
  let changed = ref false in
  let merged : (string, string) Hashtbl.t = Hashtbl.create 8 in
  (* resolve a label through the chain of merges *)
  let rec resolve l =
    match Hashtbl.find_opt merged l with Some l' -> resolve l' | None -> l
  in
  List.iter
    (fun (b : Irfunc.block) ->
      let label = resolve b.Irfunc.label in
      let b = Hashtbl.find blocks label in
      match b.Irfunc.term with
      | Instr.Br succ_label ->
        let succ_label = resolve succ_label in
        if succ_label <> label then begin
          let preds =
            Option.value (Hashtbl.find_opt info.Cfg.preds succ_label) ~default:[]
          in
          let succ = Hashtbl.find_opt blocks succ_label in
          match succ with
          | Some succ_b
            when List.length preds = 1
                 && not
                      (List.exists
                         (function Instr.Phi _ -> true | _ -> false)
                         succ_b.Irfunc.instrs) ->
            (* merge succ into b *)
            b.Irfunc.instrs <- b.Irfunc.instrs @ succ_b.Irfunc.instrs;
            b.Irfunc.term <- succ_b.Irfunc.term;
            Hashtbl.replace merged succ_label label;
            changed := true
          | _ -> ()
        end
      | _ -> ())
    f.Irfunc.blocks;
  if !changed then begin
    f.Irfunc.blocks <-
      List.filter
        (fun (b : Irfunc.block) -> not (Hashtbl.mem merged b.Irfunc.label))
        f.Irfunc.blocks;
    (* phi incoming labels from merged blocks now come from the merge
       target *)
    List.iter
      (fun (b : Irfunc.block) ->
        b.Irfunc.instrs <-
          List.map
            (fun i ->
              match i with
              | Instr.Phi (r, s, incoming) ->
                Instr.Phi (r, s, List.map (fun (l, v) -> (resolve l, v)) incoming)
              | i -> i)
            b.Irfunc.instrs)
      f.Irfunc.blocks
  end;
  !changed

let run_func (f : Irfunc.t) : bool =
  let changed = ref (Cfg.remove_unreachable f) in
  while merge_pairs f do
    changed := true;
    ignore (Cfg.remove_unreachable f)
  done;
  !changed

let run (m : Irmod.t) : bool =
  List.fold_left (fun acc f -> run_func f || acc) false m.Irmod.funcs
