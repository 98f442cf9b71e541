(** Dead code elimination.

    The [semantics] parameter is the crux of paper P2: under [`Ub]
    (Clang-style) semantics an unused load, or a store to memory that is
    provably never read again, has no *defined* effect — even when it
    would trap at run time — so the compiler may delete it, and the bug
    with it.  Under [`Safe] (Graal-on-Safe-Sulong) semantics every memory
    access is an observable event (it can raise a run-time error), so
    only genuinely pure dead instructions may go. *)

let run_func ~(semantics : [ `Ub | `Safe ]) (f : Irfunc.t) : bool =
  let changed = ref false in
  let removable (i : Instr.instr) =
    match i with
    | Instr.Load _ -> semantics = `Ub
    | Instr.Alloca _ | Instr.Gep _ | Instr.Binop _ | Instr.Icmp _
    | Instr.Fcmp _ | Instr.Cast _ | Instr.Phi _ ->
      true
    | Instr.Store _ | Instr.Call _ | Instr.Sancheck _ | Instr.Srcloc _ -> false
  in
  let pass () =
    (* Count uses of each register across instructions and terminators. *)
    let uses = Hashtbl.create 64 in
    let count v =
      match v with
      | Instr.Reg r ->
        Hashtbl.replace uses r (1 + Option.value (Hashtbl.find_opt uses r) ~default:0)
      | _ -> ()
    in
    List.iter
      (fun (b : Irfunc.block) ->
        List.iter (fun i -> List.iter count (Instr.uses_of i)) b.Irfunc.instrs;
        List.iter count (Instr.term_uses b.Irfunc.term))
      f.Irfunc.blocks;
    let dead i =
      match Instr.def_of i with
      | Some r when removable i ->
        Option.value (Hashtbl.find_opt uses r) ~default:0 = 0
      | _ -> false
    in
    let any = ref false in
    List.iter
      (fun (b : Irfunc.block) ->
        let kept = List.filter (fun i -> not (dead i)) b.Irfunc.instrs in
        if List.length kept <> List.length b.Irfunc.instrs then begin
          any := true;
          b.Irfunc.instrs <- kept
        end)
      f.Irfunc.blocks;
    !any
  in
  while pass () do
    changed := true
  done;
  !changed

let run ~semantics (m : Irmod.t) : bool =
  List.fold_left (fun acc f -> run_func ~semantics f || acc) false m.Irmod.funcs
