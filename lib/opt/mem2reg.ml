(** Promotion of scalar allocas to SSA registers — the optimization that
    turns Clang -O0-style memory traffic into register code, and the
    main source of the -O3 speedup in the performance model.

    Textbook algorithm: phi placement on iterated dominance frontiers,
    then a renaming walk over the dominator tree.  Only allocas of
    scalar type whose address is used exclusively as the direct pointer
    of loads and stores are promoted (arrays, structs, and anything
    whose address escapes stay in memory). *)

type varinfo = {
  v_reg : Instr.reg;   (** the alloca's result register *)
  v_scalar : Irtype.scalar;
}

(* Which allocas are promotable? *)
let promotable_allocas (f : Irfunc.t) : varinfo list =
  let candidates = Hashtbl.create 16 in
  Irfunc.iter_instrs f (fun _ i ->
      match i with
      | Instr.Alloca (r, Irtype.MScalar s) when s <> Irtype.I1 ->
        Hashtbl.replace candidates r s
      | _ -> ());
  (* Disqualify any candidate whose register appears anywhere except as
     the direct pointer of a load/store. *)
  let disqualify v =
    match v with
    | Instr.Reg r -> Hashtbl.remove candidates r
    | _ -> ()
  in
  List.iter
    (fun (b : Irfunc.block) ->
      List.iter
        (fun i ->
          match i with
          | Instr.Load (_, _, Instr.Reg _) -> ()
          | Instr.Store (_, v, Instr.Reg _) -> disqualify v
          | Instr.Store (_, v, p) ->
            disqualify v;
            disqualify p
          | Instr.Load (_, _, p) -> disqualify p
          | i -> List.iter disqualify (Instr.uses_of i))
        b.Irfunc.instrs;
      List.iter disqualify (Instr.term_uses b.Irfunc.term))
    f.Irfunc.blocks;
  (* A load of a different width than stored?  Loads/stores of other
     scalars through the same alloca stay legal in our engines, but
     promotion would change semantics; disqualify mixed-type traffic. *)
  Irfunc.iter_instrs f (fun _ i ->
      match i with
      | Instr.Load (_, s, Instr.Reg r) | Instr.Store (s, _, Instr.Reg r) -> begin
        match Hashtbl.find_opt candidates r with
        | Some s' when s' <> s -> Hashtbl.remove candidates r
        | _ -> ()
      end
      | _ -> ());
  Hashtbl.fold (fun r s acc -> { v_reg = r; v_scalar = s } :: acc) candidates []

let zero_value (s : Irtype.scalar) : Instr.value =
  if Irtype.is_float_scalar s then Instr.ImmFloat (0.0, s)
  else if s = Irtype.Ptr then Instr.Null
  else Instr.ImmInt (0L, s)

let run_func (f : Irfunc.t) : bool =
  let vars = promotable_allocas f in
  if vars = [] then false
  else begin
    ignore (Cfg.remove_unreachable f);
    let info = Cfg.compute f in
    let blocks = Cfg.block_map f in
    let var_of_reg = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace var_of_reg v.v_reg v) vars;
    (* 1. Blocks containing a store to each variable. *)
    let def_blocks : (Instr.reg, string list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (b : Irfunc.block) ->
        List.iter
          (fun i ->
            match i with
            | Instr.Store (_, _, Instr.Reg r) when Hashtbl.mem var_of_reg r ->
              let cur = Option.value (Hashtbl.find_opt def_blocks r) ~default:[] in
              if not (List.mem b.Irfunc.label cur) then
                Hashtbl.replace def_blocks r (b.Irfunc.label :: cur)
            | _ -> ())
          b.Irfunc.instrs)
      f.Irfunc.blocks;
    (* 2. Phi placement on iterated dominance frontiers.  [phis] maps
       (block, var) to the phi's result register. *)
    let phis : (string * Instr.reg, Instr.reg) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun v ->
        let worklist = Queue.create () in
        List.iter
          (fun l -> Queue.push l worklist)
          (Option.value (Hashtbl.find_opt def_blocks v.v_reg) ~default:[]);
        let placed = Hashtbl.create 8 in
        while not (Queue.is_empty worklist) do
          let l = Queue.pop worklist in
          List.iter
            (fun front ->
              if not (Hashtbl.mem placed front) then begin
                Hashtbl.replace placed front ();
                Hashtbl.replace phis (front, v.v_reg) (Irfunc.fresh_reg f);
                Queue.push front worklist
              end)
            (Option.value (Hashtbl.find_opt info.Cfg.df l) ~default:[])
        done)
      vars;
    (* 3. Renaming walk over the dominator tree. *)
    let children = Hashtbl.create 16 in
    Hashtbl.iter
      (fun child parent ->
        Hashtbl.replace children parent
          (child :: Option.value (Hashtbl.find_opt children parent) ~default:[]))
      info.Cfg.idom;
    (* per-variable definition stacks *)
    let stacks : (Instr.reg, Instr.value list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace stacks v.v_reg (ref [])) vars;
    let current v =
      match !(Hashtbl.find stacks v.v_reg) with
      | top :: _ -> top
      | [] -> zero_value v.v_scalar (* use before any store: undef -> zero *)
    in
    (* Collected phi instructions to prepend per block, with incoming
       filled during the walk. *)
    let phi_incoming : (string * Instr.reg, (string * Instr.value) list ref)
        Hashtbl.t =
      Hashtbl.create 16
    in
    Hashtbl.iter
      (fun key _ -> Hashtbl.replace phi_incoming key (ref []))
      phis;
    (* Replaced-load substitutions: function-global, since a load's
       result may be used in blocks the load's block dominates. *)
    let subst : (Instr.reg, Instr.value) Hashtbl.t = Hashtbl.create 32 in
    let resolve v =
      match v with
      | Instr.Reg r -> Option.value (Hashtbl.find_opt subst r) ~default:v
      | v -> v
    in
    let rec walk label =
      let b = Hashtbl.find blocks label in
      let pushed = ref [] in
      (* phis defined in this block push a new definition *)
      List.iter
        (fun v ->
          match Hashtbl.find_opt phis (label, v.v_reg) with
          | Some phi_reg ->
            let st = Hashtbl.find stacks v.v_reg in
            st := Instr.Reg phi_reg :: !st;
            pushed := v.v_reg :: !pushed
          | None -> ())
        vars;
      let rewrite (i : Instr.instr) : Instr.instr option =
        match i with
        | Instr.Alloca (r, _) when Hashtbl.mem var_of_reg r -> None
        | Instr.Load (r, _, Instr.Reg p) when Hashtbl.mem var_of_reg p ->
          let v = Hashtbl.find var_of_reg p in
          Hashtbl.replace subst r (resolve (current v));
          None
        | Instr.Store (_, value, Instr.Reg p) when Hashtbl.mem var_of_reg p ->
          let v = Hashtbl.find var_of_reg p in
          let st = Hashtbl.find stacks v.v_reg in
          st := resolve value :: !st;
          pushed := v.v_reg :: !pushed;
          None
        | i -> Some (Instr.map_values resolve i)
      in
      b.Irfunc.instrs <- List.filter_map rewrite b.Irfunc.instrs;
      b.Irfunc.term <- Instr.map_term_values resolve b.Irfunc.term;
      (* fill phi incoming of successors with current definitions *)
      List.iter
        (fun succ ->
          List.iter
            (fun v ->
              match Hashtbl.find_opt phis (succ, v.v_reg) with
              | Some _ ->
                let inc = Hashtbl.find phi_incoming (succ, v.v_reg) in
                inc := (label, current v) :: !inc
              | None -> ())
            vars)
        (Option.value (Hashtbl.find_opt info.Cfg.succs label) ~default:[]);
      (* recurse over dominator-tree children *)
      List.iter walk (Option.value (Hashtbl.find_opt children label) ~default:[]);
      (* pop pushed definitions *)
      List.iter
        (fun r ->
          let st = Hashtbl.find stacks r in
          match !st with
          | _ :: rest -> st := rest
          | [] -> ())
        !pushed
    in
    walk info.Cfg.order.(0);
    (* A phi's incoming operand for predecessor P names a value visible
       at the end of P — a block the pre-order dominator-tree walk may
       visit *after* the phi's own block.  If that operand was the
       result of a promoted load, the walk rewrote the phi before the
       load's substitution existed and then deleted the load, leaving a
       dangling register.  Re-resolve phi incoming through the final
       substitution map (stack values are pushed pre-resolved, so one
       pass suffices). *)
    List.iter
      (fun (b : Irfunc.block) ->
        b.Irfunc.instrs <-
          List.map
            (function
              | Instr.Phi _ as i -> Instr.map_values resolve i
              | i -> i)
            b.Irfunc.instrs)
      f.Irfunc.blocks;
    (* materialize the phi instructions at block heads *)
    Hashtbl.iter
      (fun (label, var_reg) phi_reg ->
        let b = Hashtbl.find blocks label in
        let v = Hashtbl.find var_of_reg var_reg in
        let incoming = !(Hashtbl.find phi_incoming (label, var_reg)) in
        b.Irfunc.instrs <-
          Instr.Phi (phi_reg, v.v_scalar, incoming) :: b.Irfunc.instrs)
      phis;
    true
  end

let run (m : Irmod.t) : bool =
  List.fold_left (fun acc f -> run_func f || acc) false m.Irmod.funcs
