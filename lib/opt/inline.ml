(** Function inlining (UB-pipeline extension).

    Not part of the default -O3 pipeline: the paper's evaluation numbers
    were taken with a fixed pass set, and inlining *changes the set of
    bugs the native tools can see* — a constant argument flowing into an
    inlined callee can turn a dynamic out-of-bounds access into a
    provably-OOB constant access that [Backendfold] then deletes, ASan
    check included.  `test/test_ir_opt.ml` and the ablation bench
    demonstrate exactly that (more P2).

    Implementation: bottom-up, size-budgeted.  A call to a small,
    non-recursive, non-variadic function is replaced by a renamed copy of
    its body; returns become branches to a continuation block carrying
    the result through a phi. *)

let default_budget = 40 (* max callee instructions worth inlining *)

(* ---- renaming helpers ------------------------------------------- *)

let remap_value map v =
  match v with
  | Instr.Reg r -> Instr.Reg (Hashtbl.find map r)
  | v -> v

(* Operands through [map_values]; then the defined register and the phi
   labels, which it leaves alone. *)
let remap_instr map relabel (i : Instr.instr) : Instr.instr =
  let d = Hashtbl.find map in
  match Instr.map_values (remap_value map) i with
  | Instr.Alloca (r, mty) -> Instr.Alloca (d r, mty)
  | Instr.Load (r, s, p) -> Instr.Load (d r, s, p)
  | Instr.Gep (r, base, idx) -> Instr.Gep (d r, base, idx)
  | Instr.Binop (r, op, s, a, b) -> Instr.Binop (d r, op, s, a, b)
  | Instr.Icmp (r, op, s, a, b) -> Instr.Icmp (d r, op, s, a, b)
  | Instr.Fcmp (r, op, s, a, b) -> Instr.Fcmp (d r, op, s, a, b)
  | Instr.Cast (r, op, from, into, x) -> Instr.Cast (d r, op, from, into, x)
  | Instr.Call (r, ret, callee, args) -> Instr.Call (Option.map d r, ret, callee, args)
  | Instr.Phi (r, s, incoming) ->
    Instr.Phi (d r, s, List.map (fun (l, x) -> (relabel l, x)) incoming)
  | (Instr.Store _ | Instr.Sancheck _ | Instr.Srcloc _) as i -> i

(* ---- inlinability ------------------------------------------------ *)

let calls_self (f : Irfunc.t) =
  let found = ref false in
  Irfunc.iter_instrs f (fun _ i ->
      match i with
      | Instr.Call (_, _, Instr.Direct callee, _) when callee = f.Irfunc.name ->
        found := true
      | _ -> ());
  !found

let has_return (f : Irfunc.t) =
  List.exists
    (fun (b : Irfunc.block) ->
      match b.Irfunc.term with Instr.Ret _ -> true | _ -> false)
    f.Irfunc.blocks

let inlinable ~budget (f : Irfunc.t) =
  (not f.Irfunc.variadic)
  && Irfunc.instr_count f <= budget
  && (not (calls_self f))
  && has_return f

(* ---- the transformation ------------------------------------------ *)

(* Inline [callee] at one call site in [caller]; [blk] is split at the
   call: instructions before it stay, the callee body follows, and a
   continuation block receives the tail plus the result phi. *)
let inline_at (caller : Irfunc.t) (blk : Irfunc.block)
    ~(before : Instr.instr list) ~(call_result : Instr.reg option)
    ~(args : (Irtype.scalar * Instr.value) list)
    ~(after : Instr.instr list) (callee : Irfunc.t) : unit =
  let suffix = Printf.sprintf "%s.in%d" callee.Irfunc.name caller.Irfunc.next_reg in
  let relabel l = l ^ "." ^ suffix in
  (* fresh registers for every callee register *)
  let map = Hashtbl.create 32 in
  let fresh r =
    if not (Hashtbl.mem map r) then Hashtbl.replace map r (Irfunc.fresh_reg caller)
  in
  List.iter (fun (r, _) -> fresh r) callee.Irfunc.params;
  List.iter
    (fun (b : Irfunc.block) ->
      List.iter
        (fun i -> match Instr.def_of i with Some r -> fresh r | None -> ())
        b.Irfunc.instrs)
    callee.Irfunc.blocks;
  let cont_label = "cont." ^ suffix in
  (* copy the callee's blocks, redirecting returns to the continuation *)
  let returns = ref [] in
  let copied =
    List.map
      (fun (b : Irfunc.block) ->
        let label = relabel b.Irfunc.label in
        let instrs = List.map (remap_instr map relabel) b.Irfunc.instrs in
        let term =
          match b.Irfunc.term with
          | Instr.Ret (Some (_, v)) ->
            returns := (label, remap_value map v) :: !returns;
            Instr.Br cont_label
          | Instr.Ret None ->
            returns := (label, Instr.Null) :: !returns;
            Instr.Br cont_label
          | Instr.Br l -> Instr.Br (relabel l)
          | Instr.Condbr (c, a, b2) ->
            Instr.Condbr (remap_value map c, relabel a, relabel b2)
          | Instr.Switch (v, cases, d) ->
            Instr.Switch
              (remap_value map v,
               List.map (fun (k, l) -> (k, relabel l)) cases,
               relabel d)
          | Instr.Unreachable -> Instr.Unreachable
        in
        { Irfunc.label; instrs; term })
      callee.Irfunc.blocks
  in
  (* parameter binding: copies into the fresh parameter registers are
     expressed as phi-free moves via Binop add 0 (no dedicated mov) *)
  let entry_label = relabel (Irfunc.entry callee).Irfunc.label in
  let param_moves =
    List.map2
      (fun (pr, ps) (_, av) ->
        let fresh_r = Hashtbl.find map pr in
        match ps with
        | Irtype.F32 | Irtype.F64 ->
          (* x + (-0.0) is the identity for every x including -0.0
             (x + 0.0 would flip -0.0 to +0.0). *)
          Instr.Binop (fresh_r, Instr.FAdd, ps, av, Instr.ImmFloat (-0.0, ps))
        | Irtype.Ptr ->
          (* ptr + 0 via gep keeps pointer-ness *)
          Instr.Gep (fresh_r, av, [ Instr.Gfield (0, 0) ])
        | s -> Instr.Binop (fresh_r, Instr.Add, s, av, Instr.ImmInt (0L, s)))
      callee.Irfunc.params args
  in
  (* continuation block: phi of returned values + the original tail *)
  let cont_instrs =
    match call_result with
    | Some r when !returns <> [] -> begin
      (* scalar of the result: taken from the callee's return type *)
      match callee.Irfunc.ret with
      | Some s -> [ Instr.Phi (r, s, List.rev !returns) ] @ after
      | None -> after
    end
    | _ -> after
  in
  let cont_block =
    { Irfunc.label = cont_label; instrs = cont_instrs; term = blk.Irfunc.term }
  in
  (* rewrite the original block: prefix + param moves + jump into body *)
  blk.Irfunc.instrs <- before @ param_moves;
  blk.Irfunc.term <- Instr.Br entry_label;
  (* phis in blocks after the call that referenced [blk] must now refer
     to the continuation *)
  List.iter
    (fun (b : Irfunc.block) ->
      if b != blk then
        b.Irfunc.instrs <-
          List.map
            (fun i ->
              match i with
              | Instr.Phi (r, s, inc) ->
                Instr.Phi
                  ( r, s,
                    List.map
                      (fun (l, v) ->
                        ((if l = blk.Irfunc.label then cont_label else l), v))
                      inc )
              | i -> i)
            b.Irfunc.instrs)
    caller.Irfunc.blocks;
  caller.Irfunc.blocks <- caller.Irfunc.blocks @ copied @ [ cont_block ]

(* Find and inline one eligible call site in [caller]; true if found. *)
let inline_one (m : Irmod.t) ~budget (caller : Irfunc.t) : bool =
  let found = ref false in
  List.iter
    (fun (blk : Irfunc.block) ->
      if not !found then begin
        let rec split before = function
          | [] -> ()
          | (Instr.Call (r, _, Instr.Direct callee_name, args) as call_i)
            :: after
            when not !found -> begin
            match Irmod.find_func m callee_name with
            | Some callee
              when callee.Irfunc.name <> caller.Irfunc.name
                   && inlinable ~budget callee
                   && List.length args = List.length callee.Irfunc.params ->
              found := true;
              inline_at caller blk ~before:(List.rev before) ~call_result:r
                ~args ~after callee
            | _ -> split (call_i :: before) after
          end
          | i :: after -> split (i :: before) after
        in
        split [] blk.Irfunc.instrs
      end)
    caller.Irfunc.blocks;
  !found

(** Inline eligible call sites module-wide, to a fixed point with a
    round limit (so mutual recursion cannot loop). *)
let run ?(budget = default_budget) (m : Irmod.t) : bool =
  let changed = ref false in
  let rounds = ref 0 in
  let continue_loop = ref true in
  while !continue_loop && !rounds < 4 do
    incr rounds;
    let any =
      List.fold_left (fun acc f -> inline_one m ~budget f || acc) false
        m.Irmod.funcs
    in
    if any then changed := true else continue_loop := false
  done;
  !changed
