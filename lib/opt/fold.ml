(** Constant folding and algebraic simplification.  Every fold computes
    through [Scalar], the kernel the engines execute, on immediates that
    [Verify] guarantees canonical; a division by zero is left unfolded
    so the running program still traps. *)

let as_const (v : Instr.value) : int64 option =
  match v with Instr.ImmInt (x, _) -> Some x | _ -> None

exception No_fold

let no_fold () = raise No_fold

let fold_binop op s a b : Instr.value option =
  match (a, b) with
  | Instr.ImmInt (x, _), Instr.ImmInt (y, _) -> (
    match Scalar.binop ~div0:no_fold op s with
    | Scalar.Ints f -> ( try Some (Instr.ImmInt (f x y, s)) with No_fold -> None)
    | Scalar.Floats _ -> None)
  | Instr.ImmFloat (x, _), Instr.ImmFloat (y, _) -> (
    match Scalar.binop ~div0:no_fold op s with
    | Scalar.Floats f -> Some (Instr.ImmFloat (f x y, s))
    | Scalar.Ints _ -> None)
  | _ -> (
    (* Algebraic identities with one constant side. *)
    match (op, as_const a, as_const b) with
    | Instr.Add, Some 0L, None -> Some b
    | Instr.Add, None, Some 0L -> Some a
    | Instr.Sub, None, Some 0L -> Some a
    | Instr.Mul, Some 1L, None -> Some b
    | Instr.Mul, None, Some 1L -> Some a
    | Instr.Mul, Some 0L, None -> Some (Instr.ImmInt (0L, s))
    | Instr.Mul, None, Some 0L -> Some (Instr.ImmInt (0L, s))
    | _ -> None)

let fold_icmp op s a b : Instr.value option =
  match (a, b) with
  | Instr.ImmInt (x, _), Instr.ImmInt (y, _) ->
    Some (Instr.ImmInt ((if Scalar.icmp op s x y then 1L else 0L), Irtype.I1))
  | _ -> None

let fold_cast op from into (v : Instr.value) : Instr.value option =
  match ((op : Instr.cast), v) with
  | Instr.Bitcast, _ -> None
  | Instr.Ptrtoint, Instr.Null -> Some (Instr.ImmInt (0L, into))
  | _, (Instr.ImmInt _ | Instr.ImmFloat _) -> (
    match (Scalar.cast op from into, v) with
    | Scalar.Int_to_int f, Instr.ImmInt (x, _) -> Some (Instr.ImmInt (f x, into))
    | Scalar.Int_to_float f, Instr.ImmInt (x, _) ->
      Some (Instr.ImmFloat (f x, into))
    | Scalar.Float_to_int f, Instr.ImmFloat (x, _) ->
      Some (Instr.ImmInt (f x, into))
    | Scalar.Float_to_float f, Instr.ImmFloat (x, _) ->
      Some (Instr.ImmFloat (f x, into))
    | _ -> None)
  | _ -> None

(** One folding sweep over [f]; returns true if anything changed. *)
let run_func (f : Irfunc.t) : bool =
  let changed = ref false in
  let subst : (Instr.reg, Instr.value) Hashtbl.t = Hashtbl.create 32 in
  let resolve v =
    match v with
    | Instr.Reg r -> Option.value (Hashtbl.find_opt subst r) ~default:v
    | v -> v
  in
  let fold_instr (i : Instr.instr) : Instr.instr option =
    let i = Instr.map_values resolve i in
    let folded =
      match i with
      | Instr.Binop (_, op, s, a, b) -> fold_binop op s a b
      | Instr.Icmp (_, op, s, a, b) -> fold_icmp op s a b
      | Instr.Cast (_, op, from, into, v) -> fold_cast op from into v
      | _ -> None
    in
    match (folded, Instr.def_of i) with
    | Some value, Some r ->
      Hashtbl.replace subst r value;
      changed := true;
      None
    | _ -> Some i
  in
  (* Iterate block-internally until the substitution map stabilizes (a
     fold can enable another across blocks because subst is global to
     the function and registers are in SSA-ish single-def form). *)
  let inner_changed = ref true in
  while !inner_changed do
    inner_changed := false;
    List.iter
      (fun (b : Irfunc.block) ->
        let before = List.length b.Irfunc.instrs in
        b.Irfunc.instrs <- List.filter_map fold_instr b.Irfunc.instrs;
        if List.length b.Irfunc.instrs <> before then inner_changed := true)
      f.Irfunc.blocks
  done;
  (* Rewrite terminators; fold constant conditional branches. *)
  List.iter
    (fun (b : Irfunc.block) ->
      let term =
        match Instr.map_term_values resolve b.Irfunc.term with
        | Instr.Condbr (Instr.ImmInt (x, _), t, e) ->
          changed := true;
          Instr.Br (if x <> 0L then t else e)
        | Instr.Switch (Instr.ImmInt (x, _), cases, default) ->
          changed := true;
          let target =
            match List.find_opt (fun (k, _) -> k = x) cases with
            | Some (_, l) -> l
            | None -> default
          in
          Instr.Br target
        | t -> t
      in
      b.Irfunc.term <- term)
    f.Irfunc.blocks;
  !changed

let run (m : Irmod.t) : bool =
  List.fold_left (fun acc f -> run_func f || acc) false m.Irmod.funcs
