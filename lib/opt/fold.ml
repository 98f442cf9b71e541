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
    | Instr.Reg r -> begin
      match Hashtbl.find_opt subst r with Some x -> x | None -> v
    end
    | v -> v
  in
  let fold_instr (i : Instr.instr) : Instr.instr option =
    match i with
    | Instr.Binop (r, op, s, a, b) -> begin
      let a = resolve a and b = resolve b in
      match fold_binop op s a b with
      | Some value ->
        Hashtbl.replace subst r value;
        changed := true;
        None
      | None -> Some (Instr.Binop (r, op, s, a, b))
    end
    | Instr.Icmp (r, op, s, a, b) -> begin
      let a = resolve a and b = resolve b in
      match fold_icmp op s a b with
      | Some value ->
        Hashtbl.replace subst r value;
        changed := true;
        None
      | None -> Some (Instr.Icmp (r, op, s, a, b))
    end
    | Instr.Fcmp (r, op, s, a, b) -> Some (Instr.Fcmp (r, op, s, resolve a, resolve b))
    | Instr.Cast (r, op, from, into, v) -> begin
      let v = resolve v in
      match fold_cast op from into v with
      | Some value ->
        Hashtbl.replace subst r value;
        changed := true;
        None
      | None -> Some (Instr.Cast (r, op, from, into, v))
    end
    | Instr.Select (r, s, c, a, b) -> begin
      let c = resolve c and a = resolve a and b = resolve b in
      match as_const c with
      | Some x ->
        Hashtbl.replace subst r (if x <> 0L then a else b);
        changed := true;
        None
      | None -> Some (Instr.Select (r, s, c, a, b))
    end
    | Instr.Load (r, s, p) -> Some (Instr.Load (r, s, resolve p))
    | Instr.Store (s, v, p) -> Some (Instr.Store (s, resolve v, resolve p))
    | Instr.Gep (r, base, idx) ->
      Some
        (Instr.Gep
           ( r,
             resolve base,
             List.map
               (function
                 | Instr.Gindex (v, stride) -> Instr.Gindex (resolve v, stride)
                 | g -> g)
               idx ))
    | Instr.Call (r, ret, callee, args) ->
      let callee =
        match callee with
        | Instr.Indirect v -> Instr.Indirect (resolve v)
        | c -> c
      in
      Some (Instr.Call (r, ret, callee, List.map (fun (s, v) -> (s, resolve v)) args))
    | Instr.Phi (r, s, incoming) ->
      Some (Instr.Phi (r, s, List.map (fun (l, v) -> (l, resolve v)) incoming))
    | Instr.Sancheck (k, p, size) -> Some (Instr.Sancheck (k, resolve p, size))
    | (Instr.Alloca _ | Instr.Srcloc _) -> Some i
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
        match b.Irfunc.term with
        | Instr.Ret (Some (s, v)) -> Instr.Ret (Some (s, resolve v))
        | Instr.Condbr (c, t, e) -> begin
          match resolve c with
          | Instr.ImmInt (x, _) ->
            changed := true;
            Instr.Br (if x <> 0L then t else e)
          | c -> Instr.Condbr (c, t, e)
        end
        | Instr.Switch (v, cases, default) -> begin
          match resolve v with
          | Instr.ImmInt (x, _) ->
            changed := true;
            let target =
              match List.find_opt (fun (k, _) -> k = x) cases with
              | Some (_, l) -> l
              | None -> default
            in
            Instr.Br target
          | v -> Instr.Switch (v, cases, default)
        end
        | t -> t
      in
      b.Irfunc.term <- term)
    f.Irfunc.blocks;
  !changed

let run (m : Irmod.t) : bool =
  List.fold_left (fun acc f -> run_func f || acc) false m.Irmod.funcs
