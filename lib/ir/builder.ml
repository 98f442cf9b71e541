(** Imperative IR builder used by the lowering: tracks the current block
    of the function under construction and appends instructions. *)

type t = {
  func : Irfunc.t;
  mutable current : Irfunc.block;
  mutable finished : bool;
      (** true when the current block already has a real terminator *)
  mutable label_count : int;
}

let create_function ?(src_file = "<input>") ~name ~params ~ret ~variadic
    ~src_pos () : t =
  let entry =
    { Irfunc.label = "entry"; instrs = []; term = Instr.Unreachable }
  in
  let func =
    {
      Irfunc.name;
      params;
      ret;
      variadic;
      blocks = [ entry ];
      next_reg =
        (List.fold_left (fun acc (r, _) -> max acc (r + 1)) 0 params);
      src_pos;
      src_file;
    }
  in
  { func; current = entry; finished = false; label_count = 0 }

let fresh_reg b = Irfunc.fresh_reg b.func

let fresh_label b prefix =
  b.label_count <- b.label_count + 1;
  Printf.sprintf "%s%d" prefix b.label_count

(** Create (but do not switch to) a new empty block. *)
let new_block b label =
  let blk = { Irfunc.label; instrs = []; term = Instr.Unreachable } in
  b.func.Irfunc.blocks <- b.func.Irfunc.blocks @ [ blk ];
  blk

let switch_to b blk =
  b.current <- blk;
  b.finished <- false

let emit b instr =
  if not b.finished then
    b.current.Irfunc.instrs <- b.current.Irfunc.instrs @ [ instr ]

(** Set the current block's terminator (first one wins; code after a
    return in the C source is unreachable and dropped). *)
let terminate b term =
  if not b.finished then begin
    b.current.Irfunc.term <- term;
    b.finished <- true
  end

(* Typed emission helpers; each returns the result register as a value. *)

let alloca b mty =
  let r = fresh_reg b in
  emit b (Instr.Alloca (r, mty));
  Instr.Reg r

let load b scalar ptr =
  let r = fresh_reg b in
  emit b (Instr.Load (r, scalar, ptr));
  Instr.Reg r

let store b scalar v ptr = emit b (Instr.Store (scalar, v, ptr))

let gep b base indices =
  let r = fresh_reg b in
  emit b (Instr.Gep (r, base, indices));
  Instr.Reg r

let binop b op scalar a v =
  let r = fresh_reg b in
  emit b (Instr.Binop (r, op, scalar, a, v));
  Instr.Reg r

let icmp b op scalar a v =
  let r = fresh_reg b in
  emit b (Instr.Icmp (r, op, scalar, a, v));
  Instr.Reg r

let fcmp b op scalar a v =
  let r = fresh_reg b in
  emit b (Instr.Fcmp (r, op, scalar, a, v));
  Instr.Reg r

let cast b op ~from ~into v =
  let r = fresh_reg b in
  emit b (Instr.Cast (r, op, from, into, v));
  Instr.Reg r

let call b ret callee args =
  match ret with
  | None ->
    emit b (Instr.Call (None, None, callee, args));
    None
  | Some scalar ->
    let r = fresh_reg b in
    emit b (Instr.Call (Some r, Some scalar, callee, args));
    Some (Instr.Reg r)

let finish b = b.func
