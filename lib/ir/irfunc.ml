(** IR functions: a list of labeled basic blocks. *)

type block = {
  label : string;
  mutable instrs : Instr.instr list;
  mutable term : Instr.terminator;
}

type t = {
  name : string;
  params : (Instr.reg * Irtype.scalar) list;
  ret : Irtype.scalar option;
  variadic : bool;
  mutable blocks : block list;  (** entry block first *)
  mutable next_reg : Instr.reg;
  src_pos : int * int;  (** source line/col of the definition, for errors *)
  src_file : string;  (** display name of the defining source, for reports *)
}

let entry f =
  match f.blocks with
  | b :: _ -> b
  | [] -> failwith ("irfunc: empty function " ^ f.name)

let fresh_reg f =
  let r = f.next_reg in
  f.next_reg <- r + 1;
  r

(** Number of instructions, used by the JIT cost model (compilation cost
    is proportional to function size) and by reports.  [Srcloc] markers
    are metadata, not code: excluding them keeps the cost model's static
    sizes identical whether or not provenance is threaded through. *)
let instr_count f =
  List.fold_left
    (fun acc b ->
      List.fold_left
        (fun n -> function Instr.Srcloc _ -> n | _ -> n + 1)
        (acc + 1) b.instrs)
    0 f.blocks

let iter_instrs f fn =
  List.iter (fun b -> List.iter (fn b) b.instrs) f.blocks

(** Map every instruction list in place. *)
let rewrite_blocks f fn =
  List.iter (fun b -> b.instrs <- fn b) f.blocks

(** Deep copy: blocks are mutable, so linking a cached module (the libc)
    into several programs requires fresh block records per program. *)
let copy f =
  {
    f with
    blocks =
      List.map
        (fun b -> { label = b.label; instrs = b.instrs; term = b.term })
        f.blocks;
  }
