(** Tier-2 closure compiler (DESIGN.md §9, §11).

    Translates a prepared function ([Interp.pfunc], its body built and
    its direct calls linked by [Interp.prepare]) into nested OCaml
    closures: one closure per basic block held in a cell array (so
    branches are direct threaded — a cell dereference plus an OCaml
    tail call), one closure per instruction chained through its
    continuation, phi parallel copies compiled onto the edges, and
    every compile-time-known decision hoisted out of the run-time path:
    opcode dispatch, operand shapes (register vs pre-boxed immediate),
    scalar-width normalization, the memento-observation predicate, the
    function's error-context string, and resolved direct-call targets.

    On top of that, compiled code keeps provably-classified registers
    *unboxed* in flat side arrays instead of [fr_regs] (DESIGN.md §11):

    - [Rint] ([frame.fr_iregs]): every writer is a <=32-bit integer
      producer (narrow load, binop, compare, int cast).
    - [Rfloat] ([frame.fr_fregs]): every writer is a float producer
      (F32/F64 load, float binop, float cast).  The array holds exactly
      the float a [Vfloat] box would (F32 results stored pre-rounded),
      so re-boxing on escape is bit-identical.

    Phi destinations stay boxed: the -O0-shaped code every workload
    compiles has no phi, so their edges' parallel copies only need to
    be right, not fast.

    Unboxed registers never allocate a box and never pay the OCaml
    write barrier, and narrow/float loads and stores hit an inlined
    fast path on the managed object's bytes (identical checks, in the
    identical order) instead of calling through [Mobject].  This is
    sound because a frame's register file is invisible outside the
    function's own code: calls receive re-boxed arguments, returns
    re-box the result, and a managed error ends the run, whose report
    reads each frame's function and location, never a register: a
    handler around the raising part of each operation only (its slow
    path, never the continuation) writes the location ([pb_locs]).

    Slots, the scalar-replaced allocas [Interp.prepare] planned for
    both tiers, compile to register moves in their scalar's class that
    replay the memory round trip as tier 1 does, pointer slots
    included; no slot's object exists in either tier.

    Two more §11 features ride on the same machinery:

    - *Tiny-callee inlining*: a direct call to a leaf callee of at most
      [Costmodel.inline_always_instrs] instructions is compiled as a
      register-translated instance of the callee's blocks
      living at a disjoint window of the caller's (enlarged) register
      file, replicating the interpreter's call protocol — argument
      evaluation, the depth guard, per-callee counters and step charges
      — without the [call_function] frame push/pop, which a fault
      inside puts back.
    - *On-stack replacement* ([cb_osr], built with [cb_frame] by
      [frames]): functions with loop headers also get an OSR entry
      that transfers a live interpreter frame into the compiled
      register files and resumes at the loop-header block, so a single
      long-running invocation can tier up mid-call.

    The contract is *observable bit-equivalence* with the interpreter:
    identical program output, identical managed errors at the same
    operation, and identical [steps] accounting — every operation still
    charges the step budget individually, so a step-limit timeout fires
    at exactly the same point in either tier, and counts into the same
    per-function kind counter.  What compiled code is allowed to drop is
    pure interpreter overhead: dispatch matches and value boxing that no
    observer can distinguish. *)

open Interp

type cont = state -> frame -> Mval.t option

(* Pre-boxed booleans: compare results are immutable, so sharing one box
   is indistinguishable from the interpreter's fresh [Vint]s. *)
let vtrue = Mval.Vint 1L
let vfalse = Mval.Vint 0L

(* ------------------------------------------------------------------ *)
(* Compile-time specialization helpers                                 *)
(* ------------------------------------------------------------------ *)

(** [Interp.deref] with the error-context string captured at compile
    time instead of recovered from the frame stack per access. *)
let deref_c (ctx : string) (pm : Mval.t) : Mobject.addr =
  match Mval.as_ptr ctx pm with
  | Mobject.Pobj a -> a
  | Mobject.Pnull -> Merror.raise_error Merror.Null_deref ctx
  | Mobject.Pfunc name ->
    Merror.raise_error
      (Merror.Type_violation ("dereference of function pointer &" ^ name))
      ctx
  | Mobject.Pinvalid c ->
    Merror.raise_error
      (Merror.Type_violation
         (Printf.sprintf "dereference of forged pointer 0x%Lx" c))
      ctx

(* [f x y] on a slow path: a managed error writes the operation's
   location ([at], see [instance]) on its way out. *)
let guard at st fr f x y =
  try f x y with Merror.Error _ as e -> at st fr; raise e

(* Every compiled operation opens with a step charge: the same writes,
   in the same order, with the same raise point as the interpreter's
   charge — the step counter, the instance's counter for the
   operation's kind [k] ([c] is the function's [c_kinds], captured at
   compile time: a compiled body only ever runs in the state that
   compiled it), then the limit check.

   The helper is a closed top-level function marked [@inline], so each
   site compiles to the three writes in place: no closure, no call.  It
   lives here rather than in [Interp] because dune's dev profile
   compiles with -opaque, which keeps a cross-module function a real
   call on the hot path. *)
let[@inline] charge (st : state) (c : int array) k limit =
  st.steps <- st.steps + 1;
  Array.unsafe_set c k (Array.unsafe_get c k + 1);
  if st.steps > limit then raise Step_limit_exceeded

(* Allocation-memento observation of a heap access, inlined the same
   way: only the heap case calls out. *)
let[@inline] observe_memento heap (obj : Mobject.t) s =
  match obj.Mobject.storage with
  | Merror.Heap -> Mheap.observe heap obj s
  | _ -> ()

(* ------------- scalar operations on the unboxed carriers ---------- *)

(* Every operation comes from the [Scalar] kernel, staged at compile
   time: boxed registers use the closure [Interp] staged at prepare
   time, unboxed ones the kernel's native-int and float carriers.
   [small] widths are the ones the native-int register file holds. *)

let small = Scalar.Small.fits

let div0 ctx () = Merror.raise_error Merror.Division_by_zero ctx

(* The integer binops that raise a managed error (a zero divisor). *)
let divides = function
  | Instr.Sdiv | Instr.Udiv | Instr.Srem | Instr.Urem -> true
  | _ -> false

let ints = function
  | Scalar.Ints f -> f
  | Scalar.Floats _ -> invalid_arg "Closcomp: float operation"

let floats = function
  | Scalar.Floats f -> f
  | Scalar.Ints _ -> invalid_arg "Closcomp: integer operation"

(* ------------------------------------------------------------------ *)
(* Register translation (inlined callee instances)                     *)
(* ------------------------------------------------------------------ *)

(* An inlined callee's blocks are re-registered at a disjoint window
   [base, base + callee.pf_nregs) of the caller's merged register file.
   Block indices stay instance-local: each instance gets its own cell
   array, so edges never need renumbering. *)

let shift_pval base = function Preg r -> Preg (r + base) | v -> v

let shift_copies base = function
  | Pc_copy (dests, srcs) ->
    Pc_copy (Array.map (fun d -> d + base) dests, Array.map (shift_pval base) srcs)
  | Pc_none -> Pc_none

let shift_edge base (Edge (i, c)) = Edge (i, shift_copies base c)

let shift_term base = function
  | Pret (Some v) -> Pret (Some (shift_pval base v))
  | Pret None -> Pret None
  | Pbr e -> Pbr (shift_edge base e)
  | Pcondbr (c, a, b) ->
    Pcondbr (shift_pval base c, shift_edge base a, shift_edge base b)
  | Pswitch (v, keys, es, d) ->
    Pswitch
      (shift_pval base v, keys, Array.map (shift_edge base) es, shift_edge base d)
  | Punreachable -> Punreachable

let shift_gep base (g : pgep) : pgep =
  { g with pg_dyn = Array.map (fun (v, s) -> (shift_pval base v, s)) g.pg_dyn }

let shift_instr base = function
  | Palloca (r, mty, size) -> Palloca (r + base, mty, size)
  | Pload (r, s, p) -> Pload (r + base, s, shift_pval base p)
  | Pstore (s, v, p) -> Pstore (s, shift_pval base v, shift_pval base p)
  | Pslot_alloca (r, s) -> Pslot_alloca (r + base, s)
  | Pslot_load (r, s, p) -> Pslot_load (r + base, s, p + base)
  | Pslot_store (s, v, p, f) -> Pslot_store (s, shift_pval base v, p + base, f)
  | Pgep (r, b, g) -> Pgep (r + base, shift_pval base b, shift_gep base g)
  | Pbinop (r, op, s, a, b, f) ->
    Pbinop (r + base, op, s, shift_pval base a, shift_pval base b, f)
  | Picmp (r, op, s, a, b, f) ->
    Picmp (r + base, op, s, shift_pval base a, shift_pval base b, f)
  | Pfcmp (r, op, a, b, f) ->
    Pfcmp (r + base, op, shift_pval base a, shift_pval base b, f)
  | Pcast (r, op, from, into, v, f) ->
    Pcast (r + base, op, from, into, shift_pval base v, f)
  | Psancheck -> Psancheck
  | Pcall (r, callee, args, scalars) ->
    (* unreachable for leaf callees (the only ones instantiated); kept
       total so the translation has no implicit assumptions *)
    let callee =
      match callee with
      | Pdirect _ as c -> c
      | Pindirect (v, ret) -> Pindirect (shift_pval base v, ret)
    in
    Pcall ((if r >= 0 then r + base else r), callee, Array.map (shift_pval base) args, scalars)

let shift_block base (blk : pblock) : pblock =
  {
    blk with
    pb_instrs = Array.map (shift_instr base) blk.pb_instrs;
    pb_term = shift_term base blk.pb_term;
  }

(* ------------------------------------------------------------------ *)
(* Inline planning                                                     *)
(* ------------------------------------------------------------------ *)

(** One inlinable direct-call site, keyed by (block index, instruction
    index) in the caller. *)
type inline_site = {
  is_callee : pfunc;
  is_base : int;  (** register-window offset in the merged file *)
  is_blocks : pblock array;  (** callee blocks, shifted by [is_base] *)
  is_params : int array;  (** absolute (shifted) parameter registers *)
}

let is_leaf (pf : pfunc) : bool =
  Array.for_all
    (fun blk ->
      Array.for_all
        (function Pcall _ -> false | _ -> true)
        blk.pb_instrs)
    pf.pf_blocks

let static_size (pf : pfunc) : int =
  Array.fold_left
    (fun acc blk -> acc + Array.length blk.pb_instrs + 1)
    0 pf.pf_blocks

(** Pick the direct-call sites to inline (DESIGN.md §11 cost model):
    tiny leaf, non-variadic callees, within a per-caller instruction
    budget.  Inlining elides the [call_function]
    frame push, which is only sound because a leaf callee can never
    observe the frame stack (no builtins, no varargs, no nested calls)
    — and call tracing, which does observe it, disables inlining
    wholesale; a fault puts the frame back ([instance]). *)
let plan_inlines (st0 : state) (pf : pfunc) :
    (int * int, inline_site) Hashtbl.t * int =
  let sites : (int * int, inline_site) Hashtbl.t = Hashtbl.create 8 in
  let next_base = ref pf.pf_nregs in
  let budget = ref Costmodel.inline_budget_instrs in
  if st0.trace = None then
    Array.iteri
      (fun bi blk ->
        Array.iteri
          (fun ii instr ->
            match instr with
            | Pcall (_, Pdirect (Tgt_user callee), _, _) ->
              (* judged on its prepared body, whether or not the run
                 has entered it yet *)
              prepare st0 callee;
              if
                callee != pf
                && (match callee.pf_tier with
                   | Tier_deopt -> false
                   | Tier_interp | Tier_compiled _ -> true)
                && (not callee.pf_variadic)
                && is_leaf callee
              then begin
                let size = static_size callee in
                if size <= Costmodel.inline_always_instrs && size <= !budget
                then begin
                  Events.record
                    (Events.Inline_accept
                       {
                         ev_caller = pf.pf_name;
                         ev_callee = callee.pf_name;
                         ev_size = size;
                         ev_budget = !budget;
                       });
                  budget := !budget - size;
                  let base = !next_base in
                  next_base := base + callee.pf_nregs;
                  Hashtbl.replace sites (bi, ii)
                    {
                      is_callee = callee;
                      is_base = base;
                      is_blocks = Array.map (shift_block base) callee.pf_blocks;
                      is_params =
                        Array.map (fun r -> r + base) callee.pf_param_regs;
                    }
                end
                else
                  (* An inlinable-shaped site the cost model turned
                     down: record which number said no. *)
                  Events.record
                    (Events.Inline_reject
                       {
                         ev_caller = pf.pf_name;
                         ev_callee = callee.pf_name;
                         ev_size = size;
                         ev_budget = !budget;
                         ev_reason =
                           (if size > !budget then "over caller budget"
                            else "over inline_always_instrs");
                       })
              end
            | _ -> ())
          blk.pb_instrs)
      pf.pf_blocks;
  (sites, !next_base)

(* ------------------------------------------------------------------ *)
(* Register classification                                             *)
(* ------------------------------------------------------------------ *)

(** A register's storage class in compiled code (DESIGN.md §11). *)
type rclass =
  | Rint  (** unboxed native int in [fr_iregs] *)
  | Rfloat  (** unboxed float in [fr_fregs] *)
  | Rbox  (** boxed [Mval.t] in [fr_regs] *)

(** Classify every register of the merged file in one pass over its
    writers: a register is unboxed in a class iff it has at least one
    writer and every writer produces that class.  Phi destinations
    (written by the edges' boxed parallel copies), call results and
    [boxed_roots] (parameter registers: caller's and each inlined
    instance's, written boxed by the call protocol) are [Rbox].
    A slot ([Interp.Pslot_alloca]) classifies by its scalar: its only
    writers are its alloca and whole-slot stores, so a small-int slot
    lands in [Rint], a float slot in [Rfloat], and I64 and pointer
    slots stay boxed. *)
let classify (blocks_list : pblock array list)
    (boxed_roots : int array list) (nregs : int) : rclass array =
  let cls : rclass option array = Array.make nregs None in
  let write r c =
    if r >= 0 && r < nregs then
      cls.(r) <-
        (match cls.(r) with
        | None -> Some c
        | Some c0 -> Some (if c0 = c then c else Rbox))
  in
  let of_scalar s =
    if small s then Rint
    else if s = Irtype.F32 || s = Irtype.F64 then Rfloat
    else Rbox
  in
  let instr = function
    | Pload (r, s, _) | Pslot_alloca (r, s) | Pslot_load (r, s, _)
    | Pslot_store (s, _, r, _) ->
      write r (of_scalar s)
    | Pstore _ | Psancheck -> ()
    | Palloca (r, _, _) | Pgep (r, _, _) | Pcall (r, _, _, _) -> write r Rbox
    | Pbinop (r, op, s, _, _, _) ->
      write r
        (if binop_kind op = k_fbinop then Rfloat
         else if small s then Rint
         else Rbox)
    | Picmp (r, _, _, _, _, _) | Pfcmp (r, _, _, _, _) -> write r Rint
    | Pcast (r, op, from, into, _, _) ->
      write r
        (match op with
        | (Instr.Trunc | Instr.Sext | Instr.Zext) when small into -> Rint
        | (Instr.Fptosi | Instr.Fptoui) when small into -> Rint
        | Instr.Fptrunc | Instr.Fpext | Instr.Sitofp | Instr.Uitofp -> Rfloat
        | Instr.Bitcast when Irtype.is_float_scalar from && into = Irtype.I32 ->
          Rint
        | Instr.Bitcast
          when (not (Irtype.is_float_scalar from))
               && Irtype.is_float_scalar into ->
          Rfloat
        | _ -> Rbox)
  in
  let edge (Edge (_, c)) =
    match c with
    | Pc_copy (dests, _) -> Array.iter (fun d -> write d Rbox) dests
    | Pc_none -> ()
  in
  List.iter
    (Array.iter (fun blk ->
         Array.iter instr blk.pb_instrs;
         iter_edges edge blk.pb_term))
    blocks_list;
  List.iter (Array.iter (fun r -> write r Rbox)) boxed_roots;
  Array.map (function Some c -> c | None -> Rbox) cls

(* ------------------------------------------------------------------ *)
(* Frames of compiled code                                             *)
(* ------------------------------------------------------------------ *)

(** The frames of [pf]'s compiled code, whose merged register file has
    the classes [cls] and whose blocks run from [cells]: [cb_frame] and,
    for a function with loop headers, [cb_osr].

    [call_function] obtains a compiled function's frames through
    [cb_frame], which builds the register files right-sized in one
    shot (DESIGN.md §11): the generic path would allocate a
    [pf_nregs] boxed file only to replace it with the enlarged copy.
    (A recycling pool was measured and rejected: re-zeroing promoted
    arrays pays a write barrier per element, which loses to the minor
    allocator.)  [cb_entry] therefore starts execution directly.

    [cb_osr] transfers a live interpreter frame: the interpreter ran
    this invocation so far, so every live register, a slot's
    included, sits boxed in [fr_regs]; each moves into its class's
    file.  A register whose box does not match its class is either
    unwritten (still [Mval.zero], represented identically by every
    class' zero — [as_float (Vint 0)] is [0.0]) or dead by SSA
    dominance, so the transfer is exact. *)
let frames (pf : pfunc) (cls : rclass array) (cells : cont ref array) :
    (Mval.t array -> Irtype.scalar array -> frame) * osr_body option =
  let nregs = Array.length cls in
  let any_i = Array.mem Rint cls and any_f = Array.mem Rfloat cls in
  let iregs () = if any_i then Array.make nregs 0 else [||] in
  let fregs () = if any_f then Array.make nregs 0.0 else [||] in
  let acquire args arg_scalars =
    let regs = Array.make nregs Mval.zero in
    let bound = min pf.pf_nparams (Array.length args) in
    for i = 0 to bound - 1 do
      regs.(pf.pf_param_regs.(i)) <- args.(i)
    done;
    {
      fr_func = pf;
      fr_regs = regs;
      fr_iregs = iregs ();
      fr_fregs = fregs ();
      fr_args = args;
      fr_arg_scalars = arg_scalars;
      fr_variadic = pf.pf_variadic;
      fr_nparams = pf.pf_nparams;
      fr_line = 0;
      fr_col = 0;
    }
  in
  let transfer st fr idx =
    let boxed = fr.fr_regs in
    let nold = Array.length boxed in
    if nregs > nold then begin
      (* inlined callees enlarged the register file *)
      fr.fr_regs <- Array.make nregs Mval.zero;
      Array.blit boxed 0 fr.fr_regs 0 nold
    end;
    fr.fr_iregs <- iregs ();
    fr.fr_fregs <- fregs ();
    for r = 0 to nold - 1 do
      match (cls.(r), boxed.(r)) with
      | Rint, Mval.Vint v -> fr.fr_iregs.(r) <- Int64.to_int v
      | Rfloat, Mval.Vfloat f -> fr.fr_fregs.(r) <- f
      | Rfloat, Mval.Vint v -> fr.fr_fregs.(r) <- Int64.to_float v
      | _ -> ()
    done;
    !(cells.(idx)) st fr
  in
  (acquire, if Array.exists (fun b -> b.pb_osr) pf.pf_blocks then Some transfer else None)

(* ------------------------------------------------------------------ *)
(* The compiler                                                        *)
(* ------------------------------------------------------------------ *)

(** How an instance's [Pret] is compiled: a real function return, or —
    for an inlined callee — the interpreter's post-call protocol (depth
    decrement, result write into the caller's register) followed by the
    call site's continuation. *)
type ret_mode = Ret_fun | Ret_inline of int * cont

let unset : cont = fun _ _ -> failwith "closcomp: block not compiled"

let compile (st0 : state) (pf : pfunc) : compiled =
  let limit = st0.step_limit in
  let heap = st0.heap in
  let prof = st0.prof in
  prepare st0 pf;
  let sites, nregs = plan_inlines st0 pf in
  let blocks_list =
    pf.pf_blocks :: Hashtbl.fold (fun _ s acc -> s.is_blocks :: acc) sites []
  in
  let boxed_roots =
    pf.pf_param_regs
    :: Hashtbl.fold (fun _ s acc -> s.is_params :: acc) sites []
  in
  let cls = classify blocks_list boxed_roots nregs in
  let empty_sites : (int * int, inline_site) Hashtbl.t = Hashtbl.create 1 in

  (* --- class-aware operand access (shared by all instances) --- *)

  (* Boxed view of any operand; unboxed registers re-box on read
     (their unboxed slot holds exactly what the interpreter's box
     would). *)
  let getter (v : pval) : frame -> Mval.t =
    match v with
    | Preg r -> begin
      match cls.(r) with
      | Rint ->
        fun fr -> Mval.Vint (Int64.of_int (Array.unsafe_get fr.fr_iregs r))
      | Rfloat -> fun fr -> Mval.Vfloat (Array.unsafe_get fr.fr_fregs r)
      | Rbox -> fun fr -> Array.unsafe_get fr.fr_regs r
    end
    | Pimm v -> fun _ -> v
  in
  (* Native-int view, for operands of small-scalar operations.  The
     [Int64.to_int] truncation of a boxed operand is exact for every
     well-typed small operand (normalized <=32-bit values), and for
     any other int64 every consumer below re-masks/re-normalizes to
     <=32 bits, which only depends on the low bits [to_int]
     preserves.  Pointer immediates fall through the boxed view, so
     [Mval.as_int] registers their cookies exactly like the
     interpreter; [Verify] keeps float operands out of integer uses. *)
  let iget (v : pval) : frame -> int =
    match v with
    | Preg r when cls.(r) = Rint ->
      fun fr -> Array.unsafe_get fr.fr_iregs r
    | Preg r when cls.(r) = Rbox ->
      fun fr -> Int64.to_int (Mval.as_int (Array.unsafe_get fr.fr_regs r))
    | Pimm (Mval.Vint v) ->
      let c = Int64.to_int v in
      fun _ -> c
    | v ->
      let g = getter v in
      fun fr -> Int64.to_int (Mval.as_int (g fr))
  in
  (* Result writers for int-producing operations (classification
     guarantees such destinations are [Rint] or [Rbox]). *)
  let iset (r : int) : frame -> int -> unit =
    if cls.(r) = Rint then fun fr v -> Array.unsafe_set fr.fr_iregs r v
    else fun fr v -> Array.unsafe_set fr.fr_regs r (Mval.Vint (Int64.of_int v))
  in
  (* Native-float view.  [Verify] keeps integer operands out of float
     uses, so a register read here is [Rfloat] or [Rbox]; anything else
     falls through the boxed view. *)
  let fget (v : pval) : frame -> float =
    match v with
    | Preg r when cls.(r) = Rfloat ->
      fun fr -> Array.unsafe_get fr.fr_fregs r
    | Preg r when cls.(r) = Rbox ->
      fun fr -> Mval.as_float (Array.unsafe_get fr.fr_regs r)
    | Pimm (Mval.Vfloat f) -> fun _ -> f
    | v ->
      let g = getter v in
      fun fr -> Mval.as_float (g fr)
  in
  (* Result writers for float-producing operations (destinations are
     [Rfloat] or [Rbox] by classification). *)
  let fset (r : int) : frame -> float -> unit =
    if cls.(r) = Rfloat then fun fr v -> Array.unsafe_set fr.fr_fregs r v
    else fun fr v -> Array.unsafe_set fr.fr_regs r (Mval.Vfloat v)
  in
  (* --- narrow memory access fast paths ---

     The inlined path performs the interpreter's checks on the managed
     object in the interpreter's order — dereference, memento
     observation, liveness, bounds, the uninitialized-read map — and
     bails to the real [Mobject] accessors the moment any of them
     would take an interesting branch, so every error is raised by the
     exact same code with the exact same message. *)
  let iload_fast (s : Irtype.scalar) : Bytes.t -> int -> int =
    match s with
    | Irtype.I1 -> fun b off -> Char.code (Bytes.get b off) land 1
    | Irtype.I8 -> fun b off -> Bytes.get_int8 b off
    | Irtype.I16 -> fun b off -> Bytes.get_int16_le b off
    | Irtype.I32 -> fun b off -> Int32.to_int (Bytes.get_int32_le b off)
    | _ -> invalid_arg "Closcomp.iload_fast: not a small scalar"
  in
  let istore_fast (s : Irtype.scalar) : Bytes.t -> int -> int -> unit =
    match s with
    | Irtype.I1 | Irtype.I8 ->
      fun b off v -> Bytes.set b off (Char.chr (v land 0xFF))
    | Irtype.I16 -> fun b off v -> Bytes.set_uint16_le b off (v land 0xFFFF)
    | Irtype.I32 -> fun b off v -> Bytes.set_int32_le b off (Int32.of_int v)
    | _ -> invalid_arg "Closcomp.istore_fast: not a small scalar"
  in
  (* Raw-bits float access: [Mobject.load_float]/[store_float] are
     [load_int]/[store_int] plus a bits conversion, so the fast path
     is the byte access and the conversion fused. *)
  let fload_fast (s : Irtype.scalar) : Bytes.t -> int -> float =
    if s = Irtype.F32 then fun b off ->
      Int32.float_of_bits (Bytes.get_int32_le b off)
    else fun b off -> Int64.float_of_bits (Bytes.get_int64_le b off)
  in
  let fstore_fast (s : Irtype.scalar) : Bytes.t -> int -> float -> unit =
    if s = Irtype.F32 then fun b off v ->
      Bytes.set_int32_le b off (Int32.bits_of_float v)
    else fun b off v -> Bytes.set_int64_le b off (Int64.bits_of_float v)
  in

  (* --- one instance: the caller, or an inlined callee --- *)
  let rec instance (ipf : pfunc) (iblocks : pblock array)
      (isites : (int * int, inline_site) Hashtbl.t) (ret : ret_mode)
      (call_site : (int * int) option) : cont * cont ref array =
    let ctx = ipf.pf_context in
    let ctrs = ipf.pf_counters.c_kinds in
    let nblocks = Array.length iblocks in
    let cells = Array.init nblocks (fun _ -> ref unset) in
    (* What a managed error leaving an operation at [(line, col)]
       writes: the frame's location or, in an inlined callee (a leaf,
       on its caller's innermost frame), the call site's into the
       caller's frame and, above it, the callee's frame left out. *)
    let at ((line, col) as loc) : state -> frame -> unit =
      match call_site with
      | None -> fun _ fr -> locate fr loc
      | Some site ->
        fun st fr ->
          locate fr site;
          st.frames <- { fr with fr_func = ipf; fr_line = line; fr_col = col } :: st.frames
    in

    (* --- edges: phi parallel copy, then a direct-threaded jump ---
       Phi destinations are boxed ([classify]); every source is read,
       each after its charge, before any destination is written, as in
       the interpreter. *)
    let compile_jump (copies : phicopy) (jump : cont ref) : cont =
      match copies with
      | Pc_none -> fun st fr -> !jump st fr
      | Pc_copy (dests, srcs) ->
        let n = Array.length dests in
        let gs = Array.map getter srcs in
        fun st fr ->
          let tmp = Array.make n Mval.zero in
          for i = 0 to n - 1 do
            charge st ctrs k_phi limit;
            tmp.(i) <- gs.(i) fr
          done;
          for i = 0 to n - 1 do
            fr.fr_regs.(dests.(i)) <- tmp.(i)
          done;
          !jump st fr
    in
    let compile_edge (Edge (idx, copies) : pedge) : cont =
      compile_jump copies cells.(idx)
    in
    (* A copy-free edge is just its target cell: branch closures inline
       the [!cell] dereference instead of hopping through a wrapper
       closure. *)
    let edge_plain (e : pedge) : cont ref option =
      match e with Edge (idx, Pc_none) -> Some cells.(idx) | _ -> None
    in

    (* --- terminators --- *)
    (* [Pret] under [Ret_inline] replays the interpreter's post-call
       order exactly: terminator charge, result read, depth decrement
       (the frame pop has no observable effect — no frame was pushed),
       then the call's result write and continuation. *)
    let compile_ret (v : pval option) : cont =
      match (ret, v) with
      | Ret_fun, Some v ->
        let g = getter v in
        fun st fr ->
          charge st ctrs k_term limit;
          Some (g fr)
      | Ret_fun, None ->
        fun st _fr ->
          charge st ctrs k_term limit;
          None
      | Ret_inline (rres, next), Some v -> (
        (* Guest-profiler leave: the ret charge lands before [leave]
           flushes, so it is attributed to the callee exactly as in
           the interpreter (whose next flush after the ret charge is
           the [Profile.leave] in [call_function]).  [prof] is fixed
           at compile time, so the unprofiled closures keep their
           exact shape — no per-return branch. *)
        let g = getter v in
        match prof with
        | None ->
          if rres >= 0 then fun st fr ->
            charge st ctrs k_term limit;
            let res = g fr in
            st.depth <- st.depth - 1;
            fr.fr_regs.(rres) <- res;
            next st fr
          else fun st fr ->
            charge st ctrs k_term limit;
            ignore (g fr);
            st.depth <- st.depth - 1;
            next st fr
        | Some p ->
          if rres >= 0 then fun st fr ->
            charge st ctrs k_term limit;
            Profile.leave p ~steps:st.steps;
            let res = g fr in
            st.depth <- st.depth - 1;
            fr.fr_regs.(rres) <- res;
            next st fr
          else fun st fr ->
            charge st ctrs k_term limit;
            Profile.leave p ~steps:st.steps;
            ignore (g fr);
            st.depth <- st.depth - 1;
            next st fr)
      | Ret_inline (rres, next), None -> (
        match prof with
        | None ->
          if rres >= 0 then fun st fr ->
            charge st ctrs k_term limit;
            st.depth <- st.depth - 1;
            fr.fr_regs.(rres) <- Mval.zero;
            next st fr
          else fun st fr ->
            charge st ctrs k_term limit;
            st.depth <- st.depth - 1;
            next st fr
        | Some p ->
          if rres >= 0 then fun st fr ->
            charge st ctrs k_term limit;
            Profile.leave p ~steps:st.steps;
            st.depth <- st.depth - 1;
            fr.fr_regs.(rres) <- Mval.zero;
            next st fr
          else fun st fr ->
            charge st ctrs k_term limit;
            Profile.leave p ~steps:st.steps;
            st.depth <- st.depth - 1;
            next st fr)
    in
    let compile_term (t : pterm) (loc : int * int) : cont =
      match t with
      | Pret v -> compile_ret v
      | Pbr e -> begin
        match edge_plain e with
        | Some cell ->
          fun st fr ->
            charge st ctrs k_term limit;
            !cell st fr
        | None ->
          let k = compile_edge e in
          fun st fr ->
            charge st ctrs k_term limit;
            k st fr
      end
      | Pcondbr (c, a, b) -> begin
        match (c, edge_plain a, edge_plain b) with
        | Preg rc, Some ca, Some cb when cls.(rc) = Rint ->
          fun st fr ->
            charge st ctrs k_term limit;
            if Array.unsafe_get fr.fr_iregs rc = 0 then !cb st fr
            else !ca st fr
        | Preg rc, Some ca, Some cb when cls.(rc) = Rbox ->
          fun st fr ->
            charge st ctrs k_term limit;
            if Int64.equal (Mval.as_int fr.fr_regs.(rc)) 0L then !cb st fr
            else !ca st fr
        | c, _, _ ->
          let ka = compile_edge a and kb = compile_edge b in
          (match c with
          | Preg rc when cls.(rc) = Rint ->
            fun st fr ->
              charge st ctrs k_term limit;
              if Array.unsafe_get fr.fr_iregs rc = 0 then kb st fr
              else ka st fr
          | Preg rc when cls.(rc) = Rbox ->
            fun st fr ->
              charge st ctrs k_term limit;
              if Int64.equal (Mval.as_int fr.fr_regs.(rc)) 0L then kb st fr
              else ka st fr
          | c ->
            let g = getter c in
            fun st fr ->
              charge st ctrs k_term limit;
              if Int64.equal (Mval.as_int (g fr)) 0L then kb st fr
              else ka st fr)
      end
      | Pswitch (v, keys, edges, default) ->
        let gv = getter v in
        let kd = compile_edge default in
        let ks = Array.map compile_edge edges in
        let nk = Array.length keys in
        fun st fr ->
          charge st ctrs k_term limit;
          let x = Mval.as_int (gv fr) in
          let rec find i =
            if i >= nk then kd
            else if Int64.equal keys.(i) x then ks.(i)
            else find (i + 1)
          in
          (find 0) st fr
      | Punreachable ->
        fun st fr ->
          charge st ctrs k_term limit;
          at loc st fr;
          Merror.raise_error
            (Merror.Type_violation "reached an unreachable instruction")
            ctx
    in
    (* --- instructions, chained through their continuation --- *)
    let compile_instr (blk : pblock) (i : int) (next : cont) : cont =
      let key = (blk.pb_index, i) and at = at blk.pb_locs.(i) in
      (* A kernel raises division by zero without the frame: a body runs
         only in the state that compiled it, on its innermost frame. *)
      let div0 () = at st0 (List.hd st0.frames); div0 ctx () in
      match blk.pb_instrs.(i) with
      (* --- scalar-replaced allocas (slots, [Interp.prepare]) ---
         A slot lives in a register of its scalar's class and every
         access replays the memory round trip as tier 1's does
         ([Interp.slot_zero], and the store [Pslot_store] staged
         at prepare time): the alloca
         consumes the allocation id of the object (the ids of later
         allocations are observable through cookies) and re-zeroes
         the slot. *)
      | Pslot_alloca (r, s) -> begin
        match cls.(r) with
        | Rint ->
          fun st fr ->
            charge st ctrs k_alloca limit;
            ignore (Mobject.fresh_id ());
            Array.unsafe_set fr.fr_iregs r 0;
            next st fr
        | Rfloat ->
          fun st fr ->
            charge st ctrs k_alloca limit;
            ignore (Mobject.fresh_id ());
            Array.unsafe_set fr.fr_fregs r 0.0;
            next st fr
        | Rbox ->
          let zero = slot_zero s in
          fun st fr ->
            charge st ctrs k_alloca limit;
            ignore (Mobject.fresh_id ());
            Array.unsafe_set fr.fr_regs r zero;
            next st fr
      end
      | Pslot_load (r, _, rp) -> begin
        (* forward the slot register (already the exact value a memory
           load would produce).  These are the hottest operations in
           alloca-based code, so each shape is a fully inlined
           register move — no accessor closures. *)
        match cls.(rp) with
        | Rint when cls.(r) = Rint ->
          fun st fr ->
            charge st ctrs k_load limit;
            let ir = fr.fr_iregs in
            Array.unsafe_set ir r (Array.unsafe_get ir rp);
            next st fr
        | Rint ->
          fun st fr ->
            charge st ctrs k_load limit;
            fr.fr_regs.(r) <-
              Mval.Vint (Int64.of_int (Array.unsafe_get fr.fr_iregs rp));
            next st fr
        | Rfloat when cls.(r) = Rfloat ->
          fun st fr ->
            charge st ctrs k_load limit;
            let fl = fr.fr_fregs in
            Array.unsafe_set fl r (Array.unsafe_get fl rp);
            next st fr
        | Rfloat ->
          fun st fr ->
            charge st ctrs k_load limit;
            fr.fr_regs.(r) <-
              Mval.Vfloat (Array.unsafe_get fr.fr_fregs rp);
            next st fr
        | Rbox ->
          fun st fr ->
            charge st ctrs k_load limit;
            Array.unsafe_set fr.fr_regs r (Array.unsafe_get fr.fr_regs rp);
            next st fr
      end
      | Pslot_store (s, v, rp, f) -> begin
        (* the unboxed carriers replay [f]: small ints keep their
           stored low bits sign-extended, F32 rounds through its bit
           pattern; [iget] and [fget] convert like [Mval.as_int] and
           [Mval.as_float] *)
        match cls.(rp) with
        | Rint -> begin
          let nrm = Scalar.Small.normalize s in
          match v with
          | Preg rv when cls.(rv) = Rint ->
            fun st fr ->
              charge st ctrs k_store limit;
              let ir = fr.fr_iregs in
              Array.unsafe_set ir rp (nrm (Array.unsafe_get ir rv));
              next st fr
          | Pimm (Mval.Vint imm) ->
            let c = nrm (Int64.to_int imm) in
            fun st fr ->
              charge st ctrs k_store limit;
              Array.unsafe_set fr.fr_iregs rp c;
              next st fr
          | _ ->
            let g = iget v in
            fun st fr ->
              charge st ctrs k_store limit;
              Array.unsafe_set fr.fr_iregs rp (nrm (g fr));
              next st fr
        end
        | Rfloat ->
          let g = fget v in
          if s = Irtype.F32 then
            fun st fr ->
              charge st ctrs k_store limit;
              Array.unsafe_set fr.fr_fregs rp (Scalar.round_to_f32 (g fr));
              next st fr
          else
            fun st fr ->
              charge st ctrs k_store limit;
              Array.unsafe_set fr.fr_fregs rp (g fr);
              next st fr
        | Rbox ->
          let g = getter v in
          fun st fr ->
            charge st ctrs k_store limit;
            let x = try f (g fr) with Merror.Error _ as e -> at st fr; raise e in
            Array.unsafe_set fr.fr_regs rp x;
            next st fr
      end
      | Palloca (r, mty, size) ->
        fun st fr ->
          charge st ctrs k_alloca limit;
          let obj = Mobject.alloc ~storage:Merror.Stack ~mty size in
          fr.fr_regs.(r) <- Mval.Vptr (Mobject.Pobj { Mobject.obj; moff = 0 });
          next st fr
      | Pload (r, s, p) when small s ->
        let size = Irtype.scalar_size s in
        let fast = iload_fast s in
        let norm = Scalar.Small.normalize s in
        let observe = s <> Irtype.I8 in
        let set = iset r in
        (* the hottest operation in alloca-based code (every read of a
           local): for the dominant register-pointer/unboxed-result
           shapes everything is inlined — the register reads, the
           pointer access, the byte load and the result write *)
        (match p with
        | Preg rp when cls.(rp) = Rbox && cls.(r) = Rint ->
          fun st fr ->
            charge st ctrs k_load limit;
            let a =
              match Array.unsafe_get fr.fr_regs rp with
              | Mval.Vptr (Mobject.Pobj a) -> a
              | pm -> guard at st fr deref_c ctx pm
            in
            let obj = a.Mobject.obj in
            if observe then observe_memento heap obj s;
            let off = a.Mobject.moff in
            let v =
              match (obj.Mobject.data, obj.Mobject.init_map) with
              | Some b, None
                when off >= 0 && off + size <= obj.Mobject.byte_size ->
                fast b off
              | _ -> norm (Int64.to_int (guard at st fr (Mobject.load_int ~size) a ctx))
            in
            Array.unsafe_set fr.fr_iregs r v;
            next st fr
        | p ->
          let g = getter p in
          fun st fr ->
            charge st ctrs k_load limit;
            let a =
              match g fr with
              | Mval.Vptr (Mobject.Pobj a) -> a
              | pm -> guard at st fr deref_c ctx pm
            in
            let obj = a.Mobject.obj in
            if observe then observe_memento heap obj s;
            let off = a.Mobject.moff in
            let v =
              match (obj.Mobject.data, obj.Mobject.init_map) with
              | Some b, None
                when off >= 0 && off + size <= obj.Mobject.byte_size ->
                fast b off
              | _ -> norm (Int64.to_int (guard at st fr (Mobject.load_int ~size) a ctx))
            in
            set fr v;
            next st fr)
      | Pload (r, s, p) when (s = Irtype.F32 || s = Irtype.F64) && cls.(r) = Rfloat ->
        let size = Irtype.scalar_size s in
        let fast = fload_fast s in
        (* float loads always observe heap mementos (s <> I8) *)
        (match p with
        | p ->
          let g = getter p in
          fun st fr ->
            charge st ctrs k_load limit;
            let a =
              match g fr with
              | Mval.Vptr (Mobject.Pobj a) -> a
              | pm -> guard at st fr deref_c ctx pm
            in
            let obj = a.Mobject.obj in
            observe_memento heap obj s;
            let off = a.Mobject.moff in
            let v =
              match (obj.Mobject.data, obj.Mobject.init_map) with
              | Some b, None
                when off >= 0 && off + size <= obj.Mobject.byte_size ->
                fast b off
              | _ -> guard at st fr (Mobject.load_float ~size) a ctx
            in
            Array.unsafe_set fr.fr_fregs r v;
            next st fr)
      | Pload (r, s, p) ->
        let size = Irtype.scalar_size s in
        (* I64: bounds+liveness inline, [Mobject] on any slow branch;
           the others have no fast path *)
        let load : state -> frame -> Mobject.addr -> Mval.t =
          match s with
          | Irtype.Ptr ->
            fun st fr a ->
              Mval.Vptr (try Mobject.load_ptr a ctx with Merror.Error _ as e -> at st fr; raise e)
          | Irtype.F32 | Irtype.F64 ->
            let load a ctx = Mobject.load_float a ~size ctx in
            fun st fr a -> Mval.Vfloat (guard at st fr load a ctx)
          | _ ->
            fun st fr a ->
              let obj = a.Mobject.obj and off = a.Mobject.moff in
              match (obj.Mobject.data, obj.Mobject.init_map) with
              | Some b, None when off >= 0 && off + 8 <= obj.Mobject.byte_size ->
                Mval.Vint (Bytes.get_int64_le b off)
              | _ -> Mval.Vint (guard at st fr (Mobject.load_int ~size:8) a ctx)
        in
        (* allocation-memento observation applies to non-i8 heap
           accesses only; the predicate on the scalar is compile-time *)
        (match p with
        | Preg rp when cls.(rp) = Rbox ->
          fun st fr ->
            charge st ctrs k_load limit;
            let a =
              match Array.unsafe_get fr.fr_regs rp with
              | Mval.Vptr (Mobject.Pobj a) -> a
              | pm -> guard at st fr deref_c ctx pm
            in
            observe_memento heap a.Mobject.obj s;
            fr.fr_regs.(r) <- load st fr a;
            next st fr
        | p ->
          let g = getter p in
          fun st fr ->
            charge st ctrs k_load limit;
            let a =
              match g fr with
              | Mval.Vptr (Mobject.Pobj a) -> a
              | pm -> guard at st fr deref_c ctx pm
            in
            observe_memento heap a.Mobject.obj s;
            fr.fr_regs.(r) <- load st fr a;
            next st fr)
      | Pstore (s, v, p) when small s ->
        let gv = iget v in
        let size = Irtype.scalar_size s in
        let fast = istore_fast s in
        let observe = s <> Irtype.I8 in
        (* operand order matches the interpreter — pointer, then value
           — and a plain register read cannot raise, so inlining the
           pointer read keeps every raise point in place *)
        (match p with
        | Preg rp when cls.(rp) = Rbox ->
          fun st fr ->
            charge st ctrs k_store limit;
            let pm = Array.unsafe_get fr.fr_regs rp in
            let vv = gv fr in
            let a =
              match pm with
              | Mval.Vptr (Mobject.Pobj a) -> a
              | pm -> guard at st fr deref_c ctx pm
            in
            let obj = a.Mobject.obj in
            if observe then observe_memento heap obj s;
            let off = a.Mobject.moff in
            (match (obj.Mobject.data, obj.Mobject.init_map) with
            | Some b, None
              when off >= 0
                   && off + size <= obj.Mobject.byte_size
                   && obj.Mobject.ptr_slots = None ->
              fast b off vv
            | _ -> guard at st fr (Mobject.store_int a ~size) (Int64.of_int vv) ctx);
            next st fr
        | p ->
          let gp = getter p in
          fun st fr ->
            charge st ctrs k_store limit;
            let pp = gp fr in
            let vv = gv fr in
            let a =
              match pp with
              | Mval.Vptr (Mobject.Pobj a) -> a
              | pm -> guard at st fr deref_c ctx pm
            in
            let obj = a.Mobject.obj in
            if observe then observe_memento heap obj s;
            let off = a.Mobject.moff in
            (match (obj.Mobject.data, obj.Mobject.init_map) with
            | Some b, None
              when off >= 0
                   && off + size <= obj.Mobject.byte_size
                   && obj.Mobject.ptr_slots = None ->
              fast b off vv
            | _ -> guard at st fr (Mobject.store_int a ~size) (Int64.of_int vv) ctx);
            next st fr)
      | Pstore (s, v, p) when s = Irtype.F32 || s = Irtype.F64 ->
        let gv = fget v in
        let size = Irtype.scalar_size s in
        let fast = fstore_fast s in
        (* float stores always observe heap mementos (s <> I8) *)
        (match p with
        | p ->
          let gp = getter p in
          fun st fr ->
            charge st ctrs k_store limit;
            let pp = gp fr in
            let vv = gv fr in
            let a =
              match pp with
              | Mval.Vptr (Mobject.Pobj a) -> a
              | pm -> guard at st fr deref_c ctx pm
            in
            let obj = a.Mobject.obj in
            observe_memento heap obj s;
            let off = a.Mobject.moff in
            (match (obj.Mobject.data, obj.Mobject.init_map) with
            | Some b, None
              when off >= 0
                   && off + size <= obj.Mobject.byte_size
                   && obj.Mobject.ptr_slots = None ->
              fast b off vv
            | _ -> guard at st fr (Mobject.store_float a ~size) vv ctx);
            next st fr)
      | Pstore (s, v, p) ->
        let gv = getter v and gp = getter p in
        let size = Irtype.scalar_size s in
        let store : Mobject.addr -> Mval.t -> unit =
          match s with
          | Irtype.Ptr -> fun a x -> Mobject.store_ptr a (Mval.as_ptr ctx x) ctx
          | _ -> fun a x -> Mobject.store_int a ~size (Mval.as_int x) ctx
        in
        fun st fr ->
          charge st ctrs k_store limit;
          let pp = gp fr in
          let vv = gv fr in
          let a =
            match pp with
            | Mval.Vptr (Mobject.Pobj a) -> a
            | pm -> guard at st fr deref_c ctx pm
          in
          observe_memento heap a.Mobject.obj s;
          guard at st fr store a vv;
          next st fr
      | Pgep (r, base, g) ->
        let gb = getter base in
        let apply st fr delta (pm : Mval.t) : Mval.t =
          match
            match pm with
            | Mval.Vptr p -> p
            | pm -> guard at st fr Mval.as_ptr ctx pm
          with
          | Mobject.Pnull -> Mval.Vptr Mobject.Pnull
          | Mobject.Pobj a ->
            Mval.Vptr
              (Mobject.Pobj { a with Mobject.moff = a.Mobject.moff + delta })
          | Mobject.Pfunc _ as p ->
            Mval.Vptr
              (Mobject.Pinvalid
                 (Int64.add (Mobject.ptr_to_int p) (Int64.of_int delta)))
          | Mobject.Pinvalid c ->
            Mval.Vptr (Mobject.Pinvalid (Int64.add c (Int64.of_int delta)))
        in
        let static = g.pg_static in
        (match g.pg_dyn with
        | [||] ->
          fun st fr ->
            charge st ctrs k_gep limit;
            fr.fr_regs.(r) <- apply st fr static (gb fr);
            next st fr
        | [| (iv, stride) |] ->
          let gi = iget iv in
          fun st fr ->
            charge st ctrs k_gep limit;
            let b = gb fr in
            let d = static + (gi fr * stride) in
            fr.fr_regs.(r) <- apply st fr d b;
            next st fr
        | dyn ->
          let gis = Array.map (fun (v, stride) -> (iget v, stride)) dyn in
          fun st fr ->
            charge st ctrs k_gep limit;
            let b = gb fr in
            let d = ref static in
            for i = 0 to Array.length gis - 1 do
              let gi, stride = gis.(i) in
              d := !d + (gi fr * stride)
            done;
            fr.fr_regs.(r) <- apply st fr !d b;
            next st fr)
      | Pbinop (r, op, s, a, b, _) when binop_kind op = k_ibinop && small s ->
        let f = ints (Scalar.Small.binop ~div0 op s) in
        (match (a, b) with
        | Preg ra, Preg rb
          when cls.(ra) = Rint && cls.(rb) = Rint && cls.(r) = Rint ->
          fun st fr ->
            charge st ctrs k_ibinop limit;
            let ir = fr.fr_iregs in
            Array.unsafe_set ir r
              (f (Array.unsafe_get ir ra) (Array.unsafe_get ir rb));
            next st fr
        | a, b ->
          let ga = iget a and gb = iget b in
          let set = iset r in
          fun st fr ->
            charge st ctrs k_ibinop limit;
            (* right-to-left like the interpreter's application order *)
            let y = gb fr in
            set fr (f (ga fr) y);
            next st fr)
      | Pbinop (r, op, s, a, b, _) when binop_kind op = k_fbinop ->
        let f = floats (Scalar.binop ~div0 op s) in
        (match (a, b) with
        | Preg ra, Preg rb
          when cls.(ra) = Rfloat && cls.(rb) = Rfloat && cls.(r) = Rfloat ->
          fun st fr ->
            charge st ctrs k_fbinop limit;
            let fl = fr.fr_fregs in
            Array.unsafe_set fl r
              (f (Array.unsafe_get fl ra) (Array.unsafe_get fl rb));
            next st fr
        | a, b ->
          let ga = fget a and gb = fget b in
          let set = fset r in
          fun st fr ->
            charge st ctrs k_fbinop limit;
            let y = gb fr in
            set fr (f (ga fr) y);
            next st fr)
      | Pbinop (r, op, _, a, b, f) ->
        let k = binop_kind op in
        let f =
          if divides op then fun x y -> guard at st0 (List.hd st0.frames) f x y
          else f
        in
        let ga = getter a and gb = getter b in
        fun st fr ->
          charge st ctrs k limit;
          let y = gb fr in
          fr.fr_regs.(r) <- f (ga fr) y;
          next st fr
      | Picmp (r, op, s, a, b, _) when small s ->
        let cmp = Scalar.Small.icmp op s in
        (match (a, b) with
        | Preg ra, Preg rb
          when cls.(ra) = Rint && cls.(rb) = Rint && cls.(r) = Rint ->
          fun st fr ->
            charge st ctrs k_icmp limit;
            let ir = fr.fr_iregs in
            Array.unsafe_set ir r
              (if cmp (Array.unsafe_get ir ra) (Array.unsafe_get ir rb) then 1
               else 0);
            next st fr
        | a, b ->
          let ga = iget a and gb = iget b in
          if cls.(r) = Rint then
            fun st fr ->
              charge st ctrs k_icmp limit;
              let y = gb fr in
              Array.unsafe_set fr.fr_iregs r (if cmp (ga fr) y then 1 else 0);
              next st fr
          else
            fun st fr ->
              charge st ctrs k_icmp limit;
              let y = gb fr in
              fr.fr_regs.(r) <- (if cmp (ga fr) y then vtrue else vfalse);
              next st fr)
      | Picmp (r, _, _, a, b, cmp) ->
        let ga = getter a and gb = getter b in
        let set = iset r in
        fun st fr ->
          charge st ctrs k_icmp limit;
          let y = Mval.as_int (gb fr) in
          set fr (if cmp (Mval.as_int (ga fr)) y then 1 else 0)
          |> fun () -> next st fr
      | Pfcmp (r, _, a, b, cmp) ->
        (match (a, b) with
        | Preg ra, Preg rb
          when cls.(ra) = Rfloat && cls.(rb) = Rfloat && cls.(r) = Rint ->
          fun st fr ->
            charge st ctrs k_fcmp limit;
            let fl = fr.fr_fregs in
            Array.unsafe_set fr.fr_iregs r
              (if cmp (Array.unsafe_get fl ra) (Array.unsafe_get fl rb) then 1
               else 0);
            next st fr
        | a, b ->
          let ga = fget a and gb = fget b in
          if cls.(r) = Rint then
            fun st fr ->
              charge st ctrs k_fcmp limit;
              let y = gb fr in
              Array.unsafe_set fr.fr_iregs r (if cmp (ga fr) y then 1 else 0);
              next st fr
          else
            fun st fr ->
              charge st ctrs k_fcmp limit;
              let y = gb fr in
              fr.fr_regs.(r) <- (if cmp (ga fr) y then vtrue else vfalse);
              next st fr)
      | Pcast (r, op, from, into, v, boxed) ->
        (* one charge, then [set (f (get))]; the carriers mirror the
           classification of the result register above *)
        let conv get f set : cont =
         fun st fr ->
          charge st ctrs k_cast limit;
          set fr (f (get fr));
          next st fr
        in
        let fl = Irtype.is_float_scalar in
        let rint = match v with Preg rv -> cls.(rv) = Rint | _ -> false in
        let unboxed =
          match op with
          | Instr.Trunc | Instr.Sext | Instr.Zext | Instr.Fptosi
          | Instr.Fptoui ->
            small into
          | Instr.Fptrunc | Instr.Fpext -> true
          | Instr.Sitofp | Instr.Uitofp -> rint && small from
          | Instr.Bitcast ->
            (fl from && into = Irtype.I32)
            || ((not (fl from)) && into = Irtype.F32 && rint)
          | Instr.Ptrtoint | Instr.Inttoptr -> false
        in
        if unboxed then
          match Scalar.Small.cast op from into with
          | Scalar.Int_to_int f -> conv (iget v) f (iset r)
          | Scalar.Float_to_int f -> conv (fget v) f (iset r)
          | Scalar.Int_to_float f -> conv (iget v) f (fset r)
          | Scalar.Float_to_float f -> conv (fget v) f (fset r)
        else (
          let boxed_int =
            let g = getter v in
            fun fr -> Mval.as_int (g fr)
          in
          match (op, Scalar.cast op from into) with
          | (Instr.Sitofp | Instr.Uitofp | Instr.Bitcast), Scalar.Int_to_float f
            ->
            conv boxed_int f (fset r)
          | (Instr.Trunc | Instr.Sext | Instr.Zext), Scalar.Int_to_int f ->
            conv boxed_int f (fun fr x -> fr.fr_regs.(r) <- Mval.Vint x)
          | _ -> conv (getter v) boxed (fun fr x -> fr.fr_regs.(r) <- x))
      | Psancheck ->
        fun st fr ->
          charge st ctrs k_sancheck limit;
          next st fr
      | Pcall (r, callee, pargs, scalars) -> begin
        match Hashtbl.find_opt isites key with
        | Some site ->
          (* Inlined direct call: the callee's blocks were compiled as
             an instance at a disjoint register window; replay the
             interpreter's call protocol without the frame push.
             Order, as in [exec_instrs]/[call_function]: call charge
             (into the caller's [k_call] count), argument evaluation
             (ascending), depth increment and guard (context =
             caller's: the interpreter checks before pushing the
             callee frame), callee's c_invocations, then the callee
             entry. *)
          let callee_pf = site.is_callee in
          let cctrs = callee_pf.pf_counters in
          let centry, _ccells =
            instance callee_pf site.is_blocks empty_sites
              (Ret_inline (r, next)) (Some blk.pb_locs.(i))
          in
          (* Guest-profiler enter: fires after the call charge (so the
             call instruction is attributed to the caller, as in
             [call_function]) and before any callee charge.  Wrapping
             [centry] keeps the non-profiling closure untouched. *)
          let centry =
            match prof with
            | None -> centry
            | Some p ->
              let cname = callee_pf.pf_name in
              fun st fr ->
                Profile.enter p ~steps:st.steps cname;
                centry st fr
          in
          let na = Array.length pargs in
          let gs = Array.map getter pargs in
          let params = site.is_params in
          let bound = min (Array.length params) na in
          fun st fr ->
            charge st ctrs k_call limit;
            (* direct writes into the callee window are equivalent to
               the interpreter's argv: the windows are disjoint, so
               later argument reads cannot observe them *)
            for k = 0 to bound - 1 do
              fr.fr_regs.(params.(k)) <- gs.(k) fr
            done;
            for k = bound to na - 1 do
              ignore (gs.(k) fr)
            done;
            st.depth <- st.depth + 1;
            if st.depth > depth_limit then begin
              at st fr;
              Merror.raise_error Merror.Stack_overflow_guard ctx
            end;
            cctrs.c_invocations <- cctrs.c_invocations + 1;
            centry st fr
        | None ->
          let na = Array.length pargs in
          let gs = Array.map getter pargs in
          let eval_args fr =
            let argv = Array.make na Mval.zero in
            for k = 0 to na - 1 do
              argv.(k) <- gs.(k) fr
            done;
            argv
          in
          let finish : frame -> Mval.t option -> unit =
            if r < 0 then fun _ _ -> ()
            else fun fr res ->
              fr.fr_regs.(r) <- (match res with Some v -> v | None -> Mval.zero)
          in
          (match callee with
          | Pdirect tgt -> begin
            (* direct targets were linked when [pf] was prepared, so
               the target is known at compile time *)
            match tgt with
            | Tgt_user callee_pf ->
              fun st fr ->
                charge st ctrs k_call limit;
                (try finish fr (call_function st callee_pf (eval_args fr) scalars)
                 with Merror.Error _ as e -> at st fr; raise e);
                next st fr
            | Tgt_builtin (_, fn) ->
              fun st fr ->
                charge st ctrs k_call limit;
                (try finish fr (fn st (eval_args fr))
                 with Merror.Error _ as e -> at st fr; raise e);
                next st fr
            | Tgt_unknown name ->
              fun st fr ->
                charge st ctrs k_call limit;
                ignore (eval_args fr);
                failwith ("interp: unknown builtin " ^ name)
          end
          | Pindirect (v, ret) ->
            let gv = getter v in
            fun st fr ->
              charge st ctrs k_call limit;
              let argv = eval_args fr in
              (try
                 let tgt = indirect_target st ctx (gv fr) ret scalars in
                 finish fr (exec_target st tgt argv scalars)
               with Merror.Error _ as e -> at st fr; raise e);
              next st fr)
      end
    in

    (* --- blocks: fold the instruction chain onto the terminator --- *)
    let compile_block (blk : pblock) : cont =
      let n = Array.length blk.pb_instrs in
      let rec build i acc =
        if i < 0 then acc else build (i - 1) (compile_instr blk i acc)
      in
      build (n - 1) (compile_term blk.pb_term blk.pb_locs.(n))
    in

    for j = 0 to nblocks - 1 do
      cells.(j) := compile_block iblocks.(j)
    done;
    (* Guest-profiler block notes: when profiling, wrap every block
       cell so entering the block flushes the step delta into the
       previous block and switches attribution — the same point the
       interpreter notes in [exec_instrs], i.e. after the edge's phi
       copies (credited to the predecessor, [compile_jump] runs them
       before dereferencing the cell).  When not profiling the cells
       stay untouched: zero cost. *)
    (match prof with
    | None -> ()
    | Some p ->
      for j = 0 to nblocks - 1 do
        let inner = !(cells.(j)) in
        let bs =
          Profile.block_stat p ~func:ipf.pf_name ~label:iblocks.(j).pb_label
        in
        cells.(j) :=
          fun st fr ->
            Profile.note_block p ~steps:st.steps bs;
            inner st fr
      done);
    let c0 = cells.(0) in
    ((fun st fr -> !c0 st fr), cells)
  in

  let entry, cells = instance pf pf.pf_blocks sites Ret_fun None in

  let cb_frame, cb_osr = frames pf cls cells in
  { cb_entry = entry; cb_osr; cb_frame }
