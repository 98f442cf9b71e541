(** The LLVM-IR interpreter at the core of Safe Sulong (paper §3).

    It executes both the user application and the managed libc.  Every
    load, store and free goes through [Mobject]'s automatic checks, so
    all the paper's error classes are detected without any explicit
    instrumentation of the program.  Host builtins (the functions
    "implemented in Java" in the paper) provide the system-call layer:
    character I/O, exit, the variadic-argument introspection functions
    [count_varargs]/[get_vararg], and the allocation primitives.

    Execution follows a prepare -> execute architecture (see DESIGN.md
    §5c).  [create] materializes every global and registers every
    function; [prepare] compiles one function, at its first call, into a
    fully resolved form — branch targets are block indices carrying
    pre-compiled phi parallel-copies, immediates are pre-boxed [Mval.t]s,
    global references are resolved to their objects, and direct call
    sites are linked to their user function or host builtin — so the hot
    loop performs no string hashing or comparison per executed branch,
    phi, switch or direct call.  This mirrors what Truffle's partial
    evaluation removes ahead of time in the paper's system; preparing on
    first call keeps the start-up cost proportional to the code a run
    enters, not to the whole linked module (most of it libc).

    The interpreter also collects an execution profile (per-function
    dynamic operation counts by kind) that the tier controller, the
    metrics and the JIT cost model (lib/jit) read; the cost model
    reproduces the paper's start-up/warm-up/peak measurements from it.
    The pre-resolution pass is profile-transparent: every operation is
    charged to the same kind counter as in the naive interpreter. *)

exception Exit_program of int
exception Step_limit_exceeded

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

(* Operation kinds: every charged operation counts once, into its
   function's counter for its kind.  The hotness total, the cost
   classes of the cycle model and the [interp.op.*] metrics are sums
   over these counters. *)
let k_alloca = 0
let k_load = 1
let k_store = 2
let k_gep = 3
let k_ibinop = 4
let k_fbinop = 5
let k_icmp = 6
let k_fcmp = 7
let k_cast = 8
let k_sancheck = 9
let k_call = 10
let k_term = 11
let k_phi = 12

let kind_names =
  [| "alloca"; "load"; "store"; "gep"; "binop.int"; "binop.float"; "icmp";
     "fcmp"; "cast"; "sancheck"; "call"; "terminator"; "phi_copy" |]

let n_kinds = Array.length kind_names

(** The metric a kind's count is reported under. *)
let kind_metric k =
  if k = k_phi then "interp.phi_copies"
  else if k = k_ibinop || k = k_fbinop then "interp.op.binop"
  else "interp.op." ^ kind_names.(k)

(* The kind of a binop: [FAdd]/[FSub]/[FMul]/[FDiv] are float work. *)
let binop_kind (op : Instr.binop) =
  match op with
  | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv -> k_fbinop
  | _ -> k_ibinop

type counters = {
  c_kinds : int array;  (** operations executed, indexed by kind *)
  mutable c_invocations : int;  (** times this function was entered *)
}

let fresh_counters () = { c_kinds = Array.make n_kinds 0; c_invocations = 0 }

let total_ops (c : counters) =
  let a = c.c_kinds in
  let n = ref 0 in
  for k = 0 to n_kinds - 1 do
    n := !n + Array.unsafe_get a k
  done;
  !n

type profile = {
  funcs : (string, counters) Hashtbl.t;
  mutable p_allocs : int;
  mutable p_alloc_bytes : int;
}

let fresh_profile () =
  { funcs = Hashtbl.create 32; p_allocs = 0; p_alloc_bytes = 0 }

(* ------------------------------------------------------------------ *)
(* Prepared code                                                       *)
(* ------------------------------------------------------------------ *)

(* The prepared form is fully linked: every name the IR refers to has
   been resolved at prepare time, every immediate is a pre-boxed
   managed value, and control-flow edges carry their phi parallel-copy.
   The only work left per operand is an array read.  Only a module that
   passed [Verify] is prepared, so every global, block and phi entry it
   names exists; the one reference left to fail at run time is a call
   to a name nothing defines ([Tgt_unknown]). *)

type pval =
  | Preg of int             (** read a register of the current frame *)
  | Pimm of Mval.t          (** pre-boxed constant (immediates, globals,
                                function addresses, null) *)

(** Pre-split GEP: constant field offsets and constant indices are folded
    into one static byte delta; only truly dynamic indices remain. *)
type pgep = { pg_static : int; pg_dyn : (pval * int) array }

(** Phi parallel-copy attached to a CFG edge: all sources are read before
    any destination is written (LLVM phi semantics). *)
type phicopy =
  | Pc_none
  | Pc_copy of int array * pval array  (** destination regs, sources *)

type pedge = Edge of int * phicopy  (** target block index + phi copies *)

type pterm =
  | Pret of pval option
  | Pbr of pedge
  | Pcondbr of pval * pedge * pedge
  | Pswitch of pval * int64 array * pedge array * pedge
      (** (value, case keys, their edges, default), scanned in order *)
  | Punreachable

(* Each outgoing edge of a prepared terminator (interp.mli). *)
let iter_edges f = function
  | Pret _ | Punreachable -> ()
  | Pbr e -> f e
  | Pcondbr (_, a, b) ->
    f a;
    f b
  | Pswitch (_, _, edges, default) ->
    Array.iter f edges;
    f default

type pinstr =
  | Palloca of int * Irtype.mty * int  (** (reg, type, precomputed size) *)
  | Pload of int * Irtype.scalar * pval
  | Pstore of Irtype.scalar * pval * pval
  | Pslot_alloca of int * Irtype.scalar
      (** a scalar-replaced alloca: the slot's register and scalar *)
  | Pslot_load of int * Irtype.scalar * int  (** (result reg, scalar, slot) *)
  | Pslot_store of Irtype.scalar * pval * int * (Mval.t -> Mval.t)
      (** (scalar, value, slot, the store's replay, [slot_store]) *)
  | Pgep of int * pval * pgep
  | Pbinop of
      int * Instr.binop * Irtype.scalar * pval * pval
      * (Mval.t -> Mval.t -> Mval.t)
      (** the last field is the [Scalar] operation, staged at prepare
          time and wrapped over managed values *)
  | Picmp of
      int * Instr.icmp * Irtype.scalar * pval * pval * (int64 -> int64 -> bool)
  | Pfcmp of int * Instr.fcmp * pval * pval * (float -> float -> bool)
  | Pcast of
      int * Instr.cast * Irtype.scalar * Irtype.scalar * pval * (Mval.t -> Mval.t)
  | Psancheck
  | Pcall of int * pcallee * pval array * Irtype.scalar array
      (** (result reg or -1, callee, prepared args, arg scalars) *)

and pcallee =
  | Pdirect of call_target  (** resolved when the caller is prepared *)
  | Pindirect of pval * Irtype.scalar option
      (** resolved by name at each call; the call's result type *)

(** Where a call goes, resolved ahead of execution.  Builtins carry
    their name so the closure compiler can recognize the effect-free
    ones when deciding whether a callee is inlinable. *)
and call_target =
  | Tgt_user of pfunc
  | Tgt_builtin of string * (state -> Mval.t array -> Mval.t option)
  | Tgt_unknown of string  (** raises the unprepared interpreter's
                               "unknown builtin" error when called *)

and pblock = {
  pb_label : string;
  pb_instrs : pinstr array;  (** phis excluded; they live on the edges *)
  pb_term : pterm;
  pb_locs : (int * int) array;
      (** each instruction's, then the terminator's, static location
          (interp.mli); read only by [locate] *)
  pb_index : int;            (** position in [pf_blocks] *)
  mutable pb_osr : bool;
      (** loop header: target of some back edge.  The interpreter probes
          the tier controller here, so a single long-running call (one
          hot [main] loop) can enter compiled code mid-invocation via
          on-stack replacement. *)
}

and pfunc = {
  pf_ir : Irfunc.t;
  pf_name : string;
  pf_context : string;        (** "in function <name>", built once *)
  mutable pf_prepared : bool;
      (** [prepare] built the body below; until then [pf_blocks] is
          empty and means nothing (an unprepared function is not a
          function with zero blocks) *)
  mutable pf_blocks : pblock array;  (** the entry block first *)
  pf_nregs : int;             (** register file size, >= 1 *)
  pf_nparams : int;
  pf_param_regs : int array;  (** parameter registers, in order *)
  pf_variadic : bool;
  pf_counters : counters;
  mutable pf_tier : tier;     (** current execution tier of this function *)
}

(* ------------------------------------------------------------------ *)
(* Tiered execution                                                    *)
(* ------------------------------------------------------------------ *)

(* The interpreter is tier 1.  A state may carry a tier controller
   ([tierctl], built by lib/jit): at every call it checks whether the
   callee's accumulated operation counters crossed the hotness threshold
   and, if so, swaps the function's entry to a compiled closure
   ([compiled_body], produced by the closure compiler over the prepared
   representation below).  The compiled body is observably equivalent to
   the interpreter — same outputs, same [steps] accounting (hence the
   same timeout point), same managed errors and reports — except faster.
   When a managed error fires inside compiled code the function
   *deoptimizes*: it is permanently dropped back to the interpreter and
   the error propagates, its frames located as the interpreter's. *)

and tier =
  | Tier_interp                (** cold: threaded interpreter *)
  | Tier_compiled of compiled  (** hot: closure-compiled (tier 2) *)
  | Tier_deopt
      (** a managed error fired in compiled code; the function stays in
          the interpreter for the rest of the run *)

(** A compiled function: the normal entry plus, when the function has
    loop headers, an on-stack-replacement entry that starts execution at
    an arbitrary block index after transferring the interpreter frame
    into the compiled register files. *)
and compiled = {
  cb_entry : compiled_body;
  cb_osr : osr_body option;
  cb_frame : Mval.t array -> Irtype.scalar array -> frame;
      (** build a frame with the compiled register-file layout installed
          and parameters copied *)
}

(** A compiled function body: runs the function from its entry block in
    an already-set-up frame (registers allocated, parameters copied). *)
and compiled_body = state -> frame -> Mval.t option

(** OSR entry: [osr st fr idx] resumes mid-invocation at block [idx],
    whose phi copies the interpreter has already executed. *)
and osr_body = state -> frame -> int -> Mval.t option

(** Tier controller: policy ([tc_hot], shared with the warm-up
    simulation via [Jit.Hotness]) + mechanism ([tc_compile], the closure
    compiler).  Kept abstract here so lib/interp does not depend on
    lib/jit. *)
and tierctl = {
  tc_hot : counters -> bool;
  tc_compile : state -> pfunc -> compiled;
}

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

and frame = {
  fr_func : pfunc;
  mutable fr_regs : Mval.t array;
      (** boxed register file.  Mutable because a compiled body that
          inlined callees re-installs an enlarged file covering the
          callees' register ranges. *)
  mutable fr_iregs : int array;
      (** unboxed small-integer register file, used only by compiled
          bodies (the closure compiler proves which registers always
          hold <=32-bit integers and keeps them out of [fr_regs]);
          [[||]] in interpreted frames *)
  mutable fr_fregs : float array;
      (** unboxed F32/F64 register file (compiled bodies only) *)
  mutable fr_args : Mval.t array;  (** all incoming arguments *)
  mutable fr_arg_scalars : Irtype.scalar array;
  fr_variadic : bool;
  fr_nparams : int;
  mutable fr_line : int;  (** written only by a managed error ([locate]) *)
  mutable fr_col : int;
}

and state = {
  m : Irmod.t;
  funcs : (string, pfunc) Hashtbl.t;
  globals : (string, Mobject.t) Hashtbl.t;
  heap : Mheap.t;
  out : Buffer.t;
  mutable input : string;
  mutable input_pos : int;
  mutable steps : int;
  step_limit : int;
  mutable depth : int;
  profile : profile;
  mutable frames : frame list;  (** innermost first *)
  rng : Prng.t;                 (** backs the libc rand() builtin *)
  trace : Buffer.t option;      (** call tracing, when enabled *)
  obs : bool;                   (** metrics enabled at create time *)
  tier : tierctl option;        (** tier controller; [None]: interp only *)
  prof : Profile.t option;
      (** guest profiler handle; [None] (the default) keeps the hot
          paths at one predictable branch per block/call.  Shared with
          compiled bodies: the closure compiler captures it at compile
          time, so both tiers attribute into the same books. *)
  detect_uninit : bool;         (** uninitialized-read detection, kept so
                                    [reset] can restore the global flag *)
  mutable snapshot : Mobject.checkpoint option;
      (** object-registry state right after [create]; reinstalled by
          [reset] so re-runs replay the same observable object ids *)
}

let context st =
  match st.frames with
  | fr :: _ -> fr.fr_func.pf_context
  | [] -> "at top level"

(** Calls nest at most this deep; the next one raises the managed
    stack-overflow guard. *)
let depth_limit = 4096

(** The seed of the rng behind the libc's rand(), at every run start. *)
let rng_seed = 42

(* ------------------------------------------------------------------ *)
(* Global materialization                                              *)
(* ------------------------------------------------------------------ *)

(* Store [g]'s initial image into its object: the one layout walker
   ([Irmod.iter_init]) says where each leaf lands. *)
let fill_init st (obj : Mobject.t) (g : Irmod.global) =
  let store off (leaf : Irmod.leaf) =
    let a = { Mobject.obj; moff = off } in
    match leaf with
    | Irmod.Lint (s, v) ->
      Mobject.store_int a ~size:(Irtype.scalar_size s) v "global init"
    | Irmod.Lfloat (s, f) ->
      Mobject.store_float a ~size:(Irtype.scalar_size s) f "global init"
    | Irmod.Lbytes b -> Mobject.write_bytes a b "global init"
    | Irmod.Lglobal name ->
      Mobject.store_ptr a
        (Mobject.Pobj { Mobject.obj = Hashtbl.find st.globals name; moff = 0 })
        "global init"
    | Irmod.Lfunc name -> Mobject.store_ptr a (Mobject.Pfunc name) "global init"
  in
  Irmod.iter_init store g.Irmod.g_ty g.Irmod.g_init

let materialize_globals st =
  List.iter
    (fun (g : Irmod.global) ->
      let size = Irtype.mty_size g.Irmod.g_ty in
      let obj =
        Mobject.alloc ~storage:Merror.Global ~mty:g.Irmod.g_ty size
      in
      Hashtbl.replace st.globals g.Irmod.g_name obj)
    st.m.Irmod.globals;
  List.iter
    (fun (g : Irmod.global) -> fill_init st (Hashtbl.find st.globals g.Irmod.g_name) g)
    st.m.Irmod.globals

(* ------------------------------------------------------------------ *)
(* Value evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let[@inline] pv (fr : frame) (v : pval) : Mval.t =
  match v with
  | Preg r -> fr.fr_regs.(r)
  | Pimm v -> v

(* ------------------------------------------------------------------ *)
(* Scalar operations                                                   *)
(* ------------------------------------------------------------------ *)

(* The [Scalar] kernel's operations wrapped over managed values, staged
   once per instruction at prepare time and shared with the closure
   compiler's boxed paths.  Division by zero raises the managed error
   with the context of the function the instruction belongs to. *)

let binop_fn ctx (op : Instr.binop) (s : Irtype.scalar) :
    Mval.t -> Mval.t -> Mval.t =
  let div0 () = Merror.raise_error Merror.Division_by_zero ctx in
  match Scalar.binop ~div0 op s with
  | Scalar.Ints f ->
    fun a b ->
      let x = Mval.as_int a in
      Mval.Vint (f x (Mval.as_int b))
  | Scalar.Floats f ->
    fun a b ->
      let x = Mval.as_float a in
      Mval.Vfloat (f x (Mval.as_float b))

(* Pointer casts keep the managed pointer model: [Ptrtoint] registers the
   object so its cookie can come back through [Inttoptr], and a same-class
   [Bitcast] passes pointers through untouched. *)
let cast_fn (op : Instr.cast) (from : Irtype.scalar) (into : Irtype.scalar) :
    Mval.t -> Mval.t =
  match op with
  | Instr.Inttoptr -> fun v -> Mval.Vptr (Mobject.int_to_ptr (Mval.as_int v))
  | Instr.Bitcast
    when Irtype.is_float_scalar from = Irtype.is_float_scalar into ->
    fun v -> v
  | _ -> (
    let conv =
      match Scalar.cast op from into with
      | Scalar.Int_to_int f -> fun v -> Mval.Vint (f (Mval.as_int v))
      | Scalar.Int_to_float f -> fun v -> Mval.Vfloat (f (Mval.as_int v))
      | Scalar.Float_to_int f -> fun v -> Mval.Vint (f (Mval.as_float v))
      | Scalar.Float_to_float f -> fun v -> Mval.Vfloat (f (Mval.as_float v))
    in
    match op with
    | Instr.Ptrtoint -> (
      function
      | Mval.Vptr (Mobject.Pobj a) as v ->
        Mobject.register a.Mobject.obj;
        conv v
      | Mval.Vptr (Mobject.Pfunc name) ->
        Mval.Vint (Mobject.register_func_cookie name)
      | v -> conv v)
    | _ -> conv)

(* ------------------------------------------------------------------ *)
(* Memory access                                                       *)
(* ------------------------------------------------------------------ *)

let deref st (p : Mobject.ptr) : Mobject.addr =
  match p with
  | Mobject.Pobj a -> a
  | Mobject.Pnull -> Merror.raise_error Merror.Null_deref (context st)
  | Mobject.Pfunc name ->
    Merror.raise_error
      (Merror.Type_violation ("dereference of function pointer &" ^ name))
      (context st)
  | Mobject.Pinvalid c ->
    Merror.raise_error
      (Merror.Type_violation
         (Printf.sprintf "dereference of forged pointer 0x%Lx" c))
      (context st)

let exec_load st (s : Irtype.scalar) (p : Mval.t) : Mval.t =
  let a = deref st (Mval.as_ptr (context st) p) in
  (* Allocation memento: first typed access of an untyped heap object.
     (Matches, not [=]/[<>]: no polymorphic compare per memory op.) *)
  (match (a.Mobject.obj.Mobject.storage, s) with
  | Merror.Heap, Irtype.I8 -> ()
  | Merror.Heap, _ -> Mheap.observe st.heap a.Mobject.obj s
  | _ -> ());
  match s with
  | Irtype.Ptr -> Mval.Vptr (Mobject.load_ptr a (context st))
  | Irtype.F32 | Irtype.F64 ->
    Mval.Vfloat (Mobject.load_float a ~size:(Irtype.scalar_size s) (context st))
  | _ ->
    let raw = Mobject.load_int a ~size:(Irtype.scalar_size s) (context st) in
    Mval.Vint (Scalar.normalize_int s raw)

let exec_store st (s : Irtype.scalar) (v : Mval.t) (p : Mval.t) : unit =
  let a = deref st (Mval.as_ptr (context st) p) in
  (match (a.Mobject.obj.Mobject.storage, s) with
  | Merror.Heap, Irtype.I8 -> ()
  | Merror.Heap, _ -> Mheap.observe st.heap a.Mobject.obj s
  | _ -> ());
  match s with
  | Irtype.Ptr -> Mobject.store_ptr a (Mval.as_ptr (context st) v) (context st)
  | Irtype.F32 | Irtype.F64 ->
    Mobject.store_float a ~size:(Irtype.scalar_size s) (Mval.as_float v)
      (context st)
  | _ ->
    Mobject.store_int a ~size:(Irtype.scalar_size s) (Mval.as_int v)
      (context st)

(* Scalar-replaced allocas (DESIGN.md §5c): a slot's register holds what
   a load of its object would read.  The alloca leaves the load of fresh
   zero bytes; a store leaves what the store and a load would make of
   its value, with the store's side effects: [Mval.as_int] and
   [Mobject.store_ptr] register the cookies they expose. *)
let slot_zero (s : Irtype.scalar) : Mval.t =
  match s with
  | Irtype.Ptr -> Mval.vnull
  | Irtype.F32 | Irtype.F64 -> Mval.Vfloat 0.0
  | _ -> Mval.zero

let slot_store ctx (s : Irtype.scalar) : Mval.t -> Mval.t =
  match s with
  | Irtype.Ptr ->
    fun v ->
      let p = Mval.as_ptr ctx v in
      (match p with
      | Mobject.Pfunc name -> ignore (Mobject.register_func_cookie name)
      | _ -> ignore (Mobject.ptr_to_int p));
      Mval.Vptr p
  | Irtype.F32 -> fun v -> Mval.Vfloat (Scalar.round_to_f32 (Mval.as_float v))
  | Irtype.F64 -> fun v -> Mval.Vfloat (Mval.as_float v)
  | _ -> fun v -> Mval.Vint (Scalar.normalize_int s (Mval.as_int v))

let exec_gep st (fr : frame) (base : Mval.t) (g : pgep) : Mval.t =
  (* After constant folding most GEPs have zero or one dynamic index;
     keep those paths free of closures and refs. *)
  let delta =
    match g.pg_dyn with
    | [||] -> g.pg_static
    | [| (v, stride) |] ->
      g.pg_static + (Int64.to_int (Mval.as_int (pv fr v)) * stride)
    | dyn ->
      let d = ref g.pg_static in
      for i = 0 to Array.length dyn - 1 do
        let v, stride = dyn.(i) in
        d := !d + (Int64.to_int (Mval.as_int (pv fr v)) * stride)
      done;
      !d
  in
  match Mval.as_ptr (context st) base with
  | Mobject.Pnull -> Mval.Vptr Mobject.Pnull (* checked at the access *)
  | Mobject.Pobj a -> Mval.Vptr (Mobject.Pobj { a with Mobject.moff = a.Mobject.moff + delta })
  | Mobject.Pfunc _ as p ->
    Mval.Vptr (Mobject.Pinvalid (Int64.add (Mobject.ptr_to_int p) (Int64.of_int delta)))
  | Mobject.Pinvalid c -> Mval.Vptr (Mobject.Pinvalid (Int64.add c (Int64.of_int delta)))

(* ------------------------------------------------------------------ *)
(* Builtins: the host ("Java") side of the runtime                     *)
(* ------------------------------------------------------------------ *)

let arg_int args i = Mval.as_int args.(i)
let arg_float args i = Mval.as_float args.(i)

let nearest_variadic_frame st : frame option =
  List.find_opt (fun fr -> fr.fr_variadic) st.frames

let builtin_malloc st size =
  st.profile.p_allocs <- st.profile.p_allocs + 1;
  st.profile.p_alloc_bytes <- st.profile.p_alloc_bytes + size;
  if st.obs then
    Metrics.observe_int (Metrics.histogram "heap.alloc_size_bytes") size;
  (* Allocation site: the current function gives memento locality. *)
  let site, site_name =
    match st.frames with
    | fr :: _ ->
      let name = fr.fr_func.pf_name in
      (Hashtbl.hash name, name)
    | [] -> (-1, "?")
  in
  Mheap.name_site st.heap ~site site_name;
  Mheap.malloc st.heap ~site size

let read_input_char st =
  if st.input_pos < String.length st.input then begin
    let c = st.input.[st.input_pos] in
    st.input_pos <- st.input_pos + 1;
    Char.code c
  end
  else -1

(** Resolve a builtin name to its implementation.  Called when a direct
    call site is prepared and at each indirect call. *)
let lookup_builtin (name : string) :
    (state -> Mval.t array -> Mval.t option) option =
  (* A builtin that reads its first [n] arguments.  A call passing fewer
     (through a cast function pointer, or in IR text) is a type
     violation, the same in both tiers, not a host exception. *)
  let reads n f =
    Some
      (fun st args ->
        if Array.length args < n then
          Merror.raise_error
            (Merror.Type_violation
               (Printf.sprintf "%s called with %d arguments, it reads %d" name
                  (Array.length args) n))
            (context st)
        else f st args)
  in
  match name with
  | "__sulong_putchar" ->
    reads 1
      (fun st args ->
        Buffer.add_char st.out
          (Char.chr (Int64.to_int (arg_int args 0) land 0xff));
        Some (Mval.Vint (arg_int args 0)))
  | "__sulong_exit" ->
    reads 1 (fun _st args -> raise (Exit_program (Int64.to_int (arg_int args 0))))
  | "__sulong_abort" -> Some (fun _st _args -> raise (Exit_program 134))
  | "count_varargs" ->
    Some
      (fun st _args ->
        match nearest_variadic_frame st with
        | Some fr ->
          Some
            (Mval.Vint (Int64.of_int (Array.length fr.fr_args - fr.fr_nparams)))
        | None ->
          Merror.raise_error
            (Merror.Varargs_error "count_varargs outside a variadic function")
            (context st))
  | "get_vararg" ->
    reads 1
      (fun st args ->
        let ctx = context st in
        match nearest_variadic_frame st with
        | Some fr ->
          let i = Int64.to_int (arg_int args 0) in
          let nvar = Array.length fr.fr_args - fr.fr_nparams in
          if i < 0 || i >= nvar then
            Merror.raise_error
              (Merror.Varargs_error
                 (Printf.sprintf "access to variadic argument %d of %d" i nvar))
              ctx
          else begin
            (* Expose a pointer to a cell holding the argument; the cell
               has exactly the argument's size, so over-wide reads (%ld on
               an int) are out-of-bounds (paper §3.4). *)
            let v = fr.fr_args.(fr.fr_nparams + i) in
            let s = fr.fr_arg_scalars.(fr.fr_nparams + i) in
            let size = Irtype.scalar_size s in
            let cell =
              Mobject.alloc ~storage:Merror.Vararg ~mty:(Irtype.MScalar s) size
            in
            let a = { Mobject.obj = cell; moff = 0 } in
            (match (s, v) with
            | Irtype.Ptr, _ -> Mobject.store_ptr a (Mval.as_ptr ctx v) ctx
            | (Irtype.F32 | Irtype.F64), _ ->
              Mobject.store_float a ~size (Mval.as_float v) ctx
            | _, _ -> Mobject.store_int a ~size (Mval.as_int v) ctx);
            Some (Mval.Vptr (Mobject.Pobj a))
          end
        | None ->
          Merror.raise_error
            (Merror.Varargs_error "get_vararg outside a variadic function")
            (context st))
  | "__sulong_format_pointer" ->
    reads 1 (fun _st args -> Some (Mval.Vint (Mval.as_int args.(0))))
  | "__sulong_read_char" ->
    Some (fun st _args -> Some (Mval.Vint (Int64.of_int (read_input_char st))))
  | "__sulong_unread_char" ->
    reads 1
      (fun st args ->
        if st.input_pos > 0 && Int64.to_int (arg_int args 0) >= 0 then
          st.input_pos <- st.input_pos - 1;
        Some (Mval.Vint 0L))
  | "malloc" ->
    reads 1
      (fun st args ->
        let size = Int64.to_int (arg_int args 0) in
        let obj = builtin_malloc st size in
        Some (Mval.Vptr (Mobject.Pobj { Mobject.obj; moff = 0 })))
  | "calloc" ->
    reads 2
      (fun st args ->
        let n = Int64.to_int (arg_int args 0) in
        let esize = Int64.to_int (arg_int args 1) in
        let obj = builtin_malloc st (n * esize) in
        (* calloc'd memory is zeroed, hence initialized *)
        Mobject.mark_initialized obj ~off:0 ~size:(n * esize);
        Some (Mval.Vptr (Mobject.Pobj { Mobject.obj; moff = 0 })))
  | "realloc" ->
    reads 2
      (fun st args ->
        let ctx = context st in
        let p = Mval.as_ptr ctx args.(0) in
        let size = Int64.to_int (arg_int args 1) in
        match p with
        | Mobject.Pnull ->
          let obj = builtin_malloc st size in
          Some (Mval.Vptr (Mobject.Pobj { Mobject.obj; moff = 0 }))
        | Mobject.Pobj a ->
          let old = a.Mobject.obj in
          let fresh = builtin_malloc st size in
          (* copy the overlapping prefix, bytes and pointer slots alike *)
          (match old.Mobject.data with
          | Some src ->
            let n = min size old.Mobject.byte_size in
            (match fresh.Mobject.data with
            | Some dst -> Bytes.blit src 0 dst 0 n
            | None -> ());
            (match (old.Mobject.init_map, fresh.Mobject.init_map) with
            | Some om, Some fm -> Bytes.blit om 0 fm 0 n
            | _, Some _ -> Mobject.mark_initialized fresh ~off:0 ~size:n
            | _ -> ());
            (match old.Mobject.ptr_slots with
            | None -> ()
            | Some old_slots ->
              let fresh_slots =
                match fresh.Mobject.ptr_slots with
                | Some s -> s
                | None ->
                  let s = Hashtbl.create (Hashtbl.length old_slots) in
                  fresh.Mobject.ptr_slots <- Some s;
                  s
              in
              Hashtbl.iter
                (fun off p ->
                  if off + 8 <= n then Hashtbl.replace fresh_slots off p)
                old_slots)
          | None -> Merror.raise_error Merror.Use_after_free ctx);
          Mheap.free st.heap p ctx;
          Some (Mval.Vptr (Mobject.Pobj { Mobject.obj = fresh; moff = 0 }))
        | Mobject.Pfunc _ | Mobject.Pinvalid _ ->
          Merror.raise_error
            (Merror.Invalid_free "bad pointer passed to realloc") ctx)
  | "free" ->
    reads 1
      (fun st args ->
        let ctx = context st in
        Mheap.free st.heap (Mval.as_ptr ctx args.(0)) ctx;
        None)
  | "__sulong_sqrt" ->
    reads 1 (fun _st args -> Some (Mval.Vfloat (sqrt (arg_float args 0))))
  | "__sulong_sin" ->
    reads 1 (fun _st args -> Some (Mval.Vfloat (sin (arg_float args 0))))
  | "__sulong_cos" ->
    reads 1 (fun _st args -> Some (Mval.Vfloat (cos (arg_float args 0))))
  | "__sulong_atan" ->
    reads 1 (fun _st args -> Some (Mval.Vfloat (atan (arg_float args 0))))
  | "__sulong_exp" ->
    reads 1 (fun _st args -> Some (Mval.Vfloat (exp (arg_float args 0))))
  | "__sulong_log" ->
    reads 1 (fun _st args -> Some (Mval.Vfloat (log (arg_float args 0))))
  | "__sulong_pow" ->
    reads 2
      (fun _st args ->
        Some (Mval.Vfloat (Float.pow (arg_float args 0) (arg_float args 1))))
  | "__sulong_rand" ->
    Some
      (fun st _args -> Some (Mval.Vint (Int64.of_int (Prng.int st.rng 0x7FFFFFFF))))
  | "__sulong_format_double" ->
    (* (v, conv, prec, out, cap) -> length: renders v like C's
       printf("%.*<conv>", prec, v) into the caller-provided buffer.
       The decimal conversion itself happens host-side in [Floatfmt] so
       the managed libc, the native model and the difftest oracle share
       one float renderer (DESIGN.md §10). *)
    reads 5
      (fun st args ->
        let ctx = context st in
        let v = arg_float args 0 in
        let conv = Char.chr (Int64.to_int (arg_int args 1) land 0xff) in
        let prec = Int64.to_int (arg_int args 2) in
        let cap = Int64.to_int (arg_int args 4) in
        let s = Floatfmt.format conv prec v in
        let s =
          if String.length s > max 0 (cap - 1) then
            String.sub s 0 (max 0 (cap - 1))
          else s
        in
        (match Mval.as_ptr ctx args.(3) with
        | Mobject.Pobj a ->
          Mobject.write_bytes a s ctx;
          Mobject.store_int
            { a with Mobject.moff = a.Mobject.moff + String.length s }
            ~size:1 0L ctx
        | Mobject.Pnull -> Merror.raise_error Merror.Null_deref ctx
        | Mobject.Pfunc _ | Mobject.Pinvalid _ ->
          Merror.raise_error
            (Merror.Type_violation "bad buffer passed to format_double") ctx);
        Some (Mval.Vint (Int64.of_int (String.length s))))
  | _ -> None

let is_builtin name = Option.is_some (lookup_builtin name)

(* ------------------------------------------------------------------ *)
(* Preparation: compile one function into the linked form              *)
(* ------------------------------------------------------------------ *)

(* [create] registers every function ([register]); [call_function]
   prepares a body at its first call ([prepare]).  Direct call sites are
   linked as their body is prepared: every function of the module is
   registered by then, so [resolve_callee] finds the same target an
   eager pass over the whole module would.  Preparation allocates no
   managed object, so object ids do not depend on which functions a run
   entered. *)

(** Resolve a callee name to its target: a user function shadows a
    builtin of the same name; unknown names fail only when called. *)
let resolve_callee st (name : string) : call_target =
  match Hashtbl.find_opt st.funcs name with
  | Some pf -> Tgt_user pf
  | None -> begin
    match lookup_builtin name with
    | Some fn -> Tgt_builtin (name, fn)
    | None -> Tgt_unknown name
  end

(* A call's result and argument types against its callee's declared
   ones: a type of the other class, integer or pointer versus float, is
   a type violation ([indirect_target]). *)
let class_of s = if Irtype.is_float_scalar s then "a float" else "an integer"

let class_clash ctx msg = Merror.raise_error (Merror.Type_violation msg) ctx

let check_result ctx name dret ret =
  match (dret, ret) with
  | Some d, Some c when Irtype.is_float_scalar d <> Irtype.is_float_scalar c ->
    class_clash ctx
      (Printf.sprintf "%s returns %s, called as returning %s" name (class_of d)
         (class_of c))
  | _ -> ()

(* [param] finds each parameter's type in [params]. *)
let rec check_params ctx name scalars i param = function
  | [] -> ()
  | p :: rest ->
    let d = param p in
    if i < Array.length scalars
       && Irtype.is_float_scalar d <> Irtype.is_float_scalar scalars.(i)
    then
      class_clash ctx
        (Printf.sprintf "%s takes %s as argument %d, called with %s" name
           (class_of d) (i + 1) (class_of scalars.(i)))
    else check_params ctx name scalars (i + 1) param rest

(* The target of an indirect call through [v] (interp.mli). *)
let indirect_target st ctx (v : Mval.t) (ret : Irtype.scalar option)
    (scalars : Irtype.scalar array) : call_target =
  match Mval.as_ptr ctx v with
  | Mobject.Pfunc name ->
    let tgt = resolve_callee st name in
    (match tgt with
    | Tgt_user pf ->
      check_result ctx name pf.pf_ir.Irfunc.ret ret;
      check_params ctx name scalars 0 snd pf.pf_ir.Irfunc.params
    | Tgt_builtin _ | Tgt_unknown _ -> (
      match Irmod.find_extern st.m name with
      | Some e ->
        check_result ctx name e.Irmod.e_ret ret;
        check_params ctx name scalars 0 Fun.id e.Irmod.e_params
      | None -> ()));
    tgt
  | Mobject.Pnull -> Merror.raise_error Merror.Null_deref ctx
  | Mobject.Pobj _ | Mobject.Pinvalid _ ->
    Merror.raise_error
      (Merror.Type_violation "indirect call through a data pointer") ctx

(* A reference [Verify] rejects: [prepare] never defers a failure. *)
let unverified fmt =
  Printf.ksprintf (fun msg -> invalid_arg ("Interp.prepare: " ^ msg)) fmt

(* Slot planning rides on the walk below (DESIGN.md §5c): one byte per
   register, 0 until the walk meets it, then the [slot_code] of an
   entry-block alloca's scalar while every use is the pointer of a
   whole-slot access of that scalar, and [escaped] from any other use
   on.  The walk gives a candidate's alloca and accesses their slot
   forms at once; [prepare_body] takes them back from a candidate that
   escapes later.  The entry block is walked first, so a use before
   its alloca escapes it too. *)
let escaped = '\001'

let slot_code (s : Irtype.scalar) =
  match s with
  | Irtype.I1 -> '\002' | Irtype.I8 -> '\003' | Irtype.I16 -> '\004'
  | Irtype.I32 -> '\005' | Irtype.I64 -> '\006' | Irtype.F32 -> '\007'
  | Irtype.F64 -> '\008' | Irtype.Ptr -> '\009'

let[@inline] plan_get plan r =
  if r >= 0 && r < Bytes.length plan then Bytes.unsafe_get plan r else escaped

let[@inline] escape plan r =
  if r >= 0 && r < Bytes.length plan then Bytes.unsafe_set plan r escaped

let prepare_value st plan (v : Instr.value) : pval =
  match v with
  | Instr.Reg r ->
    escape plan r;
    Preg r
  | Instr.ImmInt (v, s) -> Pimm (Mval.Vint (Scalar.normalize_int s v))
  | Instr.ImmFloat (f, _) -> Pimm (Mval.Vfloat f)
  | Instr.Null -> Pimm Mval.vnull
  | Instr.GlobalAddr name -> begin
    match Hashtbl.find_opt st.globals name with
    | Some obj -> Pimm (Mval.Vptr (Mobject.Pobj { Mobject.obj; moff = 0 }))
    | None -> unverified "unknown global @%s" name
  end
  | Instr.FuncAddr name -> Pimm (Mval.Vptr (Mobject.Pfunc name))

let prepare_instr st ctx plan ~entry (i : Instr.instr) : pinstr =
  match i with
  | Instr.Alloca (r, Irtype.MScalar s) when entry && plan_get plan r = '\000' ->
    Bytes.unsafe_set plan r (slot_code s);
    Pslot_alloca (r, s)
  | Instr.Alloca (r, mty) ->
    escape plan r;
    Palloca (r, mty, Irtype.mty_size mty)
  | Instr.Load (r, s, Instr.Reg p) when plan_get plan p = slot_code s ->
    Pslot_load (r, s, p)
  | Instr.Load (r, s, p) -> Pload (r, s, prepare_value st plan p)
  | Instr.Store (s, v, p) -> (
    let v = prepare_value st plan v in
    match p with
    | Instr.Reg p when plan_get plan p = slot_code s ->
      Pslot_store (s, v, p, slot_store ctx s)
    | p -> Pstore (s, v, prepare_value st plan p))
  | Instr.Gep (r, base, idx) ->
    let static = ref 0 and dyn = ref [] in
    List.iter
      (fun gi ->
        match gi with
        | Instr.Gfield (_, off) -> static := !static + off
        | Instr.Gindex (v, stride) -> begin
          match prepare_value st plan v with
          | Pimm (Mval.Vint k) -> static := !static + (Int64.to_int k * stride)
          | p -> dyn := (p, stride) :: !dyn
        end)
      idx;
    Pgep
      ( r,
        prepare_value st plan base,
        { pg_static = !static; pg_dyn = Array.of_list (List.rev !dyn) } )
  | Instr.Binop (r, op, s, a, b) ->
    Pbinop (r, op, s, prepare_value st plan a, prepare_value st plan b, binop_fn ctx op s)
  | Instr.Icmp (r, op, s, a, b) ->
    Picmp (r, op, s, prepare_value st plan a, prepare_value st plan b, Scalar.icmp op s)
  | Instr.Fcmp (r, op, _, a, b) ->
    Pfcmp (r, op, prepare_value st plan a, prepare_value st plan b, Scalar.fcmp op)
  | Instr.Cast (r, op, from, into, v) ->
    Pcast (r, op, from, into, prepare_value st plan v, cast_fn op from into)
  | Instr.Call (r, ret, callee, cargs) ->
    let pargs =
      Array.of_list (List.map (fun (_, v) -> prepare_value st plan v) cargs)
    in
    let scalars = Array.of_list (List.map fst cargs) in
    let pc =
      match callee with
      | Instr.Direct name -> Pdirect (resolve_callee st name)
      | Instr.Indirect v -> Pindirect (prepare_value st plan v, ret)
    in
    Pcall ((match r with Some r -> r | None -> -1), pc, pargs, scalars)
  | Instr.Sancheck _ -> Psancheck
  | Instr.Srcloc _ | Instr.Phi _ ->
    (* markers become [pb_locs]; phis are compiled into the incoming
       edges, never into the body *)
    assert false

(** A registered, unprepared function: everything but the body. *)
let register st (f : Irfunc.t) : pfunc =
  let counters = fresh_counters () in
  Hashtbl.replace st.profile.funcs f.Irfunc.name counters;
  {
    pf_ir = f;
    pf_name = f.Irfunc.name;
    pf_context = "in function " ^ f.Irfunc.name;
    pf_prepared = false;
    pf_blocks = [||];
    pf_nregs = max f.Irfunc.next_reg 1;
    pf_nparams = List.length f.Irfunc.params;
    pf_param_regs = Array.of_list (List.map fst f.Irfunc.params);
    pf_variadic = f.Irfunc.variadic;
    pf_counters = counters;
    pf_tier = Tier_interp;
  }

(* The prepared body of [pf]. *)
let prepare_body (st : state) (pf : pfunc) : pblock array =
  let f = pf.pf_ir and ctx = pf.pf_context in
  (* under [detect_uninit] every register starts escaped: no slots *)
  let plan = Bytes.make pf.pf_nregs (if st.detect_uninit then escaped else '\000') in
  let blocks = Array.of_list f.Irfunc.blocks in
  let nblocks = Array.length blocks in
  let index = Hashtbl.create (max nblocks 1) in
  Array.iteri
    (fun i (b : Irfunc.block) -> Hashtbl.replace index b.Irfunc.label i)
    blocks;
  (* Per-block phi lists, in program order; they execute as one parallel
     copy on the incoming edge. *)
  let phis =
    Array.map
      (fun (b : Irfunc.block) ->
        List.filter_map
          (function Instr.Phi (r, _, inc) -> Some (r, inc) | _ -> None)
          b.Irfunc.instrs)
      blocks
  in
  if nblocks = 0 || phis.(0) <> [] then
    unverified "%s has no blocks or a phi in its entry block" pf.pf_name;
  let resolve_edge from_label target =
    match Hashtbl.find_opt index target with
    | None -> unverified "%s branches to unknown block %s" pf.pf_name target
    | Some j ->
      let copies =
        match phis.(j) with
        | [] -> Pc_none
        | ps ->
          let source (_, inc) =
            match List.assoc_opt from_label inc with
            | Some v -> prepare_value st plan v
            | None ->
              unverified "%s: a phi of %s has no entry for %s" pf.pf_name
                target from_label
          in
          Pc_copy (Array.of_list (List.map fst ps), Array.of_list (List.map source ps))
      in
      Edge (j, copies)
  in
  (* Markers are not dispatched: each instruction carries the last one
     before it in layout order ([Array.mapi] visits blocks in order). *)
  let loc = ref (0, 0) in
  let prep_block bidx (b : Irfunc.block) : pblock =
    let from_label = b.Irfunc.label in
    let term =
      match b.Irfunc.term with
      | Instr.Ret (Some (_, v)) -> Pret (Some (prepare_value st plan v))
      | Instr.Ret None -> Pret None
      | Instr.Br l -> Pbr (resolve_edge from_label l)
      | Instr.Condbr (c, a, bl) ->
        Pcondbr
          (prepare_value st plan c, resolve_edge from_label a,
           resolve_edge from_label bl)
      | Instr.Switch (v, cases, default) ->
        Pswitch
          ( prepare_value st plan v,
            Array.of_list (List.map fst cases),
            Array.of_list
              (List.map (fun (_, l) -> resolve_edge from_label l) cases),
            resolve_edge from_label default )
      | Instr.Unreachable -> Punreachable
    in
    let body = ref [] and locs = ref [] in
    List.iter
      (function
        | Instr.Phi _ -> ()
        | Instr.Srcloc (line, col) -> loc := (line, col)
        | i ->
          body := prepare_instr st ctx plan ~entry:(bidx = 0) i :: !body;
          locs := !loc :: !locs)
      b.Irfunc.instrs;
    {
      pb_label = from_label;
      pb_instrs = Array.of_list (List.rev !body);
      pb_term = term;
      pb_locs = Array.of_list (List.rev (!loc :: !locs));
      pb_index = bidx;
      pb_osr = false;
    }
  in
  let pblocks = Array.mapi prep_block blocks in
  (* Mark loop headers: any edge i -> j with j <= i makes j an OSR
     candidate (covers self-loops and the structured loops the C
     front end emits). *)
  Array.iteri
    (fun i blk ->
      iter_edges
        (fun (Edge (j, _)) -> if j <= i then pblocks.(j).pb_osr <- true)
        blk.pb_term)
    pblocks;
  (* A candidate that escaped after the walk gave it slot forms, or
     every one when the entry block re-runs, takes the memory forms
     back: one pass, only over a body that has such a candidate. *)
  if pblocks.(0).pb_osr then Bytes.fill plan 0 (Bytes.length plan) escaped;
  let back r = plan_get plan r = escaped in
  if
    Array.exists
      (function Pslot_alloca (r, _) -> back r | _ -> false)
      pblocks.(0).pb_instrs
  then
    Array.iter
      (fun { pb_instrs = a; _ } ->
        for i = 0 to Array.length a - 1 do
          match a.(i) with
          | Pslot_alloca (r, s) when back r ->
            let mty = Irtype.MScalar s in
            a.(i) <- Palloca (r, mty, Irtype.mty_size mty)
          | Pslot_load (r, s, p) when back p -> a.(i) <- Pload (r, s, Preg p)
          | Pslot_store (s, v, p, _) when back p -> a.(i) <- Pstore (s, v, Preg p)
          | _ -> ()
        done)
      pblocks;
  pblocks

(* [pf]'s body, built once (interp.mli). *)
let prepare st (pf : pfunc) =
  if not pf.pf_prepared then
    Trace.span "prepare" (fun () ->
        pf.pf_blocks <- prepare_body st pf;
        pf.pf_prepared <- true;
        if st.obs then Metrics.incr (Metrics.counter "interp.prepared_funcs"))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* One executed operation of kind [k] (a [k_*] constant): the step
   counter, the function's counter for [k], then the limit check. *)
let charge st (fr : frame) k =
  st.steps <- st.steps + 1;
  let c = fr.fr_func.pf_counters.c_kinds in
  Array.unsafe_set c k (Array.unsafe_get c k + 1);
  if st.steps > st.step_limit then raise Step_limit_exceeded

(* What a managed error writes into a frame it unwinds through: the
   location of the instruction it leaves.  The fast path writes none. *)
let locate (fr : frame) (line, col) = fr.fr_line <- line; fr.fr_col <- col

(* The tier-up decision, probed at every call and, for on-stack
   replacement, at loop headers: a still-interpreted function whose
   counters the controller finds hot is compiled now. *)
let tier_up st (ctl : tierctl) (pf : pfunc) ~osr =
  match pf.pf_tier with
  | Tier_interp when ctl.tc_hot pf.pf_counters ->
    Events.record
      (Events.Tier_up
         {
           ev_fn = pf.pf_name;
           ev_ops = total_ops pf.pf_counters;
           ev_invocations = pf.pf_counters.c_invocations;
           ev_osr = osr;
         });
    pf.pf_tier <- Tier_compiled (ctl.tc_compile st pf)
  | Tier_interp | Tier_compiled _ | Tier_deopt -> ()

let rec call_function st (pf : pfunc) (args : Mval.t array)
    (arg_scalars : Irtype.scalar array) : Mval.t option =
  st.depth <- st.depth + 1;
  if st.depth > depth_limit then
    Merror.raise_error Merror.Stack_overflow_guard (context st);
  (match st.trace with
  | Some buf ->
    Buffer.add_string buf
      (Printf.sprintf "%s-> %s(%s)\n"
         (String.make (min st.depth 40) ' ')
         pf.pf_name
         (String.concat ", "
            (List.map Mval.to_string (Array.to_list args))))
  | None -> ());
  pf.pf_counters.c_invocations <- pf.pf_counters.c_invocations + 1;
  (* First entry: build the body (before the tier-up check, so a
     controller that is hot from the start compiles on this call). *)
  if not pf.pf_prepared then prepare st pf;
  (* Tier-up check: a hot function swaps its entry to the compiled
     closure at the next call (never mid-invocation). *)
  (match st.tier with Some ctl -> tier_up st ctl pf ~osr:false | None -> ());
  let fr =
    match pf.pf_tier with
    | Tier_compiled c ->
      (* register files installed and parameters copied *)
      c.cb_frame args arg_scalars
    | Tier_interp | Tier_deopt ->
      let regs = Array.make pf.pf_nregs Mval.zero in
      let fr =
        {
          fr_func = pf;
          fr_regs = regs;
          fr_iregs = [||];
          fr_fregs = [||];
          fr_args = args;
          fr_arg_scalars = arg_scalars;
          fr_variadic = pf.pf_variadic;
          fr_nparams = pf.pf_nparams;
          fr_line = 0;
          fr_col = 0;
        }
      in
      let bound = min pf.pf_nparams (Array.length args) in
      for i = 0 to bound - 1 do
        regs.(pf.pf_param_regs.(i)) <- args.(i)
      done;
      fr
  in
  st.frames <- fr :: st.frames;
  (* Guest-profiler call event.  The call instruction's own charge
     already landed on the caller (the [Pcall] site charges before
     dispatch, in both tiers), so everything from here to the matching
     [leave] is the callee's. *)
  (match st.prof with
  | Some p -> Profile.enter p ~steps:st.steps pf.pf_name
  | None -> ());
  let result =
    match pf.pf_tier with
    | Tier_compiled c -> exec_compiled st pf fr ~osr:false c.cb_entry
    | Tier_interp | Tier_deopt ->
      exec_block st fr pf.pf_blocks.(0) Pc_none
  in
  (match st.prof with
  | Some p -> Profile.leave p ~steps:st.steps
  | None -> ());
  (match st.trace with
  | Some buf ->
    Buffer.add_string buf
      (Printf.sprintf "%s<- %s = %s\n"
         (String.make (min st.depth 40) ' ')
         pf.pf_name
         (match result with Some v -> Mval.to_string v | None -> "void"))
  | None -> ());
  st.frames <- List.tl st.frames;
  st.depth <- st.depth - 1;
  result

(** Run a compiled body (an OSR entry when [osr]) under the deopt
    contract: a managed error drops the function back to tier 1
    permanently ([Tier_deopt]) and propagates, its frames located as
    [exec_instrs] locates them.  [Exit_program], [Step_limit_exceeded]
    and internal failures pass through untouched. *)
and exec_compiled st (pf : pfunc) (fr : frame) ~osr (body : compiled_body) :
    Mval.t option =
  try body st fr
  with Merror.Error (cat, _) as e ->
    pf.pf_tier <- Tier_deopt;
    Events.record
      (Events.Deopt
         {
           ev_fn = pf.pf_name;
           ev_kind = Merror.category_name cat;
           ev_osr = osr;
         });
    Trace.instant ~args:[ ("function", pf.pf_name); ("tier", "interp") ]
      "jit-deopt";
    raise e

and exec_block st (fr : frame) (blk : pblock) (copies : phicopy) :
    Mval.t option =
  (match copies with
  | Pc_none -> ()
  | Pc_copy (dests, srcs) ->
    (* Parallel copy: read every source before writing any destination,
       so same-block phis referencing each other see the old values. *)
    let n = Array.length dests in
    if n = 1 then begin
      charge st fr k_phi;
      fr.fr_regs.(dests.(0)) <- pv fr srcs.(0)
    end
    else begin
      let tmp = Array.make n Mval.zero in
      for i = 0 to n - 1 do
        charge st fr k_phi;
        tmp.(i) <- pv fr srcs.(i)
      done;
      for i = 0 to n - 1 do
        fr.fr_regs.(dests.(i)) <- tmp.(i)
      done
    end);
  (* On-stack replacement: at a loop header, probe the tier controller
     so a single long-running invocation can tier up mid-call.  The phi
     copies above already ran, so the compiled OSR entry starts at the
     block body with a frame-transfer of the live registers. *)
  match st.tier with
  | Some ctl when blk.pb_osr ->
    let pf = fr.fr_func in
    tier_up st ctl pf ~osr:true;
    (match pf.pf_tier with
    | Tier_compiled { cb_osr = Some osr; _ } ->
      Events.record
        (Events.Osr_enter { ev_fn = pf.pf_name; ev_block = blk.pb_label });
      exec_compiled st pf fr ~osr:true (fun st fr -> osr st fr blk.pb_index)
    | Tier_compiled { cb_osr = None; _ } | Tier_interp | Tier_deopt ->
      exec_instrs st fr blk)
  | Some _ | None -> exec_instrs st fr blk

and exec_instrs st (fr : frame) (blk : pblock) : Mval.t option =
  (* Guest-profiler block event.  Placed after the edge's phi copies
     (charged by [exec_block] above, credited to the predecessor — the
     closure compiler runs copies before the target block's closure,
     so both tiers split the edge cost identically). *)
  (match st.prof with
  | Some p ->
    Profile.note_block p ~steps:st.steps
      (Profile.block_stat p ~func:fr.fr_func.pf_name ~label:blk.pb_label)
  | None -> ());
  let instrs = blk.pb_instrs in
  for i = 0 to Array.length instrs - 1 do
    (* a handler per instruction, closed before the next one runs *)
    try
      match Array.unsafe_get instrs i with
      | Palloca (r, mty, size) ->
        charge st fr k_alloca;
        let obj = Mobject.alloc ~storage:Merror.Stack ~mty size in
        fr.fr_regs.(r) <- Mval.Vptr (Mobject.Pobj { Mobject.obj; moff = 0 })
      | Pload (r, s, p) ->
        charge st fr k_load;
        fr.fr_regs.(r) <- exec_load st s (pv fr p)
      | Pstore (s, v, p) ->
        charge st fr k_store;
        exec_store st s (pv fr v) (pv fr p)
      | Pslot_alloca (r, s) ->
        (* the id the object would take, and its zero bytes *)
        charge st fr k_alloca;
        ignore (Mobject.fresh_id ());
        fr.fr_regs.(r) <- slot_zero s
      | Pslot_load (r, _, p) ->
        charge st fr k_load;
        fr.fr_regs.(r) <- fr.fr_regs.(p)
      | Pslot_store (_, v, p, f) ->
        charge st fr k_store;
        fr.fr_regs.(p) <- f (pv fr v)
      | Pgep (r, base, g) ->
        charge st fr k_gep;
        fr.fr_regs.(r) <- exec_gep st fr (pv fr base) g
      | Pbinop (r, op, _, a, b, f) ->
        charge st fr (binop_kind op);
        fr.fr_regs.(r) <- f (pv fr a) (pv fr b)
      | Picmp (r, _, _, a, b, f) ->
        charge st fr k_icmp;
        let vb = pv fr b in
        let x = Mval.as_int (pv fr a) in
        fr.fr_regs.(r) <-
          (if f x (Mval.as_int vb) then Mval.Vint 1L else Mval.Vint 0L)
      | Pfcmp (r, _, a, b, f) ->
        charge st fr k_fcmp;
        let vb = pv fr b in
        let x = Mval.as_float (pv fr a) in
        fr.fr_regs.(r) <-
          (if f x (Mval.as_float vb) then Mval.Vint 1L else Mval.Vint 0L)
      | Pcast (r, _, _, _, v, f) ->
        charge st fr k_cast;
        fr.fr_regs.(r) <- f (pv fr v)
      | Psancheck ->
        charge st fr k_sancheck
      | Pcall (r, callee, pargs, scalars) ->
        charge st fr k_call;
        let na = Array.length pargs in
        let argv = Array.make na Mval.zero in
        for k = 0 to na - 1 do
          argv.(k) <- pv fr pargs.(k)
        done;
        let tgt =
          match callee with
          | Pdirect tgt -> tgt
          | Pindirect (v, ret) ->
            indirect_target st (context st) (pv fr v) ret scalars
        in
        let result = exec_target st tgt argv scalars in
        if r >= 0 then
          fr.fr_regs.(r) <-
            (match result with Some v -> v | None -> Mval.zero)
    with Merror.Error _ as e ->
      locate fr blk.pb_locs.(i);
      raise e
  done;
  exec_term st fr blk

and exec_target st (tgt : call_target) argv scalars : Mval.t option =
  match tgt with
  | Tgt_user pf -> call_function st pf argv scalars
  | Tgt_builtin (_, fn) -> fn st argv
  | Tgt_unknown name -> failwith ("interp: unknown builtin " ^ name)

and exec_term st (fr : frame) (blk : pblock) : Mval.t option =
  charge st fr k_term;
  match blk.pb_term with
  | Pret (Some v) -> Some (pv fr v)
  | Pret None -> None
  | Pbr e -> goto st fr e
  | Pcondbr (c, a, b) ->
    goto st fr (if Mval.as_int (pv fr c) <> 0L then a else b)
  | Pswitch (v, keys, edges, default) ->
    let x = Mval.as_int (pv fr v) in
    let nk = Array.length keys in
    let rec find i =
      if i >= nk then default
      else if Int64.equal keys.(i) x then edges.(i)
      else find (i + 1)
    in
    goto st fr (find 0)
  | Punreachable ->
    locate fr blk.pb_locs.(Array.length blk.pb_instrs);
    Merror.raise_error
      (Merror.Type_violation "reached an unreachable instruction")
      (context st)

and goto st (fr : frame) (Edge (idx, copies) : pedge) : Mval.t option =
  exec_block st fr fr.fr_func.pf_blocks.(idx) copies

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

type run_result = {
  exit_code : int;
  output : string;
  error : (Merror.category * string) option;
  steps : int;
  run_profile : profile;
  leaks : int;  (** unfreed heap objects at exit (paper §6 extension) *)
  leak_details : string list;
      (** one line per leaked object: class, size, allocating function *)
  trace_output : string;  (** call trace, when enabled (empty otherwise) *)
  timed_out : bool;
  report : Bugreport.t option;
      (** structured report for [error]: faulting C source location,
          bounds detail, and the managed call stack *)
}

(* ASan-style detail lines derived from the structured error payload. *)
let detail_of_category (cat : Merror.category) : string list =
  let plural n = if n = 1 then "" else "s" in
  match cat with
  | Merror.Out_of_bounds { access; offset; size; obj_size; storage } ->
    [
      Printf.sprintf "%s of %d byte%s at offset %d"
        (String.capitalize_ascii (Merror.access_name access))
        size (plural size) offset;
      Printf.sprintf "object bounds: [0, %d) in %s storage; access range: [%d, %d)"
        obj_size (Merror.storage_name storage) offset (offset + size);
    ]
  | Merror.Uninitialized_read { offset; size; storage } ->
    [
      Printf.sprintf
        "Read of %d uninitialized byte%s at offset %d of a %s object" size
        (plural size) offset
        (Merror.storage_name storage);
    ]
  | _ -> []

let create ?(step_limit = 500_000_000) ?(mementos = true)
    ?(detect_uninit = false) ?(trace = false) ?(input = "") ?tier
    ?profile:prof (m : Irmod.t) : state =
  Mobject.reset ();
  Mobject.track_uninitialized := detect_uninit;
  let profile = fresh_profile () in
  let st =
    {
      m;
      funcs = Hashtbl.create 64;
      globals = Hashtbl.create 64;
      heap = Mheap.create ~mementos ();
      out = Buffer.create 1024;
      input;
      input_pos = 0;
      steps = 0;
      step_limit;
      depth = 0;
      profile;
      frames = [];
      rng = Prng.create rng_seed;
      trace = (if trace then Some (Buffer.create 1024) else None);
      obs = !Metrics.enabled;
      tier;
      prof;
      detect_uninit;
      snapshot = None;
    }
  in
  (* The module image: every global object (their ids are observable)
     and every function's registration.  Bodies are prepared at their
     first call. *)
  Trace.span "prepare" (fun () ->
      materialize_globals st;
      List.iter
        (fun f -> Hashtbl.replace st.funcs f.Irfunc.name (register st f))
        m.Irmod.funcs);
  (* Registry snapshot for [reset]: everything registered so far belongs
     to the module image; run-time objects (argv, stack, heap) get ids
     above this watermark and are forgotten between runs. *)
  st.snapshot <- Some (Mobject.checkpoint ());
  st

(* [pf_tier] survives (interp.mli), [Tier_deopt] too: a function that
   deoptimized re-runs interpreted, observably the same, uncompiled.
   Everything observable is restored: the registry prefix (ids show in
   cookies and messages), global images, the heap and its mementos, the
   rng, buffers, counters and the uninitialized-read flag, even after
   other states reset the global registry. *)
let reset ?input (st : state) : unit =
  (match st.snapshot with
  | Some ck -> Mobject.restore ck
  | None -> failwith "interp: reset on an incompletely created state");
  Mobject.track_uninitialized := st.detect_uninit;
  Mheap.clear st.heap;
  (* Re-zero and re-fill the global images in place: prepared code holds
     [Pimm] pointers to these physical objects, so they must be reused,
     not reallocated. *)
  List.iter
    (fun (g : Irmod.global) ->
      match Hashtbl.find_opt st.globals g.Irmod.g_name with
      | Some obj ->
        (match obj.Mobject.data with
        | Some b -> Bytes.fill b 0 (Bytes.length b) '\000'
        | None -> ());
        obj.Mobject.ptr_slots <- None;
        fill_init st obj g
      | None -> ())
    st.m.Irmod.globals;
  Buffer.clear st.out;
  (match input with Some s -> st.input <- s | None -> ());
  st.input_pos <- 0;
  st.steps <- 0;
  st.depth <- 0;
  st.frames <- [];
  Hashtbl.iter
    (fun _ pf ->
      let c = pf.pf_counters in
      Array.fill c.c_kinds 0 n_kinds 0;
      c.c_invocations <- 0)
    st.funcs;
  st.profile.p_allocs <- 0;
  st.profile.p_alloc_bytes <- 0;
  (match st.trace with Some b -> Buffer.clear b | None -> ());
  (* Step counter rewound to zero: re-arm the profiler's delta markers
     (accumulated attribution survives — bench iterations sum). *)
  (match st.prof with Some p -> Profile.rewind p | None -> ());
  Prng.reseed st.rng rng_seed

(** Build the [main] argument objects: an argv array of [MainArgs]
    storage whose size is exactly argc+1 pointers (argv[argc] = NULL), so
    any access past it is out of bounds — the paper's case study 1. *)
let build_argv (argv : string list) : Mval.t * Mval.t =
  let argc = List.length argv in
  let arr =
    Mobject.alloc ~storage:Merror.MainArgs
      ~mty:(Irtype.MArray (Irtype.MScalar Irtype.Ptr, argc + 1))
      ((argc + 1) * 8)
  in
  List.iteri
    (fun i s ->
      let strobj =
        Mobject.alloc ~storage:Merror.MainArgs
          ~mty:(Irtype.MArray (Irtype.MScalar Irtype.I8, String.length s + 1))
          (String.length s + 1)
      in
      Mobject.write_bytes { Mobject.obj = strobj; moff = 0 } s "argv setup";
      Mobject.store_ptr
        { Mobject.obj = arr; moff = i * 8 }
        (Mobject.Pobj { Mobject.obj = strobj; moff = 0 })
        "argv setup")
    argv;
  ( Mval.Vint (Int64.of_int argc),
    Mval.Vptr (Mobject.Pobj { Mobject.obj = arr; moff = 0 }) )

(** Snapshot the managed call stack (innermost first) into a report.
    Works because [call_function] pops [st.frames] only on a normal
    return: when [Merror.Error] propagates out, the stack at the
    faulting instruction is still intact, and [locate]d. *)
let report_of_error st (cat : Merror.category) (msg : string) : Bugreport.t =
  {
    Bugreport.br_kind = Merror.category_name cat;
    br_message = msg;
    br_detail = detail_of_category cat;
    br_stack =
      List.map
        (fun (fr : frame) ->
          {
            Bugreport.bf_func = fr.fr_func.pf_name;
            bf_file = fr.fr_func.pf_ir.Irfunc.src_file;
            bf_line = fr.fr_line;
            bf_col = fr.fr_col;
          })
        st.frames;
    (* The flight recorder's ring at detection time. *)
    br_events = Events.to_lines ();
  }

(* The run's operation counts go to the metrics as sums over every
   function's kind counters, so they add up to [interp.steps]. *)
let flush_metrics st =
  if st.obs then begin
    let c name v = if v <> 0 then Metrics.add (Metrics.counter name) v in
    let sums = Array.make n_kinds 0 in
    Hashtbl.iter
      (fun _ pf ->
        Array.iteri
          (fun k n -> sums.(k) <- sums.(k) + n)
          pf.pf_counters.c_kinds)
      st.funcs;
    Array.iteri (fun k n -> c (kind_metric k) n) sums;
    c "interp.steps" st.steps;
    c "heap.allocs" st.heap.Mheap.alloc_count;
    c "heap.frees" st.heap.Mheap.free_count;
    c "heap.alloc_bytes" st.heap.Mheap.alloc_bytes;
    let peak = Metrics.gauge "heap.peak_bytes" in
    if float_of_int st.heap.Mheap.peak_bytes > peak.Metrics.g_value then
      Metrics.set peak (float_of_int st.heap.Mheap.peak_bytes)
  end

let run ?(argv = [ "program" ]) (st : state) : run_result =
  let finish ?(code = 0) ?error ?report ~timed_out () =
    flush_metrics st;
    let leaked = Mheap.leaked st.heap in
    {
      exit_code = code;
      output = Buffer.contents st.out;
      error;
      steps = st.steps;
      run_profile = st.profile;
      leaks = List.length leaked;
      leak_details =
        List.map
          (fun (obj : Mobject.t) ->
            Printf.sprintf "%d bytes, %s (allocated in %s) never freed"
              obj.Mobject.byte_size (Mobject.class_name obj)
              (Mheap.site_name st.heap obj.Mobject.site))
          leaked;
      trace_output =
        (match st.trace with Some b -> Buffer.contents b | None -> "");
      timed_out;
      report;
    }
  in
  match Hashtbl.find_opt st.funcs "main" with
  | None -> invalid_arg "Interp.run: the module defines no main"
  | Some main -> begin
    let vargc, vargv = build_argv argv in
    let args, scalars =
      if main.pf_nparams >= 2 then
        ([| vargc; vargv |], [| Irtype.I32; Irtype.Ptr |])
      else ([||], [||])
    in
    let finish ?code ?error ?report ~timed_out () =
      (* Close the profiler's books with the final counter value even
         when an error or timeout left the guest stack deep — the
         conservation law (folded sums = steps) holds on every path. *)
      (match st.prof with
      | Some p -> Profile.finalize p ~steps:st.steps
      | None -> ());
      finish ?code ?error ?report ~timed_out ()
    in
    try
      let r =
        Trace.span "execute" (fun () -> call_function st main args scalars)
      in
      let code =
        match r with Some v -> Int64.to_int (Mval.as_int v) land 0xff | None -> 0
      in
      finish ~code ~timed_out:false ()
    with
    | Exit_program code -> finish ~code ~timed_out:false ()
    | Merror.Error (cat, msg) ->
      Events.record
        (Events.Error_raised
           { ev_kind = Merror.category_name cat; ev_msg = msg });
      let report = Trace.span "report" (fun () -> report_of_error st cat msg) in
      finish ~code:255 ~error:(cat, msg) ~report ~timed_out:false ()
    | Step_limit_exceeded -> finish ~code:255 ~timed_out:true ()
  end
