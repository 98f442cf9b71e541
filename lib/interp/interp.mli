(** The LLVM-IR interpreter at the core of Safe Sulong (paper §3).

    Most clients only need the narrow surface at the bottom: build a
    state from a linked module with [create], execute it with [run], and
    read the execution profile.  [create] materializes the globals and
    registers every function; each function's body is prepared into the
    pre-resolved form at its first call ([prepare], DESIGN.md §5c).

    The prepared-code representation and the execution helpers are also
    exposed: they are the compilation unit of the tier-2 closure
    compiler ([Jit.Closcomp]), which translates prepared functions into
    nested OCaml closures and must match the interpreter's observable
    behavior bit for bit (outputs, [steps] accounting, managed errors).
    A [tierctl] plugged into [create ~tier] turns on profile-driven
    tier-up with deoptimization (DESIGN.md §9). *)

exception Exit_program of int
exception Step_limit_exceeded

(** {1 Operation counts}

    Every executed operation is charged once, in both tiers: one step
    of the budget and one count in its function's counter for the
    operation's kind.  The kinds index [counters.c_kinds]: one per
    executed instruction opcode (alloca, load, store, gep, icmp, fcmp,
    cast, sancheck, call), binops split into integer ([k_ibinop]) and
    float ([k_fbinop]: [FAdd]/[FSub]/[FMul]/[FDiv]) work, plus the block
    terminator ([k_term]) and one phi-copied value ([k_phi], counted
    once per value of an edge's parallel copy).  A call counts at its
    call site, in the caller. *)

val k_alloca : int
val k_load : int
val k_store : int
val k_gep : int
val k_ibinop : int
val k_fbinop : int
val k_icmp : int
val k_fcmp : int
val k_cast : int
val k_sancheck : int
val k_call : int
val k_term : int
val k_phi : int

(** A short name per kind, indexed by kind.  With metrics on, a run
    adds its counts to [interp.op.<name>] ([interp.op.binop] for both
    binop kinds, [interp.phi_copies] for phi copies). *)
val kind_names : string array

(** [k_fbinop] for a float binop, [k_ibinop] otherwise. *)
val binop_kind : Instr.binop -> int

(** Per-function dynamic operation counts.  The tier controller's
    hotness policy reads their total, and the JIT cost model (lib/jit)
    prices their cost classes to reproduce the paper's performance
    figures. *)
type counters = {
  c_kinds : int array;  (** operations executed, indexed by kind *)
  mutable c_invocations : int;  (** times this function was entered *)
}

(** All operations the function executed: the sum over [c_kinds],
    which summed over every function is the run's [steps]. *)
val total_ops : counters -> int

type profile = {
  funcs : (string, counters) Hashtbl.t;
  mutable p_allocs : int;
  mutable p_alloc_bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Prepared code (see interp.ml for the full commentary)               *)
(* ------------------------------------------------------------------ *)

type pval =
  | Preg of int             (** read a register of the current frame *)
  | Pimm of Mval.t          (** pre-boxed constant *)

type pgep = { pg_static : int; pg_dyn : (pval * int) array }

type phicopy =
  | Pc_none
  | Pc_copy of int array * pval array  (** destination regs, sources *)

type pedge = Edge of int * phicopy  (** target block index + phi copies *)

type pterm =
  | Pret of pval option
  | Pbr of pedge
  | Pcondbr of pval * pedge * pedge
  | Pswitch of pval * int64 array * pedge array * pedge
      (** (value, case keys, their edges, default): both tiers scan the
          keys in order *)
  | Punreachable

(** [Pslot_*] are the forms of a scalar-replaced alloca ([prepare]): an
    entry-block alloca of one scalar, in a body whose entry block has no
    predecessor, whose register is only ever the pointer of whole-slot
    loads and stores of that scalar.  Its object is unobservable, so
    both tiers keep its value in the register and replay the memory
    round trip ([slot_zero], and [Pslot_store]'s staged store); the
    plan is off under
    [detect_uninit], which watches every alloca's init map. *)
type pinstr =
  | Palloca of int * Irtype.mty * int
  | Pload of int * Irtype.scalar * pval
  | Pstore of Irtype.scalar * pval * pval
  | Pslot_alloca of int * Irtype.scalar  (** (slot, scalar) *)
  | Pslot_load of int * Irtype.scalar * int  (** (result, scalar, slot) *)
  | Pslot_store of Irtype.scalar * pval * int * (Mval.t -> Mval.t)
      (** (scalar, value, slot, the value the slot holds after storing
          a value, with the store's side effects: [Mval.as_int] and
          [Mval.as_ptr] as the memory path calls them, and the cookie
          registrations of [Mobject.store_ptr]; staged at prepare
          time) *)
  | Pgep of int * pval * pgep
  | Pbinop of
      int * Instr.binop * Irtype.scalar * pval * pval
      * (Mval.t -> Mval.t -> Mval.t)
      (** the last field of a scalar operation is its [Scalar] kernel
          operation, staged at prepare time *)
  | Picmp of
      int * Instr.icmp * Irtype.scalar * pval * pval * (int64 -> int64 -> bool)
  | Pfcmp of int * Instr.fcmp * pval * pval * (float -> float -> bool)
  | Pcast of
      int * Instr.cast * Irtype.scalar * Irtype.scalar * pval * (Mval.t -> Mval.t)
  | Psancheck
  | Pcall of int * pcallee * pval array * Irtype.scalar array

and pcallee =
  | Pdirect of call_target  (** resolved when the caller is prepared *)
  | Pindirect of pval * Irtype.scalar option
      (** the function pointer and the call's result type; both tiers
          resolve it through [indirect_target] at each call *)

and call_target =
  | Tgt_user of pfunc
  | Tgt_builtin of string * (state -> Mval.t array -> Mval.t option)
  | Tgt_unknown of string

and pblock = {
  pb_label : string;
  pb_instrs : pinstr array;
  pb_term : pterm;
  pb_locs : (int * int) array;
      (** the (line, col) of each instruction, then of the terminator:
          the last [Srcloc] before it in the function's block layout
          order ((0, 0) before the first), which both tiers write into
          the frame when a managed error unwinds through it *)
  pb_index : int;  (** position in [pf_blocks] *)
  mutable pb_osr : bool;
      (** loop header (target of a back edge): the interpreter probes the
          tier controller here for on-stack replacement *)
}

and pfunc = {
  pf_ir : Irfunc.t;
  pf_name : string;
  pf_context : string;
  mutable pf_prepared : bool;
      (** [prepare] built [pf_blocks]; before that it is a placeholder
          that must not be read *)
  mutable pf_blocks : pblock array;  (** the entry block (no phis) first *)
  pf_nregs : int;
  pf_nparams : int;
  pf_param_regs : int array;
  pf_variadic : bool;
  pf_counters : counters;
  mutable pf_tier : tier;
}

(** Current execution tier of a function.  [Tier_deopt]: a managed error
    fired in compiled code; the function stays interpreted for the rest
    of the run. *)
and tier =
  | Tier_interp
  | Tier_compiled of compiled
  | Tier_deopt

(** A compiled function: normal entry plus an optional on-stack
    replacement entry for functions with loop headers.  [call_function]
    builds the frames of a compiled function with [cb_frame]:
    [cb_frame args scalars] returns a frame with the compiled register
    files already installed (arrays zeroed, parameters copied). *)
and compiled = {
  cb_entry : compiled_body;
  cb_osr : osr_body option;
  cb_frame : Mval.t array -> Irtype.scalar array -> frame;
}

(** A compiled function body: runs the function from its entry block in
    an already-set-up frame (registers allocated, parameters copied).
    It must charge [steps] and the kind counters exactly like the
    interpreter, so the timeout point — observable behavior — and the
    profile are identical across tiers. *)
and compiled_body = state -> frame -> Mval.t option

(** OSR entry: [osr st fr idx] resumes mid-invocation at block [idx]
    (whose phi copies already ran) after transferring the interpreter
    frame into the compiled register files. *)
and osr_body = state -> frame -> int -> Mval.t option

(** Tier controller: hotness policy + compiler, built by [Jit.Tier]. *)
and tierctl = {
  tc_hot : counters -> bool;
  tc_compile : state -> pfunc -> compiled;
}

and frame = {
  fr_func : pfunc;
  mutable fr_regs : Mval.t array;
      (** boxed register file; compiled bodies that inlined callees
          re-install an enlarged file *)
  mutable fr_iregs : int array;
      (** unboxed small-integer register file for compiled bodies;
          [[||]] in interpreted frames *)
  mutable fr_fregs : float array;
      (** unboxed F32/F64 register file (compiled bodies only) *)
  mutable fr_args : Mval.t array;
  mutable fr_arg_scalars : Irtype.scalar array;
  fr_variadic : bool;
  fr_nparams : int;
  mutable fr_line : int;
  mutable fr_col : int;  (** the report's; 0 until an error unwinds *)
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
  mutable frames : frame list;
  rng : Prng.t;
  trace : Buffer.t option;
  obs : bool;  (** metrics were enabled at [create] *)
  tier : tierctl option;
  prof : Profile.t option;
      (** guest profiler handle; [None] (the default) keeps the hot
          paths branch-free.  Shared with compiled bodies, which capture
          it at compile time. *)
  detect_uninit : bool;
  mutable snapshot : Mobject.checkpoint option;
      (** object-registry state right after [create]; used by [reset] *)
}

(* ------------------------------------------------------------------ *)
(* Execution helpers (shared with the tier-2 closure compiler)         *)
(* ------------------------------------------------------------------ *)

(** [iter_edges f t] applies [f] to each outgoing edge of the prepared
    terminator [t]: a switch's cases in order, then its default;
    nothing for [Pret] and [Punreachable].
    The one CFG walk of the prepare-time loop-header marking and the
    closure compiler's register classification. *)
val iter_edges : (pedge -> unit) -> pterm -> unit

(** "in function <name>" of the innermost frame. *)
val context : state -> string

(** Calls nest at most this deep (4096); the next one raises the
    managed stack-overflow guard. *)
val depth_limit : int

(** [locate fr loc]: what a managed error writes into a frame [fr] it
    unwinds through, the location [loc] of the instruction it leaves. *)
val locate : frame -> int * int -> unit

(** Evaluate a prepared operand against a frame. *)
val pv : frame -> pval -> Mval.t

(** Call a function: depth check, [prepare] on its first entry, tier-up
    check, frame setup, body execution in the function's current tier
    (with the deopt contract for compiled bodies), frame teardown. *)
val call_function :
  state -> pfunc -> Mval.t array -> Irtype.scalar array -> Mval.t option

(** Dispatch a resolved call target (user function / builtin). *)
val exec_target :
  state -> call_target -> Mval.t array -> Irtype.scalar array -> Mval.t option

(** Whether [name] is a host builtin: the runtime functions implemented
    by the engine itself rather than by the managed libc. *)
val is_builtin : string -> bool

(** Resolve a callee name: user function shadows builtin; unknown names
    fail only when called.  Links direct calls as their caller is
    prepared. *)
val resolve_callee : state -> string -> call_target

(** [indirect_target st ctx fp ret scalars]: the target of an indirect
    call through [fp] with result type [ret] and argument types
    [scalars], in both tiers.  A null or data pointer, and a callee whose
    declared result or parameters (a user or libc function, or a
    builtin's extern declaration) are of the other class, integer or
    pointer versus float, than the call's, raise a managed error. *)
val indirect_target :
  state -> string -> Mval.t -> Irtype.scalar option -> Irtype.scalar array ->
  call_target

(** The value a slot holds after its alloca: what a load of the fresh
    object's zero bytes reads. *)
val slot_zero : Irtype.scalar -> Mval.t

(** [prepare st pf] builds [pf]'s body in the pre-resolved form (branch
    targets as block indices, phi parallel copies on the edges, scalar
    operations staged, direct call sites linked through
    [resolve_callee], scalar-replaced allocas in their slot forms),
    unless it is already prepared.  [call_function]
    runs it at a function's first call; the closure compiler runs it on
    the direct callees it considers for inlining.  It allocates no
    managed object, so which functions a run prepares never shows in
    object ids.  Runs under the "prepare" trace span and adds 1 to the
    [interp.prepared_funcs] counter when metrics are enabled.  Raises
    [Invalid_argument] on a function of a module that never passed
    [Verify]: an unknown global or block, a phi without an entry for
    its predecessor, or a body without an entry block free of phis. *)
val prepare : state -> pfunc -> unit

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
      (** structured provenance report for [error]: faulting C source
          location, bounds detail, and the managed call stack *)
}

(** A state for executing [m], a module that passed [Verify]: every
    global is materialized (through [Irmod.iter_init]) and every
    function registered (its [pfunc], counters and [profile] entry), but
    no body is prepared; each is prepared at its first call. *)
val create :
  ?step_limit:int ->
  ?mementos:bool ->
  ?detect_uninit:bool ->
  ?trace:bool ->
  ?input:string ->
  ?tier:tierctl ->
  ?profile:Profile.t ->
  Irmod.t ->
  state

(** [tier] (default none) plugs in the tier controller: hot functions
    are swapped to their closure-compiled body at the next call and
    deoptimize back to the interpreter on any managed error.

    [profile] (default none) attaches a guest profiler: every call,
    return and block entry flushes the step delta into a per-function /
    per-block attribution tree (see [Profile]).  Both tiers feed the same
    handle, and the attribution is pinned to agree between them. *)

(** Rewind a prepared state so the next [run] replays bit-identically to
    a fresh [create] of the same module — same outputs, step counts,
    error reports and observable object ids — without re-preparing and
    without discarding compiled tiers ([pf_tier] survives: this is the
    compiled-body cache).  [?input] replaces the program input; omitted,
    the previous input is kept (and rewound). *)
val reset : ?input:string -> state -> unit

(** Execute [main], which the module must define ([Loader]'s link check
    rejects a program without one).  A state is good for one run;
    [reset] it (or create a fresh one) before running again.  A managed
    error takes [report] from the frames it unwound through, each
    located by the instruction it left ([pb_locs]). *)
val run : ?argv:string list -> state -> run_result
