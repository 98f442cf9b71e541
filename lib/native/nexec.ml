(** The native IR executor: runs compiled IR on the flat memory with C's
    *undefined* error semantics.  Running it bare models "Clang -O0/-O3 +
    run the binary"; running it with the ASan or Memcheck hooks installed
    models the corresponding sanitizer.

    The executor collects a coarse execution profile (dynamic operation
    counts and libc call counts) that the JIT/perf cost model consumes. *)

type profile = {
  mutable n_ops : int;
  mutable n_fp : int;
  mutable n_mem : int;
  mutable n_checks : int;  (** sanitizer checks executed *)
  mutable n_calls : int;
  mutable n_branches : int;
  libc_calls : (string, int) Hashtbl.t;
  mutable n_allocs : int;
  mutable n_alloc_bytes : int;
  mutable n_blocks_translated : int;  (** distinct basic blocks executed *)
}

let fresh_profile () =
  {
    n_ops = 0;
    n_fp = 0;
    n_mem = 0;
    n_checks = 0;
    n_calls = 0;
    n_branches = 0;
    libc_calls = Hashtbl.create 32;
    n_allocs = 0;
    n_alloc_bytes = 0;
    n_blocks_translated = 0;
  }

exception Step_limit_exceeded

(* A scalar instruction's [Scalar] operation, staged once when its
   function is prepared and wrapped over [Nvalue]s. *)
type scalar_op =
  | No_op
  | Op2 of (Nvalue.t -> Nvalue.t -> Nvalue.t)
  | Op1 of (Nvalue.t -> Nvalue.t)

type pblock = {
  pb_label : string;
  pb_instrs : Instr.instr array;
  pb_ops : scalar_op array;  (** aligned with [pb_instrs] *)
  pb_term : Instr.terminator;
  mutable pb_seen : bool;  (** for the translation-count profile *)
}

type pfunc = {
  pf_ir : Irfunc.t;
  pf_blocks : pblock array;
  pf_index : (string, int) Hashtbl.t;
  pf_nregs : int;
}

type state = {
  m : Irmod.t;
  mem : Mem.t;
  alloc : Alloc.t;
  hooks : Hooks.t;
  funcs : (string, pfunc) Hashtbl.t;
  globals : (string, int64) Hashtbl.t;
  func_addrs : (string, int64) Hashtbl.t;
  addr_funcs : (int64, string) Hashtbl.t;
  libc : Nlibc.ctx;
  mutable sp : int;
  mutable steps : int;
  step_limit : int;
  mutable depth : int;
  profile : profile;
}

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

(* A result is defined when every operand is; division by zero raises
   SIGFPE. *)
let stage (i : Instr.instr) : scalar_op =
  let open Nvalue in
  let both a b = defined a && defined b in
  let sigfpe () = raise (Native_trap "SIGFPE") in
  match i with
  | Instr.Binop (_, op, s, _, _) -> (
    match Scalar.binop ~div0:sigfpe op s with
    | Scalar.Ints f -> Op2 (fun a b -> NI (f (as_int a) (as_int b), both a b))
    | Scalar.Floats f ->
      Op2 (fun a b -> NF (f (as_float a) (as_float b), both a b)))
  | Instr.Icmp (_, op, s, _, _) ->
    let f = Scalar.icmp op s in
    Op2 (fun a b -> NI ((if f (as_int a) (as_int b) then 1L else 0L), both a b))
  | Instr.Fcmp (_, op, _, _, _) ->
    let f = Scalar.fcmp op in
    Op2
      (fun a b -> NI ((if f (as_float a) (as_float b) then 1L else 0L), both a b))
  | Instr.Cast (_, op, from, into, _) ->
    Op1
      (match Scalar.cast op from into with
      | Scalar.Int_to_int f -> fun v -> NI (f (as_int v), defined v)
      | Scalar.Int_to_float f -> fun v -> NF (f (as_int v), defined v)
      | Scalar.Float_to_int f -> fun v -> NI (f (as_float v), defined v)
      | Scalar.Float_to_float f -> fun v -> NF (f (as_float v), defined v))
  | _ -> No_op

let prepare_func (f : Irfunc.t) : pfunc =
  let blocks =
    Array.of_list
      (List.map
         (fun (b : Irfunc.block) ->
           let instrs = Array.of_list b.Irfunc.instrs in
           {
             pb_label = b.Irfunc.label;
             pb_instrs = instrs;
             pb_ops = Array.map stage instrs;
             pb_term = b.Irfunc.term;
             pb_seen = false;
           })
         f.Irfunc.blocks)
  in
  let index = Hashtbl.create (Array.length blocks) in
  Array.iteri (fun i b -> Hashtbl.replace index b.pb_label i) blocks;
  { pf_ir = f; pf_blocks = blocks; pf_index = index; pf_nregs = f.Irfunc.next_reg }

let func_addr st name =
  match Hashtbl.find_opt st.func_addrs name with
  | Some a -> a
  | None ->
    let a = Int64.of_int (Mem.func_base + (16 * Hashtbl.length st.func_addrs)) in
    Hashtbl.replace st.func_addrs name a;
    Hashtbl.replace st.addr_funcs a name;
    a

(* Store [g]'s initial image at [addr]: the one layout walker
   ([Irmod.iter_init]) says where each leaf lands. *)
let write_ginit st (g : Irmod.global) (addr : int64) =
  let store off (leaf : Irmod.leaf) =
    let a = Int64.add addr (Int64.of_int off) in
    match leaf with
    | Irmod.Lint (s, v) -> Mem.store_int st.mem a ~size:(Irtype.scalar_size s) v
    | Irmod.Lfloat (s, f) ->
      Mem.store_float st.mem a ~size:(Irtype.scalar_size s) f
    | Irmod.Lbytes b -> Mem.write_string st.mem a b
    | Irmod.Lglobal name ->
      Mem.store_int st.mem a ~size:8 (Hashtbl.find st.globals name)
    | Irmod.Lfunc name -> Mem.store_int st.mem a ~size:8 (func_addr st name)
  in
  Irmod.iter_init store g.Irmod.g_ty g.Irmod.g_init

(** Lay out globals; [global_gap] is the engine's redzone spacing (0 for
    plain native, 32 under ASan with -fno-common). *)
let layout_globals st ~global_gap =
  List.iter
    (fun (g : Irmod.global) ->
      let size = Irtype.mty_size g.Irmod.g_ty in
      let align = Irtype.mty_align g.Irmod.g_ty in
      let addr = Mem.alloc_global st.mem ~size ~align ~gap:global_gap in
      Hashtbl.replace st.globals g.Irmod.g_name addr;
      st.hooks.Hooks.on_global addr size
        ~zero_init:(g.Irmod.g_init = Irmod.Gzero))
    st.m.Irmod.globals;
  List.iter
    (fun (g : Irmod.global) ->
      write_ginit st g (Hashtbl.find st.globals g.Irmod.g_name))
    st.m.Irmod.globals

(** Set up argv/envp above the stack, as the kernel would, before any
    instrumented code runs: argv[argc] = NULL, and the envp array follows
    argv directly, so reading argv[argc+1+k] yields environment-variable
    pointers (the secret-leak scenario of paper case study 1). *)
let setup_argv st (argv : string list) (envp : string list) : int64 * int64 =
  let all = argv @ envp in
  let string_addrs =
    List.map
      (fun s ->
        let a = Mem.alloc_argv_area st.mem ~size:(String.length s + 1) in
        Mem.write_string st.mem a (s ^ "\000");
        a)
      all
  in
  let argc = List.length argv in
  let total_ptrs = argc + 1 + List.length envp + 1 in
  let arr = Mem.alloc_argv_area st.mem ~size:(total_ptrs * 8) in
  let rec place i addrs k =
    match addrs with
    | [] -> ()
    | a :: rest ->
      (* argv entries, then NULL, then envp entries, then NULL *)
      let slot = if k < argc then k else k + 1 in
      Mem.store_int st.mem (Int64.add arr (Int64.of_int (slot * 8))) ~size:8 a;
      place i rest (k + 1)
  in
  place 0 string_addrs 0;
  (Int64.of_int argc, arr)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

open Nvalue

let eval_value st (regs : Nvalue.t array) (v : Instr.value) : Nvalue.t =
  match v with
  | Instr.Reg r -> regs.(r)
  | Instr.ImmInt (x, s) -> NI (Scalar.normalize_int s x, true)
  | Instr.ImmFloat (f, _) -> NF (f, true)
  | Instr.Null -> NI (0L, true)
  | Instr.GlobalAddr name -> NI (Hashtbl.find st.globals name, true)
  | Instr.FuncAddr name -> NI (func_addr st name, true)

let op2 = function Op2 f -> f | No_op | Op1 _ -> invalid_arg "Nexec.op2"
let op1 = function Op1 f -> f | No_op | Op2 _ -> invalid_arg "Nexec.op1"

type opclass = Cop | Cfp | Cmem | Ccheck

let charge st (cls : opclass) =
  st.steps <- st.steps + 1;
  (match cls with
  | Cmem -> st.profile.n_mem <- st.profile.n_mem + 1
  | Cfp -> st.profile.n_fp <- st.profile.n_fp + 1
  | Ccheck -> st.profile.n_checks <- st.profile.n_checks + 1
  | Cop -> st.profile.n_ops <- st.profile.n_ops + 1);
  if st.steps > st.step_limit then raise Step_limit_exceeded

let rec call_function st (pf : pfunc) (args : Nvalue.t list) : Nvalue.t option =
  st.depth <- st.depth + 1;
  if st.depth > 8192 then raise (Mem.Segfault (Int64.of_int st.sp));
  let saved_sp = st.sp in
  let regs = Array.make (max pf.pf_nregs 1) Nvalue.zero in
  let rec bind params args =
    match (params, args) with
    | (r, _) :: ps, a :: rest ->
      regs.(r) <- a;
      bind ps rest
    | _, _ -> ()
  in
  bind pf.pf_ir.Irfunc.params args;
  let result = exec_block st pf regs 0 "" in
  st.hooks.Hooks.on_frame_exit ~lo:(Int64.of_int st.sp)
    ~hi:(Int64.of_int saved_sp);
  st.sp <- saved_sp;
  st.depth <- st.depth - 1;
  result

and exec_block st (pf : pfunc) (regs : Nvalue.t array) (block_idx : int)
    (prev_label : string) : Nvalue.t option =
  let blk = pf.pf_blocks.(block_idx) in
  if not blk.pb_seen then begin
    blk.pb_seen <- true;
    st.profile.n_blocks_translated <- st.profile.n_blocks_translated + 1
  end;
  let n = Array.length blk.pb_instrs in
  let ev v = eval_value st regs v in
  let rec run i =
    if i >= n then exec_term st pf regs blk prev_label
    else begin
      (match blk.pb_instrs.(i) with
      | Instr.Alloca (r, mty) ->
        charge st Cop;
        let size = Irtype.mty_size mty in
        let pad = st.hooks.Hooks.alloca_padding in
        (* Natural alignment, like a compiler's frame layout: char arrays
           pack byte-adjacent (no artificial gaps of "undefined" slack);
           redzone padding (ASan) forces wider alignment. *)
        let align = if pad > 0 then 16 else max (Irtype.mty_align mty) 1 in
        st.sp <- (st.sp - (size + (2 * pad))) land lnot (align - 1);
        if st.sp < Mem.stack_limit then
          raise (Mem.Segfault (Int64.of_int st.sp));
        let body = Int64.of_int (st.sp + pad) in
        st.hooks.Hooks.on_alloca body size;
        regs.(r) <- NI (body, true)
      | Instr.Load (r, s, p) ->
        charge st Cmem;
        let addr = as_int (ev p) in
        let size = Irtype.scalar_size s in
        st.hooks.Hooks.on_load addr size;
        let d = st.hooks.Hooks.load_defined addr size in
        let v =
          match s with
          | Irtype.F32 | Irtype.F64 -> NF (Mem.load_float st.mem addr ~size, d)
          | _ -> NI (Scalar.normalize_int s (Mem.load_int st.mem addr ~size), d)
        in
        regs.(r) <- v
      | Instr.Store (s, v, p) ->
        charge st Cmem;
        let addr = as_int (ev p) in
        let size = Irtype.scalar_size s in
        let value = ev v in
        st.hooks.Hooks.on_store addr size (defined value);
        (match s with
        | Irtype.F32 | Irtype.F64 ->
          Mem.store_float st.mem addr ~size (as_float value)
        | _ -> Mem.store_int st.mem addr ~size (as_int value))
      | Instr.Gep (r, base, idx) ->
        charge st Cop;
        let bv = ev base in
        let delta =
          List.fold_left
            (fun acc gi ->
              match gi with
              | Instr.Gfield (_, off) -> Int64.add acc (Int64.of_int off)
              | Instr.Gindex (v, stride) ->
                Int64.add acc (Int64.mul (as_int (ev v)) (Int64.of_int stride)))
            0L idx
        in
        regs.(r) <- NI (Int64.add (as_int bv) delta, defined bv)
      | Instr.Binop (r, op, _, a, b) ->
        charge st
          (match op with
          | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv -> Cfp
          | _ -> Cop);
        regs.(r) <- op2 blk.pb_ops.(i) (ev a) (ev b)
      | Instr.Icmp (r, _, _, a, b) ->
        charge st Cop;
        regs.(r) <- op2 blk.pb_ops.(i) (ev a) (ev b)
      | Instr.Fcmp (r, _, _, a, b) ->
        charge st Cfp;
        regs.(r) <- op2 blk.pb_ops.(i) (ev a) (ev b)
      | Instr.Cast (r, _, _, _, v) ->
        charge st Cop;
        regs.(r) <- op1 blk.pb_ops.(i) (ev v)
      | Instr.Phi _ ->
        (* LLVM phis are a parallel copy: the head of the maximal run of
           phis is evaluated in full before any destination is written,
           so same-block phis referencing each other read the old
           values.  Later phis of the run are no-ops (handled here). *)
        let is_phi k =
          match blk.pb_instrs.(k) with Instr.Phi _ -> true | _ -> false
        in
        if i = 0 || not (is_phi (i - 1)) then begin
          let stop = ref i in
          while !stop < n && is_phi !stop do incr stop done;
          let stop = !stop in
          let vals = Array.make (stop - i) Nvalue.zero in
          for k = i to stop - 1 do
            match blk.pb_instrs.(k) with
            | Instr.Phi (_, _, incoming) ->
              charge st Cop;
              vals.(k - i) <- ev (List.assoc prev_label incoming)
            | _ -> assert false
          done;
          for k = i to stop - 1 do
            match blk.pb_instrs.(k) with
            | Instr.Phi (r, _, _) -> regs.(r) <- vals.(k - i)
            | _ -> assert false
          done
        end
      | Instr.Sancheck (kind, p, size) ->
        charge st Ccheck;
        st.hooks.Hooks.on_sancheck kind (as_int (ev p)) size
      (* provenance metadata: free, so native cycle counts are unchanged *)
      | Instr.Srcloc _ -> ()
      | Instr.Call (r, _, callee, cargs) ->
        charge st Cop;
        st.profile.n_calls <- st.profile.n_calls + 1;
        let argv = List.map (fun (_, v) -> ev v) cargs in
        let result =
          match callee with
          | Instr.Direct name -> dispatch st name argv
          | Instr.Indirect v -> begin
            let addr = as_int (ev v) in
            match Hashtbl.find_opt st.addr_funcs addr with
            | Some name -> dispatch st name argv
            | None -> raise (Mem.Segfault addr)
          end
        in
        (match (r, result) with
        | Some r, Some v -> regs.(r) <- v
        | Some r, None -> regs.(r) <- Nvalue.zero
        | None, _ -> ()));
      run (i + 1)
    end
  in
  run 0

and dispatch st name argv : Nvalue.t option =
  match Hashtbl.find_opt st.funcs name with
  | Some pf -> call_function st pf argv
  | None ->
    (match Hashtbl.find_opt st.profile.libc_calls name with
    | Some c -> Hashtbl.replace st.profile.libc_calls name (c + 1)
    | None -> Hashtbl.replace st.profile.libc_calls name 1);
    (match name with
    | "malloc" | "calloc" | "realloc" ->
      st.profile.n_allocs <- st.profile.n_allocs + 1;
      st.profile.n_alloc_bytes <-
        st.profile.n_alloc_bytes
        + Int64.to_int
            (Nvalue.as_int
               (Nlibc.nth_arg argv (if name = "realloc" then 1 else 0)))
    | _ -> ());
    Nlibc.call st.libc name argv

and exec_term st (pf : pfunc) (regs : Nvalue.t array) (blk : pblock)
    (_prev : string) : Nvalue.t option =
  charge st Cop;
  let ev v = eval_value st regs v in
  match blk.pb_term with
  | Instr.Ret (Some (_, v)) -> Some (ev v)
  | Instr.Ret None -> None
  | Instr.Br l -> jump st pf regs blk.pb_label l
  | Instr.Condbr (c, a, b) ->
    st.profile.n_branches <- st.profile.n_branches + 1;
    let cv = ev c in
    if not (defined cv) then
      st.hooks.Hooks.on_undef_use
        "Conditional jump or move depends on uninitialised value(s)";
    jump st pf regs blk.pb_label (if as_int cv <> 0L then a else b)
  | Instr.Switch (v, cases, default) ->
    st.profile.n_branches <- st.profile.n_branches + 1;
    let x = as_int (ev v) in
    let target =
      match List.find_opt (fun (k, _) -> k = x) cases with
      | Some (_, l) -> l
      | None -> default
    in
    jump st pf regs blk.pb_label target
  | Instr.Unreachable -> raise (Native_trap "SIGILL (unreachable)")

(* [Verify] proved that every target and phi entry exists. *)
and jump st pf regs from_label target =
  exec_block st pf regs (Hashtbl.find pf.pf_index target) from_label

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** How a run ended abnormally: a fatal signal, or a call to a function
    neither the program nor the precompiled libc defines, which fails
    the dynamic linker's lazy binding at the first call (exit 127). *)
type crash = Segv of int64 | Trap of string | Unbound of string

type run_result = {
  exit_code : int;
  output : string;
  crash : crash option;
  report : Hooks.report option;
  steps : int;
  run_profile : profile;
  timed_out : bool;
}

let default_envp =
  [
    "PATH=/usr/local/bin:/usr/bin";
    "SECRET_TOKEN=hunter2";
    "HOME=/root";
    "USER=root";
    "SHELL=/bin/bash";
    "LANG=en_US.UTF-8";
    "TERM=xterm-256color";
    "API_KEY=sk-deadbeef42";
  ]

let create ?(hooks = Hooks.default ~tool_name:"native") ?(global_gap = 0)
    ?(step_limit = 500_000_000) ?(input = "") ?mem ?alloc (m : Irmod.t) : state =
  let mem = match mem with Some m -> m | None -> Mem.create () in
  let alloc = match alloc with Some a -> a | None -> Alloc.create mem in
  let profile = fresh_profile () in
  let rec st =
    lazy
      (let libc =
         {
           Nlibc.mem;
           alloc;
           hooks;
           out = Buffer.create 1024;
           input;
           input_pos = 0;
           strtok_save = 0L;
           rand_state = 42L;
           call_indirect =
             (fun addr args ->
               let s = Lazy.force st in
               match Hashtbl.find_opt s.addr_funcs addr with
               | Some name -> dispatch s name args
               | None -> raise (Mem.Segfault addr));
           malloc =
             (fun size ->
               match hooks.Hooks.malloc with
               | Some f -> f size
               | None -> Alloc.malloc alloc size);
           free =
             (fun p ->
               match hooks.Hooks.free with
               | Some f -> f p
               | None -> ignore (Alloc.free alloc p));
           libc_call_count = 0;
         }
       in
       {
         m;
         mem;
         alloc;
         hooks;
         funcs = Hashtbl.create 64;
         globals = Hashtbl.create 64;
         func_addrs = Hashtbl.create 64;
         addr_funcs = Hashtbl.create 64;
         libc;
         sp = Mem.stack_top;
         steps = 0;
         step_limit;
         depth = 0;
         profile;
       })
  in
  let st = Lazy.force st in
  List.iter
    (fun f -> Hashtbl.replace st.funcs f.Irfunc.name (prepare_func f))
    m.Irmod.funcs;
  layout_globals st ~global_gap;
  st

let run ?(argv = [ "program" ]) ?(envp = default_envp) (st : state) :
    run_result =
  let finish ?(code = 0) ?crash ?report ~timed_out () =
    {
      exit_code = code;
      output = Buffer.contents st.libc.Nlibc.out;
      crash;
      report;
      steps = st.steps;
      run_profile = st.profile;
      timed_out;
    }
  in
  match Hashtbl.find_opt st.funcs "main" with
  | None -> failwith "nexec: program has no main"
  | Some main -> begin
    let vargc, argv_addr = setup_argv st argv envp in
    let args =
      if List.length main.pf_ir.Irfunc.params >= 2 then
        [ Nvalue.int_ vargc; Nvalue.int_ argv_addr ]
      else []
    in
    try
      let r = call_function st main args in
      let code =
        match r with
        | Some v -> Int64.to_int (Nvalue.as_int v) land 0xff
        | None -> 0
      in
      finish ~code ~timed_out:false ()
    with
    | Nvalue.Prog_exit code -> finish ~code ~timed_out:false ()
    | Mem.Segfault addr -> finish ~code:139 ~crash:(Segv addr) ~timed_out:false ()
    | Nvalue.Native_trap name -> finish ~code:132 ~crash:(Trap name) ~timed_out:false ()
    | Nlibc.Unknown_function name ->
      finish ~code:127 ~crash:(Unbound name) ~timed_out:false ()
    | Hooks.Sanitizer_report r -> finish ~code:1 ~report:r ~timed_out:false ()
    | Step_limit_exceeded -> finish ~code:255 ~timed_out:true ()
  end
