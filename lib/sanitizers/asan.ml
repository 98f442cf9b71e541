(** AddressSanitizer simulator (paper §2.2, "compile-time
    instrumentation").

    Faithful to the mechanism *and to the period-accurate gaps* the paper
    exploits:

    - checks are attached to the program's accesses by the
      [instrument] pass; anything the backend deletes, or any access
      performed by uninstrumented code (the precompiled libc, the
      kernel-written argv/envp arrays), is invisible (case studies 1–3);
    - redzones are finite: an access that jumps past the redzone into
      another object's valid memory is not detected (case study 4);
    - the freed-memory quarantine is a heuristic with a byte budget:
      quick reallocation can recycle memory and hide use-after-free
      (paper P3);
    - libc interceptors cover a fixed list: [strtok] is missing (the
      paper's fix landed later — the flag [strtok_interceptor] lets the
      repro show the before/after), and the printf interceptor checks
      only pointer arguments (case studies 2 and 5). *)

let redzone = 16
let stack_redzone = 16

type t = {
  shadow : Shadow.t;
  mem : Mem.t;
  alloc : Alloc.t;
  blocks : (int64, [ `Live of int | `Quarantined of int ]) Hashtbl.t;
  quarantine : int64 Queue.t;
  mutable quarantine_bytes : int;
  quarantine_cap : int;
  strtok_interceptor : bool;
  fno_common : bool;
      (** without -fno-common, zero-initialized ("common") globals are
          not instrumented: no redzones around them (paper §4.1) *)
}

let report t ~kind fmt =
  ignore t;
  Hooks.report ~tool:"AddressSanitizer" ~kind fmt

let check_range t ~(access : Instr.access_kind) addr size =
  match Shadow.check t.shadow addr size with
  | None -> ()
  | Some (poison, at) ->
    report t ~kind:(Shadow.describe poison)
      "%s: %s of size %d at 0x%Lx (first bad byte 0x%Lx)"
      (Shadow.describe poison)
      (match access with Instr.AccLoad -> "READ" | Instr.AccStore -> "WRITE")
      size addr at

(* --- allocator wrapper: redzones + quarantine ------------------- *)

let asan_malloc t size : int64 =
  let p = Alloc.malloc t.alloc (size + (2 * redzone)) in
  let body = Int64.add p (Int64.of_int redzone) in
  Shadow.poison t.shadow ~kind:Shadow.Heap_redzone p redzone;
  Shadow.unpoison t.shadow body size;
  Shadow.poison t.shadow ~kind:Shadow.Heap_redzone
    (Int64.add body (Int64.of_int size))
    redzone;
  Hashtbl.replace t.blocks body (`Live size);
  body

let asan_free t (body : int64) : unit =
  if body = 0L then ()
  else begin
    match Hashtbl.find_opt t.blocks body with
    | None ->
      report t ~kind:"bad-free"
        "attempting free on address which was not malloc()-ed: 0x%Lx" body
    | Some (`Quarantined _) ->
      report t ~kind:"double-free" "attempting double-free on 0x%Lx" body
    | Some (`Live size) ->
      Hashtbl.replace t.blocks body (`Quarantined size);
      Shadow.poison t.shadow ~kind:Shadow.Heap_freed body size;
      Queue.push body t.quarantine;
      t.quarantine_bytes <- t.quarantine_bytes + size;
      (* Heuristic quarantine: beyond the budget, really release blocks
         — after which a stale pointer can alias fresh memory. *)
      while t.quarantine_bytes > t.quarantine_cap && not (Queue.is_empty t.quarantine) do
        let old = Queue.pop t.quarantine in
        match Hashtbl.find_opt t.blocks old with
        | Some (`Quarantined osize) ->
          t.quarantine_bytes <- t.quarantine_bytes - osize;
          Hashtbl.remove t.blocks old;
          Shadow.unpoison t.shadow old osize;
          ignore (Alloc.free t.alloc (Int64.sub old (Int64.of_int redzone)))
        | _ -> ()
      done
  end

(* --- interceptors ------------------------------------------------ *)

(* Check that the NUL-terminated string at [addr] is fully addressable,
   byte by byte, like ASan's real interceptors do. *)
let check_string t addr =
  let rec go a =
    check_range t ~access:Instr.AccLoad a 1;
    if Mem.load_int t.mem a ~size:1 <> 0L then go (Int64.add a 1L)
  in
  go addr

let string_length ?(max = max_int) t addr =
  let rec go n =
    if n >= max || Mem.load_int t.mem (Int64.add addr (Int64.of_int n)) ~size:1 = 0L
    then n
    else go (n + 1)
  in
  go 0

let intercept t (name : string) (args : int64 list) : unit =
  let arg n = List.nth args n in
  match name with
  | "strlen" | "puts" | "fputs" | "atoi" | "atol" | "atof" | "strchr"
  | "strrchr" ->
    check_string t (arg 0)
  | "__printf_str" ->
    (* the printf interceptor checks only pointer (%s) arguments *)
    check_string t (arg 0)
  | "__scanf_str" -> () (* writes checked only as far as ASan knows sizes *)
  | "__sprintf_write" ->
    check_range t ~access:Instr.AccStore (arg 0) (Int64.to_int (arg 1))
  | "fgets" ->
    check_range t ~access:Instr.AccStore (arg 0) (Int64.to_int (arg 1))
  | "strcpy" ->
    check_string t (arg 1);
    let n = string_length t (arg 1) + 1 in
    check_range t ~access:Instr.AccStore (arg 0) n
  | "strcat" ->
    check_string t (arg 0);
    check_string t (arg 1);
    let dst_len = string_length t (arg 0) in
    let n = string_length t (arg 1) + 1 in
    check_range t ~access:Instr.AccStore
      (Int64.add (arg 0) (Int64.of_int dst_len))
      n
  | "strcmp" | "strstr" | "strcasecmp" | "strpbrk" ->
    check_string t (arg 0);
    check_string t (arg 1)
  | "strtol" -> check_string t (arg 0)
  | "memchr" ->
    check_range t ~access:Instr.AccLoad (arg 0) (Int64.to_int (arg 1))
  | "strncpy" ->
    (* reads at most n bytes of src; writes exactly n to dst (NUL padded) *)
    let n = Int64.to_int (arg 2) in
    check_range t ~access:Instr.AccStore (arg 0) n
  | "strncat" ->
    (* appends at most n bytes of src and a NUL after dst's string *)
    check_string t (arg 0);
    let dst_len = string_length t (arg 0) in
    let n = string_length ~max:(Int64.to_int (arg 2)) t (arg 1) + 1 in
    check_range t ~access:Instr.AccStore
      (Int64.add (arg 0) (Int64.of_int dst_len))
      n
  | "strncmp" -> ()
  | "strdup" -> check_string t (arg 0)
  | "memcpy" | "memmove" ->
    let n = Int64.to_int (arg 2) in
    check_range t ~access:Instr.AccStore (arg 0) n;
    check_range t ~access:Instr.AccLoad (arg 1) n
  | "memset" ->
    let n = Int64.to_int (arg 1) in
    check_range t ~access:Instr.AccStore (arg 0) n
  | "memcmp" ->
    let n = Int64.to_int (arg 2) in
    check_range t ~access:Instr.AccLoad (arg 0) n;
    check_range t ~access:Instr.AccLoad (arg 1) n
  | "strtok" when t.strtok_interceptor ->
    (* The interceptor Rigger contributed to LLVM (rL298650): validate
       both the subject (if not NULL) and the delimiter string. *)
    if arg 0 <> 0L then check_string t (arg 0);
    check_string t (arg 1)
  | _ -> ()

(* --- engine assembly --------------------------------------------- *)

(** Build the hooks that turn the native engine into an
    ASan-instrumented process.  Globals are laid out with gaps by the
    engine ([global_gap]); we poison the whole globals and heap regions
    here and unpoison bodies as they are defined/allocated. *)
let make ?(quarantine_cap = 1 lsl 18) ?(strtok_interceptor = false)
    ?(fno_common = true) ~mem ~alloc () : t * Hooks.t =
  let t =
    {
      shadow = Shadow.create ();
      mem;
      alloc;
      blocks = Hashtbl.create 64;
      quarantine = Queue.create ();
      quarantine_bytes = 0;
      quarantine_cap;
      strtok_interceptor;
      fno_common;
    }
  in
  Shadow.poison t.shadow ~kind:Shadow.Heap_unallocated
    (Int64.of_int Mem.heap_base)
    (Mem.heap_limit - Mem.heap_base);
  (* Poison the whole globals region (bodies are unpoisoned as laid
     out), including a margin before the first global so underflows of
     the first object are caught too. *)
  Shadow.poison t.shadow ~kind:Shadow.Global_redzone
    (Int64.of_int (Mem.globals_base - 64))
    (Mem.heap_base - Mem.globals_base + 64);
  let hooks = Hooks.default ~tool_name:"asan" in
  hooks.Hooks.on_sancheck <-
    (fun kind addr size -> check_range t ~access:kind addr size);
  hooks.Hooks.malloc <- Some (fun size -> asan_malloc t size);
  hooks.Hooks.free <- Some (fun p -> asan_free t p);
  hooks.Hooks.usable_size <-
    (fun p ->
      match Hashtbl.find_opt t.blocks p with
      | Some (`Live size) -> Some size
      | _ -> None);
  hooks.Hooks.alloca_padding <- stack_redzone;
  hooks.Hooks.on_alloca <-
    (fun body size ->
      Shadow.poison t.shadow ~kind:Shadow.Stack_redzone
        (Int64.sub body (Int64.of_int stack_redzone))
        stack_redzone;
      Shadow.unpoison t.shadow body size;
      Shadow.poison t.shadow ~kind:Shadow.Stack_redzone
        (Int64.add body (Int64.of_int size))
        stack_redzone);
  hooks.Hooks.on_frame_exit <-
    (fun ~lo ~hi -> Shadow.unpoison t.shadow lo (Int64.to_int (Int64.sub hi lo)));
  hooks.Hooks.on_global <-
    (fun addr size ~zero_init ->
      if zero_init && not t.fno_common then
        (* common symbol, uninstrumented: the surrounding gap is plain
           addressable memory, so overflows into it are invisible *)
        Shadow.unpoison t.shadow (Int64.sub addr 32L) (size + 64)
      else Shadow.unpoison t.shadow addr size);
  hooks.Hooks.intercept <- (fun name args -> intercept t name args);
  (t, hooks)

(* --- the compile-time instrumentation pass ----------------------- *)

(** Insert a [Sancheck] before every load and store, as
    [-fsanitize=address] does during compilation.  Anything a later
    backend pass deletes takes its check with it. *)
let instrument (m : Irmod.t) : unit =
  List.iter
    (fun (f : Irfunc.t) ->
      Irfunc.rewrite_blocks f (fun b ->
          List.concat_map
            (fun instr ->
              match instr with
              | Instr.Load (_, s, p) ->
                [ Instr.Sancheck (Instr.AccLoad, p, Irtype.scalar_size s); instr ]
              | Instr.Store (s, _, p) ->
                [ Instr.Sancheck (Instr.AccStore, p, Irtype.scalar_size s); instr ]
              | _ -> [ instr ])
            b.Irfunc.instrs))
    m.Irmod.funcs
