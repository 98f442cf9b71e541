(** The flat-memory native execution model: one linear address space, as
    the machine gives a process.  This is the substrate that Clang-style
    compilation targets in this reproduction and that the sanitizer
    simulators instrument.  Errors are *not defined* here: an
    out-of-bounds store silently corrupts a neighbour, a wild access
    outside the mapped range raises a simulated SIGSEGV — exactly the
    behaviours the paper's P1–P4 arguments rest on. *)

exception Segfault of int64

(* Address-space layout (16 MiB), LP64-flavoured but compact:
   page 0 unmapped; globals; heap growing up; stack growing down from
   [stack_top]; the argv/envp area *above* the stack, written by the
   "kernel" before any instrumented code runs (paper case study 1). *)
let null_guard = 0x1000
let globals_base = 0x0001_0000
let heap_base = 0x0010_0000
let heap_limit = 0x00D0_0000
let stack_top = 0x00E8_0000
let stack_limit = 0x00D0_0000
let argv_base = 0x00E8_0000
let func_base = 0x00F0_0000 (* synthetic code addresses for function ptrs *)
let mem_size = 0x0100_0000

type t = {
  bytes : Bytes.t;
  mutable brk : int;      (** heap bump pointer *)
  mutable global_top : int;
  mutable argv_top : int;
}

let create () =
  {
    bytes = Bytes.make mem_size '\000';
    brk = heap_base;
    global_top = globals_base;
    argv_top = argv_base;
  }

let check mem addr size =
  let a = Int64.to_int addr in
  if a < null_guard || a + size > mem_size || size < 0 then
    raise (Segfault addr);
  ignore mem

let load_int mem addr ~size : int64 =
  check mem addr size;
  let a = Int64.to_int addr in
  match size with
  | 1 -> Int64.of_int (Char.code (Bytes.get mem.bytes a))
  | 2 -> Int64.of_int (Bytes.get_uint16_le mem.bytes a)
  | 4 -> Int64.of_int32 (Bytes.get_int32_le mem.bytes a)
  | 8 -> Bytes.get_int64_le mem.bytes a
  | _ -> invalid_arg "Mem.load_int: bad size"

let store_int mem addr ~size (v : int64) : unit =
  check mem addr size;
  let a = Int64.to_int addr in
  match size with
  | 1 -> Bytes.set mem.bytes a (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | 2 -> Bytes.set_uint16_le mem.bytes a (Int64.to_int (Int64.logand v 0xFFFFL))
  | 4 -> Bytes.set_int32_le mem.bytes a (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le mem.bytes a v
  | _ -> invalid_arg "Mem.store_int: bad size"

let load_float mem addr ~size : float =
  let bits = load_int mem addr ~size in
  if size = 4 then Int32.float_of_bits (Int64.to_int32 bits)
  else Int64.float_of_bits bits

let store_float mem addr ~size (v : float) : unit =
  let bits =
    if size = 4 then Int64.of_int32 (Int32.bits_of_float v)
    else Int64.bits_of_float v
  in
  store_int mem addr ~size bits

let write_string mem addr (s : string) : unit =
  String.iteri
    (fun i c ->
      store_int mem (Int64.add addr (Int64.of_int i)) ~size:1
        (Int64.of_int (Char.code c)))
    s

(** Reserve [size] bytes in the globals region, [gap] poisonable padding
    after it (the ASan engine lays out globals with redzone gaps). *)
let alloc_global mem ~size ~align ~gap : int64 =
  let base = Util.align_up mem.global_top (max align 1) in
  mem.global_top <- base + size + gap;
  if mem.global_top > heap_base then failwith "Mem: globals region overflow";
  Int64.of_int base

(** Reserve bytes in the argv/envp area above the stack. *)
let alloc_argv_area mem ~size : int64 =
  let base = Util.align_up mem.argv_top 8 in
  mem.argv_top <- base + size;
  if mem.argv_top > func_base then failwith "Mem: argv region overflow";
  Int64.of_int base
