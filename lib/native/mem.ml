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

(* ------------------------------------------------------------------ *)
(* Demand-zero pages                                                   *)
(* ------------------------------------------------------------------ *)

(* A store of [mem_size] bytes is kept as 4 KiB pages, as a kernel
   commits only the pages a process touches.  A page that holds one byte
   value throughout may be the process-wide shared page for that value:
   filling a whole page stores a pointer to it and writes no byte.  A
   shared page is never written; the first write to one copies it into a
   private page.  The shared pages are made on first use, so a process
   that never runs a native engine allocates none.  [Shadow] keeps its
   shadow bytes in the same store. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type pages = Bytes.t array

(** The shared page of each byte value; [Bytes.empty] until first used. *)
let shared : Bytes.t array = Array.make 256 Bytes.empty

let shared_page (c : char) =
  let i = Char.code c in
  if Bytes.length shared.(i) = 0 then shared.(i) <- Bytes.make page_size c;
  shared.(i)

let is_shared (pg : Bytes.t) = pg == shared.(Char.code (Bytes.get pg 0))

(** A store whose every byte is [c]: every page is [c]'s shared page. *)
let make_pages (c : char) : pages =
  Array.make (mem_size lsr page_bits) (shared_page c)

(* The page holding byte [a], made private first if it is shared. *)
let writable (p : pages) a =
  let i = a lsr page_bits in
  let pg = p.(i) in
  if is_shared pg then begin
    let own = Bytes.copy pg in
    p.(i) <- own;
    own
  end
  else pg

(** Byte [a] of the store, [0 <= a < mem_size]. *)
let get_byte (p : pages) a = Bytes.get p.(a lsr page_bits) (a land page_mask)

let set_byte (p : pages) a c = Bytes.set (writable p a) (a land page_mask) c

(** Set the [n] bytes from [a] to [c], [0 <= a <= a + n <= mem_size].  A
    whole page becomes [c]'s shared page; part of a page is written into
    its private copy, unless the page already is [c]'s shared page. *)
let fill_pages (p : pages) a n c =
  let rec go a n =
    if n > 0 then begin
      let off = a land page_mask in
      let k = min n (page_size - off) in
      if k = page_size then p.(a lsr page_bits) <- shared_page c
      else if p.(a lsr page_bits) != shared.(Char.code c) then
        Bytes.fill (writable p a) off k c;
      go (a + k) (n - k)
    end
  in
  go a n

(* ------------------------------------------------------------------ *)
(* The process's memory                                                *)
(* ------------------------------------------------------------------ *)

type t = {
  pages : pages;
  mutable brk : int;      (** heap bump pointer *)
  mutable global_top : int;
  mutable argv_top : int;
}

let create () =
  {
    pages = make_pages '\000';
    brk = heap_base;
    global_top = globals_base;
    argv_top = argv_base;
  }

let check mem addr size =
  let a = Int64.to_int addr in
  if a < null_guard || a + size > mem_size || size < 0 then
    raise (Segfault addr);
  ignore mem

(* An access that straddles two pages goes byte by byte, little-endian. *)
let load_straddling mem a size =
  let v = ref 0L in
  for k = size - 1 downto 0 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (get_byte mem.pages (a + k))))
  done;
  match size with
  | 2 | 8 -> !v
  | 4 -> Int64.of_int32 (Int64.to_int32 !v)
  | _ -> invalid_arg "Mem.load_int: bad size"

let store_straddling mem a size v =
  match size with
  | 2 | 4 | 8 ->
    for k = 0 to size - 1 do
      set_byte mem.pages (a + k)
        (Char.unsafe_chr
           (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL)))
    done
  | _ -> invalid_arg "Mem.store_int: bad size"

let load_int mem addr ~size : int64 =
  check mem addr size;
  let a = Int64.to_int addr in
  let off = a land page_mask in
  if off + size > page_size then load_straddling mem a size
  else
    match size with
    | 1 -> Int64.of_int (Char.code (Bytes.get mem.pages.(a lsr page_bits) off))
    | 2 -> Int64.of_int (Bytes.get_uint16_le mem.pages.(a lsr page_bits) off)
    | 4 -> Int64.of_int32 (Bytes.get_int32_le mem.pages.(a lsr page_bits) off)
    | 8 -> Bytes.get_int64_le mem.pages.(a lsr page_bits) off
    | _ -> invalid_arg "Mem.load_int: bad size"

let store_int mem addr ~size (v : int64) : unit =
  check mem addr size;
  let a = Int64.to_int addr in
  let off = a land page_mask in
  if off + size > page_size then store_straddling mem a size v
  else
    match size with
    | 1 ->
      Bytes.set (writable mem.pages a) off
        (Char.unsafe_chr (Int64.to_int (Int64.logand v 0xFFL)))
    | 2 ->
      Bytes.set_uint16_le (writable mem.pages a) off
        (Int64.to_int (Int64.logand v 0xFFFFL))
    | 4 -> Bytes.set_int32_le (writable mem.pages a) off (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le (writable mem.pages a) off v
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

(** memset: the [n] bytes from [addr] become [c]. *)
let fill mem addr n (c : char) : unit =
  check mem addr n;
  fill_pages mem.pages (Int64.to_int addr) n c

(** memmove: the [n] bytes from [src] are copied to [dst]; the ranges may
    overlap. *)
let blit mem ~src ~dst n : unit =
  check mem dst n;
  check mem src n;
  (* [n] bytes from store address [a] to [buf] at [i], or back, in runs
     that stay inside one page *)
  let rec runs a i n copy =
    if n > 0 then begin
      let k = min n (page_size - (a land page_mask)) in
      copy a i k;
      runs (a + k) (i + k) (n - k) copy
    end
  in
  let buf = Bytes.create n in
  runs (Int64.to_int src) 0 n (fun a i k ->
      Bytes.blit mem.pages.(a lsr page_bits) (a land page_mask) buf i k);
  runs (Int64.to_int dst) 0 n (fun a i k ->
      Bytes.blit buf i (writable mem.pages a) (a land page_mask) k)

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
