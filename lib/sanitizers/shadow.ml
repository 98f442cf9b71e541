(** Byte-granular shadow memory, the substrate of both sanitizer
    simulators (paper §2.2).  Each application byte has one shadow byte
    that records whether it is addressable and, if not, *why* — the
    "why" is what makes the tools' reports specific ("heap-buffer-
    overflow" vs. "stack-buffer-overflow" vs. "use after free"). *)

type poison =
  | Addressable
  | Heap_redzone
  | Stack_redzone
  | Global_redzone
  | Heap_freed
  | Heap_unallocated
  | Undefined_area  (** generic non-addressable *)

let code = function
  | Addressable -> '\000'
  | Heap_redzone -> '\001'
  | Stack_redzone -> '\002'
  | Global_redzone -> '\003'
  | Heap_freed -> '\004'
  | Heap_unallocated -> '\005'
  | Undefined_area -> '\006'

let of_code = function
  | '\000' -> Addressable
  | '\001' -> Heap_redzone
  | '\002' -> Stack_redzone
  | '\003' -> Global_redzone
  | '\004' -> Heap_freed
  | '\005' -> Heap_unallocated
  | _ -> Undefined_area

let describe = function
  | Addressable -> "addressable memory"
  | Heap_redzone -> "heap-buffer-overflow"
  | Stack_redzone -> "stack-buffer-overflow"
  | Global_redzone -> "global-buffer-overflow"
  | Heap_freed -> "heap-use-after-free"
  | Heap_unallocated -> "unknown-address (not malloc'ed)"
  | Undefined_area -> "unaddressable memory"

(* One shadow byte per application byte, in [Mem]'s page store: a fresh
   shadow and each whole page a poisoning covers is a shared page. *)
type t = { shadow : Mem.pages }

let create () = { shadow = Mem.make_pages (code Addressable) }

let clamp a = max 0 (min Mem.mem_size a)

let poison t ~(kind : poison) (addr : int64) (size : int) =
  let lo = clamp (Int64.to_int addr) in
  let hi = clamp (Int64.to_int addr + size) in
  if hi > lo then Mem.fill_pages t.shadow lo (hi - lo) (code kind)

let unpoison t (addr : int64) (size : int) = poison t ~kind:Addressable addr size

(** First poisoned byte in [addr, addr+size), if any. *)
let check t (addr : int64) (size : int) : (poison * int64) option =
  let lo = Int64.to_int addr in
  let hi = lo + size in
  if lo < 0 || hi > Mem.mem_size then Some (Undefined_area, addr)
  else begin
    let rec go a =
      if a >= hi then None
      else begin
        let c = Mem.get_byte t.shadow a in
        if c <> '\000' then Some (of_code c, Int64.of_int a) else go (a + 1)
      end
    in
    go lo
  end

let is_poisoned t addr size = check t addr size <> None
