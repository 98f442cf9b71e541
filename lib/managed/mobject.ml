(** Managed C objects (paper §3.2–3.3).

    Every C allocation — automatic, dynamic, static, the [main] argument
    arrays, and the cells behind variadic arguments — is a [t]: a managed
    object the C program can never address outside of.  A pointer is an
    [addr]: a reference to its pointee plus a byte offset ([Address] in
    the paper's Fig. 5); pointer arithmetic only updates the offset, and
    every load/store/free checks

    - liveness  ([data = None] after [free]  → use-after-free),
    - bounds    (byte-granular               → out-of-bounds),
    - freeing   (storage class and offset    → invalid/double free).

    Representation note (documented in DESIGN.md): where the paper wraps
    each allocation in a typed Java array, we back each object with a
    byte buffer plus a pointer-slot map.  Pointers stored into memory live
    in [ptr_slots] as real [addr] values and are *unforgeable*: the byte
    image holds only a cookie, and reading a pointer back from raw bytes
    yields an address that traps unless the cookie matches a live object
    registered through an explicit pointer-to-integer conversion or
    pointer store.  This realizes the paper's relaxed type rules (bitwise
    int/float reinterpretation is allowed; conjuring a pointer out of
    integers is not) with byte-granular exactness for the checks that the
    evaluation measures. *)

type ptr =
  | Pnull
  | Pobj of addr
  | Pfunc of string
  | Pinvalid of int64  (** a cookie that matches no live object *)

and addr = { obj : t; moff : int }

and t = {
  id : int;
  storage : Merror.storage;
  byte_size : int;
  mty : Irtype.mty;  (** declared or observed type; used in messages *)
  mutable data : Bytes.t option;  (** [None] once freed *)
  mutable ptr_slots : (int, ptr) Hashtbl.t option;
      (** allocated on the first pointer store; [None] means no slot was
          ever written (the overwhelmingly common case for scalars) *)
  mutable site : int;  (** allocation site, for allocation mementos *)
  mutable init_map : Bytes.t option;
      (** per-byte written? bitmap; allocated only when uninitialized-read
          detection is on and the storage starts uninitialized *)
}

(** Opt-in detection of reads from never-written memory — the paper's §6
    "detection of reads from uninitialized memory" future work, realized.
    Off by default: real-world C (and most of the corpus) deliberately
    reads zero-initialized managed memory. *)
let track_uninitialized = ref false

(* ------------------------------------------------------------------ *)
(* Object registry: gives every object a pointer cookie so that
   ptrtoint/inttoptr round-trips work (tagged-pointer relaxation).      *)
(* ------------------------------------------------------------------ *)

(* Ids are handed out sequentially, so the registry is a flat array
   indexed by id (a hashtable here made every alloca pay a hashed
   insert into an ever-growing table — the single most expensive part
   of allocation).

   Registration is *lazy*: an object enters the registry the first time
   its cookie is materialized as an integer (an explicit ptrtoint cast,
   or a pointer store writing the cookie into a byte image), which is
   exactly the set of objects an integer->pointer conversion can ever
   legitimately name — see the relaxed type rules in the header comment.
   Everything else stays out, so the registry never pins short-lived
   stack objects: they die with their frame in the minor heap instead of
   being promoted and retained for the rest of the run.  A registered
   object is never unregistered: an int->ptr round trip of a freed
   object must still find it, so the later dereference reports a
   use-after-free, not a forged pointer. *)
let registry : t option array ref = ref (Array.make 1024 None)
let next_id = ref 1

let register obj =
  let arr = !registry in
  let n = Array.length arr in
  if obj.id >= n then begin
    let bigger = Array.make (max (2 * n) (obj.id + 1)) None in
    Array.blit arr 0 bigger 0 n;
    registry := bigger
  end;
  !registry.(obj.id) <- Some obj

let registered obj =
  let arr = !registry in
  obj.id < Array.length arr && Array.unsafe_get arr obj.id <> None

(** Reset the object registry (between engine runs). *)
let reset () =
  registry := Array.make 1024 None;
  next_id := 1

(** A saved registry prefix.  [Interp.reset] captures one right after
    [create] (registry = the module's globals) and reinstalls it before
    every re-run, so object ids — which are observable through pointer
    cookies and uninitialized-read messages — replay identically even if
    other engine states ran (and [reset] the registry) in between. *)
type checkpoint = { ck_next : int; ck_entries : t option array }

let checkpoint () =
  let n = !next_id in
  let entries = Array.make n None in
  let arr = !registry in
  for i = 0 to min (n - 1) (Array.length arr - 1) do
    entries.(i) <- arr.(i)
  done;
  { ck_next = n; ck_entries = entries }

let restore ck =
  let fresh = Array.make (max 1024 ck.ck_next) None in
  Array.blit ck.ck_entries 0 fresh 0 ck.ck_next;
  registry := fresh;
  next_id := ck.ck_next

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let cookie_of_addr a =
  (* the cookie escapes to integer-land: the object must be findable by
     [int_to_ptr] from now on *)
  if not (registered a.obj) then register a.obj;
  Int64.logor (Int64.shift_left (Int64.of_int a.obj.id) 32)
    (Int64.of_int (a.moff land 0xFFFFFFFF))

let func_cookie_tag = 0x4000_0000_0000_0000L

let ptr_to_int = function
  | Pnull -> 0L
  | Pobj a -> cookie_of_addr a
  | Pfunc name ->
    (* function cookies: tag | hash; resolved through a side table *)
    Int64.logor func_cookie_tag (Int64.of_int (Hashtbl.hash name land 0xFFFFFF))
  | Pinvalid c -> c

(* Function-name side table for int->function-pointer round trips. *)
let func_cookies : (int64, string) Hashtbl.t = Hashtbl.create 16

let register_func_cookie name =
  let c = ptr_to_int (Pfunc name) in
  Hashtbl.replace func_cookies c name;
  c

let int_to_ptr (v : int64) : ptr =
  if v = 0L then Pnull
  else if Int64.logand v func_cookie_tag <> 0L then begin
    match Hashtbl.find_opt func_cookies v with
    | Some name -> Pfunc name
    | None -> Pinvalid v
  end
  else begin
    let id = Int64.to_int (Int64.shift_right_logical v 32) in
    let off = Int64.to_int (Int64.logand v 0xFFFFFFFFL) in
    let arr = !registry in
    if id >= 0 && id < Array.length arr then
      match Array.unsafe_get arr id with
      | Some obj -> Pobj { obj; moff = off }
      | None -> Pinvalid v
    else Pinvalid v
  end

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let alloc ?(site = -1) ~storage ~mty byte_size : t =
  let starts_initialized =
    match storage with
    | Merror.Global | Merror.MainArgs | Merror.Vararg -> true
    | Merror.Stack | Merror.Heap -> false
  in
  let obj =
    {
      id = fresh_id ();
      storage;
      byte_size;
      mty;
      data = Some (Bytes.make (max byte_size 0) '\000');
      ptr_slots = None;
      site;
      init_map =
        (if !track_uninitialized && not starts_initialized then
           Some (Bytes.make (max byte_size 0) '\000')
         else None);
    }
  in
  obj

(** Mark [size] bytes at [off] as written (calloc, global images, ...). *)
let mark_initialized obj ~off ~size =
  match obj.init_map with
  | Some m ->
    let lo = max 0 off and hi = min obj.byte_size (off + size) in
    if hi > lo then Bytes.fill m lo (hi - lo) '\001'
  | None -> ()

let check_initialized obj ~off ~size context =
  match obj.init_map with
  | None -> ()
  | Some m ->
    let rec scan i =
      if i < off + size then begin
        if i >= 0 && i < obj.byte_size && Bytes.get m i = '\000' then
          Merror.raise_error
            (Merror.Uninitialized_read { offset = off; size; storage = obj.storage })
            (Printf.sprintf "%s, object %d" context obj.id)
        else scan (i + 1)
      end
    in
    scan off

(** The paper's class-hierarchy names (I32HeapArray etc.), used in error
    messages so reports read like Safe Sulong's. *)
let class_name obj =
  let rec scalar_of = function
    | Irtype.MScalar s -> Irtype.scalar_to_string s
    | Irtype.MArray (t, _) -> scalar_of t
    | Irtype.MStruct s -> "struct." ^ s.Irtype.s_tag
  in
  let elem = String.capitalize_ascii (scalar_of obj.mty) in
  let loc =
    match obj.storage with
    | Merror.Stack -> "AutomaticArray"
    | Merror.Heap -> "HeapArray"
    | Merror.Global -> "StaticArray"
    | Merror.MainArgs -> "MainArgsArray"
    | Merror.Vararg -> "VarargObject"
  in
  elem ^ loc

(* ------------------------------------------------------------------ *)
(* Checked raw byte access                                             *)
(* ------------------------------------------------------------------ *)

let live_bytes obj context =
  match obj.data with
  | Some b -> b
  | None -> Merror.raise_error Merror.Use_after_free context

let check_bounds obj ~access ~off ~size context =
  if off < 0 || off + size > obj.byte_size then
    Merror.raise_error
      (Merror.Out_of_bounds
         { access; offset = off; size; obj_size = obj.byte_size;
           storage = obj.storage })
      (Printf.sprintf "%s, object %s" context (class_name obj))

(* Invalidate pointer slots overlapping [off, off+size): an integer
   store over a stored pointer turns it into raw data (it can come back
   through its cookie only). *)
let clobber_slots obj ~off ~size =
  match obj.ptr_slots with
  | None -> ()
  | Some slots ->
    if Hashtbl.length slots > 0 then begin
      let doomed =
        Hashtbl.fold
          (fun slot _ acc ->
            if slot < off + size && slot + 8 > off then slot :: acc else acc)
          slots []
      in
      List.iter (Hashtbl.remove slots) doomed
    end

(* ------------------------------------------------------------------ *)
(* Typed loads and stores                                              *)
(* ------------------------------------------------------------------ *)

let load_int (a : addr) ~(size : int) context : int64 =
  let b = live_bytes a.obj context in
  check_bounds a.obj ~access:Merror.Read ~off:a.moff ~size context;
  check_initialized a.obj ~off:a.moff ~size context;
  match size with
  | 1 -> Int64.of_int (Char.code (Bytes.get b a.moff))
  | 2 -> Int64.of_int (Bytes.get_uint16_le b a.moff)
  | 4 -> Int64.of_int32 (Bytes.get_int32_le b a.moff)
  | 8 -> Bytes.get_int64_le b a.moff
  | _ -> invalid_arg "Mobject.load_int: bad size"

let store_int (a : addr) ~(size : int) (v : int64) context : unit =
  let b = live_bytes a.obj context in
  check_bounds a.obj ~access:Merror.Write ~off:a.moff ~size context;
  clobber_slots a.obj ~off:a.moff ~size;
  mark_initialized a.obj ~off:a.moff ~size;
  match size with
  | 1 -> Bytes.set b a.moff (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | 2 -> Bytes.set_uint16_le b a.moff (Int64.to_int (Int64.logand v 0xFFFFL))
  | 4 -> Bytes.set_int32_le b a.moff (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le b a.moff v
  | _ -> invalid_arg "Mobject.store_int: bad size"

let load_float (a : addr) ~(size : int) context : float =
  let bits = load_int a ~size context in
  match size with
  | 4 -> Int32.float_of_bits (Int64.to_int32 bits)
  | 8 -> Int64.float_of_bits bits
  | _ -> invalid_arg "Mobject.load_float: bad size"

let store_float (a : addr) ~(size : int) (v : float) context : unit =
  let bits =
    match size with
    | 4 -> Int64.of_int32 (Int32.bits_of_float v)
    | 8 -> Int64.bits_of_float v
    | _ -> invalid_arg "Mobject.store_float: bad size"
  in
  store_int a ~size bits context

let load_ptr (a : addr) context : ptr =
  let b = live_bytes a.obj context in
  check_bounds a.obj ~access:Merror.Read ~off:a.moff ~size:8 context;
  check_initialized a.obj ~off:a.moff ~size:8 context;
  match
    match a.obj.ptr_slots with
    | None -> None
    | Some slots -> Hashtbl.find_opt slots a.moff
  with
  | Some p -> p
  | None ->
    (* Raw bytes read back as a pointer: resolves only through a valid
       cookie (relaxed type rule), otherwise it is a trapping pointer. *)
    int_to_ptr (Bytes.get_int64_le b a.moff)

let store_ptr (a : addr) (p : ptr) context : unit =
  let b = live_bytes a.obj context in
  check_bounds a.obj ~access:Merror.Write ~off:a.moff ~size:8 context;
  clobber_slots a.obj ~off:a.moff ~size:8;
  mark_initialized a.obj ~off:a.moff ~size:8;
  (match p with
  | Pnull -> ()
  | Pobj _ | Pfunc _ | Pinvalid _ ->
    let slots =
      match a.obj.ptr_slots with
      | Some slots -> slots
      | None ->
        let slots = Hashtbl.create 2 in
        a.obj.ptr_slots <- Some slots;
        slots
    in
    Hashtbl.replace slots a.moff p);
  (match p with
  | Pfunc name -> ignore (register_func_cookie name)
  | Pnull | Pobj _ | Pinvalid _ -> ());
  Bytes.set_int64_le b a.moff (ptr_to_int p)

(* ------------------------------------------------------------------ *)
(* Free (paper Fig. 7–8)                                               *)
(* ------------------------------------------------------------------ *)

let is_freed obj = obj.data = None

(** [free_addr p] implements the checked [free]: the pointee must be a
    heap object (the paper's ClassCastException to [HeapObject]), the
    offset must be zero, and the object must not already be freed. *)
let free_addr (a : addr) context : unit =
  if a.obj.storage <> Merror.Heap then
    Merror.raise_error
      (Merror.Invalid_free
         (Printf.sprintf "pointer to a %s object (%s) passed to free()"
            (Merror.storage_name a.obj.storage)
            (class_name a.obj)))
      context;
  if a.moff <> 0 then
    Merror.raise_error
      (Merror.Invalid_free
         (Printf.sprintf "pointer into the middle of an object (offset %d)"
            a.moff))
      context;
  if is_freed a.obj then Merror.raise_error Merror.Double_free context;
  a.obj.data <- None;
  a.obj.ptr_slots <- None

(* ------------------------------------------------------------------ *)
(* Bulk access helpers for builtins                                    *)
(* ------------------------------------------------------------------ *)

(** Read a NUL-terminated C string starting at [a]; every byte access is
    bounds-checked, so an unterminated string overflows exactly as it
    would in the interpreter. *)
let read_cstring (a : addr) context : string =
  let buf = Buffer.create 16 in
  let rec go off =
    let c = load_int { a with moff = a.moff + off } ~size:1 context in
    if c <> 0L then begin
      Buffer.add_char buf (Char.chr (Int64.to_int c));
      go (off + 1)
    end
  in
  go 0;
  Buffer.contents buf

let write_bytes (a : addr) (s : string) context : unit =
  String.iteri
    (fun i c ->
      store_int
        { a with moff = a.moff + i }
        ~size:1
        (Int64.of_int (Char.code c))
        context)
    s
