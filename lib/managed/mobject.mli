(** Managed C objects (paper §3.2–3.3): every C allocation is a managed
    object; every pointer is a pointee plus a byte offset; every load,
    store and free is automatically checked.

    See DESIGN.md for the representation note: objects are byte-backed
    with an unforgeable pointer-slot map, realizing the paper's relaxed
    type rules with byte-granular exactness. *)

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
      (** allocated on the first pointer store; [None] = no slot ever
          written *)
  mutable site : int;  (** allocation site, for allocation mementos *)
  mutable init_map : Bytes.t option;
      (** per-byte written? bitmap (uninitialized-read detection) *)
}

(** Opt-in detection of reads from never-written memory (paper §6
    future work, realized).  Set by [Interp.create ~detect_uninit]. *)
val track_uninitialized : bool ref

(** Reset the global object registry (between engine runs). *)
val reset : unit -> unit

(** A saved registry prefix.  [Interp.reset] captures one right after
    [create] and reinstalls it before each re-run so that object ids —
    observable through pointer cookies and error messages — replay
    identically across runs of the same prepared state. *)
type checkpoint

val checkpoint : unit -> checkpoint
val restore : checkpoint -> unit

(** Allocate a managed object of [byte_size] bytes, zero-filled. *)
val alloc :
  ?site:int -> storage:Merror.storage -> mty:Irtype.mty -> int -> t

(** Consume the next allocation id without allocating.  Used by the
    closure compiler's scalar-replaced allocas: the virtual slot takes
    the id its real stack object would have taken, so the ids of every
    later allocation — observable through pointer cookies and error
    messages — replay exactly as in the interpreter. *)
val fresh_id : unit -> int

(** Mark a byte range as written (used by calloc and the loaders). *)
val mark_initialized : t -> off:int -> size:int -> unit

(** The paper's class-hierarchy names (I32HeapArray, ...), used in
    error messages. *)
val class_name : t -> string

(** Pointer <-> integer cookies (the tagged-pointer relaxation).
    [int_to_ptr] resolves only cookies of live registered objects or
    registered functions; anything else is [Pinvalid] and traps on use. *)
val ptr_to_int : ptr -> int64
val int_to_ptr : int64 -> ptr
val register_func_cookie : string -> int64
val register : t -> unit

(** Checked accesses.  Each raises [Merror.Error] on a bounds violation,
    a freed object, or (when enabled) an uninitialized read; the string
    is the report context ("in function f"). *)

val load_int : addr -> size:int -> string -> int64
val store_int : addr -> size:int -> int64 -> string -> unit
val load_float : addr -> size:int -> string -> float
val store_float : addr -> size:int -> float -> string -> unit
val load_ptr : addr -> string -> ptr
val store_ptr : addr -> ptr -> string -> unit

val is_freed : t -> bool

(** Checked [free] (paper Fig. 7–8): the pointee must be a live heap
    object and the offset must be zero. *)
val free_addr : addr -> string -> unit

(** Read a NUL-terminated string; every byte access is bounds-checked. *)
val read_cstring : addr -> string -> string

(** Write raw bytes (no NUL added). *)
val write_bytes : addr -> string -> string -> unit
