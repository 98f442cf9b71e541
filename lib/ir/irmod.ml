(** IR modules: globals (with initial images), functions and external
    declarations (the host builtins that play the role of the paper's
    Java-implemented "syscall" functions). *)

type ginit =
  | Gzero
  | Gint of int64
  | Gfloat of float
  | Garray of ginit list
  | Gstruct_init of ginit list
  | Gstring of string  (** includes the terminating NUL *)
  | Gglobal_addr of string
  | Gfunc_addr of string

type global = { g_name : string; g_ty : Irtype.mty; g_init : ginit }

(** One store of a global's initial image. *)
type leaf =
  | Lint of Irtype.scalar * int64  (** an integer or pointer scalar *)
  | Lfloat of Irtype.scalar * float  (** an [F32] or [F64] scalar *)
  | Lbytes of string
  | Lglobal of string  (** the address of a global *)
  | Lfunc of string  (** the address of a function *)

(** An initializer that does not fit the type it is laid out as. *)
exception Init_mismatch of ginit * Irtype.mty

(** [iter_init f ty init] lays [init] out as a value of type [ty],
    calling [f off leaf] for each store at byte offset [off], in order.
    It lays out zero in anything (no store), an integer in a scalar
    (converted at a float one), a float in a float scalar, a string in
    an [i8] array at least as long, a list no longer than its array or
    struct, and an address in a pointer; anything else raises
    [Init_mismatch], which [Verify] reports. *)
let iter_init f (ty : Irtype.mty) (init : ginit) =
  let rec lay off ty init =
    match (init, ty) with
    | Gzero, _ -> ()
    | Gint v, Irtype.MScalar s when Irtype.is_float_scalar s ->
      f off (Lfloat (s, Int64.to_float v))
    | Gint v, Irtype.MScalar s -> f off (Lint (s, v))
    | Gfloat x, Irtype.MScalar s when Irtype.is_float_scalar s ->
      f off (Lfloat (s, x))
    | Gstring b, Irtype.MArray (Irtype.MScalar Irtype.I8, n)
      when String.length b <= n ->
      f off (Lbytes b)
    | Garray items, Irtype.MArray (elem, n) when List.length items <= n ->
      let size = Irtype.mty_size elem in
      List.iteri (fun i item -> lay (off + (i * size)) elem item) items
    | Gstruct_init items, Irtype.MStruct s
      when List.compare_lengths items s.Irtype.s_fields <= 0 ->
      List.iteri
        (fun i item ->
          let fd = List.nth s.Irtype.s_fields i in
          lay (off + fd.Irtype.mf_off) fd.Irtype.mf_ty item)
        items
    | Gglobal_addr g, Irtype.MScalar Irtype.Ptr -> f off (Lglobal g)
    | Gfunc_addr g, Irtype.MScalar Irtype.Ptr -> f off (Lfunc g)
    | _ -> raise (Init_mismatch (init, ty))
  in
  lay 0 ty init

type extern_decl = {
  e_name : string;
  e_ret : Irtype.scalar option;
  e_params : Irtype.scalar list;
  e_variadic : bool;
}

type t = {
  mutable globals : global list;
  mutable funcs : Irfunc.t list;
  mutable externs : extern_decl list;
}

let create () = { globals = []; funcs = []; externs = [] }

let add_global m g = m.globals <- m.globals @ [ g ]
let add_func m f = m.funcs <- m.funcs @ [ f ]
let add_extern m e = m.externs <- m.externs @ [ e ]

let find_func m name = List.find_opt (fun f -> f.Irfunc.name = name) m.funcs
let find_global m name = List.find_opt (fun g -> g.g_name = name) m.globals
let find_extern m name = List.find_opt (fun e -> e.e_name = name) m.externs

let has_func m name = find_func m name <> None

(** Total static instruction count (parser/startup cost model input). *)
let instr_count m =
  List.fold_left (fun acc f -> acc + Irfunc.instr_count f) 0 m.funcs

(** Deep copy (see [Irfunc.copy]). *)
let copy (m : t) : t =
  { globals = m.globals; funcs = List.map Irfunc.copy m.funcs; externs = m.externs }

(** Link [extra] into [m]: functions/globals in [m] win on name clashes,
    so a user program can override a libc function by defining it.  A
    zero-initialized global loses against an initialized one of the same
    name (C tentative definitions: [extern FILE *stdout] in a program
    must not shadow the libc's definition). *)
let link (m : t) (extra : t) : t =
  let have_f name = has_func m name in
  let have_g name = find_global m name <> None in
  let m_globals =
    List.map
      (fun g ->
        match (g.g_init, find_global extra g.g_name) with
        | Gzero, Some ext when ext.g_init <> Gzero -> ext
        | _ -> g)
      m.globals
  in
  let m = { m with globals = m_globals } in
  {
    globals = m.globals @ List.filter (fun g -> not (have_g g.g_name)) extra.globals;
    funcs = m.funcs @ List.filter (fun f -> not (have_f f.Irfunc.name)) extra.funcs;
    externs =
      m.externs
      @ List.filter (fun e -> find_extern m e.e_name = None) extra.externs;
  }
