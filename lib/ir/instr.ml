(** Values, instructions and terminators of the IR.

    The IR is register-based and produced in the style of Clang -O0
    output: every C local is an [Alloca]; reads and writes go through
    [Load]/[Store]; [Mem2reg] later promotes them.  Pointer arithmetic is
    expressed with [Gep], whose indices carry the already-resolved strides
    and field offsets, so every engine computes byte offsets the same
    way. *)

type reg = int

type value =
  | Reg of reg
  | ImmInt of int64 * Irtype.scalar  (** normalized to its width *)
  | ImmFloat of float * Irtype.scalar
  | Null
  | GlobalAddr of string
  | FuncAddr of string

type binop =
  | Add | Sub | Mul | Sdiv | Udiv | Srem | Urem
  | Shl | Lshr | Ashr | And | Or | Xor
  | FAdd | FSub | FMul | FDiv

type icmp = Ieq | Ine | Islt | Isle | Isgt | Isge | Iult | Iule | Iugt | Iuge
type fcmp = Feq | Fne | Flt | Fle | Fgt | Fge

type cast =
  | Trunc | Zext | Sext
  | Fptrunc | Fpext
  | Fptosi | Sitofp | Fptoui | Uitofp
  | Ptrtoint | Inttoptr
  | Bitcast  (** same-width reinterpretation, e.g. i64 <-> f64 *)

type gep_index =
  | Gfield of int * int
      (** (field index, byte offset): step into a struct field *)
  | Gindex of value * int
      (** (index, element byte size): array/pointer element step *)

type callee = Direct of string | Indirect of value

(** Memory access kind for sanitizer check pseudo-instructions. *)
type access_kind = AccLoad | AccStore

type instr =
  | Alloca of reg * Irtype.mty
  | Load of reg * Irtype.scalar * value
  | Store of Irtype.scalar * value * value  (** (ty, stored value, ptr) *)
  | Gep of reg * value * gep_index list
  | Binop of reg * binop * Irtype.scalar * value * value
  | Icmp of reg * icmp * Irtype.scalar * value * value
  | Fcmp of reg * fcmp * Irtype.scalar * value * value
  | Cast of reg * cast * Irtype.scalar * Irtype.scalar * value
      (** (result, op, from, to, v) *)
  | Call of reg option * Irtype.scalar option * callee * (Irtype.scalar * value) list
      (** (result, return type, callee, typed args) *)
  | Phi of reg * Irtype.scalar * (string * value) list
      (** (incoming block label, value) pairs *)
  | Sancheck of access_kind * value * int
      (** sanitizer check inserted by instrumentation: (kind, ptr, size);
          a no-op except under the ASan engine *)
  | Srcloc of int * int
      (** source-provenance marker (line, col): the statement that
          produced the following instructions.  Executes as a free
          metadata update (never charged as a modeled operation, and
          excluded from static instruction counts) so bug reports can
          name the faulting C line without perturbing the cost model *)

type terminator =
  | Ret of (Irtype.scalar * value) option
  | Br of string
  | Condbr of value * string * string
  | Switch of value * (int64 * string) list * string
  | Unreachable

(** Registers defined by an instruction. *)
let def_of = function
  | Alloca (r, _)
  | Load (r, _, _)
  | Gep (r, _, _)
  | Binop (r, _, _, _, _)
  | Icmp (r, _, _, _, _)
  | Fcmp (r, _, _, _, _)
  | Cast (r, _, _, _, _)
  | Phi (r, _, _) ->
    Some r
  | Call (r, _, _, _) -> r
  | Store _ | Sancheck _ | Srcloc _ -> None

(** Values read by an instruction (for liveness / DCE). *)
let uses_of = function
  | Alloca _ -> []
  | Load (_, _, p) -> [ p ]
  | Store (_, v, p) -> [ v; p ]
  | Gep (_, base, idx) ->
    base
    :: List.filter_map (function Gindex (v, _) -> Some v | Gfield _ -> None) idx
  | Binop (_, _, _, a, b) | Icmp (_, _, _, a, b) | Fcmp (_, _, _, a, b) ->
    [ a; b ]
  | Cast (_, _, _, _, v) -> [ v ]
  | Call (_, _, callee, args) ->
    let base = match callee with Indirect v -> [ v ] | Direct _ -> [] in
    base @ List.map snd args
  | Phi (_, _, incoming) -> List.map snd incoming
  | Sancheck (_, p, _) -> [ p ]
  | Srcloc _ -> []

let term_uses = function
  | Ret (Some (_, v)) -> [ v ]
  | Ret None -> []
  | Br _ -> []
  | Condbr (v, _, _) -> [ v ]
  | Switch (v, _, _) -> [ v ]
  | Unreachable -> []

(** [i] with [f] applied to each value [uses_of i] lists, in place;
    the defined register, phi labels and everything else stay as they
    are.  The one operand rewrite every substituting pass shares. *)
let map_values f = function
  | Load (r, s, p) -> Load (r, s, f p)
  | Store (s, v, p) -> Store (s, f v, f p)
  | Gep (r, base, idx) ->
    Gep
      ( r,
        f base,
        List.map (function Gindex (v, st) -> Gindex (f v, st) | g -> g) idx )
  | Binop (r, op, s, a, b) -> Binop (r, op, s, f a, f b)
  | Icmp (r, op, s, a, b) -> Icmp (r, op, s, f a, f b)
  | Fcmp (r, op, s, a, b) -> Fcmp (r, op, s, f a, f b)
  | Cast (r, op, from, into, v) -> Cast (r, op, from, into, f v)
  | Call (r, ret, callee, args) ->
    let callee = match callee with Indirect v -> Indirect (f v) | c -> c in
    Call (r, ret, callee, List.map (fun (s, v) -> (s, f v)) args)
  | Phi (r, s, incoming) -> Phi (r, s, List.map (fun (l, v) -> (l, f v)) incoming)
  | Sancheck (kind, p, size) -> Sancheck (kind, f p, size)
  | (Alloca _ | Srcloc _) as i -> i

(** [map_values] for terminators: [f] applied to what [term_uses]
    lists; branch targets stay. *)
let map_term_values f = function
  | Ret (Some (s, v)) -> Ret (Some (s, f v))
  | Condbr (c, a, b) -> Condbr (f c, a, b)
  | Switch (v, cases, d) -> Switch (f v, cases, d)
  | (Ret None | Br _ | Unreachable) as t -> t

let term_successors = function
  | Ret _ | Unreachable -> []
  | Br l -> [ l ]
  | Condbr (_, a, b) -> [ a; b ]
  | Switch (_, cases, default) -> default :: List.map snd cases
