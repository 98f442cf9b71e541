(** Register values of the native executor.  Pointers are plain 64-bit
    addresses — there is nothing managed here.  Every value carries a
    definedness flag: the minimal V-bit propagation that lets the
    Memcheck simulator report "conditional jump depends on uninitialised
    value(s)" without a full binary-translation framework. *)

type t =
  | NI of int64 * bool  (** integer/pointer value, defined? *)
  | NF of float * bool

exception Prog_exit of int
exception Native_trap of string  (** SIGFPE and friends *)

let int_ v = NI (v, true)
let float_ v = NF (v, true)
let zero = NI (0L, true)

let as_int = function NI (v, _) -> v | NF (f, _) -> Int64.of_float f
let as_float = function NF (f, _) -> f | NI (v, _) -> Int64.to_float v
let defined = function NI (_, d) | NF (_, d) -> d
