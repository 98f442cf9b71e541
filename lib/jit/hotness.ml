(** Hotness accounting shared by the real tier controller
    ([Tier.controller]) and the simulated one ([Simulate.warmup]).
    Both consult the same per-function dynamic-operation total against
    the same [Costmodel.hot_threshold_ops] threshold, so the simulated
    and real tier-up points cannot drift. *)

(** Hot: the function has executed at least [threshold] operations of
    any kind ([Interp.total_ops]). *)
let is_hot ?(threshold = Costmodel.hot_threshold_ops) (c : Interp.counters) =
  Interp.total_ops c >= threshold

(** Accumulator for the warm-up simulation, which replays per-iteration
    op counts instead of reading live interpreter counters. *)
type acc = (string, int) Hashtbl.t

let acc_create () : acc = Hashtbl.create 16

(** Add [ops] freshly executed operations of function [f]. *)
let record (a : acc) f ops =
  Hashtbl.replace a f (ops + Option.value (Hashtbl.find_opt a f) ~default:0)

let hot ?(threshold = Costmodel.hot_threshold_ops) (a : acc) f =
  Option.value (Hashtbl.find_opt a f) ~default:0 >= threshold
