(** Miscellaneous helpers shared across the reproduction. *)

(** [string_contains ~needle hay] is true when [needle] occurs in [hay];
    the keyword classifier of Figures 1-2 is built on this. *)
let string_contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then true
  else if nl > hl then false
  else begin
    let rec at i =
      if i + nl > hl then false
      else if String.sub hay i nl = needle then true
      else at (i + 1)
    in
    at 0
  end

let lowercase = String.lowercase_ascii

(** Round [x] up to the next multiple of [align] (a power of two is not
    required). *)
let align_up x align =
  if align <= 0 then invalid_arg "Util.align_up";
  (x + align - 1) / align * align

(** [take n xs] is the first [n] elements of [xs] (or all of them). *)
let rec take n xs =
  match (n, xs) with
  | 0, _ | _, [] -> []
  | n, x :: rest -> x :: take (n - 1) rest

(** [range a b] is [a; a+1; ...; b-1]. *)
let range a b =
  let rec go i acc = if i >= b then List.rev acc else go (i + 1) (i :: acc) in
  go a []

(** [sum_by f xs] sums [f x] over the list. *)
let sum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
