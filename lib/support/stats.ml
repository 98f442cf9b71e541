(** Small descriptive-statistics toolkit used by the benchmark harness
    (box plots of peak performance, warm-up series summaries). *)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance xs =
  let m = mean xs in
  let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
  sq /. float_of_int (List.length xs)

let stddev xs = sqrt (variance xs)

(** Linear-interpolation quantile (type 7, as in R), [q] in [0, 1]. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.quantile: empty"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n = 1 then a.(0)
    else begin
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = min (lo + 1) (n - 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
    end

let median xs = quantile xs 0.5

type boxplot = {
  low : float;   (** minimum *)
  q1 : float;
  med : float;
  q3 : float;
  high : float;  (** maximum *)
}

let boxplot xs =
  {
    low = quantile xs 0.0;
    q1 = quantile xs 0.25;
    med = quantile xs 0.5;
    q3 = quantile xs 0.75;
    high = quantile xs 1.0;
  }

(** Scale every field of a boxplot by [1/denom]; used to normalize
    execution times to the Clang -O0 median as in Figure 16. *)
let boxplot_relative b ~denom =
  {
    low = b.low /. denom;
    q1 = b.q1 /. denom;
    med = b.med /. denom;
    q3 = b.q3 /. denom;
    high = b.high /. denom;
  }
