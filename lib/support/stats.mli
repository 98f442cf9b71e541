(** Descriptive statistics for the benchmark harness. *)

(** Arithmetic mean.  Raises [Invalid_argument] on the empty list, as do
    the other aggregations. *)
val mean : float list -> float

val variance : float list -> float
val stddev : float list -> float

(** Linear-interpolation quantile (R type 7); [q] in [0, 1]. *)
val quantile : float list -> float -> float

val median : float list -> float

type boxplot = {
  low : float;   (** minimum *)
  q1 : float;
  med : float;
  q3 : float;
  high : float;  (** maximum *)
}

val boxplot : float list -> boxplot

(** Scale every field by [1/denom] (Figure 16's normalization to the
    Clang -O0 median). *)
val boxplot_relative : boxplot -> denom:float -> boxplot
