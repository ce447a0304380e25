(** Pure metrics registry: counters, gauges and log2-bucketed histograms
    keyed by name.

    Everything here is value-semantic.  Worker domains accumulate their
    own registries (through {!Collector}) and the campaign consumer folds
    them together in program order with {!merge}, which is {e associative}
    and has {!empty} as identity — the same algebra as
    [Scamv.Stats.merge].  That law is what keeps campaign telemetry
    byte-identical across [--jobs] levels under a frozen clock, and it is
    checked by [test/test_telemetry.ml]. *)

type hist = {
  counts : int array;  (** per-bucket observation counts, length {!bucket_count} *)
  count : int;  (** total observations *)
  sum : float;  (** sum of observed values *)
}

type value = Counter of int | Gauge of float | Histogram of hist

type t

val empty : t
(** Identity of {!merge}. *)

val bucket_count : int
(** Number of histogram buckets (64). *)

val bucket_of : float -> int
(** Deterministic log2 bucket index of a value: non-positive and
    non-finite values go to bucket 0; a positive [v] with
    [frexp v = (_, e)] (so [v] in [[2^(e-1), 2^e)]) goes to bucket
    [clamp (e + 21) 1 63].  Exposed for the exporter and the law tests. *)

val bucket_upper_bound : int -> float
(** Exclusive upper bound [2^(b-21)] of bucket [b]; bucket 63 is
    unbounded (the exporter labels it [+Inf]). *)

val add : string -> int -> t -> t
(** Add to a counter (created at 0). *)

val incr : string -> t -> t
(** [add name 1]. *)

val set_gauge : string -> float -> t -> t
(** Set a gauge.  Merging is right-biased: the later (program-order)
    write wins, which keeps the merge associative. *)

val observe : string -> float -> t -> t
(** Record one observation into a histogram. *)

val observe_n : string -> float -> int -> t -> t
(** [observe_n name x n] records [n] observations of the same value [x]
    in one step (one bucket increment, [sum += n*x]) — equivalent to [n]
    calls to {!observe} but O(1) in [n].  [n <= 0] is a no-op.  Used to
    flush locally-accumulated histograms such as the SAT solver's
    per-query LBD counts. *)

val merge : t -> t -> t
(** Pointwise merge: counters add, histograms add bucket-wise, gauges take
    the right operand.  Associative, with {!empty} as two-sided identity.
    @raise Invalid_argument if a name is used at two different kinds. *)

val counter : t -> string -> int
(** Value of a counter, [0] when absent. *)

val gauge : t -> string -> float option

val histogram_sum : t -> string -> float
(** Sum of a histogram's observations, [0.] when absent — the campaign
    phase totals the benchmark harness reads. *)

val histogram_n : t -> string -> int

val to_list : t -> (string * value) list
(** All metrics sorted by name (deterministic exporter order). *)
