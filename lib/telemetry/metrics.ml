(* Pure metrics registry: a map from metric name to counter, gauge or
   log2-bucketed histogram.  The whole module is value-semantic so that
   per-program registries produced on worker domains can be merged in
   program order — [merge] is associative with [empty] as identity, the
   same law {!Scamv.Stats.merge} obeys, which is what makes campaign
   telemetry independent of the [--jobs] level. *)

module M = Map.Make (String)

let bucket_count = 64

(* Log2 bucketing: non-positive (and non-finite) values land in bucket 0;
   a positive value v with frexp exponent e (v in [2^(e-1), 2^e)) lands in
   bucket clamp(e + 21, 1, 63).  The +21 offset puts sub-microsecond
   durations in the lowest buckets, so one histogram type serves both
   second-valued phase timings and integer-valued work counts. *)
let bucket_of v =
  if (not (Float.is_finite v)) || v <= 0.0 then 0
  else begin
    let _, e = Float.frexp v in
    let b = e + 21 in
    if b < 1 then 1 else if b > bucket_count - 1 then bucket_count - 1 else b
  end

(* Upper bound of bucket [b] (inclusive-exclusive boundary), used by the
   Prometheus exporter's [le] labels.  Bucket 63 is unbounded. *)
let bucket_upper_bound b = Float.ldexp 1.0 (b - 21)

type hist = { counts : int array; count : int; sum : float }

let hist_empty = { counts = Array.make bucket_count 0; count = 0; sum = 0.0 }

(* Bulk observation: [n] identical values land in one bucket with one
   array copy, so callers flushing a local histogram (e.g. the SAT
   solver's per-query LBD counts) pay O(buckets) per flush instead of
   O(buckets * observations). *)
let hist_observe_n h v n =
  let counts = Array.copy h.counts in
  let b = bucket_of v in
  counts.(b) <- counts.(b) + n;
  { counts; count = h.count + n; sum = h.sum +. (v *. float_of_int n) }


let hist_merge a b =
  {
    counts = Array.init bucket_count (fun i -> a.counts.(i) + b.counts.(i));
    count = a.count + b.count;
    sum = a.sum +. b.sum;
  }

type value = Counter of int | Gauge of float | Histogram of hist

type t = value M.t

let empty = M.empty

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let kind_error name a b =
  invalid_arg
    (Printf.sprintf "Metrics: %s used both as %s and as %s" name (kind_name a)
       (kind_name b))

let add name n t =
  M.update name
    (function
      | None -> Some (Counter n)
      | Some (Counter c) -> Some (Counter (c + n))
      | Some v -> kind_error name (Counter n) v)
    t

let incr name t = add name 1 t

let set_gauge name x t =
  M.update name
    (function
      | None | Some (Gauge _) -> Some (Gauge x)
      | Some v -> kind_error name (Gauge x) v)
    t

let observe_n name x n t =
  if n <= 0 then t
  else
    M.update name
      (function
        | None -> Some (Histogram (hist_observe_n hist_empty x n))
        | Some (Histogram h) -> Some (Histogram (hist_observe_n h x n))
        | Some v -> kind_error name (Histogram hist_empty) v)
      t

let observe name x t = observe_n name x 1 t

(* Gauges are merged right-biased ("later run wins"), which is associative
   and respects the identity law because an absent key never overrides. *)
let merge_value name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge _, Gauge y -> Gauge y
  | Histogram x, Histogram y -> Histogram (hist_merge x y)
  | _ -> kind_error name a b

let merge a b = M.union (fun name x y -> Some (merge_value name x y)) a b

let counter t name =
  match M.find_opt name t with Some (Counter c) -> c | _ -> 0

let gauge t name =
  match M.find_opt name t with Some (Gauge x) -> Some x | _ -> None

let histogram t name =
  match M.find_opt name t with Some (Histogram h) -> Some h | _ -> None

let histogram_sum t name =
  match histogram t name with Some h -> h.sum | None -> 0.0

let histogram_n t name =
  match histogram t name with Some h -> h.count | None -> 0

let to_list t = M.bindings t
