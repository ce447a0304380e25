(** Deterministic exporters for telemetry reports.

    All output is a pure function of the report — metrics in name order,
    spans in completion order — so frozen-clock campaigns export
    byte-identical files regardless of [--jobs]. *)

val trace_string : Collector.report -> string
(** Chrome trace-event document ([chrome://tracing] / Perfetto),
    pretty-printed; what [--trace FILE] writes.  One ["ph":"X"] complete
    event per span, [ts]/[dur] in microseconds, [pid] 1, [tid] the span's
    track, span arguments (plus nesting [depth]) under [args]. *)

val prometheus : Metrics.t -> string
(** Prometheus text exposition: [# TYPE] line per metric, mangled names
    ([scamv_] prefix, non-alphanumerics to [_]), histograms as cumulative
    [_bucket{le="..."}] lines (only occupied boundaries, plus the
    mandatory [+Inf]) with [_sum]/[_count].  What [--metrics FILE]
    writes. *)

val summary_table : Metrics.t -> string
(** Rendered end-of-run summary table (header [metric | kind | value]). *)

val to_file : string -> string -> unit
(** [to_file path contents] writes [contents] to [path]. *)
