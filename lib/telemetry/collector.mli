(** Per-domain telemetry collector: a mutable buffer of metrics and
    hierarchical spans, plus the ambient ("current collector") API the
    instrumented layers record through.

    Thread-safety: a collector is {e domain-confined} — create, fill and
    freeze it on one domain.  The campaign driver creates one collector
    per program inside the worker, freezes it to a {!report}, and merges
    reports on the consuming domain in program order
    ({!merge_reports} is just {!Metrics.merge} plus span concatenation,
    so the order of merging — not the schedule — determines the result).

    The ambient current collector is domain-local state
    ([Domain.DLS]): installing a collector on one domain is invisible to
    every other domain, which is exactly the confinement the parallel
    campaign needs.  When no collector is installed every recording
    operation is a no-op, so library code can be instrumented
    unconditionally. *)

type span = {
  name : string;
  track : int;
      (** logical lane for trace viewers: the campaign uses
          [program index + 1], with 0 for campaign-level spans — never the
          OS domain, which would break cross-jobs determinism *)
  depth : int;  (** nesting depth when the span opened *)
  start_s : float;  (** clock value at open *)
  duration_s : float;
  args : (string * string) list;
}

type t

val create : ?clock:Scamv_util.Stopwatch.clock -> ?track:int -> unit -> t
(** Fresh empty collector.  [clock] (default {!Scamv_util.Stopwatch.wall})
    stamps span boundaries; {!Scamv_util.Stopwatch.frozen} makes all
    span timestamps and durations [0.], the deterministic mode the
    acceptance tests run under.  [track] tags every span (default 0). *)

type report = { metrics : Metrics.t; spans : span list }
(** Immutable snapshot of a collector: the value workers return. *)

val empty_report : report
val report : t -> report
(** Freeze the collector's current contents (spans in completion order). *)

val merge_reports : report -> report -> report
(** Merge program-ordered reports: metrics via {!Metrics.merge}, spans by
    concatenation.  Associative with {!empty_report} as identity. *)

(** {2 Ambient API}

    All functions below act on the domain's current collector and do
    nothing when none is installed. *)

val with_current : t -> (unit -> 'a) -> 'a
(** Install [c] as this domain's current collector for the duration of
    the callback (restoring the previous one afterwards, exceptions
    included). *)

val add : string -> int -> unit
(** Add to a counter of the current collector. *)

val incr : string -> unit

val observe : string -> float -> unit
(** Record a histogram observation. *)

val observe_n : string -> float -> int -> unit
(** Record [n] observations of the same value in one step
    ({!Metrics.observe_n}); a no-op for [n <= 0] or with no collector. *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a named span: timestamps from the
    collector's clock, nesting tracked, recorded when [f] returns or
    raises.  Closing a span also feeds its duration into the
    ["span.<name>.seconds"] histogram.  With no current collector this is
    exactly [f ()]. *)
