(** Campaign statistics, mirroring the rows of Table 1 / Fig. 7.

    A row is a fold over journal events ({!add_program}): the live
    campaign, a resumed one replaying its checkpoint, the validation
    service and a differential campaign all build it from the same
    events, so their rows agree by construction. *)

type t = {
  programs : int;
  programs_with_counterexample : int;
  experiments : int;
  counterexamples : int;
  inconclusive : int;
  skipped_programs : int;
      (** programs abandoned after an exception in prepare/generate/execute *)
  crashed_programs : int;
      (** programs lost to a supervised failure: a worker-domain crash or
          an expired deadline (see {!Scamv_util.Deadline}) *)
  budget_exceeded : int;  (** path pairs quarantined by the SAT budget *)
  retries : int;  (** extra executor attempts beyond the first *)
  faults_observed : int;  (** injected faults seen across all experiments *)
  divergences : int;
      (** path pairs where a differential campaign's two ISAs disagreed on
          the verdict (see {!Diff}); always 0 for single-ISA campaigns *)
  generation_seconds : float;  (** summed per-test-case synthesis time *)
  execution_seconds : float;  (** summed per-experiment run time *)
  time_to_first_counterexample : float option;  (** wall seconds, None = never *)
}

val empty : t

val add_event : elapsed:float -> t -> Journal.event -> t
(** Count one event.  [elapsed] (seconds on the campaign clock) becomes
    the time to first counterexample if this is the first one. *)

val add_program : elapsed:float -> t -> Journal.event list -> t
(** Count one program from its events, in order: {!add_event} on each,
    then one more program, with a counterexample if its events raised
    [counterexamples].  A program with no events still counts. *)

val merge : t -> t -> t
(** Pure merge of two disjoint sub-campaigns' statistics: counts and
    time sums add, and the earlier time-to-first-counterexample wins (both
    operands measure elapsed time against the same campaign clock).
    [empty] is the identity; merge is associative and commutative up to
    float rounding of the time sums. *)

val pp : Format.formatter -> t -> unit

val header : string list
(** Table header: ["campaign"], then one label per {!row} column. *)

val row : name:string -> t -> string list
(** Table row: [name], then the count columns from programs to faults,
    the average generation and execution seconds, and the time to first
    counterexample. *)
