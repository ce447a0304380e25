(** Retry policy with majority-vote verdict aggregation.

    Real campaigns re-run flaky experiments: a measurement dropped by the
    board or perturbed by noise yields [Inconclusive], and only repeated
    agreement is trusted.  [execute] runs an experiment up to
    [max_attempts] times, stopping early once one conclusive verdict has
    [confirm] votes, and aggregates by majority; persistent disagreement
    (or no conclusive attempt at all) downgrades to [Inconclusive]. *)

type policy = {
  max_attempts : int;  (** hard cap on executions per experiment (>= 1) *)
  confirm : int;
      (** votes needed to accept a conclusive verdict early; [1] trusts
          the first conclusive attempt (retrying only on noise), higher
          values demand independent agreement *)
}

val default : policy
(** One attempt, no retries: the behaviour of a noise-free campaign. *)

val make : ?max_attempts:int -> ?confirm:int -> unit -> policy
(** @raise Invalid_argument if any count field is below 1. *)

type outcome = {
  verdict : Scamv_microarch.Executor.verdict;  (** the aggregated verdict *)
  attempts : int;  (** executions actually performed (>= 1) *)
  retries : int;  (** [attempts - 1] *)
  faults : int;  (** total injected faults observed across attempts *)
}

val execute :
  policy -> (attempt:int -> Scamv_microarch.Executor.verdict * int) -> outcome
(** [execute policy run] calls [run ~attempt:i] (with [i] counting from 0)
    until a verdict is confirmed or the attempts run out.  [run] returns
    the attempt's verdict and its injected-fault count. *)
