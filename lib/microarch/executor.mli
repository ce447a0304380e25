(** The experiment platform (Sec. 6.1): runs a test case (two initial
    states, plus branch-predictor training states) on the simulated
    Cortex-A53 and decides distinguishability by inspecting the final data
    cache, with the paper's 10-repetition consistency check. *)

type view =
  | Full_cache  (** privileged dump of the whole L1D *)
  | Region of { first_set : int; last_set : int }
      (** dump restricted to the attacker-accessible sets (cache-coloring
          experiments) *)
  | Tlb_state  (** the resident pages of the data micro-TLB: the TLB
                   side channel of Sec. 2.3 *)
  | Total_time  (** the PMC cycle count of the victim's execution: the
                    end-to-end timing channel *)

type verdict =
  | Distinguishable  (** counterexample to the model's soundness *)
  | Indistinguishable
  | Inconclusive  (** repetitions disagreed (Sec. 6.1) *)

type config = {
  core : Core.config;
  view : view;
  repetitions : int;  (** default 10 *)
  train_runs : int;  (** predictor training executions per repetition *)
}

val default_config : ?view:view -> unit -> config

type experiment = {
  program : Scamv_arch.Isa.program;
  state1 : Scamv_isa.Machine.t;
  state2 : Scamv_isa.Machine.t;
  train : Scamv_isa.Machine.t list;
      (** inputs taking a different path, used to (mis)train the branch
          predictor before each measured run (Sec. 5.3); empty for
          non-speculative experiments *)
}

val run : ?seed:int64 -> ?faults:Faults.config -> config -> experiment -> verdict
(** Run the experiment.  [faults], when given, injects deterministic board
    noise (see {!Faults}) into every attacker observation; noisy or dropped
    observations fail the repetition-consistency check and degrade the
    verdict to [Inconclusive], exactly like a flaky physical board. *)

val run_observed :
  ?seed:int64 -> ?faults:Faults.config -> config -> experiment -> verdict * int
(** Like {!run}, also reporting how many faults were injected during this
    run (always [0] without [faults]); the campaign layer aggregates the
    count into its statistics. *)

