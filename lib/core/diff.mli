(** Differential cross-ISA campaigns: the same (template, setup, seed)
    run on both guest ISAs, with per-path-pair verdict comparison.

    Scam-V's multi-architecture claim (Sec. 2.3) is that the validation
    methodology is ISA-independent; a differential campaign probes the
    places where it is not.  Both sides share the campaign seed and the
    campaign engine's determinism discipline, so the run — including the
    {!Scamv.Journal.event.Diverged} events it appends after the two
    campaigns — is byte-reproducible and independent of [jobs].

    A side's verdict for a (program, path pair) is the {e strongest} over
    its test cases (distinguishable > inconclusive > indistinguishable):
    one distinguishable test case falsifies the pair no matter how many
    indistinguishable ones surround it.  A divergence is a pair both
    sides explored whose strongest verdicts differ — e.g. AArch64's
    flag-latency speculation window admitting transient loads the RV64
    compare-and-branch discipline does not. *)

type outcome = {
  name : string;
  aarch64 : Campaign.outcome;
  riscv : Campaign.outcome;
  divergences : Journal.event list;
      (** [Diverged] events, sorted by (program, pair) *)
  compared_pairs : int;  (** (program, pair) keys present on both sides *)
  unmatched_pairs : int;  (** keys explored by exactly one side *)
  stats : Stats.t;
      (** both sides' statistics merged, divergences recorded *)
}

val run :
  ?on_event:(string -> unit) ->
  ?on_record:(Journal.event -> unit) ->
  ?journal:Journal.t ->
  ?pool:Scamv_util.Pool.t ->
  ?jobs:int ->
  template:string ->
  Campaign.config ->
  outcome
(** [run ~template cfg] runs the AArch64 side, then the RISC-V side, then
    compares.  Each side is [cfg] — budgets, deadline, portfolio, clock,
    cancel token and all — with its [isa] set to that side's ISA and its
    [template] instantiated from [template], a
    {!Scamv_gen.Templates.by_name} name; [cfg]'s own [isa] and [template]
    are ignored.  The two campaigns are named ["<name> [aarch64]"] and
    ["<name> [riscv]"] after [cfg.name];
    their rows (and then the [Diverged] events) all land in [journal] and
    stream through [on_record], in that order.  Telemetry counters
    [diff.compared_pairs], [diff.unmatched_pairs] and [diff.divergences]
    are added to the ambient collector.
    @raise Invalid_argument on an unknown template name. *)
