(** Fault-tolerant campaign driver: generate programs from a template,
    generate test cases per program through the pipeline, execute every
    test case on the simulated platform, and accumulate Table-1-style
    statistics.

    The driver is built for long, noisy runs: any exception in a
    per-program stage is captured as a recorded failure rather than a
    crash, hard path pairs are quarantined when their SAT budget runs out,
    flaky experiments are retried under a majority-vote policy, and a
    persistently journaled campaign can be resumed after being killed.

    Campaigns are embarrassingly parallel — each generated program is an
    independent synthesize→solve→run→compare unit — and {!run} exploits
    that through a deterministic Domain pool ({!Scamv_util.Pool}): with
    [~jobs:n] the per-program pipelines run on [n] domains while journal
    rows, statistics and progress events are merged strictly in program
    order, so every observable output is identical to a [~jobs:1] run
    under the same seed (see DESIGN.md Sec. 6). *)

type config = {
  name : string;
  isa : Scamv_arch.Isa.t;
      (** guest ISA: stamps every journal row and selects the pipeline's
          lifting/concretization architecture.  Must match the programs
          the template generates. *)
  template : Scamv_gen.Templates.t Scamv_gen.Gen.t;
  setup : Scamv_models.Refinement.t;
  view : Scamv_microarch.Executor.view;
  programs : int;
  tests_per_program : int;
  seed : int64;
  executor : Scamv_microarch.Executor.config;
  pipeline : Scamv_models.Refinement.t -> Pipeline.config;
  max_conflicts : int option;
      (** conflicts allowed per SAT call of every enumeration session;
          overrides the pipeline config's [max_conflicts] when set *)
  portfolio : int;
      (** solver portfolio size (>= 1); see {!Pipeline.config.portfolio}.
          With no [max_conflicts] the baseline configuration never
          exhausts, so campaign artifacts are identical for every size *)
  retry : Retry.policy;  (** executor retry/majority-vote policy *)
  faults : Scamv_microarch.Faults.config option;
      (** board-noise fault injection, applied to every executor run *)
  deadline_conflicts : int option;
      (** per-program virtual deadline: the conflicts all of a program's
          SAT searches may spend together ({!Scamv_util.Deadline.Conflicts}).
          Purely work-based, so output stays byte-identical across [jobs]
          levels; expiry records the program as crashed and the campaign
          continues *)
  chaos : Scamv_util.Chaos.t option;
      (** deterministic fault injector arming the worker-kill,
          journal-write and solver-budget chaos sites (share the same
          value with {!Journal.create} so journal sites fire too) *)
  clock : Scamv_util.Stopwatch.clock;
      (** time source for all measured durations;
          {!Scamv_util.Stopwatch.frozen} makes every timing field 0 and
          campaign output fully deterministic (used by the
          reproducibility tests) *)
  cancel : Scamv_util.Deadline.t option;
      (** campaign-level cooperative cancel token (the validation
          service's [DELETE /campaigns/:id]): once another thread calls
          {!Scamv_util.Deadline.cancel} on it, in-flight programs stop at
          their next poll and every remaining program is recorded as
          crashed with reason ["campaign cancelled"] — the campaign
          drains quickly but still returns a complete, journaled
          outcome.  When no [deadline_conflicts] is set the token goes
          ambient inside workers, so even a long SAT enumeration is
          interrupted at its next conflict. *)
}

val make :
  name:string ->
  ?isa:Scamv_arch.Isa.t ->
  template:Scamv_gen.Templates.t Scamv_gen.Gen.t ->
  setup:Scamv_models.Refinement.t ->
  ?view:Scamv_microarch.Executor.view ->
  ?programs:int ->
  ?tests_per_program:int ->
  ?seed:int64 ->
  ?max_conflicts:int ->
  ?portfolio:int ->
  ?retry:Retry.policy ->
  ?faults:Scamv_microarch.Faults.config ->
  ?deadline_conflicts:int ->
  ?chaos:Scamv_util.Chaos.t ->
  ?clock:Scamv_util.Stopwatch.clock ->
  ?cancel:Scamv_util.Deadline.t ->
  unit ->
  config

type outcome = {
  config_name : string;
  stats : Stats.t;
  wall_seconds : float;
  telemetry : Scamv_telemetry.Collector.report;
      (** merged metrics and spans from every executed program (in program
          order) plus the campaign-level spans.  Per-program collectors are
          installed inside the workers, so SAT/SMT, lifter, executor and
          pipeline instrumentation all land here; under
          {!Scamv_util.Stopwatch.frozen} the report (and everything
          {!Scamv_telemetry.Export} derives from it) is byte-identical
          across [jobs] levels.  Programs replayed from a resume journal
          were not re-executed and contribute no telemetry. *)
}

val run :
  ?on_event:(string -> unit) ->
  ?on_record:(Journal.event -> unit) ->
  ?journal:Journal.t ->
  ?resume:string ->
  ?pool:Scamv_util.Pool.t ->
  ?jobs:int ->
  config ->
  outcome
(** Runs the whole campaign.  [on_event] receives one-line progress
    messages (program counts, first counterexample, quarantines,
    failures, ...); every event is appended to [journal] when one is
    supplied.

    [on_record] is the incremental record hook the validation service
    streams from: it receives every {!Journal.event} — including events
    replayed from a [resume] journal — on the calling domain, in program
    order, at the moment the event is merged (i.e. as each program
    completes, not at campaign end).  The sequence of events delivered to
    [on_record] is exactly the sequence recorded into [journal].

    [pool] runs the per-program pipelines on a persistent
    {!Scamv_util.Pool} instead of spawning domains for this call; the
    pool's size then plays the role of [jobs].  Campaign artifacts are
    identical either way — the service uses this to share one warmed-up
    pool across many campaigns.

    [jobs] (default [1]) is the number of worker domains running program
    pipelines concurrently; [0] means all cores
    ([Domain.recommended_domain_count ()], see
    {!Scamv_util.Pool.resolve_jobs}).  Each program consumes a dedicated
    RNG stream split off the campaign seed in program order, and completed
    programs are merged in program order on the calling domain, so journal
    contents, checkpoint prefixes, final statistics and the sequence of
    [on_event] lines do not depend on [jobs]; only the timing *values*
    (seconds columns, time to first counterexample) reflect the actual
    schedule.  [on_event] and [journal] are only ever touched from the
    calling domain.

    [resume] names a journal written by an earlier (killed) run of the
    same configuration: programs that completed there are replayed into
    the statistics (and re-recorded into [journal]) instead of re-executed,
    and the campaign continues from the first program not known to have
    finished.  The journal is loaded {e tolerantly} ({!Journal.load}): a
    torn or corrupted tail — a SIGKILL mid-write, a chaos-poisoned
    record — is dropped, reported through [on_event] and counted in the
    [journal.recovered_records] telemetry, and the affected program is
    simply re-run.  Because all per-program randomness is split off the
    campaign seed up front, a resumed run produces final statistics
    identical to an uninterrupted one.

    Supervision: a worker-domain crash (chaos kill, stack overflow) is
    captured by {!Scamv_util.Pool.run_supervised} — the domain is
    respawned ([pool.restarts] telemetry), the lost program is recorded as
    a {!Journal.Crashed} event and counted in
    {!Stats.t.crashed_programs}, and the campaign continues.  Deadline
    expiry ([deadline.hits] telemetry) ends only the affected program.
    [Out_of_memory] and [Sys.Break] still abort the whole campaign. *)
