(** The named workload catalogue and the one request path shared by the
    batch CLI, the validation service and the service benchmark: {!config}
    resolves a named campaign request — template, setup, ISA, counts,
    seed and knobs — to the {!Scamv.Campaign.config} it runs.  Because
    every front end builds its campaigns through that one function (the
    same lookups, executor view, campaign-name formula and range rules),
    a served campaign is constructed exactly like a batch one — the
    prerequisite for byte-identical artifacts. *)

val setups : (string * (unit -> Scamv_models.Refinement.t)) list

val models : unit -> Scamv_models.Model.t list
(** The observational models the setups are built from (for
    [scamv models]). *)

val lookup_setup : string -> (Scamv_models.Refinement.t, string) result
(** The error message lists the valid names. *)

val lookup_template :
  ?isa:Scamv_arch.Isa.t ->
  string ->
  (Scamv_gen.Templates.t Scamv_gen.Gen.t, string) result
(** Resolve a template name for the given guest ISA (default
    [Aarch64]); the error message lists the valid names. *)

val isa_of_string :
  string -> ([ `Single of Scamv_arch.Isa.t | `Diff ], string) result
(** The request's ISA name: a guest ISA ({!Scamv_arch.Isa.of_string}) or
    ["diff"], the differential request that runs both.  The one copy of
    the name rule the service's [isa] field goes through. *)

val view_for : string -> Scamv_microarch.Executor.view
(** Executor observation view matching a setup name (partition setups
    watch their cache region, the rest the full cache). *)

val campaign_name : setup:string -> template:string -> string
(** ["<setup> on template <template>"]; journal records embed it. *)

val config :
  template:string ->
  setup:string ->
  isa:[ `Single of Scamv_arch.Isa.t | `Diff ] ->
  programs:int ->
  tests:int ->
  seed:int64 ->
  ?max_conflicts:int ->
  ?deadline_conflicts:int ->
  ?portfolio:int ->
  ?retry:Scamv.Retry.policy ->
  ?faults:Scamv_microarch.Faults.config ->
  ?chaos:Scamv_util.Chaos.t ->
  ?clock:Scamv_util.Stopwatch.clock ->
  ?cancel:Scamv_util.Deadline.t ->
  unit ->
  (Scamv.Campaign.config, string) result
(** The campaign a named request runs, named {!campaign_name} and
    watching {!view_for} [setup].  [`Diff] is the differential request
    ({!Scamv.Diff.run}): the template must exist on both ISAs, and the
    config carries the AArch64 side.  [max_conflicts] (per SAT call) and
    [deadline_conflicts] (per program) take 0, their default, for no
    budget.  [Error] names the first violated rule: [programs] and
    [tests] in \[1, 100000\], both conflict budgets at least 0,
    [portfolio] in \[1, 64\] (default 1), or an unknown template or
    setup. *)
