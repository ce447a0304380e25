(** The named workload catalogue shared by the batch CLI and the
    validation service: resolves (template, setup) names to the
    generator, refinement and executor view a campaign needs.  Because
    both front ends resolve through the same table and name campaigns
    with the same formula, a served campaign is constructed exactly like
    a batch one — the prerequisite for byte-identical artifacts. *)

val setups : (string * (unit -> Scamv_models.Refinement.t)) list

val lookup_setup : string -> (Scamv_models.Refinement.t, string) result

val lookup_template :
  ?isa:Scamv_arch.Isa.t ->
  string ->
  (Scamv_gen.Templates.t Scamv_gen.Gen.t, string) result
(** Resolve a template name for the given guest ISA (default
    [Aarch64]); the error message lists the valid names. *)

val view_for : string -> Scamv_microarch.Executor.view
(** Executor observation view matching a setup name (partition setups
    watch their cache region, the rest the full cache). *)

val campaign_name : setup:string -> template:string -> string
(** The batch CLI's campaign-name formula; journal records embed it, so
    the service must use the identical spelling. *)
