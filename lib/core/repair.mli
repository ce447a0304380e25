(** Automatic observation repair (the future-work direction of Sec. 8:
    "refine unsound observation models to automatically restore their
    soundness, e.g., by adding state observations").

    The repair loop searches the refinement lattice between the model
    under validation [M1] and a trusted sound over-approximation (here
    [Mspec], which Guarnieri et al. showed to be a valid
    over-approximation for branch-prediction-only microarchitectures):
    it validates the candidate that observes the first [k] transient
    loads of every mispredicted branch, increasing [k] each time testing
    finds a counterexample, and returns the weakest candidate for which
    the campaign finds none.

    The result is a per-workload *tailored* model in the spirit of
    Sec. 6.5: e.g. observing one transient load suffices for the
    dependent-load programs of Template C, while Template B needs two. *)

type candidate = {
  observed_transient_loads : int;  (** [k]; 0 = plain Mct *)
  setup : Scamv_models.Refinement.t;
      (** validation setup for this candidate: first [k] transient loads
          are part of the model (Base), the rest drive refinement *)
}

type step = {
  tried : candidate;
  stats : Stats.t;
  sound_so_far : bool;  (** no counterexample found by this campaign *)
  vacuous : bool;
      (** the campaign ran no experiments because the trusted model adds
          no observations over the candidate on this workload — the
          candidate is then as strong as the trusted bound itself *)
}

type outcome = {
  steps : step list;  (** in trial order *)
  repaired : candidate option;
      (** weakest candidate that validated, or [None] if even the
          strongest candidate (all transient loads observed) failed *)
}

val run :
  ?max_loads:int ->
  ?window:int ->
  ?programs:int ->
  ?tests_per_program:int ->
  ?seed:int64 ->
  template:Scamv_gen.Templates.t Scamv_gen.Gen.t ->
  unit ->
  outcome
(** Repair [Mct] for the workload described by [template].  [max_loads]
    bounds the lattice (default 4).  Soundness is judged by testing, as
    in the paper: absence of counterexamples is evidence, not proof. *)
