(** The Scam-V test-case generation pipeline (Fig. 1):

    program -> observation augmentation -> symbolic execution ->
    relation synthesis -> SMT model enumeration -> test case.

    Symbolic execution and relation synthesis run once per program and are
    cached; only model enumeration runs per test case (the caching
    optimization of Sec. 5).  Path pairs are explored round-robin
    (Sec. 5.4), and each pair keeps its own SMT enumeration session. *)

type config = {
  setup : Scamv_models.Refinement.t;
  isa : Scamv_arch.Isa.t;
      (** guest ISA this pipeline lifts and concretizes for; must match
          the programs handed to {!prepare} *)
  platform : Scamv_isa.Platform.t;
  diversify : bool;
      (** randomize solver phases between enumerated models, spreading
          test cases across the state space *)
  max_steps : int;  (** symbolic execution step bound *)
  max_conflicts : int option;
      (** conflicts allowed per SAT call of every path pair's enumeration
          session; a pair that hits the cap is quarantined *)
  chaos : Scamv_util.Chaos.t option;
      (** fault injector arming the ["solver.budget"] site: a chaos-chosen
          path pair reports budget exhaustion and is quarantined *)
  portfolio : int;
      (** number of {!Scamv_smt.Portfolio} configurations to try per
          path pair (>= 1; 1 = no portfolio).  Only consulted when the
          baseline configuration hits its conflict cap: challengers are
          tried in rank order over the same assertions (with already-
          enumerated models re-blocked), and the first to answer takes
          the pair over.  Counted as [portfolio.races] /
          [portfolio.wins.<rank>]. *)
}

val default_config : ?isa:Scamv_arch.Isa.t -> Scamv_models.Refinement.t -> config
(** [isa] defaults to [Aarch64]. *)

type test_case = {
  pair : int * int;  (** leaf indexes of the two states' paths *)
  state1 : Scamv_isa.Machine.t;
  state2 : Scamv_isa.Machine.t;
  train : Scamv_isa.Machine.t list;
  model : Scamv_smt.Model.t;  (** the raw satisfying assignment *)
}

type t
(** Cached per-program generation state. *)

val prepare : ?seed:int64 -> config -> Scamv_arch.Isa.program -> t
(** Annotate, symbolically execute, synthesize the per-pair relations and
    open the enumeration sessions.
    @raise Invalid_argument when the program's ISA differs from
    [config.isa]. *)

val pair_count : t -> int
(** Number of path pairs that can produce test cases. *)

type progress =
  | Case of test_case
  | Quarantined of { pair : int * int; reason : string }
      (** this path pair just blew its SAT budget and was removed from the
          queue; further calls continue with the remaining pairs *)
  | Crashed of { reason : string }
      (** the ambient {!Scamv_util.Deadline} expired during enumeration;
          the program should be abandoned (solver state was rewound, so
          the sessions are intact if the caller insists on continuing) *)
  | Exhausted  (** every session is exhausted (or quarantined) *)

val next_test_case : t -> progress
(** The next test case, drawn from the path-pair sessions in round-robin
    order.  Polls the ambient {!Scamv_util.Deadline} token: expiry — at
    the call boundary or anywhere inside the SAT search — is returned as
    {!Crashed}, never raised. *)
