(** Validation setups: a model under validation [M1], an optional refined
    model [M2] for search guidance, and optional supporting models for
    coverage (Sec. 3).

    A setup instruments a program *once*, with tags distinguishing
    [M1]-observations ([Base]), [M2]-exclusive observations ([Refined])
    and coverage observations — the optimized single-symbolic-execution
    pipeline of Sec. 5.1 (the Projection Assumption holds by
    construction: projecting away non-[Base] observations recovers the
    [M1]-instrumented program). *)

type t = {
  name : string;  (** e.g. ["Mct vs Mspec"] *)
  base_name : string;
  refined_name : string option;
  coverage_names : string list;
  hooks : Scamv_bir.Lifter.hooks;  (** combined, already tagged *)
  spec : Speculation.config option;  (** combined speculative instrumentation *)
}

val annotate_arch : t -> 'i Scamv_bir.Arch.t -> 'i array -> Scamv_bir.Program.t
(** Lift with the setup's (and the platform's) observation hooks and apply
    the speculative instrumentation, for any described architecture. *)

val annotate : t -> Scamv_isa.Ast.program -> Scamv_bir.Program.t
(** [annotate_arch] at {!Scamv_bir.Arch.aarch64}. *)

val has_refinement : t -> bool

val refine_with_model :
  ?coverage:Model.t list -> base:Model.t -> refined:Model.t -> unit -> t
(** Guide validation of [base] by a refined model whose hooks are
    *disjoint additions* to the base model (e.g. [Mpart] vs [Mpart']).
    The refined model's hooks are tagged [Refined]. *)

val refine_with_spec :
  ?coverage:Model.t list ->
  base:Model.t ->
  name:string ->
  Speculation.config ->
  t
(** Guide validation of [base] by speculative observations (e.g. [Mct] vs
    [Mspec]); the configuration's [load_tag] already carries the tags, so
    [Mspec1] vs [Mspec] is expressed with
    [load_tag 0 = Some Base, load_tag i = Some Refined]. *)

(** {1 The paper's experiment setups} *)

val mpart_vs_mpart' :
  ?line_coverage:bool -> Scamv_isa.Platform.t -> Region.t -> t

val mpart_unguided : Scamv_isa.Platform.t -> Region.t -> t

val mct_unguided : t

val mct_vs_mspec : ?window:int -> unit -> t

val mspec1_vs_mspec : ?window:int -> unit -> t
(** [M1 = Mspec1] (first transient load is part of the validated model),
    refined by the full [Mspec]. *)

val mct_vs_mspec_straight_line : ?window:int -> unit -> t

(** {1 TLB-channel setups (the "new channel" extension of Sec. 2.3)} *)

val mpage_unguided : Scamv_isa.Platform.t -> t
(** Validate the page-granular model against whatever attacker view the
    executor is configured with. *)

val mpage_vs_mline : Scamv_isa.Platform.t -> t
(** Guide validation of [Mpage] by [Mline]: states touching the same
    pages but different cache sets — exactly the pairs that separate the
    TLB channel (indistinguishable) from the cache channel
    (distinguishable). *)
