(** Relation synthesis (Sec. 2.3, Eq. 1, and the optimizations of
    Sec. 5.2/5.4).

    Given the symbolic leaves of an instrumented program, this module
    builds, per pair of execution paths, the formula whose models are test
    cases: two input states (suffixes ["_1"] / ["_2"]) that

    - satisfy the two path conditions,
    - produce equal [Base] observation lists ([M1]-equivalence),
    - and, when refinement is on, differ in some [Refined] observation
      ([M2]-distinctness),

    together with the platform well-formedness constraints (every accessed
    address inside the experiment memory region) and a state-distinctness
    condition (two bit-identical states are never a useful test case).

    Splitting the relation by path pair is the optimization of Sec. 5.4:
    each formula covers one conjunct of Eq. 1, and the pipeline explores
    path pairs round-robin. *)

type config = {
  platform : Scamv_isa.Platform.t;
  require_refined_difference : bool;
      (** [true] = refinement-guided generation ([s1 ~M1 s2 /\ s1 !~M2 s2]);
          [false] = unguided generation from plain [M1]-equivalence *)
}

val suffix1 : string
val suffix2 : string
val suffix_train : string

type pair_relation = {
  leaf1 : int;  (** index into the leaf list *)
  leaf2 : int;
  assertions : Scamv_smt.Term.t list;
  candidate_assertions : Scamv_smt.Term.t list;
      (** the candidate relation: both path conditions plus base-
          observation equality (M1-equivalence) — the prefix of
          [assertions] shared by every refinement of this pair *)
  refinement_assertions : Scamv_smt.Term.t list;
      (** what refinement adds on top of the candidate: refined-
          observation distinctness, range constraints and coverage
          definitions.  [candidate_assertions @ refinement_assertions]
          is exactly [assertions], so an incremental solver session can
          assert the candidate once and {!Scamv_smt.Solver.extend} it
          with this list instead of re-blasting the whole relation *)
  coverage_track : (string * Scamv_smt.Sort.t) list;
      (** fresh variables equated to the coverage observations; when
          non-empty the enumeration session should block on exactly
          these, which walks the supporting model's equivalence classes *)
  register_track : (string * Scamv_smt.Sort.t) list;
      (** register and flag inputs of the relation; unguided enumeration
          blocks on these (memory contents are left to solver defaults,
          as in the original register-only Scam-V pipeline) *)
}

val compatible_pairs : Scamv_symbolic.Exec.leaf list -> (int * int) list
(** Path pairs whose [Base] observation lists are structurally compatible
    (same length, kinds and arities) — the only pairs whose conjunct of
    Eq. 1 is not trivially false.  Ordered diagonal-first ((0,0), (1,1),
    ..., then mixed pairs). *)

type prepared
(** Pair-independent per-leaf data (path conditions, observations and
    range constraints renamed with both state suffixes), hoisted out of
    the per-pair loop: a program with [n] leaves yields O(n^2) pairs, so
    renaming per pair would redo the same term construction quadratically
    often — and would defeat the blaster's term-identity caches with
    freshly allocated copies. *)

val prepare : config -> Scamv_symbolic.Exec.leaf list -> prepared

val pair_relation_prepared : prepared -> int * int -> pair_relation option
(** [None] when the pair cannot yield test cases (structurally
    incompatible base observations, or refinement required but the pair
    has no refined observations). *)

val pair_relation :
  config -> Scamv_symbolic.Exec.leaf list -> int * int -> pair_relation option
(** One-shot [pair_relation_prepared (prepare config leaves)].  Prefer the
    prepared form when iterating over many pairs of the same program. *)

val full_equivalence : config -> Scamv_symbolic.Exec.leaf list -> Scamv_smt.Term.t
(** The monolithic Eq. 1 relation over all path pairs (without coverage or
    platform constraints) — kept for the ablation benchmark comparing it
    against the per-pair split. *)

val range_constraints_of_leaf :
  Scamv_isa.Platform.t -> Scamv_symbolic.Exec.leaf -> Scamv_smt.Term.t list
(** The well-formedness constraints of one path, over canonical (unsuffixed)
    variables; used when solving for predictor-training states. *)
