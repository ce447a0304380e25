(** Cortex-A53-like core: in-order execution with an L1D cache, stride
    prefetcher, PHT branch predictor, and bounded control-flow
    speculation.

    The speculation semantics encodes the three mechanisms behind the
    paper's findings (Sec. 6.4-6.5); they are *inputs* to the simulator,
    the per-template counterexample patterns of Table 1 / Fig. 7 are
    emergent:

    - On a mispredicted conditional branch, up to [spec_window] wrong-path
      instructions execute transiently on a shadow copy of the register
      file; transient memory loads issue real cache fills (SiSCloak).
    - A transient load's *result* cannot feed later transient
      instructions (no register renaming, short pipeline): destinations
      of transient loads are tainted; taint propagates through ALU
      operations; a load whose address is tainted is not issued.  This is
      why a single speculative load leaks but a dependent chain does not.
    - Unconditional *direct* branches are not speculated past (no
      straight-line speculation for direct branches, per ARM's claim
      validated in Sec. 6.5).

    Transient stores are dropped (no allocation before commit). *)

type config = {
  platform : Scamv_isa.Platform.t;
  spec_window : int;  (** max transient instructions; 0 disables speculation *)
  spec_max_loads : int;  (** max transient loads issued per misprediction *)
  prefetch_threshold : int;
  prefetch_fire_prob : float;
  mispredict_noise : float;
      (** probability that one prediction comes out flipped (models PHT
          aliasing / training fragility; source of the rare inconclusive
          speculation experiments) *)
  speculative_forwarding : bool;
      (** [false] on the A53 (no register renaming: transient load results
          are unusable downstream); [true] models a bigger out-of-order
          core where dependent transient loads issue — the classic
          Spectre-PHT microarchitecture.  Sec. 6.5: "Speculation can cause
          different leakage on different microarchitectures". *)
  tlb_entries : int;  (** data micro-TLB capacity *)
  fuel : int;  (** committed-instruction budget per run *)
}

val cortex_a53 : config
(** Defaults matching the evaluation platform (Sec. 6.1). *)

val out_of_order : config
(** A Spectre-PHT-vulnerable configuration: speculative forwarding on, a
    wide window, and branches that always admit multiple transient
    loads. *)

type event =
  | Commit_load of int64
  | Commit_store of int64
  | Commit_branch of { pc : int; taken : bool; predicted : bool }
  | Transient_load of int64  (** issued wrong-path load *)
  | Transient_suppressed of int  (** pc of a wrong-path load not issued (tainted address) *)
  | Prefetch of int64

type t

val create : ?seed:int64 -> config -> t
val config : t -> config
val cache : t -> Cache.t
val tlb : t -> Tlb.t
val predictor : t -> Predictor.t
val reset_cache : t -> unit
(** Clears the cache, the prefetcher stream state and the TLB (the
    platform module's pre-run state reset). *)

val reset_predictor : t -> unit
val reseed : t -> int64 -> unit

type program
(** A guest program decoded into the core's shared operation set: one
    small vocabulary (ALU, load, store, compare, branch, jump) over
    machine register slots, run by one committed and one transient loop
    for every ISA.  RV64 x[k] occupies machine register slot k-1 (the
    {!Scamv_riscv.Lift} convention) and x0 reads as zero.  The ISAs differ
    only in the branch test: an AArch64 [b.cond] reads the flags, and its
    compare latches whether an operand was recently loaded; an RV64
    compare-and-branch computes the same bit from its own sources.  A
    slow branch admits the full transient-load window. *)

val decode : Scamv_arch.Isa.program -> program
(** Decode once per experiment; the result can be run any number of
    times. *)

val run : t -> program -> Scamv_isa.Machine.t -> event list
(** Execute the program to completion, mutating the machine (architectural
    effects) and the cache/predictor state (microarchitectural effects).
    Returns the event trace in issue order.
    @raise Failure ["Core.run: fuel exhausted"] after [fuel] committed
    instructions (cyclic programs only). *)

val last_run_cycles : t -> int
(** Cycle count of the most recent [run] under a simple timing model
    (issue cost + L1 miss penalty + misprediction penalty): the PMC
    cycle-counter reading an attacker uses for timing measurements
    (Sec. 6.1). *)

val counters : t -> (string * int) list
(** Hit/miss statistics accumulated over the core's lifetime (not reset
    by {!reset_cache}/{!reset_predictor}): [cache.hits], [cache.misses],
    [tlb.hits], [tlb.misses], [predictor.hits], [predictor.misses],
    [prefetches], [transient_loads], [transient_suppressed].  The
    executor flushes these into the telemetry registry (prefixed
    [uarch.]) once per experiment. *)
