(** Board-noise fault injection (robustness testing).

    The paper's campaigns ran for days against physical Raspberry Pi 3
    boards, where observation traces come back perturbed, measurements get
    dropped by the debugging link, and unrelated traffic transiently
    pollutes the cache.  This module reproduces that noise deterministically
    so the fault-tolerance machinery (retry, majority voting, inconclusive
    downgrades) can be exercised and tested from a fixed seed. *)

type config = { rate : float; seed : int64 }
(** [rate] is the per-measurement probability of injecting a fault;
    [seed] roots the deterministic fault stream. *)

val config : ?rate:float -> ?seed:int64 -> unit -> config
(** @raise Invalid_argument if [rate] is outside [\[0, 1\]]. *)

type kind = Perturbation | Dropped_measurement | Cache_pollution

val kind_name : kind -> string

type t
(** Mutable per-run fault stream. *)

val start : config -> run_seed:int64 -> t
(** Fault stream for one executor run; mixing in [run_seed] gives every
    run (and every retry attempt) an independent but reproducible
    stream. *)

val injected : t -> int
(** Faults injected so far on this stream. *)

val apply : t -> (int * int64 list) list -> (int * int64 list) list option
(** Possibly corrupt one attacker observation (a cache/TLB/time snapshot
    as produced by one measured executor run).  [None] models a dropped
    measurement; [Some v'] is the (possibly perturbed or polluted)
    observation.  With probability [1 - rate] the observation passes
    through untouched. *)
