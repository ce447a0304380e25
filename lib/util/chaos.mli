(** Deterministic fault injector — the chaos harness behind
    [--chaos-rate]/[--chaos-seed].

    Each instrumented {e site} (a short dotted name) asks [roll] whether
    to inject a fault for a site-local {e key} (program index, journal
    record index, path-pair hash ...).  The decision is a pure function of
    (seed, site, key): no generator state advances between rolls, so
    decisions are independent of scheduling, of [--jobs], and of resume
    boundaries — a resumed chaos campaign re-draws exactly the faults the
    interrupted one saw.

    Sites currently wired in:
    - ["pool.worker"] — kill the worker domain before program [key] runs
      (raises {!Killed}; the supervised pool respawns the domain and the
      program is recorded as crashed).
    - ["journal.poison"] — corrupt the checksum of journal record [key]
      (recovery drops it and everything after it on resume).
    - ["journal.delay"] — defer flushing journal record [key], widening
      the torn-tail window a crash can hit.
    - ["solver.budget"] — report the path pair hashed into [key] as having
      exhausted its SAT budget (it is quarantined). *)

type t

exception Killed of string
(** Raised by {!kill} with the site name: a simulated worker crash. *)

val create : ?rate:float -> ?seed:int64 -> unit -> t
(** [rate] (default 0 = chaos off) is the per-roll injection probability.
    @raise Invalid_argument unless [0 <= rate <= 1]. *)

val injections : t -> int
(** Total faults injected so far, across all sites and domains. *)

val roll : t -> site:string -> key:int64 -> bool
(** Should a fault be injected at [site] for [key]?  Pure in
    (seed, site, key); counts into {!injections} when true. *)

val kill : t -> site:string -> key:int64 -> unit
(** [roll] and raise {!Killed} on a hit. *)
