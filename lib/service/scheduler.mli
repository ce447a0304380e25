(** The service's brain: admission control with per-tenant quotas,
    per-tenant FIFO queues served round-robin by [concurrency] runner
    threads (one per slice of a deterministically partitioned
    {!Scamv_util.Pool}), and journal-backed persistence so a restarted
    server resumes in-flight campaigns.

    Determinism: up to [concurrency] campaigns execute at once, each on
    its own pool slice.  Slice widths are a pure function of
    [(jobs, concurrency)] ({!Scamv_util.Pool.slice_widths}) and a
    session's slot is a pure function of its (tenant, sequence) pair
    ({!Tenant.derive_slot}) — never of arrival timing — so a served
    campaign's journal and record stream are byte-identical to a batch
    CLI run of the same (template, setup, seed, programs, tests) under
    the same clock, at every [--concurrency] level, regardless of what
    other tenants are doing. *)

type config = {
  jobs : int;
      (** total worker budget partitioned across the slices; 0 = all
          cores *)
  concurrency : int;
      (** runner slots = pool slices = campaigns that may execute at
          once (>= 1) *)
  state_dir : string option;
      (** where [<id>.journal] / [<id>.meta.json] live, and the only copy
          of a finished campaign; [None] = no persistence (campaigns are
          lost on restart, and every session stays in memory) *)
  quota : Tenant.quota;  (** applied to every tenant *)
  clock : Scamv_util.Stopwatch.clock;
      (** campaign time source; {!Scamv_util.Stopwatch.frozen} makes all
          streamed artifacts fully deterministic *)
}

type submit_error =
  | Invalid of string
      (** bad tenant name, or a request {!Workload.config} rejects -> 400 *)
  | Busy of Tenant.rejection  (** quota/backlog rejection -> 429 *)
  | Stopped  (** server shutting down -> 503 *)

type t

val create : ?config:config -> ?start:bool -> unit -> t
(** Build a scheduler (default: 1 job, concurrency 1, no state dir,
    {!Tenant.default_quota}, wall clock); when [config.state_dir] is set, recover previously
    persisted sessions first: every meta restores its tenant's sequence
    mark, and unfinished sessions are re-enqueued in original submission
    order with the journal as a resume checkpoint, their slots re-derived
    for the current concurrency.  Finished sessions stay on disk until
    {!find} or {!list} reads them.  [start = false] skips the
    runner threads — admission-control unit tests use this to exercise
    queues without running campaigns.
    @raise Invalid_argument when [config.concurrency < 1]. *)

val concurrency : t -> int
(** The runner-slot count the scheduler was built with. *)

val submit :
  t -> tenant:string -> Session.params -> (Session.t, submit_error) result
(** Validate (build the campaign through {!Workload.config}), apply the
    tenant quota, resolve the seed (submitted seed or
    the tenant namespace draw) and the runner slot, persist the session
    meta and enqueue. *)

val find : t -> string -> Session.t option
(** A queued or running session from memory; otherwise, with a state
    dir, a finished one rebuilt from [<id>.meta.json] and the journal —
    stream, status and summary byte-identical to the live session's.
    Only ids of the form [<tenant>-<digits>] ever reach the disk. *)

val list : t -> Scamv_util.Json.t list
(** The {!Session.summary_json} of every known session, in submission
    order: the live ones and, with a state dir, every finished one, read
    from its terminal meta. *)

val cancel : t -> Session.t -> bool
(** Queued sessions cancel immediately; a running one gets its cancel
    token expired and drains cooperatively (every unfinished program is
    journaled as crashed with reason ["campaign cancelled"]).  [false]
    when already terminal. *)

val drain : t -> unit
(** Block until no session is queued or running on any slot.  Test/smoke
    helper; requires the runner threads ([start = true]). *)

val bump : ?n:int -> t -> string -> unit
(** Add to a server-side counter (the HTTP layer's request counters).
    [~n:0] pre-registers the counter so it appears on /metrics before any
    traffic. *)

val register_gauge_source : t -> (unit -> (string * float) list) -> unit
(** Contribute live gauges to {!metrics_snapshot} (the HTTP server's
    connection gauges).  Sources are sampled outside the scheduler lock
    and must not call back into the scheduler. *)

val metrics_snapshot : t -> Scamv_telemetry.Metrics.t
(** Merged campaign telemetry + server counters + session/tenant/slice
    gauges + registered gauge sources — the [GET /metrics] source. *)

val shutdown : t -> unit
(** Stop accepting work, cancel queued sessions, cooperatively cancel the
    running campaigns, join the runner threads and shut every pool slice
    down.  Idempotent. *)
