(** The service's brain: admission control with per-tenant quotas,
    per-tenant FIFO queues, [concurrency] runner threads, and
    journal-backed persistence so a restarted server resumes in-flight
    campaigns.

    Persistence: a state dir holds [campaigns.log] and one
    [<id>.journal] per campaign, nothing else.  The log is a magic line,
    then one {!Scamv_util.Frame} record per life-cycle write whose
    payload is the session's {!Session.meta_json}: the queued record at
    {!submit}, the terminal record when the campaign ends, is cancelled
    or is dropped by {!shutdown}.  Each append is one buffered write and
    flush under the scheduler lock, so a campaign's two records stay in
    order; the log opens at the first append.  A finished campaign leaves
    memory except for a summary of a few words (state, record count,
    submission index and log offset, filed under its tenant and
    sequence number), from which {!list} renders without reading any
    file; {!status} reads its one terminal record at that offset, and
    {!find} also replays its journal.

    Runners are work-conserving: an idle runner takes the head of the
    next non-empty tenant queue, in round-robin order over tenants.
    Each runner owns a persistent {!Scamv_util.Pool} whose width is its
    share of [jobs] ({!Scamv_util.Pool.slice_widths}).  A runner of
    width 1 computes inline on the server's main domain, shared with the
    HTTP threads, so [K] campaigns compute in parallel only when
    [jobs >= 2K]; below that, [concurrency] interleaves campaigns but
    adds no cores ([jobs = 2, concurrency = 2] runs a campaign on no
    worker domain, [jobs = 2, concurrency = 1] gives it two).

    Determinism: a campaign's artifacts never depend on its pool's
    width, so whichever runner takes it, a served campaign's journal and
    record stream are byte-identical to a batch CLI run of the same
    (template, setup, seed, programs, tests) under the same clock, at
    every [--concurrency] level, regardless of what other tenants are
    doing. *)

type config = {
  jobs : int;
      (** total worker budget split over the runners' pools; 0 = all
          cores *)
  concurrency : int;
      (** runners = campaigns that may execute at once (>= 1) *)
  state_dir : string option;
      (** where [campaigns.log] and the [<id>.journal] files live, the
          only copy of a finished campaign's stream; [None] = no
          persistence (campaigns are lost on restart, and every session
          stays in memory) *)
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
    {!Tenant.default_quota}, wall clock); when [config.state_dir] is set,
    recover previously logged campaigns first, reading [campaigns.log]
    once (a terminal record settles its campaign): every campaign
    restores its tenant's sequence mark, finished ones keep a summary,
    and unfinished ones are re-enqueued in original submission order
    with the journal as a resume checkpoint.  A damaged record is
    skipped, costing that record only; only a torn tail is cut off, and
    after any damage every tenant's mark also goes past the journals in
    the dir, so no journal is reused.  [start = false] skips the runner
    threads — admission-control unit tests use this to exercise queues
    without running campaigns.
    @raise Invalid_argument when [config.concurrency < 1].
    @raise Failure when [campaigns.log] has neither a magic line nor a
    clean record; the file is left as it is. *)

val log_file : string
(** ["campaigns.log"], the campaign log's name inside the state dir. *)

val concurrency : t -> int
(** The runner count the scheduler was built with. *)

val submit :
  t -> tenant:string -> Session.params -> (Session.t, submit_error) result
(** Validate (build the campaign through {!Workload.config}), apply the
    tenant quota, resolve the seed (submitted seed or
    the tenant namespace draw), log the queued record and enqueue. *)

val find : t -> string -> Session.t option
(** A queued or running session from memory; otherwise, with a state
    dir, a finished one rebuilt from its terminal log record and its
    journal — stream, status and summary byte-identical to the live
    session's.  Only an id in the finished table reaches the disk. *)

val status : t -> string -> Scamv_util.Json.t option
(** The {!Session.status_json} of a known session; a finished one's is
    rendered from its terminal log record alone, its journal unread. *)

val list : t -> Scamv_util.Json.t list
(** The {!Session.summary_json} of every known session, in submission
    order: the live ones and, with a state dir, every finished one,
    rendered from its in-memory summary.  Reads no file. *)

val cancel : t -> string -> (bool * string) option
(** Cancel the campaign [id]: whether this call cancelled it, and its
    {!Session.state_name} afterwards; [None] for an unknown id.  Queued
    sessions cancel immediately; a running one gets its cancel token
    expired and drains cooperatively (every unfinished program is
    journaled as crashed with reason ["campaign cancelled"]), so it still
    reads ["running"].  A terminal one answers [false]; a finished one's
    state comes from its in-memory summary, no file read. *)

val drain : t -> unit
(** Block until no session is queued or running.  Test/smoke
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
(** Merged campaign telemetry + server counters + session/tenant/runner
    gauges (the runner count as [scheduler.slices], runner 0's pool
    width as [scheduler.slice_width]) + registered gauge sources — the
    [GET /metrics] source. *)

val shutdown : t -> unit
(** Stop accepting work, cancel queued sessions, cooperatively cancel the
    running campaigns, join the runner threads, shut every runner's pool
    down and close the campaign log.  Idempotent. *)
