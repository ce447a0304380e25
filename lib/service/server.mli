(** The campaign service's HTTP front end: a listener, an accept loop on
    its own thread, and connection workers fed through a bounded handoff
    queue.  Workers start on demand: the acceptor starts one when it
    queues a connection that no started worker is free to take, up to
    [max_connections], and a started worker stays for the server's
    life.  Connections are persistent (HTTP/1.1
    keep-alive): a worker serves requests off one socket until the client
    opts out ([Connection: close]), the per-connection request cap rolls
    it over, the idle timeout fires, or the server stops.  When the
    handoff queue is full the acceptor itself answers
    [503 + Retry-After] — load shedding happens before any per-connection
    work, so the connection count is bounded by [max_connections].  All
    campaign logic lives behind {!Scheduler}; this module translates HTTP
    to scheduler calls.

    Routes:
    - [POST /campaigns] — submit (JSON body: {!Session.params} fields
      plus ["tenant"]); 201 with the campaign status, 400 on bad input,
      429 with [Retry-After] on tenant quota/backlog rejection, 503 when
      shutting down.
    - [GET /campaigns] — all sessions, in submission order.
    - [GET /campaigns/:id] — status and statistics.
    - [GET /campaigns/:id/stream?from=N] — chunked NDJSON of the
      session's record/progress lines from index [N] (default 0),
      blocking as the campaign runs, terminated by a [{"done":...}]
      line.  Chunked bodies are self-delimiting, so a finished stream
      leaves the connection reusable.
    - [DELETE /campaigns/:id] — cooperative cancel; a finished campaign
      answers [cancelled: false] and its logged state, its journal unread.
    - [GET /metrics] — Prometheus text exposition of
      {!Scheduler.metrics_snapshot} (including the live
      [service.connections_active], [service.connections_queued] and
      [service.connection_workers] (workers started) gauges this module
      contributes).
    - [GET /healthz] — liveness probe. *)

type t

val create :
  ?host:string ->
  ?port:int ->
  ?max_connections:int ->
  ?idle_timeout:float ->
  ?max_requests:int ->
  Scheduler.t ->
  t
(** Defaults: host ["127.0.0.1"], port [8421], at most 16 connection
    workers, started on demand (16 is also the handoff-queue bound), 5 s
    idle timeout, 1000 requests per
    connection.  Port [0] asks the kernel for a free port (tests use
    this); read it back with {!port} after {!start}.
    @raise Invalid_argument on a non-positive knob. *)

val start : t -> unit
(** Bind, listen, ignore [SIGPIPE], pre-register the connection metrics
    and start the accept thread; connection workers start with the first
    connections.
    @raise Unix.Unix_error when the address is unavailable.
    @raise Invalid_argument when already started. *)

val port : t -> int

val stop : t -> unit
(** Close the listener, join the accept thread, close queued connections
    and unpark idle workers (their idle deadlines are cancelled, so they
    exit within a poll slice).  Workers blocked inside a campaign stream
    are not joined — drain the scheduler first if their campaigns must
    finish.  Idempotent. *)
