(** One submitted campaign: parameters, life-cycle state machine,
    cooperative cancel token, and the growing NDJSON line buffer that
    [GET /campaigns/:id/stream] serves.

    The line buffer is the service's fan-out point: the scheduler's
    runner thread appends lines as the campaign produces journal records,
    and any number of streaming connections block in {!wait_lines} until
    more lines (or a terminal state) arrive.  Every operation here locks
    the session's own mutex — streamers never touch scheduler
    internals. *)

(** {2 Parameters} *)

type params = {
  template : string;
  setup : string;
  isa : string;
      (** ["aarch64"] (default) or ["riscv"] run a single-ISA campaign;
          ["diff"] runs the differential workload ({!Scamv.Diff}): both
          ISAs under the same seed, with [Diverged] records appended
          after the two campaigns.  Absent in pre-existing meta files,
          which load as ["aarch64"].  Parsing only checks the type;
          submission checks the name ({!Workload.isa_of_string}). *)
  programs : int;
  tests_per_program : int;
  seed : int64 option;  (** [None]: draw from the tenant's seed namespace *)
  max_conflicts : int;  (** SAT budget per solver call; 0 = unlimited *)
  deadline_conflicts : int;  (** per-program virtual deadline; 0 = none *)
  portfolio : int;  (** solver portfolio size *)
}

val default_params : params
(** Template A, setup mct-vs-mspec, 10 programs x 10 tests, namespace
    seed, no budget, no deadline, portfolio 1. *)

val params_of_json : Scamv_util.Json.t -> (params, string) result
(** Decode a [POST /campaigns] body.  Missing fields take defaults,
    unknown fields are rejected (a misspelled knob should 400, not be
    silently ignored).  Seeds are decimal int64 strings (JSON doubles
    cannot carry 64 bits); small integers are also accepted.  Only types
    and shapes are checked here: the range rules for the counts are
    {!Workload.config}'s, applied when {!Scheduler.submit} builds the
    campaign. *)

val params_to_json : params -> Scamv_util.Json.t

val stats_json : Scamv.Stats.t -> Scamv_util.Json.t
(** Table-1-style counters as a JSON object (counts only, no timing
    summaries). *)

(** {2 Life cycle} *)

type state = Queued | Running | Completed | Cancelled | Failed of string

val state_name : state -> string
val is_terminal : state -> bool

type t = {
  id : string;
  tenant : string;
  params : params;
  seed : int64;  (** resolved: the submitted seed or the namespace draw *)
  campaign_name : string;
  journal_path : string option;
  meta_path : string option;
  submitted : int;  (** global submission index; orders [GET /campaigns] *)
  cancel : Scamv_util.Deadline.t;
      (** expires only by explicit {!Scamv_util.Deadline.cancel} — the
          [DELETE /campaigns/:id] path *)
  lock : Mutex.t;
  changed : Condition.t;
  mutable state : state;
  mutable resume_from : string option;
  mutable lines : string array;
  mutable nlines : int;
  mutable progress : (int * string) list;
      (** progress messages with their stream positions, newest first;
          persisted by {!meta_json} because the journal does not keep
          them *)
  mutable stats : Scamv_util.Json.t option;
  mutable wall_seconds : float;
}

val create :
  id:string ->
  tenant:string ->
  params:params ->
  seed:int64 ->
  campaign_name:string ->
  ?journal_path:string ->
  ?meta_path:string ->
  submitted:int ->
  unit ->
  t

val push_line : t -> string -> unit
(** Append one NDJSON line (without terminator) and wake all waiters. *)

val push_progress : t -> string -> unit
(** Append a [{"progress":"..."}] line (a campaign progress event) and
    remember its stream position.  Progress lines are auxiliary — a
    resumed campaign emits an extra resume notice — so batch byte-identity
    checks compare record lines only. *)

val replay : t -> events:Scamv.Journal.event list -> progress:(int * string) list -> unit
(** Rebuild a finished session's stream from its journal events and its
    persisted [(position, message)] progress lines (oldest first), so the
    lines equal the ones the live session streamed.  Call before
    {!conclude}. *)

val set_state : t -> state -> unit

val conclude :
  t -> state -> ?stats:Scamv_util.Json.t -> ?wall_seconds:float -> unit -> unit
(** Enter a terminal state, record final statistics and append the
    [{"done":...}] line — in one critical section, so a streamer that
    observes the terminal state always has the done line in hand and
    every stream ends with it exactly once. *)

val state : t -> state

val wait_lines : t -> from:int -> string list * int * bool
(** [(lines, next, terminal)]: the lines at indexes [[from, next)] and
    whether the session is terminal.  Blocks until there is at least one
    line past [from] or the session is terminal, so on a terminal
    session it returns at once.  A streaming connection loops: write the
    lines, and stop once [terminal] is true with no new lines pending. *)

(** {2 Wire renderings} *)

val status_json : t -> Scamv_util.Json.t
(** The [GET /campaigns/:id] body. *)

val summary_json : t -> Scamv_util.Json.t
(** One element of the [GET /campaigns] listing. *)

val record_line : Scamv.Journal.event -> string
(** [{"record":<event>}] — a pure function of the journal event as the
    journal stores it ({!Scamv.Journal.as_stored}: timings rounded to the
    microsecond), so the streamed sequence can be diffed byte-for-byte
    against a batch run's journal, and a stream read live, after the
    session left memory or after a restart is the same bytes. *)

(** {2 Meta persistence} *)

val meta_json : t -> Scamv_util.Json.t
(** The sidecar [<id>.meta.json] record: identity, resolved params,
    current/terminal state, stats, and — only when there are any — the
    progress lines with their stream positions; a terminal meta also
    keeps the stream's line count ([records]).  A finished session's
    meta plus its journal is all the server keeps of it. *)

type meta = {
  meta_id : string;
  meta_tenant : string;
  meta_submitted : int;
  meta_state : string;
  meta_reason : string option;
  meta_params : params;  (** seed always resolved ([Some _]) *)
  meta_stats : Scamv_util.Json.t option;
  meta_wall_seconds : float;
  meta_progress : (int * string) list;  (** oldest first *)
  meta_records : int option;
      (** the stream's line count; terminal metas only, and absent from
          metas written before it was persisted *)
}

val meta_of_json : Scamv_util.Json.t -> (meta, string) result

val meta_summary_json : meta -> Scamv_util.Json.t option
(** The {!summary_json} of the session the meta describes, rendered from
    the meta alone; [None] when it has no [records]. *)
