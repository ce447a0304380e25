(** Experiment journal, the analogue of the artifact's EmbExp-Logs
    database (Sec. A.3): every executed experiment is recorded with its
    provenance and verdict, along with the campaign's fault events
    (quarantined path pairs, failed programs, crashed workers).  A journal
    persists itself incrementally to disk and can be loaded back, which is
    the basis of campaign checkpoint/resume.

    On-disk format (v2): a magic first line, then one framed record per
    event — [R <length> <crc32>\n<csv-row>\n].  The length prefix and
    checksum make a torn or corrupted tail {e detectable}: {!load} keeps
    the longest clean prefix and reports what it dropped, so a campaign
    SIGKILLed mid-write still leaves a usable checkpoint (see DESIGN.md,
    "Failure domains and supervision").  v1 plain-CSV checkpoints (the
    {!to_csv}/{!write_csv} snapshot format) are still read transparently.

    Thread-safety: a journal buffers records and owns an output channel
    with no internal locking.  In a parallel campaign it is only ever
    touched from the {e consuming} (calling) domain — worker domains
    return event lists that {!Campaign.run} merges in program order — so
    no synchronization is needed and the journal byte stream is identical
    to a single-domain run. *)

type entry = {
  campaign : string;
  program_index : int;
  test_index : int;
  template : string;
  path_pair : int * int;  (** leaf indexes of the two states' paths *)
  verdict : Scamv_microarch.Executor.verdict;
  generation_seconds : float;
  execution_seconds : float;
  retries : int;  (** executor attempts beyond the first (see {!Retry}) *)
  faults : int;  (** injected faults observed across all attempts *)
  isa : Scamv_arch.Isa.t;
      (** guest ISA the experiment ran on.  On disk the ISA is a 14th CSV
          column appended only for non-AArch64 rows: AArch64 rows keep the
          historical 13-field bytes, and 13-field rows load as
          [Aarch64] — old journals remain readable and byte-stable. *)
}

type event =
  | Experiment of entry
  | Quarantined of {
      campaign : string;
      program_index : int;
      pair : int * int;
      reason : string;
    }  (** a path pair dropped because its SAT budget ran out *)
  | Program_failed of { campaign : string; program_index : int; reason : string }
      (** a program abandoned after an exception in any pipeline stage *)
  | Crashed of { campaign : string; program_index : int; reason : string }
      (** a program lost to a supervised failure: a worker-domain crash
          (respawned by the pool) or an expired deadline *)
  | Diverged of {
      campaign : string;
      program_index : int;
      pair : int * int;
      aarch64 : Scamv_microarch.Executor.verdict;
      riscv : Scamv_microarch.Executor.verdict;
    }
      (** a differential campaign found the two ISAs disagreeing on a path
          pair's verdict (see {!Diff}).  In CSV the AArch64 verdict
          occupies the verdict column and the RISC-V verdict the reason
          column. *)

val event_program_index : event -> int

type t

val create : ?path:string -> ?chaos:Scamv_util.Chaos.t -> unit -> t
(** [create ~path ()] persists every recorded event to [path] as it
    happens (one framed, checksummed, flushed record per event), so a
    killed campaign leaves a loadable checkpoint behind.  The file is only
    created/truncated when the first event is recorded — loading a resume
    checkpoint from the same path before recording is safe.

    [chaos] arms the write-fault injection sites ["journal.poison"]
    (corrupt a record's checksum in place) and ["journal.delay"] (withhold
    a record from the channel until the next undelayed write), keyed by
    record index so the final bytes are schedule-independent. *)

val record : t -> entry -> unit
val record_event : t -> event -> unit

val close : t -> unit
(** Flush any chaos-delayed records and close the persistence channel, if
    any. *)

val events : t -> event list
(** All events, in recording order. *)

val length : t -> int
(** Number of experiment entries. *)

val event_to_json : event -> Scamv_util.Json.t
(** One JSON object per event (fixed field order), the validation
    service's wire rendering: [Scamv_util.Json.to_string] of this value is
    a pure function of the event, so a server-streamed campaign can be
    checked byte-for-byte against a batch run's journal. *)

val as_stored : event -> event
(** The event as the on-disk journal keeps it: both timings rounded to
    the microsecond exactly as the CSV row prints them ([%.6f]), the
    only lossy column.  Idempotent, and the identity on every event
    {!load} returns, so a stream rendered from [as_stored] events is the
    same whether it was produced live or read back from disk. *)

val to_csv : t -> string
(** v1 snapshot: header plus one CSV row per event; fields are
    comma-separated, free-form strings (campaign, template, reason)
    quoted. *)

val write_csv : t -> path:string -> unit
(** Atomic checkpoint (temp file + rename) of {!to_csv}: a crash mid-write
    leaves either the previous complete file or the new one, never a torn
    hybrid. *)

exception Parse_error of string

val of_csv : string -> t
(** Parse a v1 CSV journal back from {!to_csv} output.  Quoting of
    embedded commas, double quotes and newlines round-trips.
    @raise Parse_error on malformed input. *)

val of_string : string -> t
(** Strict parse of either format (auto-detected by the magic line).
    @raise Parse_error on any malformation, including a torn v2 tail. *)

val read_csv : path:string -> t
(** Load a journal (either format) from disk, strictly. *)

type recovery = {
  records : int;  (** clean records recovered *)
  dropped_bytes : int;  (** torn/corrupt tail bytes dropped (0 = clean) *)
}

val load : path:string -> t * recovery
(** Tolerant load, the [--resume] entry point: for v2 content, keep the
    longest clean prefix of framed records and drop the rest — a
    truncated final record, a flipped checksum byte, or an empty file all
    yield a usable journal.  The scan stops at the {e first} damaged
    record (no skipping forward): once one record is suspect nothing
    after it is trusted, and resume only needs a clean prefix.  v1
    content is parsed strictly (it is only ever written atomically, so
    there is no torn tail to tolerate).
    @raise Parse_error only for malformed v1 content. *)

val verdict_string : Scamv_microarch.Executor.verdict -> string
(** The CSV/JSON verdict word: ["distinguishable"] /
    ["indistinguishable"] / ["inconclusive"]. *)
