(** Multi-tenancy: tenant naming, per-tenant admission quotas (the 429
    backpressure surface) and the deterministic per-tenant seed
    namespace.

    Thread-safety: none of these operations lock; the scheduler mutates
    tenant state only under its own lock. *)

type quota = {
  max_backlog : int;  (** queued-but-not-running sessions allowed *)
  max_active : int;  (** unfinished (queued + running) sessions allowed *)
}

val default_quota : quota
(** [{ max_backlog = 8; max_active = 16 }]. *)

type rejection = Backlog_full | Quota_exceeded

val rejection_reason : rejection -> string

type t = {
  name : string;
  quota : quota;
  pending : string Queue.t;  (** session ids awaiting a runner, FIFO *)
  mutable sequence : int;  (** sessions ever admitted; names the next id *)
  mutable active : int;  (** admitted and not yet terminal *)
}

val validate_name : string -> (string, string) result
(** Tenant names are 1-64 bytes of [[A-Za-z0-9._-]] — they appear in
    session ids and state-directory file names. *)

val create : name:string -> quota:quota -> t

val admit : t -> (int, rejection) result
(** Check the quota and, when there is room, claim the tenant's next
    sequence number (bumping [sequence] and [active]).  The caller
    enqueues the session it names onto [pending]. *)

val finish : t -> unit
(** A session of this tenant reached a terminal state. *)

val derive_seed : tenant:string -> sequence:int -> int64
(** The tenant seed namespace: the campaign seed used when a submission
    does not pin one.  A pure function of (tenant name, tenant-local
    sequence number), so the nth campaign of a tenant draws the same seed
    regardless of server history or other tenants' traffic — submitting
    the same request stream always yields byte-identical artifacts. *)
