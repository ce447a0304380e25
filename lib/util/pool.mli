(** Deterministic Domain-based worker pool with supervision.

    The pool runs indexed work items on OCaml 5 domains and delivers the
    results to a single consumer {e strictly in index order}, regardless
    of the order in which workers finish.  Any state folded over the
    results — journal files, statistics, progress output — therefore ends
    up identical to a sequential run, which is what makes [--jobs N]
    campaigns bit-reproducible (see DESIGN.md Sec. 6).

    Thread-safety contract: [worker] runs on pool domains, possibly many at
    a time, and must only touch state confined to one work item; [consume]
    always runs on the calling domain, one call at a time, in index order,
    and is the only place that may touch shared state.

    Two lifecycles expose the same batch engine: the one-shot
    {!run_supervised} spawns domains for the call and joins them before
    returning, while a {e persistent} pool
    ({!create} / {!exec} / {!shutdown}) keeps its domains parked between
    batches so a long-running service can run many campaigns on one
    warmed-up pool — see DESIGN.md Sec. 10. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val resolve_jobs : int -> int
(** Normalizes a [--jobs] style argument: [0] means {!default_jobs},
    positive values pass through.
    @raise Invalid_argument on negative values. *)

type failure = { exn : exn; backtrace : Printexc.raw_backtrace }
(** A captured worker exception, delivered at the failed item's index. *)

(** {2 Persistent pools}

    Idle-pool lifecycle: {!create} spawns the worker domains immediately
    (none for [size = 1]); between {!exec} batches they sleep on a
    condition variable — an idle pool burns no CPU and may be held open
    indefinitely.  {!shutdown} drains: it waits for an in-progress batch
    to finish, wakes every parked domain, joins them all, and any
    subsequent {!exec} raises {!Shut_down}.  [shutdown] is idempotent and
    safe to call on a pool that never ran a batch. *)

type t
(** A persistent pool of worker domains. *)

exception Shut_down
(** Raised by {!exec} once {!shutdown} has begun. *)

val create : size:int -> t
(** Spawn a pool of [size] worker domains ([size >= 1]; [1] spawns none
    and makes every batch run inline on the calling domain, exactly like
    [run_supervised ~jobs:1]).
    @raise Invalid_argument when [size < 1]. *)

val size : t -> int
(** The worker count every {!exec} batch runs with. *)

val exec :
  t ->
  tasks:int ->
  ?fatal:(exn -> bool) ->
  ?on_restart:(int -> unit) ->
  worker:(int -> 'a) ->
  consume:(int -> ('a, failure) result -> unit) ->
  unit ->
  unit
(** Run one supervised batch on the pool's domains — the exact
    {!run_supervised} protocol (index-ordered consumption, fatal-failure
    capture, [on_restart] + replacement-domain respawn), but on
    long-lived domains that return to the idle pool afterwards.  Batches
    are serialized: a concurrent [exec] on the same pool blocks until the
    current batch completes.  A consumer exception cancels the remaining
    items, quiesces the in-flight ones, and leaves the pool reusable.
    @raise Shut_down once {!shutdown} has begun. *)

val shutdown : t -> unit
(** Drain and stop: wait for any in-progress batch, reject further
    {!exec} calls (they raise {!Shut_down}), and join every worker
    domain.  Idempotent. *)

(** {2 Deterministic slicing}

    A sliced pool partitions a global worker budget of [total] domains
    into [slices] independent sub-pools, so a service can execute
    several campaigns concurrently — each on its own slice — while every
    campaign keeps the byte-identical-output guarantee of the batch
    protocol.  Widths are a pure function of [(total, slices)]: an even
    split with the remainder on the lowest slice indices, floored at one
    worker per slice (oversubscribed configurations degrade to width-1
    inline slices).  Slice [i] therefore always commands the same worker
    count, independent of what the other slices are doing. *)

type sliced
(** A fixed partition of worker domains into independent pools. *)

val slice_widths : total:int -> slices:int -> int array
(** The deterministic partition: [slice_widths ~total ~slices].(i) is
    the worker count of slice [i].
    @raise Invalid_argument when [total < 1] or [slices < 1]. *)

val create_sliced : total:int -> slices:int -> sliced
(** Spawn one persistent pool per slice, sized by {!slice_widths}. *)

val slice : sliced -> int -> t
(** The slice's own pool; pass it to [Campaign.run ~pool]. *)

val slice_count : sliced -> int
val slice_width : sliced -> int -> int

val shutdown_sliced : sliced -> unit
(** {!shutdown} every slice.  Idempotent. *)

(** {2 One-shot batches} *)

val run_supervised :
  jobs:int ->
  tasks:int ->
  ?fatal:(exn -> bool) ->
  ?on_restart:(int -> unit) ->
  worker:(int -> 'a) ->
  consume:(int -> ('a, failure) result -> unit) ->
  unit ->
  unit
(** [run_supervised ~jobs ~tasks ~worker ~consume ()] computes [worker i]
    for every [i] in [0..tasks-1] on [jobs] domains ([0] = all cores) and
    calls [consume i result] on the calling domain in increasing [i].  A
    worker exception is captured as a per-item [Error] and handed to
    [consume] at the item's index —
    the pool itself never re-raises it, so one crashing item cannot abort
    the remaining work.

    [fatal] (default [fun _ -> false]) classifies exceptions that should
    be treated as a {e worker-domain crash}: the domain that hit one exits
    (after depositing the failure cell), and when the consumer drains that
    failure it first calls [on_restart index] and spawns a replacement
    domain.  The restart happens for {e every} drained fatal failure —
    even when no untaken work remains, in which case the replacement exits
    immediately — so the number of restarts is a pure function of which
    items crashed, identical at every [jobs] level (including [jobs = 1],
    where no domain exists but [on_restart] still fires).  Non-fatal
    exceptions leave the worker domain alive and pulling further items.

    Drain order: [consume] observes
    items [0, 1, 2, ...] with no gaps; every {e taken} index is always
    filled (workers deposit their result or failure before exiting for any
    reason), so the consumer never waits on a slot that no live or future
    domain will fill.  If [consume] itself raises at index [i], items
    [< i] have been fully consumed, no new item is started, in-flight
    items run to completion, and every domain is joined before the
    exception propagates — the pool is never left wedged.

    With [jobs = 1] everything runs sequentially on the calling domain
    with no domain spawned. *)
