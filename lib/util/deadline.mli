(** Cooperative cancellation deadlines for supervised execution.

    A deadline token bounds one unit of work (the campaign driver creates
    one per program).  Instrumented loops {e cooperate}: the SAT search
    charges one unit per conflict and checks the token at its loop head,
    the blaster and pipeline poll at phase boundaries, and the observer of
    expiry raises {!Expired} after rewinding its own state — nothing is
    interrupted asynchronously, so solver sessions stay reusable.

    Two modes (see DESIGN.md, "Failure domains and supervision"):

    - {!Conflicts} is a {e virtual} deadline: a budget of charged work
      units.  Expiry depends only on the work performed, never on wall
      time or scheduling, so campaigns bounded this way stay byte-identical
      across [--jobs] levels.
    - {!Wall_seconds} is the wall-clock watchdog for service use.  The
      clock is only consulted every few hundred polls; under
      {!Stopwatch.frozen} it never advances, so frozen (deterministic)
      campaigns are unaffected.

    Expiry is sticky, and the flag is atomic so a supervisor on another
    domain may {!cancel} a token its worker polls. *)

type spec = Conflicts of int | Wall_seconds of float

type t

exception Expired of string
(** Raised by {!check} / {!poll}; the payload is {!describe}. *)

val create : ?clock:Stopwatch.clock -> spec -> t
(** Fresh un-expired token; [clock] (default {!Stopwatch.wall}) only
    matters for {!Wall_seconds}.
    @raise Invalid_argument on a non-positive limit. *)

val describe : t -> string

val cancel : t -> unit
(** Force expiry (safe from any domain). *)

val tick : t -> int -> unit
(** Charge [n] work units (virtual mode; a no-op signal for wall mode). *)

val used : t -> int
(** Work units charged so far. *)

val expired : t -> bool
(** Has the deadline passed?  Cheap enough for a hot loop: virtual mode is
    one comparison, wall mode reads the clock every 256th call. *)

val remaining_seconds : t -> float option
(** Seconds left before a wall deadline fires ([Some 0.] once expired or
    cancelled, [None] while a virtual deadline still has budget).  Always
    consults the clock — meant for slow waiters computing a select(2)
    timeout (the service's idle-connection loop), not for hot loops. *)

val check : t -> unit
(** @raise Expired if {!expired}. *)

(** {2 Ambient API}

    The current token is domain-local state ([Domain.DLS]), mirroring
    {!Scamv_telemetry.Collector}: installing a token on one domain is
    invisible to every other, and all operations are no-ops when no token
    is installed, so library code polls unconditionally. *)

val with_current : t -> (unit -> 'a) -> 'a
(** Install [t] as this domain's token for the callback (restoring the
    previous one afterwards, exceptions included). *)

val current : unit -> t option

val poll : unit -> unit
(** {!check} the ambient token, if any.  @raise Expired *)

val charge : int -> unit
(** {!tick} the ambient token, if any. *)
