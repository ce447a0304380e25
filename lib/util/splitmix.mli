(** Splittable pseudo-random number generator (splitmix64).

    All randomness in the reproduction flows from values of type {!t} so
    that campaigns are reproducible from a single seed.  The generator is
    purely functional: every operation returns the next generator state. *)

type t
(** Immutable generator state. *)

val of_seed : int64 -> t
(** [of_seed s] creates a generator from a 64-bit seed. *)

val next : t -> int64 * t
(** [next g] returns a uniformly distributed 64-bit value and the next
    state. *)

val split : t -> t * t
(** [split g] returns two statistically independent generators.  Used to
    give every program / test case / run its own stream. *)

val int : t -> int -> int * t
(** [int g bound] returns a uniform integer in [\[0, bound)].  [bound] must
    be positive. *)

val int_in : t -> int -> int -> int * t
(** [int_in g lo hi] returns a uniform integer in [\[lo, hi\]] inclusive. *)

val bool : t -> bool * t
(** Uniform boolean. *)

val fill_bools : t -> bool array -> int -> int -> t
(** [fill_bools g a pos len] stores [len] booleans in [a.(pos)] ..
    [a.(pos + len - 1)] and returns the next state: the same values and
    state as [len] iterated calls of {!bool}, without allocating per
    element.
    @raise Invalid_argument if the range is not within [a]. *)

val float : t -> float * t
(** Uniform float in [\[0, 1)]. *)

val choose : t -> 'a list -> 'a * t
(** [choose g xs] picks a uniform element of the non-empty list [xs].
    @raise Invalid_argument on the empty list. *)

val shuffle : t -> 'a list -> 'a list * t
(** Fisher-Yates shuffle. *)
