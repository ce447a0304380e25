(** Deterministic solver-configuration portfolio.

    A portfolio of size [k] is the configurations [config 0] ..
    [config (k-1)]: seeded variations of the SAT solver's restart
    series, default decision polarity and RNG stream.  Ranking is by
    index — config 0 is the exact baseline configuration, so a
    portfolio of size 1 is the plain solver, and campaign artifacts only
    depend on [k] where the baseline ran out of budget and a challenger
    answered instead.  Everything here is a pure function of
    [(index, seed)], which is what keeps portfolio campaigns
    byte-identical across [--jobs] levels and resume points. *)

type config = {
  index : int;  (** rank; lower index wins ties *)
  default_phase : bool;  (** {!Sat.create}'s [default_phase] *)
  restart_base : int;  (** {!Sat.create}'s [restart_base] *)
}

val config : int -> config
(** Configuration at a rank.  Total for every non-negative index.
    @raise Invalid_argument on a negative index. *)

val seed_for : config -> int64 -> int64
(** Session seed for a configuration, derived from the seed the baseline
    session uses.  [seed_for baseline s = s]; challenger streams are
    decorrelated from the baseline's and from each other. *)
