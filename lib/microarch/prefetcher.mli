(** Stride data prefetcher.

    The Cortex-A53 prefetcher activates once at least [threshold]
    (default 3, the processor's default setting per Sec. 6.1) consecutive
    loads access equidistant addresses, and then prefetches the next
    address of the stream — but never across a page boundary, the
    property the page-aligned cache-coloring experiment of Sec. 6.2
    depends on.

    Prefetch issue is probabilistic ([fire_prob], default 0.97): the real
    prefetcher is timing-sensitive, and this is what makes
    prefetch-dependent experiments occasionally inconclusive with the
    same distribution as in the paper (see DESIGN.md). *)

type t

val create :
  ?threshold:int -> ?fire_prob:float -> Scamv_isa.Platform.t -> t

val reset : t -> unit

val observe : t -> rng:Scamv_util.Splitmix.t ref -> int64 -> int64 option
(** Feed a demand-access address; returns the address to prefetch when the
    stream detector fires. *)
