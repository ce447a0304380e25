(** Attacker-accessible cache regions for the cache-coloring models
    (Sec. 4.2.1).  A region is a contiguous, inclusive range of cache set
    indexes; the predicate [AR(addr)] of the paper holds when the address
    maps into the region. *)

type t = { first_set : int; last_set : int }

val make : first_set:int -> last_set:int -> t
(** @raise Invalid_argument on an empty or negative range. *)

val paper_unaligned : Scamv_isa.Platform.t -> t
(** The region of Table 1 columns 1-2: the highest 67 set indexes
    (61..127), deliberately not page aligned. *)

val paper_page_aligned : Scamv_isa.Platform.t -> t
(** The region of Table 1 columns 3-4: the highest 64 set indexes
    (64..127), one page. *)

val set_index_term : Scamv_isa.Platform.t -> Scamv_smt.Term.t -> Scamv_smt.Term.t
(** Symbolic cache-set index of a 64-bit address term. *)

val contains_term : Scamv_isa.Platform.t -> t -> Scamv_smt.Term.t -> Scamv_smt.Term.t
(** Symbolic [AR(addr)]. *)

val contains : Scamv_isa.Platform.t -> t -> int64 -> bool
(** Concrete [AR(addr)]. *)
