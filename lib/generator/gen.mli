(** Monadic random generators in the QuickCheck style (Sec. 5.4): the
    grammar-driven template generators are built from these combinators,
    and all randomness flows from an explicit {!Scamv_util.Splitmix.t}
    state so program generation is reproducible. *)

type 'a t

val run : 'a t -> Scamv_util.Splitmix.t -> 'a * Scamv_util.Splitmix.t
val generate : seed:int64 -> 'a t -> 'a

val return : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val list : int -> 'a t -> 'a list t

val int_in : int -> int -> int t
(** Inclusive range. *)

val bool : bool t
val choose : 'a list -> 'a t
val opt : float -> 'a t -> 'a option t
(** [opt p g] yields [Some] with probability [p]. *)

val frequency : (int * 'a t) list -> 'a t

(** {1 Register allocation} *)

val reg : Scamv_isa.Reg.t t
(** Any general-purpose register. *)

val reg_avoiding : Scamv_isa.Reg.t list -> Scamv_isa.Reg.t t
(** A register not in the given list.
    @raise Invalid_argument if all registers are excluded. *)

val distinct_regs : ?avoid:Scamv_isa.Reg.t list -> int -> Scamv_isa.Reg.t list t
(** [n] pairwise-distinct registers outside [avoid]. *)

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
  val ( and+ ) : 'a t -> 'b t -> ('a * 'b) t
end
