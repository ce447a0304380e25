(** Bit-level helpers on [int64] words, used by the SMT bit-blaster, the
    ISA semantics and the cache model.  All operations treat values as
    unsigned 64-bit words unless stated otherwise. *)

val mask : int -> int64
(** [mask w] is the word with the low [w] bits set ([0 <= w <= 64]). *)

val truncate : int -> int64 -> int64
(** [truncate w v] keeps only the low [w] bits of [v]. *)

val bit : int64 -> int -> bool
(** [bit v i] is bit [i] of [v] (0 = least significant). *)

val set_bit : int64 -> int -> bool -> int64
(** [set_bit v i b] sets bit [i] of [v] to [b]. *)

val sign_extend : int -> int64 -> int64
(** [sign_extend w v] sign-extends the [w]-bit value [v] to 64 bits. *)

val extract : hi:int -> lo:int -> int64 -> int64
(** [extract ~hi ~lo v] is bits [hi..lo] of [v], right-aligned. *)

val ult : int64 -> int64 -> bool
(** Unsigned strictly-less-than. *)

val ule : int64 -> int64 -> bool
(** Unsigned less-or-equal. *)

val slt : width:int -> int64 -> int64 -> bool
(** Signed strictly-less-than at the given bit width. *)

val popcount : int64 -> int
(** Number of set bits. *)

val to_hex : int64 -> string
(** Hexadecimal rendering with [0x] prefix. *)
