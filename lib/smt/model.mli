(** Satisfying assignments produced by the solver.

    A model assigns boolean/bit-vector values to variables and partial
    contents to memories.  Memory cells that were never read by the
    formula default to zero, matching how the evaluation platform
    initializes unconstrained memory. *)

type value = Bool of bool | Bv of int64 * int  (** value, width *)

type t

val empty : t
val add_var : t -> string -> value -> t
val add_mem_cell : t -> string -> addr:int64 -> value:int64 -> t

val find_var : t -> string -> value option
val bv_exn : t -> string -> int64
(** [bv_exn m x] is the bit-vector value of [x]; unassigned variables
    default to [0L] (they are unconstrained). *)

val bool_exn : t -> string -> bool
(** Boolean value of a variable, defaulting to [false]. *)

val mem_cells : t -> string -> (int64 * int64) list
(** Assigned cells of a memory, sorted by address. *)

val mem_lookup : t -> string -> int64 -> int64
(** Cell content, defaulting to [0L]. *)

val vars : t -> (string * value) list
val mems : t -> string list

val pp : Format.formatter -> t -> unit
