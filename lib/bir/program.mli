(** Block-structured intermediate representation with explicit observation
    statements, in the style of HolBA's BIR.

    Expressions are {!Scamv_smt.Term} values over the program variables of
    {!Vars}; an assignment [Assign (x, e)] evaluates [e] over the current
    variable valuation.  Block identifiers are arbitrary; the lifter uses
    the instruction index, and instrumentation passes allocate fresh ids
    for the stub blocks they insert on branch edges. *)

type stmt =
  | Assign of string * Scamv_smt.Term.t
  | Observe of Obs.t

type terminator =
  | Jmp of int
  | Cjmp of Scamv_smt.Term.t * int * int  (** condition, then-id, else-id *)
  | Halt

type block = { id : int; stmts : stmt list; term : terminator }

type t

val make : entry:int -> block list -> t
(** @raise Invalid_argument on duplicate block ids, a missing entry block,
    or terminators referencing unknown blocks. *)

val entry : t -> int
val block : t -> int -> block
(** @raise Not_found on unknown id. *)

val blocks : t -> block list
(** All blocks, ordered by id. *)

val fresh_id : t -> int
(** An id strictly greater than every existing block id. *)

val map_blocks : (block -> block) -> t -> t
(** Rebuild the program by transforming every block (ids may not change). *)

val add_blocks : block list -> t -> t
(** Add new blocks (fresh ids) to the program. *)

val successors : block -> int list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
