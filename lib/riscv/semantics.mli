(** Native RV64 reference semantics, used to differentially test the
    native lifter {!Lift} and the simulated core: both must reach the
    register file and memory this interpreter computes. *)

type state

val create : unit -> state
val get_reg : state -> Ast.reg -> int64
(** Reads of [x0] are always zero. *)

val set_reg : state -> Ast.reg -> int64 -> unit
(** Writes to [x0] are discarded. *)

val load : state -> int64 -> int64
val store : state -> int64 -> int64 -> unit
val mem_bindings : state -> (int64 * int64) list

val run : ?fuel:int -> Ast.program -> state -> unit
(** Execute from index 0 until the pc leaves the program.
    @raise Failure on fuel exhaustion. *)
