(** Architectural (in-order, non-speculative) semantics.

    [run] is the reference executor used for differential testing against
    the BIR lifter, the symbolic engine and the microarchitectural core,
    which shares {!alu_op}, {!flags_of_cmp} and {!eval_cond}. *)

type event =
  | Fetch of int  (** instruction index executed *)
  | Load of int64  (** data memory address read *)
  | Store of int64  (** data memory address written *)
  | Branch of { pc : int; taken : bool; target : int }
      (** resolved direct branch (conditional or not) *)

val eval_cond : Machine.flags -> Ast.cond -> bool

val flags_of_cmp : int64 -> int64 -> Machine.flags
(** NZCV after [cmp a, b] (i.e. [a - b] at width 64). *)

val alu_op :
  [< `Add | `Sub | `And | `Orr | `Eor | `Lsl | `Lsr | `Asr ] -> int64 -> int64 -> int64
(** The value an ALU instruction writes; shifts by 64 or more give 0
    ([lsl]/[lsr]) or the sign fill ([asr]). *)

type trace = event list

val run : ?fuel:int -> Ast.program -> Machine.t -> trace
(** Run from index 0 until the pc leaves the program.  [fuel] bounds the
    number of executed instructions (default 10_000).
    @raise Failure when fuel is exhausted (cyclic program). *)
