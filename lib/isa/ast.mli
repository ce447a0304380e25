(** Abstract syntax of the AArch64 subset used by the test-program
    templates (Fig. 5 / Fig. 7 of the paper): ALU operations, loads and
    stores with register/immediate addressing, compare, and (conditional)
    direct branches.

    Branch targets are instruction indexes into the program array; the
    pretty printer reconstructs labels.  Execution falling off the end of
    the array halts. *)

type operand = Reg of Reg.t | Imm of int64

type addressing = {
  base : Reg.t;
  offset : operand;  (** added to the base *)
  scale : int;  (** left-shift applied to the offset, 0..4 *)
}

(** Condition codes, Cortex naming. *)
type cond =
  | Eq  (** equal *)
  | Ne  (** not equal *)
  | Hs  (** unsigned higher-or-same *)
  | Lo  (** unsigned lower *)
  | Hi  (** unsigned higher *)
  | Ls  (** unsigned lower-or-same *)
  | Ge  (** signed greater-or-equal *)
  | Lt  (** signed less-than *)
  | Gt  (** signed greater-than *)
  | Le  (** signed less-or-equal *)

type instr =
  | Mov of Reg.t * operand
  | Add of Reg.t * Reg.t * operand
  | Sub of Reg.t * Reg.t * operand
  | And_ of Reg.t * Reg.t * operand
  | Orr of Reg.t * Reg.t * operand
  | Eor of Reg.t * Reg.t * operand
  | Lsl of Reg.t * Reg.t * operand
  | Lsr of Reg.t * Reg.t * operand
  | Asr of Reg.t * Reg.t * operand
  | Ldr of Reg.t * addressing
  | Str of Reg.t * addressing
  | Cmp of Reg.t * operand
  | B_cond of cond * int  (** conditional direct branch to index *)
  | B of int  (** unconditional direct branch to index *)
  | Nop

type program = instr array

val negate_cond : cond -> cond

val is_load : instr -> bool

val successors : program -> int -> int list
(** Successor instruction indexes of the instruction at the given index;
    the program length acts as the halt point.  Fall-through first. *)

val validate : program -> (unit, string) Stdlib.result
(** Check branch targets are within [0, length] and scales within 0..4. *)

val pp_cond : Format.formatter -> cond -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp_program : Format.formatter -> program -> unit
val to_string : program -> string
