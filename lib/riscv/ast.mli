(** RV64I subset: the second guest architecture of the reproduction.

    Scam-V supports multiple architectures by translating binaries into a
    common intermediate form (Sec. 2.3: "Currently ARMv8, CortexM0, and
    RISC-V"); here, RISC-V programs are lifted to BIR by {!Lift}, after
    which the whole pipeline (models, symbolic execution, relation
    synthesis) applies unchanged, and the simulated core decodes them
    into the operation set it shares with the AArch64 subset.

    Registers are [x0 .. x31] with [x0] hardwired to zero.  Branch and
    jump targets are instruction indexes. *)

type reg = int
(** 0..31; constructors check the range. *)

val x : int -> reg
val reg_name : reg -> string

type instr =
  | Addi of reg * reg * int64
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | And_ of reg * reg * reg
  | Or_ of reg * reg * reg
  | Xor of reg * reg * reg
  | Andi of reg * reg * int64
  | Ori of reg * reg * int64
  | Xori of reg * reg * int64
  | Slli of reg * reg * int  (** shift amount 0..63 *)
  | Srli of reg * reg * int
  | Srai of reg * reg * int
  | Sll of reg * reg * reg
      (** register-amount shifts use the low 6 bits of rs2, unlike the
          AArch64 subset, whose shifts yield 0 for amounts >= 64 *)
  | Srl of reg * reg * reg
  | Sra of reg * reg * reg
  | Ld of reg * int64 * reg  (** [Ld (rd, imm, rs1)] = rd := mem[rs1 + imm] *)
  | Sd of reg * int64 * reg  (** [Sd (rs2, imm, rs1)] = mem[rs1 + imm] := rs2 *)
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int
  | Bge of reg * reg * int
  | Bltu of reg * reg * int
  | Bgeu of reg * reg * int
  | Jal of reg * int
      (** [rd := pc + 1] (an instruction index), then jump; [rd = x0] is a
          plain jump *)
  | Nop

type program = instr array

val validate : program -> (unit, string) Stdlib.result
(** Branch targets in range, shift amounts in 0..63. *)

val pp_instr : Format.formatter -> instr -> unit
val pp_program : Format.formatter -> program -> unit
