(** The guest instruction sets campaigns can run on, as a runtime value.

    The static side of multi-architecture support is
    {!Scamv_bir.Arch.t}, a descriptor indexed by the instruction type;
    this module is the dynamic side: the tag threaded through campaign
    configuration, journals and the CLI ([--isa aarch64|riscv]), and the
    sum of guest programs a generated test victim can be. *)

type t = Aarch64 | Riscv

val equal : t -> t -> bool
val to_string : t -> string

val of_string : string -> (t, string) result
(** ["aarch64" | "riscv"]; the error message lists the valid names. *)

val pp : Format.formatter -> t -> unit

type program =
  | Aarch64_program of Scamv_isa.Ast.program
  | Riscv_program of Scamv_riscv.Ast.program

val of_program : program -> t
val validate_program : program -> (unit, string) result
val pp_program : Format.formatter -> program -> unit
val program_to_string : program -> string
