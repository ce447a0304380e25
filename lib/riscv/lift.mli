(** Native RV64 -> BIR lifting: the architecture descriptor that makes
    RISC-V a first-class guest.

    Canonical BIR variables are ["x1" .. "x31"] (64-bit) plus the shared
    memory variable; [x0] reads lower to the constant 0 and writes to it
    produce no assignment, so every x0 idiom is liftable, as are
    register-amount shifts (6-bit amount masking) and linking [jal].  Branches lower to compare-and-branch
    conditions over the register variables directly — the architecture
    has no flags ([Arch.has_flags = false]). *)

val reg_var : Ast.reg -> string
(** Canonical BIR variable name of a register. *)

val reg_term : Ast.reg -> Scamv_smt.Term.t
(** 64-bit variable, or the constant 0 for [x0]. *)

val registers : string list
(** ["x1" .. "x31"] in machine-slot order: RV64 x[k] occupies slot k-1 of
    a {!Scamv_isa.Machine.t}, the same convention as the simulated core
    ([Scamv_microarch.Core.decode]). *)

val arch : Ast.instr Scamv_bir.Arch.t

val lift : ?hooks:Scamv_bir.Lifter.hooks -> Ast.program -> Scamv_bir.Program.t
(** [Lifter.lift_arch arch].
    @raise Invalid_argument if {!Ast.validate} rejects the program. *)
