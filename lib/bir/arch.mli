(** Architecture descriptors: everything the generic lifter (and the
    speculation instrumentation built on top of it) needs to know about a
    guest ISA, bundled as a first-class value.

    The paper's claim (Sec. 2.3) is that a new guest architecture plugs
    into Scam-V at the lifter, with observation augmentation, relation
    synthesis and the platform applying unchanged.  A descriptor captures
    that plug point: the canonical BIR register variables, program
    validation, and the per-instruction lowering to assignments plus a
    memory-access shape and a control shape.  {!Lifter.lift_arch} turns a
    descriptor and a program into observed BIR;
    {!Scamv_models.Speculation} reuses the same lowering to build shadow
    wrong-path slices for any architecture. *)

type access =
  | No_access
  | Load of Scamv_smt.Term.t  (** address over canonical variables *)
  | Store of Scamv_smt.Term.t

type control =
  | Fallthrough
  | Jump of int  (** unconditional, instruction-index target *)
  | Cond_jump of Scamv_smt.Term.t * int
      (** taken condition over canonical variables, and taken target;
          fall-through is the next instruction *)

type lifted = {
  assigns : (string * Scamv_smt.Term.t) list;
      (** state updates over canonical variables, in order *)
  access : access;
  control : control;
}

type 'i t = {
  name : string;  (** e.g. ["aarch64"], ["riscv"] *)
  registers : string list;
      (** canonical BIR register variable names, in machine-slot order *)
  has_flags : bool;
      (** whether the architecture keeps NZCV-style flag variables (the
          compare discipline); compare-and-branch ISAs have none *)
  validate : 'i array -> (unit, string) result;
  lift_instr : pc:int -> 'i -> lifted;
      (** the complete architectural semantics of one instruction *)
  pp_instr : Format.formatter -> 'i -> unit;
}

val is_load : lifted -> bool
val is_branch : lifted -> bool
(** [is_branch l] holds when control is not {!Fallthrough}. *)

(** {1 AArch64} *)

val cond_term : Scamv_isa.Ast.cond -> Scamv_smt.Term.t
(** Condition-code predicate over the canonical flag variables. *)

val aarch64 : Scamv_isa.Ast.instr t
