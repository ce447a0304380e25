(** Lifting ISA programs to BIR.

    The lifter produces one block per instruction (block id = instruction
    index) plus a halt block, and invokes observation hooks at the points
    observational models care about: instruction fetch, data loads, data
    stores, and branch resolutions.  The hook results are inserted as
    [Observe] statements, realizing the "observation augmentation" phase
    of the Scam-V pipeline (Fig. 1).

    The lifter itself is architecture-parametric: everything instruction-
    set specific comes from an {!Arch.t} descriptor, so a new guest
    architecture plugs in at this layer with models, symbolic execution
    and relation synthesis unchanged. *)

type hooks = {
  on_fetch : pc:int -> Obs.t list;
  on_load : pc:int -> addr:Scamv_smt.Term.t -> Obs.t list;
  on_store : pc:int -> addr:Scamv_smt.Term.t -> Obs.t list;
  on_branch : pc:int -> cond:Scamv_smt.Term.t -> Obs.t list;
      (** [cond] is the taken condition over the canonical variables
          ([Term.tt] for unconditional branches). *)
}

val no_hooks : hooks
(** Produce no observations (the bare architectural model). *)

val cond_term : Scamv_isa.Ast.cond -> Scamv_smt.Term.t
(** Condition-code predicate over the canonical flag variables: the
    AArch64 lowering of {!Arch.aarch64}, re-exported. *)

val lift_arch : ?hooks:hooks -> 'i Arch.t -> 'i array -> Program.t
(** Lift a program of any described architecture.
    @raise Invalid_argument if the descriptor's validation rejects the
    program. *)

val lift : ?hooks:hooks -> Scamv_isa.Ast.program -> Program.t
(** [lift_arch Arch.aarch64].
    @raise Invalid_argument if {!Scamv_isa.Ast.validate} rejects the
    program. *)
