(** Naming conventions tying BIR program variables to SMT variables.

    A single flat namespace covers registers ([x0] .. [x30]), the data
    memory ([mem]), the NZCV flags, shadow (transient) copies used by the
    speculation instrumentation, and the state-pair suffixes used by
    relation synthesis. *)

val reg : Scamv_isa.Reg.t -> string
val reg_term : Scamv_isa.Reg.t -> Scamv_smt.Term.t

val mem_name : string
val mem_term : Scamv_smt.Term.t

val flag_n : string
val flag_z : string
val flag_c : string
val flag_v : string
val flag_term : string -> Scamv_smt.Term.t

val shadow : string -> string
(** Shadow (transient) counterpart of a variable, e.g. ["x3_sh"].
    Shadowing is idempotent on already-shadowed names. *)

val is_shadow : string -> bool

val all_program_vars : (string * Scamv_smt.Sort.t) list
(** Registers, memory and flags (without shadows). *)

