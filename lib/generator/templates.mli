(** The test-program templates of the paper (Fig. 5 and Fig. 7).

    Each generator instantiates a template by randomly allocating machine
    registers under the template's side constraints and by drawing random
    immediates, exactly in the spirit of the SML generators of Sec. 5.4.

    - {!stride}: the Stride Template (Sec. 6.2): three to five loads from
      equidistant addresses, the workload that can trigger the automatic
      prefetcher.
    - {!template_a}: Fig. 5 Template A (Sec. 6.3): an anticipated load
      whose result is used by a load guarded by a conditional branch — the
      SiSCloak shape.  Constraints: r2 <> r1 and r4 not in {r1, r2}.
    - {!template_b}: Fig. 5 Template B: zero to two loads before the
      branch, one or two loads in the branch body, random comparison
      predicate, unconstrained register allocation.
    - {!template_c}: Fig. 7 Template C (Sec. 6.5): two causally dependent
      loads inside the branch body, optionally interleaved with an
      arithmetic operation.
    - {!template_d}: Fig. 7 Template D: loads placed after an
      unconditional direct branch (straight-line speculation probe). *)

type t = {
  template_name : string;
  program : Scamv_arch.Isa.program;
}

val stride : t Gen.t
val template_a : t Gen.t
val template_b : t Gen.t
val template_c : t Gen.t
val template_d : t Gen.t

val names : string list
(** The template names accepted by {!by_name}. *)

val by_name : ?isa:Scamv_arch.Isa.t -> string -> t Gen.t
(** ["stride" | "A" | "B" | "C" | "D"], for the requested guest ISA
    (default [Aarch64]).  The RV64 instantiations have the same shapes
    (Sec. 2.3's multi-ISA claim): the flag-setting [Cmp]/[B.cond] pair
    becomes a single RV64 compare-and-branch, register-offset addressing
    becomes an explicit address [Add] feeding a base+immediate load, and
    template D's dead code hides behind [jal x0].  Template names are
    shared across ISAs so differential campaigns line up by name.
    @raise Invalid_argument on unknown names (the message lists the
    valid ones). *)
