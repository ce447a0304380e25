(* Multi-architecture support (Sec. 2.3: "Scam-V supports multiple
   architectures by translating binary programs to an intermediate
   language").  A RISC-V (RV64) victim goes through the arch-parametric
   lifter ([Scamv_riscv.Lift.arch]) straight into BIR, and from there
   through the same models, symbolic execution, relation synthesis and
   simulated core as an AArch64 program.  Refinement-guided search finds
   the speculative leak; unguided search does not.

   Run with:  dune exec examples/riscv_frontend.exe *)

module Rv = Scamv_riscv.Ast
module Executor = Scamv_microarch.Executor
module Refinement = Scamv_models.Refinement
module Gen = Scamv_gen.Gen
module Campaign = Scamv.Campaign
module Stats = Scamv.Stats

(* The SiSCloak gadget, written in RV64: a bounds check whose
   misprediction speculatively dereferences an already-loaded value.

     ld   x3, 0(x1)      # x3 := table entry (committed)
     bge  x3, x2, end    # classification check
     ld   x5, 0(x3)      # guarded dereference
   end:
*)
let rv_gadget =
  [|
    Rv.Ld (Rv.x 3, 0L, Rv.x 1);
    Rv.Bge (Rv.x 3, Rv.x 2, 3);
    Rv.Ld (Rv.x 5, 0L, Rv.x 3);
  |]

let run name template setup =
  let cfg =
    Campaign.make ~name ~isa:Scamv_arch.Isa.Riscv ~template ~setup ~view:Executor.Full_cache
      ~programs:1 ~tests_per_program:40 ~seed:9L ()
  in
  let s = (Campaign.run cfg).Campaign.stats in
  Format.printf "%-28s experiments=%3d counterexamples=%3d ttc=%s@." name
    s.Stats.experiments s.Stats.counterexamples
    (match s.Stats.time_to_first_counterexample with
    | None -> "-"
    | Some t -> Printf.sprintf "%.2fs" t);
  s.Stats.counterexamples

let () =
  Format.printf "=== RV64 victim ===@.%a@." Rv.pp_program rv_gadget;
  Format.printf "@.=== lifted to BIR ===@.%a@." Scamv_bir.Program.pp
    (Scamv_bir.Lifter.lift_arch Scamv_riscv.Lift.arch rv_gadget);
  let template =
    Gen.return
      {
        Scamv_gen.Templates.template_name = "rv64 gadget";
        program = Scamv_arch.Isa.Riscv_program rv_gadget;
      }
  in
  Format.printf "@.=== validating Mct on the RV64 program ===@.";
  let refined = run "Mct vs Mspec (refined)" template (Refinement.mct_vs_mspec ()) in
  let unguided = run "Mct unguided" template Refinement.mct_unguided in
  Format.printf "@.";
  if refined > 0 && unguided = 0 then
    Format.printf
      "The RISC-V victim leaks exactly like its AArch64 counterpart: one@.\
       speculative load suffices, and only refinement-guided search sees it.@.\
       Supporting the new architecture took a lifter descriptor and a decoder@.\
       into the simulated core's operation set - models, symbolic execution,@.\
       relation synthesis and the platform are unchanged.@."
