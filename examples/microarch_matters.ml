(* Sound models are per-microarchitecture (Sec. 6.5: "Speculation can
   cause different leakage on different microarchitectures ... it is
   therefore useful to test observational models that are tailored for a
   specific architecture").

   Two demonstrations on two simulated cores:

   1. The tailored model Mspec1 (one transient load observed) validates
      on the Cortex-A53 for the dependent-load programs of Template C —
      but the SAME model is invalidated within seconds on an out-of-order
      core with speculative forwarding, where the dependent second load
      issues (the classic Spectre-PHT microarchitecture).

   2. The classic Spectre-PHT gadget (both loads inside the mispredicted
      branch, Fig. 6 left) leaks nothing on the A53 — confirming ARM's
      claim, Sec. 6.5 — but leaks the secret on the forwarding core.

   Run with:  dune exec examples/microarch_matters.exe *)

module Ast = Scamv_isa.Ast
module Reg = Scamv_isa.Reg
module Machine = Scamv_isa.Machine
module Core = Scamv_microarch.Core
module Executor = Scamv_microarch.Executor
module Flush_reload = Scamv_microarch.Flush_reload
module Refinement = Scamv_models.Refinement
module Templates = Scamv_gen.Templates
module Campaign = Scamv.Campaign
module Stats = Scamv.Stats

let x = Reg.x

let validate_mspec1_on core_cfg name =
  let cfg =
    Campaign.make ~name ~template:Templates.template_c
      ~setup:(Refinement.mspec1_vs_mspec ()) ~view:Executor.Full_cache ~programs:8
      ~tests_per_program:25 ()
  in
  let cfg =
    {
      cfg with
      Campaign.executor = { cfg.Campaign.executor with Executor.core = core_cfg };
    }
  in
  let s = (Campaign.run cfg).Campaign.stats in
  Format.printf "  %-22s %4d experiments, %4d counterexamples -> Mspec1 %s@." name
    s.Stats.experiments s.Stats.counterexamples
    (if s.Stats.counterexamples = 0 then "validated" else "INVALIDATED");
  s.Stats.counterexamples

(* Fig. 6 (left): the classic Spectre-PHT gadget, both loads guarded. *)
let spectre_pht =
  Core.decode
    (Scamv_arch.Isa.Aarch64_program
       [|
         Ast.Cmp (x 0, Ast.Reg (x 1));
         Ast.B_cond (Ast.Hs, 4);
         Ast.Ldr (x 2, { Ast.base = x 10; offset = Ast.Reg (x 0); scale = 0 });
         Ast.Ldr (x 4, { Ast.base = x 11; offset = Ast.Reg (x 2); scale = 0 });
       |])

let a_base = 0x8000_0000L
let b_base = 0x8010_0000L
let line = 64L

let spectre_attack core_cfg secret =
  let fr = Flush_reload.create { core_cfg with Core.mispredict_noise = 0.0 } in
  let core = Flush_reload.core fr in
  let setup m input =
    Machine.set_reg m (x 10) a_base;
    Machine.set_reg m (x 11) b_base;
    Machine.set_reg m (x 1) 0x100L (* bound *);
    Machine.set_reg m (x 0) input;
    Machine.store m (Int64.add a_base 0x10L) 0L;
    Machine.store m (Int64.add a_base 0x300L) (Int64.mul secret line)
  in
  for _ = 1 to 5 do
    let m = Machine.create () in
    setup m 0x10L;
    ignore (Core.run core spectre_pht m)
  done;
  let candidates = List.init 16 (fun i -> Int64.mul (Int64.of_int i) line) in
  List.iter (fun c -> Flush_reload.flush fr (Int64.add b_base c)) candidates;
  let m = Machine.create () in
  setup m 0x300L (* out of bounds *);
  ignore (Core.run core spectre_pht m);
  List.find_opt (fun c -> Flush_reload.was_cached fr (Int64.add b_base c)) candidates

let () =
  Format.printf "=== Validating Mspec1 (first-transient-load model) on template C ===@.";
  let a53 = validate_mspec1_on Core.cortex_a53 "Cortex-A53" in
  let ooo = validate_mspec1_on Core.out_of_order "out-of-order core" in
  if a53 = 0 && ooo > 0 then
    Format.printf
      "  => the tailored model is sound on the A53 but NOT transferable to@.\
      \    a core with speculative forwarding.@.";

  Format.printf "@.=== Classic Spectre-PHT gadget (Fig. 6, left) ===@.";
  let try_on name cfg =
    match spectre_attack cfg 11L with
    | Some probe when Int64.equal probe (Int64.mul 11L line) ->
      Format.printf "  %-22s secret RECOVERED via dependent transient load@." name
    | Some probe -> Format.printf "  %-22s spurious probe hit 0x%Lx@." name probe
    | None -> Format.printf "  %-22s nothing leaked@." name
  in
  try_on "Cortex-A53" Core.cortex_a53;
  try_on "out-of-order core" Core.out_of_order;
  Format.printf
    "@.The A53 is immune to the classic gadget (the dependent load cannot@.\
     issue), matching ARM's claim validated in Sec. 6.5 - yet it still@.\
     leaks through SiSCloak's single anticipated load (see@.\
     examples/siscloak_attack.exe).@."
