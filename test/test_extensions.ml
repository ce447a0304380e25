(* Tests for the extensions beyond the paper's core pipeline: the TLB
   side channel, the Mpage model, the model-repair loop (Sec. 8 future
   work), and the experiment journal. *)

module Ast = Scamv_isa.Ast
module Reg = Scamv_isa.Reg
module Machine = Scamv_isa.Machine
module Platform = Scamv_isa.Platform
module Tlb = Scamv_microarch.Tlb
module Core = Scamv_microarch.Core
module Executor = Scamv_microarch.Executor
module Catalog = Scamv_models.Catalog
module Refinement = Scamv_models.Refinement
module Templates = Scamv_gen.Templates
module Obs = Scamv_bir.Obs
module Exec = Scamv_symbolic.Exec
module Journal = Scamv.Journal
module Repair = Scamv.Repair
module Stats = Scamv.Stats

let x = Reg.x
let platform = Platform.cortex_a53
let addr base offset = { Ast.base; offset; scale = 0 }

(* ---- Tlb ---- *)

let test_tlb_miss_then_hit () =
  let t = Tlb.create platform in
  Alcotest.(check bool) "first miss" true (Tlb.access t 0x1000L = `Miss);
  Alcotest.(check bool) "same page hits" true (Tlb.access t 0x1FFFL = `Hit);
  Alcotest.(check bool) "next page misses" true (Tlb.access t 0x2000L = `Miss)

let test_tlb_lru_eviction () =
  let t = Tlb.create ~entries:3 platform in
  List.iter (fun i -> ignore (Tlb.access t (Int64.of_int (i * 4096)))) [ 0; 1; 2; 3 ];
  Alcotest.(check bool) "oldest evicted" false (Tlb.contains t 0L);
  Alcotest.(check bool) "newest present" true (Tlb.contains t (Int64.of_int (3 * 4096)))

let test_tlb_lru_refresh () =
  let t = Tlb.create ~entries:2 platform in
  ignore (Tlb.access t 0L);
  ignore (Tlb.access t 4096L);
  ignore (Tlb.access t 0L) (* refresh page 0 *);
  ignore (Tlb.access t 8192L) (* evicts page 1 *);
  Alcotest.(check bool) "refreshed survives" true (Tlb.contains t 0L);
  Alcotest.(check bool) "stale evicted" false (Tlb.contains t 4096L)

let test_tlb_snapshot_sorted () =
  let t = Tlb.create platform in
  ignore (Tlb.access t 8192L);
  ignore (Tlb.access t 0L);
  Alcotest.(check (list Alcotest.int64)) "sorted pages" [ 0L; 2L ] (Tlb.snapshot t);
  Tlb.reset t;
  Alcotest.(check (list Alcotest.int64)) "reset" [] (Tlb.snapshot t)

let test_tlb_capacity_validated () =
  Alcotest.check_raises "zero entries" (Invalid_argument "Tlb.create: entries must be positive")
    (fun () -> ignore (Tlb.create ~entries:0 platform))

(* ---- core/TLB integration ---- *)

let quiet = { Core.cortex_a53 with Core.prefetch_fire_prob = 1.0; mispredict_noise = 0.0 }
let run_a64 core program m = Core.run core (Core.decode (Scamv_arch.Isa.Aarch64_program program)) m

let test_core_loads_touch_tlb () =
  let core = Core.create quiet in
  let m = Machine.create () in
  Machine.set_reg m (x 0) 0x8000_0000L;
  ignore (run_a64 core [| Ast.Ldr (x 1, addr (x 0) (Ast.Imm 0L)) |] m);
  Alcotest.(check bool) "page resident" true (Tlb.contains (Core.tlb core) 0x8000_0000L)

let test_transient_loads_touch_tlb () =
  (* A mispredicted branch's wrong-path load leaves a TLB footprint, like
     its cache footprint. *)
  let program =
    [|
      Ast.Cmp (x 1, Ast.Reg (x 2));
      Ast.B_cond (Ast.Hs, 3);
      Ast.Ldr (x 6, addr (x 5) (Ast.Imm 0L));
    |]
  in
  let s = Machine.create () in
  Machine.set_reg s (x 1) 8L;
  Machine.set_reg s (x 2) 4L;
  Machine.set_reg s (x 5) 0x8013_0000L;
  let t = Machine.copy s in
  Machine.set_reg t (x 1) 1L;
  let core = Core.create quiet in
  for _ = 1 to 5 do
    Core.reset_cache core;
    ignore (run_a64 core program (Machine.copy t))
  done;
  Core.reset_cache core;
  ignore (run_a64 core program (Machine.copy s));
  Alcotest.(check bool) "transient page resident" true
    (Tlb.contains (Core.tlb core) 0x8013_0000L)

let test_reset_cache_clears_tlb () =
  let core = Core.create quiet in
  let m = Machine.create () in
  Machine.set_reg m (x 0) 0x8000_0000L;
  ignore (run_a64 core [| Ast.Ldr (x 1, addr (x 0) (Ast.Imm 0L)) |] m);
  Core.reset_cache core;
  Alcotest.(check (list Alcotest.int64)) "tlb cleared" [] (Tlb.snapshot (Core.tlb core))

(* ---- Mpage model and TLB attacker view ---- *)

let test_mpage_observes_page () =
  let bir =
    Scamv_models.Model.annotate (Catalog.mpage platform)
      [| Ast.Ldr (x 1, addr (x 0) (Ast.Imm 0L)) |]
  in
  let obs =
    Exec.execute bir
    |> List.concat_map (fun (l : Exec.leaf) -> l.Exec.obs)
    |> List.filter (fun (o : Obs.t) -> o.Obs.kind = "page")
  in
  Alcotest.(check Alcotest.int) "one page obs" 1 (List.length obs);
  (* Evaluate: address 0x80001234 is page 0x80001. *)
  let model =
    Scamv_smt.Model.add_var Scamv_smt.Model.empty "x0"
      (Scamv_smt.Model.Bv (0x8000_1234L, 64))
  in
  match (List.hd obs).Obs.values with
  | [ v ] ->
    Alcotest.(check Alcotest.int64) "page value" 0x80001L (Scamv_smt.Eval.eval_bv model v)
  | _ -> Alcotest.fail "one value expected"

let test_tlb_view_distinguishes_pages_only () =
  (* Two states touching different lines of the SAME page are equal for
     the TLB attacker but not the cache attacker. *)
  let program = [| Ast.Ldr (x 1, addr (x 0) (Ast.Imm 0L)) |] in
  let s1 = Machine.create () and s2 = Machine.create () in
  Machine.set_reg s1 (x 0) 0x8000_0000L;
  Machine.set_reg s2 (x 0) 0x8000_0400L (* same page, different set *);
  let experiment =
    {
      Executor.program = Scamv_arch.Isa.Aarch64_program program;
      state1 = s1;
      state2 = s2;
      train = [];
    }
  in
  let run view =
    Executor.run { (Executor.default_config ~view ()) with Executor.core = quiet } experiment
  in
  Alcotest.(check bool) "TLB attacker blind" true (run Executor.Tlb_state = Executor.Indistinguishable);
  Alcotest.(check bool) "cache attacker sees it" true
    (run Executor.Full_cache = Executor.Distinguishable)

let test_mpage_campaign_matrix () =
  (* Miniature version of examples/tlb_channel. *)
  let run setup view =
    let cfg =
      Scamv.Campaign.make ~name:"tlb matrix" ~template:Templates.stride ~setup ~view
        ~programs:6 ~tests_per_program:10 ~seed:5L ()
    in
    (Scamv.Campaign.run cfg).Scamv.Campaign.stats.Stats.counterexamples
  in
  Alcotest.(check Alcotest.int) "Mpage sound for TLB" 0
    (run (Refinement.mpage_vs_mline platform) Executor.Tlb_state);
  Alcotest.(check bool) "Mpage unsound for cache" true
    (run (Refinement.mpage_vs_mline platform) Executor.Full_cache > 0)

(* ---- Repair ---- *)

let test_repair_template_c_needs_one_load () =
  let o = Repair.run ~programs:6 ~tests_per_program:10 ~template:Templates.template_c () in
  match o.Repair.repaired with
  | Some c -> Alcotest.(check Alcotest.int) "k = 1" 1 c.Repair.observed_transient_loads
  | None -> Alcotest.fail "repair expected to converge"

let test_repair_template_b_needs_two_loads () =
  let o = Repair.run ~programs:40 ~tests_per_program:15 ~template:Templates.template_b () in
  match o.Repair.repaired with
  | Some c -> Alcotest.(check Alcotest.int) "k = 2" 2 c.Repair.observed_transient_loads
  | None -> Alcotest.fail "repair expected to converge"

let test_repair_steps_monotone () =
  let o = Repair.run ~programs:6 ~tests_per_program:10 ~template:Templates.template_c () in
  let ks =
    List.map (fun (s : Repair.step) -> s.Repair.tried.Repair.observed_transient_loads) o.Repair.steps
  in
  Alcotest.(check (list Alcotest.int)) "k increases from 0" (List.init (List.length ks) Fun.id) ks;
  (* Every step but the last must have found counterexamples. *)
  List.iteri
    (fun i (s : Repair.step) ->
      if i < List.length o.Repair.steps - 1 then
        Alcotest.(check bool) "intermediate steps unsound" false s.Repair.sound_so_far)
    o.Repair.steps

(* ---- out-of-order core ---- *)

let test_forwarding_core_issues_dependent_load () =
  let program =
    [|
      Ast.Cmp (x 1, Ast.Reg (x 2));
      Ast.B_cond (Ast.Hs, 4);
      Ast.Ldr (x 6, addr (x 5) (Ast.Imm 0L));
      Ast.Ldr (x 8, addr (x 7) (Ast.Reg (x 6)));
    |]
  in
  let s = Machine.create () in
  Machine.set_reg s (x 1) 8L;
  Machine.set_reg s (x 2) 4L;
  Machine.set_reg s (x 5) 0x8000_0000L;
  Machine.set_reg s (x 7) 0x8010_0000L;
  Machine.store s 0x8000_0000L 0x4000L;
  let t = Machine.copy s in
  Machine.set_reg t (x 1) 1L;
  let run cfg =
    let core = Core.create { cfg with Core.mispredict_noise = 0.0 } in
    for _ = 1 to 5 do
      Core.reset_cache core;
      ignore (run_a64 core program (Machine.copy t))
    done;
    Core.reset_cache core;
    let events = run_a64 core program (Machine.copy s) in
    List.length (List.filter (function Core.Transient_load _ -> true | _ -> false) events)
  in
  Alcotest.(check Alcotest.int) "A53: only first load" 1 (run Core.cortex_a53);
  Alcotest.(check Alcotest.int) "OoO: both loads" 2 (run Core.out_of_order)

let test_forwarding_breaks_mspec1 () =
  let run core_cfg =
    let cfg =
      Scamv.Campaign.make ~name:"fw" ~template:Templates.template_c
        ~setup:(Refinement.mspec1_vs_mspec ()) ~view:Executor.Full_cache ~programs:4
        ~tests_per_program:10 ()
    in
    let cfg =
      { cfg with
        Scamv.Campaign.executor =
          { cfg.Scamv.Campaign.executor with Executor.core = core_cfg } }
    in
    (Scamv.Campaign.run cfg).Scamv.Campaign.stats.Stats.counterexamples
  in
  Alcotest.(check Alcotest.int) "sound on A53" 0 (run Core.cortex_a53);
  Alcotest.(check bool) "unsound with forwarding" true (run Core.out_of_order > 0)

(* ---- Journal ---- *)

let sample_entry i verdict =
  {
    Journal.campaign = "c";
    program_index = i;
    test_index = 0;
    template = "A";
    isa = Scamv_arch.Isa.Aarch64;
    path_pair = (0, 0);
    verdict;
    generation_seconds = 0.25;
    execution_seconds = 0.5;
    retries = 0;
    faults = 0;
  }

let test_journal_accumulates () =
  let j = Journal.create () in
  Journal.record j (sample_entry 0 Executor.Distinguishable);
  Journal.record j (sample_entry 1 Executor.Indistinguishable);
  Journal.record j (sample_entry 2 Executor.Inconclusive);
  Alcotest.(check Alcotest.int) "length" 3 (Journal.length j);
  let s = Stats.add_program ~elapsed:0. Stats.empty (Journal.events j) in
  Alcotest.(check (list Alcotest.int))
    "experiments, counterexamples, inconclusive" [ 3; 1; 1 ]
    [ s.Stats.experiments; s.Stats.counterexamples; s.Stats.inconclusive ]

let test_journal_csv_shape () =
  let j = Journal.create () in
  Journal.record j (sample_entry 0 Executor.Distinguishable);
  let csv = Journal.to_csv j in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check Alcotest.int) "header + 1 row" 2 (List.length lines);
  Alcotest.(check bool) "verdict in row" true
    (match lines with
    | [ _; row ] ->
      List.exists (String.equal "distinguishable") (String.split_on_char ',' row)
    | _ -> false)

let test_journal_from_campaign () =
  let j = Journal.create () in
  let cfg =
    Scamv.Campaign.make ~name:"journal test" ~template:Templates.template_c
      ~setup:(Refinement.mct_vs_mspec ()) ~programs:2 ~tests_per_program:5 ()
  in
  let outcome = Scamv.Campaign.run ~journal:j cfg in
  Alcotest.(check Alcotest.int) "journal matches stats"
    outcome.Scamv.Campaign.stats.Stats.experiments (Journal.length j);
  List.iter
    (function
      | Journal.Experiment e ->
        Alcotest.(check string) "template recorded" "C" e.Journal.template
      | _ -> ())
    (Journal.events j)

let () =
  Alcotest.run "scamv_extensions"
    [
      ( "tlb",
        [
          Alcotest.test_case "miss then hit" `Quick test_tlb_miss_then_hit;
          Alcotest.test_case "lru eviction" `Quick test_tlb_lru_eviction;
          Alcotest.test_case "lru refresh" `Quick test_tlb_lru_refresh;
          Alcotest.test_case "snapshot sorted" `Quick test_tlb_snapshot_sorted;
          Alcotest.test_case "capacity validated" `Quick test_tlb_capacity_validated;
        ] );
      ( "tlb integration",
        [
          Alcotest.test_case "loads touch tlb" `Quick test_core_loads_touch_tlb;
          Alcotest.test_case "transient loads touch tlb" `Quick test_transient_loads_touch_tlb;
          Alcotest.test_case "reset clears tlb" `Quick test_reset_cache_clears_tlb;
        ] );
      ( "mpage",
        [
          Alcotest.test_case "observes page" `Quick test_mpage_observes_page;
          Alcotest.test_case "tlb view page-granular" `Quick
            test_tlb_view_distinguishes_pages_only;
          Alcotest.test_case "campaign matrix" `Slow test_mpage_campaign_matrix;
        ] );
      ( "repair",
        [
          Alcotest.test_case "template C needs one load" `Slow
            test_repair_template_c_needs_one_load;
          Alcotest.test_case "template B needs two loads" `Slow
            test_repair_template_b_needs_two_loads;
          Alcotest.test_case "steps monotone" `Slow test_repair_steps_monotone;
        ] );
      ( "microarchitecture",
        [
          Alcotest.test_case "forwarding issues dependent load" `Quick
            test_forwarding_core_issues_dependent_load;
          Alcotest.test_case "forwarding breaks Mspec1" `Slow test_forwarding_breaks_mspec1;
        ] );
      ( "journal",
        [
          Alcotest.test_case "accumulates" `Quick test_journal_accumulates;
          Alcotest.test_case "csv shape" `Quick test_journal_csv_shape;
          Alcotest.test_case "from campaign" `Quick test_journal_from_campaign;
        ] );
    ]
