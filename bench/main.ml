(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 6) on the simulated platform, plus the ablation
   studies called out in DESIGN.md, and hosts the acceptance gates the
   Makefile's smoke targets run.

   Usage:
     dune exec bench/main.exe                 -- everything, scaled down
     dune exec bench/main.exe -- table1       -- Table 1 only
     dune exec bench/main.exe -- fig7         -- Fig. 7 table only
     dune exec bench/main.exe -- fig3         -- Fig. 3 class counts
     dune exec bench/main.exe -- ablations    -- ablation studies
     dune exec bench/main.exe -- repair       -- model-repair extension
     dune exec bench/main.exe -- channels     -- other side channels
     dune exec bench/main.exe -- --full ...   -- paper-sized campaigns

   Gates (exit nonzero on failure):
     solver-identity                          -- `make solver-smoke`
     chaos --smoke                            -- `make chaos-smoke`
     service                                  -- `make serve-smoke`
     service-metrics --out F                  -- /metrics dump of a live server
     validate-telemetry TRACE METRICS [SVC]   -- `make metrics-smoke`

   Timing lives in perfbench/ (see BENCHMARK.json); `make perf-check` and
   `make service-perf-check` compare it between HEAD and the working tree.

   Absolute numbers differ from the paper (simulator vs 4 Raspberry Pi
   boards over 7 days); the *shape* — which campaigns find
   counterexamples, and the refined-vs-unguided ratios of Sec. A.6.1 —
   is the reproduction target.  See EXPERIMENTS.md. *)

module Ast = Scamv_isa.Ast
module Reg = Scamv_isa.Reg
module Platform = Scamv_isa.Platform
module Executor = Scamv_microarch.Executor
module Core = Scamv_microarch.Core
module Refinement = Scamv_models.Refinement
module Catalog = Scamv_models.Catalog
module Region = Scamv_models.Region
module Templates = Scamv_gen.Templates
module Gen = Scamv_gen.Gen
module Campaign = Scamv.Campaign
module Stats = Scamv.Stats
module Text_table = Scamv_util.Text_table
module Exec = Scamv_symbolic.Exec
module Synth = Scamv_relation.Synth
module Solver = Scamv_smt.Solver
module Json = Scamv_util.Json
module Metrics = Scamv_telemetry.Metrics
module Collector = Scamv_telemetry.Collector

let platform = Platform.cortex_a53
let region = Region.paper_unaligned platform
let region_pa = Region.paper_page_aligned platform

(* Every benchmark here drives the AArch64 side; unwrap template draws
   once instead of threading the guest-program sum through the tables. *)
let arm_draw ~seed template =
  match (Gen.generate ~seed template).Templates.program with
  | Scamv_arch.Isa.Aarch64_program p -> p
  | Scamv_arch.Isa.Riscv_program _ ->
    invalid_arg "bench: AArch64 template expected"

let view_of_region (r : Region.t) =
  Executor.Region { first_set = r.Region.first_set; last_set = r.Region.last_set }

(* ------------------------------------------------------------------ *)
(* Campaign catalogue: one row per column of Table 1 / Fig. 7           *)
(* ------------------------------------------------------------------ *)

type row_spec = {
  id : string;
  template : Templates.t Gen.t;
  setup : Refinement.t;
  view : Executor.view;
  programs : int;  (* scaled-down default *)
  full_programs : int;  (* the paper's count *)
  tests : int;
  paper : string;  (* the paper's counterexample / experiments summary *)
}

let table1_rows =
  [
    {
      id = "Mpart unguided (Mpc)";
      template = Templates.stride;
      setup = Refinement.mpart_unguided platform region;
      view = view_of_region region;
      programs = 30;
      full_programs = 450;
      tests = 30;
      paper = "21 cx / 13752 exp";
    };
    {
      id = "Mpart + Mpart' (Mpc&Mline)";
      template = Templates.stride;
      setup = Refinement.mpart_vs_mpart' platform region;
      view = view_of_region region;
      programs = 30;
      full_programs = 450;
      tests = 30;
      paper = "447 cx / 18000 exp";
    };
    {
      id = "Mpart page-aligned unguided";
      template = Templates.stride;
      setup = Refinement.mpart_unguided platform region_pa;
      view = view_of_region region_pa;
      programs = 30;
      full_programs = 425;
      tests = 30;
      paper = "0 cx / 12860 exp";
    };
    {
      id = "Mpart page-aligned + Mpart'";
      template = Templates.stride;
      setup = Refinement.mpart_vs_mpart' platform region_pa;
      view = view_of_region region_pa;
      programs = 30;
      full_programs = 425;
      tests = 30;
      paper = "0 cx / 17000 exp";
    };
    {
      id = "Mct template A unguided";
      template = Templates.template_a;
      setup = Refinement.mct_unguided;
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 655;
      tests = 30;
      paper = "6 cx / 26200 exp";
    };
    {
      id = "Mct template A + Mspec";
      template = Templates.template_a;
      setup = Refinement.mct_vs_mspec ();
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 652;
      tests = 30;
      paper = "12462 cx / 25737 exp";
    };
    {
      id = "Mct template B unguided";
      template = Templates.template_b;
      setup = Refinement.mct_unguided;
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 942;
      tests = 30;
      paper = "0 cx / 37680 exp";
    };
    {
      id = "Mct template B + Mspec";
      template = Templates.template_b;
      setup = Refinement.mct_vs_mspec ();
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 941;
      tests = 30;
      paper = "4838 cx / 37640 exp";
    };
  ]

let fig7_rows =
  [
    {
      id = "Mct template C unguided";
      template = Templates.template_c;
      setup = Refinement.mct_unguided;
      view = Executor.Full_cache;
      programs = 8;
      full_programs = 8;
      tests = 100;
      paper = "0 cx / 8000 exp";
    };
    {
      id = "Mct template C + Mspec";
      template = Templates.template_c;
      setup = Refinement.mct_vs_mspec ();
      view = Executor.Full_cache;
      programs = 8;
      full_programs = 8;
      tests = 100;
      paper = "3423 cx / 8000 exp";
    };
    {
      id = "Mspec1 template C + Mspec";
      template = Templates.template_c;
      setup = Refinement.mspec1_vs_mspec ();
      view = Executor.Full_cache;
      programs = 8;
      full_programs = 8;
      tests = 100;
      paper = "0 cx / 8000 exp";
    };
    {
      id = "Mspec1 template B + Mspec";
      template = Templates.template_b;
      setup = Refinement.mspec1_vs_mspec ();
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 915;
      tests = 30;
      paper = "206 cx / 36600 exp";
    };
    {
      id = "Mct template D + Mspec'";
      template = Templates.template_d;
      setup = Refinement.mct_vs_mspec_straight_line ();
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 478;
      tests = 30;
      paper = "0 cx / 47800 exp";
    };
  ]

let run_rows ~full ~title rows =
  Format.printf "@.## %s (%s campaigns)@.@.%!" title
    (if full then "paper-sized" else "scaled-down");
  let measured =
    List.map
      (fun spec ->
        let programs = if full then spec.full_programs else spec.programs in
        let cfg =
          Campaign.make ~name:spec.id ~template:spec.template ~setup:spec.setup
            ~view:spec.view ~programs ~tests_per_program:spec.tests ()
        in
        let outcome = Campaign.run cfg in
        (spec, outcome))
      rows
  in
  let rows_txt =
    List.map
      (fun (spec, (outcome : Campaign.outcome)) ->
        Stats.row ~name:spec.id outcome.Campaign.stats @ [ spec.paper ])
      measured
  in
  print_string
    (Text_table.render ~header:(Stats.header @ [ "paper (full scale)" ]) ~rows:rows_txt);
  measured

(* ------------------------------------------------------------------ *)
(* Fig. 3: partitioning of the input space                             *)
(* ------------------------------------------------------------------ *)

let x = Reg.x

let running_example =
  [|
    Ast.Ldr (x 2, { Ast.base = x 0; offset = Ast.Imm 0L; scale = 0 });
    Ast.Add (x 1, x 1, Ast.Imm 1L);
    Ast.Cmp (x 0, Ast.Reg (x 1));
    Ast.B_cond (Ast.Hs, 5);
    Ast.Ldr (x 3, { Ast.base = x 2; offset = Ast.Imm 0L; scale = 0 });
  |]

let fig3 () =
  Format.printf "@.## Fig. 3: equivalence classes of the running example@.@.";
  let module Model = Scamv_smt.Model in
  let module Obs = Scamv_bir.Obs in
  let module Vars = Scamv_bir.Vars in
  let domain =
    List.concat_map
      (fun x0 ->
        List.concat_map
          (fun x1 ->
            List.map (fun c -> (Int64.of_int x0, Int64.of_int x1, Int64.of_int c)) [ 0; 64 ])
          (List.init 8 Fun.id))
      (List.init 8 Fun.id)
  in
  let model_of (x0, x1, cell) =
    Model.empty
    |> fun m ->
    Model.add_var m (Vars.reg (x 0)) (Model.Bv (x0, 64))
    |> fun m ->
    Model.add_var m (Vars.reg (x 1)) (Model.Bv (x1, 64))
    |> fun m -> Model.add_mem_cell m Vars.mem_name ~addr:x0 ~value:cell
  in
  let count bir keep =
    let leaves = Exec.execute bir in
    let table = Hashtbl.create 64 in
    List.iter
      (fun input ->
        let model = model_of input in
        let leaf =
          List.find
            (fun (l : Exec.leaf) -> Scamv_smt.Eval.eval_bool model l.Exec.path_cond)
            leaves
        in
        let trace = Exec.concrete_obs model leaf |> List.filter (fun (t, _, _) -> keep t) in
        Hashtbl.replace table trace ())
      domain;
    Hashtbl.length table
  in
  let pc = count (Scamv_models.Model.annotate Catalog.mpc running_example) (fun t -> t = Obs.Base) in
  let ct = count (Scamv_models.Model.annotate Catalog.mct running_example) (fun t -> t = Obs.Base) in
  let spec =
    count
      (Refinement.annotate (Refinement.mct_vs_mspec ()) running_example)
      (fun t -> t = Obs.Base || t = Obs.Refined)
  in
  print_string
    (Text_table.render
       ~header:[ "panel"; "model"; "classes over 128 inputs" ]
       ~rows:
         [
           [ "(b) support"; "Mpc"; string_of_int pc ];
           [ "(a) under validation"; "Mct"; string_of_int ct ];
           [ "(c) refined"; "Mspec"; string_of_int spec ];
         ])

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ablation_projection () =
  (* Sec. 5.1: one symbolic execution with tagged observations vs running
     the pipeline separately for M1 and M2. *)
  Format.printf "@.## Ablation: single-run projection vs naive two-run refinement@.@.";
  let programs =
    List.init 20 (fun i ->
        arm_draw ~seed:(Int64.of_int (i + 1)) Templates.template_b)
  in
  let setup = Refinement.mct_vs_mspec () in
  let (), combined =
    time_it (fun () ->
        List.iter (fun p -> ignore (Exec.execute (Refinement.annotate setup p))) programs)
  in
  let (), naive =
    time_it (fun () ->
        List.iter
          (fun p ->
            ignore (Exec.execute (Scamv_models.Model.annotate Catalog.mct p));
            ignore (Exec.execute (Refinement.annotate setup p)))
          programs)
  in
  print_string
    (Text_table.render
       ~header:[ "strategy"; "symbolic-execution time (20 programs)" ]
       ~rows:
         [
           [ "tagged single run (Sec. 5.1)"; Printf.sprintf "%.4fs" combined ];
           [ "naive M1 + M2 runs"; Printf.sprintf "%.4fs" naive ];
           [ "saving"; Printf.sprintf "%.1f%%" (100. *. (1. -. (combined /. naive))) ];
         ])

let ablation_path_split () =
  (* Sec. 5.4: per-path-pair relations vs the monolithic Eq. 1 formula. *)
  Format.printf "@.## Ablation: per-path-pair relations vs monolithic Eq. 1@.@.";
  let program = arm_draw ~seed:3L Templates.template_b in
  let setup = Refinement.mct_unguided in
  let bir = Refinement.annotate setup program in
  let leaves = Exec.execute bir in
  let cfg = { Synth.platform; require_refined_difference = false } in
  let pairs = Synth.compatible_pairs leaves in
  let (), split_time =
    time_it (fun () ->
        List.iter
          (fun pair ->
            match Synth.pair_relation cfg leaves pair with
            | None -> ()
            | Some r ->
              let s = Solver.make_session r.Synth.assertions in
              for _ = 1 to 5 do
                ignore (Solver.next_model s)
              done)
          pairs)
  in
  let (), mono_time =
    time_it (fun () ->
        let full = Synth.full_equivalence cfg leaves in
        let s = Solver.make_session [ full ] in
        for _ = 1 to 5 * List.length pairs do
          ignore (Solver.next_model s)
        done)
  in
  print_string
    (Text_table.render
       ~header:[ "strategy"; "time for equal model count" ]
       ~rows:
         [
           [ "per-path-pair split (Sec. 5.4)"; Printf.sprintf "%.4fs" split_time ];
           [ "monolithic Eq. 1"; Printf.sprintf "%.4fs" mono_time ];
         ]);
  Format.printf
    "(note: the monolithic relation omits the per-path platform constraints@.\
    \ and provides no path-pair coverage - its models may all come from one@.\
    \ path pair, which is exactly what the round-robin split prevents)@."

let ablation_prefetch_threshold () =
  Format.printf "@.## Ablation: prefetcher trigger threshold vs Mpart violations@.@.";
  let rows =
    List.map
      (fun threshold ->
        let setup = Refinement.mpart_vs_mpart' platform region in
        let cfg =
          Campaign.make
            ~name:(Printf.sprintf "threshold %d" threshold)
            ~template:Templates.stride ~setup ~view:(view_of_region region) ~programs:15
            ~tests_per_program:20 ()
        in
        let cfg =
          {
            cfg with
            Campaign.executor =
              {
                cfg.Campaign.executor with
                Executor.core =
                  { cfg.Campaign.executor.Executor.core with Core.prefetch_threshold = threshold };
              };
          }
        in
        let s = (Campaign.run cfg).Campaign.stats in
        [
          string_of_int threshold;
          string_of_int s.Stats.counterexamples;
          string_of_int s.Stats.experiments;
        ])
      [ 2; 3; 4; 5; 6 ]
  in
  print_string
    (Text_table.render
       ~header:[ "prefetch threshold (loads)"; "counterexamples"; "experiments" ]
       ~rows)

let ablation_spec_window () =
  Format.printf "@.## Ablation: speculation window vs Mct/template-C violations@.@.";
  let rows =
    List.map
      (fun window ->
        let setup = Refinement.mct_vs_mspec () in
        let cfg =
          Campaign.make
            ~name:(Printf.sprintf "window %d" window)
            ~template:Templates.template_c ~setup ~view:Executor.Full_cache ~programs:8
            ~tests_per_program:25 ()
        in
        let cfg =
          {
            cfg with
            Campaign.executor =
              {
                cfg.Campaign.executor with
                Executor.core =
                  { cfg.Campaign.executor.Executor.core with Core.spec_window = window };
              };
          }
        in
        let s = (Campaign.run cfg).Campaign.stats in
        [
          string_of_int window;
          string_of_int s.Stats.counterexamples;
          string_of_int s.Stats.experiments;
        ])
      [ 0; 1; 2; 4; 8; 16 ]
  in
  print_string
    (Text_table.render
       ~header:[ "speculation window (instrs)"; "counterexamples"; "experiments" ]
       ~rows)

let ablation_forwarding () =
  (* Sec. 6.5: the tailored model Mspec1 is core-specific.  On a core with
     speculative forwarding (classic Spectre-PHT microarchitecture) the
     dependent second load issues, so Mspec1 stops being sound. *)
  Format.printf "@.## Ablation: speculative forwarding vs Mspec1 soundness (template C)@.@.";
  let rows =
    List.map
      (fun (name, core_cfg) ->
        let cfg =
          Campaign.make ~name ~template:Templates.template_c
            ~setup:(Refinement.mspec1_vs_mspec ()) ~view:Executor.Full_cache ~programs:8
            ~tests_per_program:25 ()
        in
        let cfg =
          { cfg with Campaign.executor = { cfg.Campaign.executor with Executor.core = core_cfg } }
        in
        let s = (Campaign.run cfg).Campaign.stats in
        [ name; string_of_int s.Stats.counterexamples; string_of_int s.Stats.experiments ])
      [ ("Cortex-A53 (no forwarding)", Core.cortex_a53); ("out-of-order core", Core.out_of_order) ]
  in
  print_string
    (Text_table.render ~header:[ "core"; "counterexamples"; "experiments" ] ~rows)

let ablations () =
  ablation_projection ();
  ablation_path_split ();
  ablation_prefetch_threshold ();
  ablation_spec_window ();
  ablation_forwarding ()

(* ------------------------------------------------------------------ *)
(* A.6.1 checklist                                                     *)
(* ------------------------------------------------------------------ *)

let checklist table1 fig7 =
  Format.printf "@.## Sec. A.6.1 evaluation checklist (refined vs unguided)@.@.";
  let find id rows =
    List.find_map
      (fun (spec, (o : Campaign.outcome)) ->
        if spec.id = id then Some o.Campaign.stats else None)
      rows
    |> Option.get
  in
  let ratio a b =
    if b = 0 then "inf" else Printf.sprintf "%.1fx" (float_of_int a /. float_of_int b)
  in
  let mpart_u = find "Mpart unguided (Mpc)" table1
  and mpart_r = find "Mpart + Mpart' (Mpc&Mline)" table1
  and a_u = find "Mct template A unguided" table1
  and a_r = find "Mct template A + Mspec" table1
  and b_u = find "Mct template B unguided" table1
  and b_r = find "Mct template B + Mspec" table1
  and c_u = find "Mct template C unguided" fig7
  and c_r = find "Mct template C + Mspec" fig7 in
  let rows =
    [
      [
        "Mpart: counterexamples, refined vs unguided";
        ratio mpart_r.Stats.counterexamples mpart_u.Stats.counterexamples;
        "~20x";
      ];
      [
        "Mpart: programs w/ counterexample";
        ratio mpart_r.Stats.programs_with_counterexample
          mpart_u.Stats.programs_with_counterexample;
        "~4x";
      ];
      [
        "Mct A: counterexamples, refined vs unguided";
        ratio a_r.Stats.counterexamples a_u.Stats.counterexamples;
        "~2000x";
      ];
      [
        "Mct B: refined finds counterexamples, unguided none";
        Printf.sprintf "%d vs %d" b_r.Stats.counterexamples b_u.Stats.counterexamples;
        "4838 vs 0";
      ];
      [
        "Mct C: refined finds counterexamples, unguided none";
        Printf.sprintf "%d vs %d" c_r.Stats.counterexamples c_u.Stats.counterexamples;
        "3423 vs 0";
      ];
    ]
  in
  print_string (Text_table.render ~header:[ "check"; "measured"; "paper" ] ~rows)

(* ------------------------------------------------------------------ *)
(* Extensions: model repair and the other side channels                 *)
(* ------------------------------------------------------------------ *)

let repair () =
  Format.printf "@.## Extension: model repair (Sec. 8 future work)@.@.";
  let rows =
    List.map
      (fun (name, template, programs) ->
        let o = Scamv.Repair.run ~programs ~tests_per_program:15 ~template () in
        let trail =
          String.concat ", "
            (List.map
               (fun (s : Scamv.Repair.step) ->
                 Printf.sprintf "k=%d:%d cx"
                   s.Scamv.Repair.tried.Scamv.Repair.observed_transient_loads
                   s.Scamv.Repair.stats.Stats.counterexamples)
               o.Scamv.Repair.steps)
        in
        let result =
          match o.Scamv.Repair.repaired with
          | Some c -> Printf.sprintf "k = %d" c.Scamv.Repair.observed_transient_loads
          | None -> "not repaired"
        in
        [ name; trail; result ])
      [
        ("template C (dependent loads)", Templates.template_c, 8);
        ("template B (independent loads)", Templates.template_b, 40);
        ("template A (guarded load)", Templates.template_a, 20);
      ]
  in
  print_string
    (Text_table.render ~header:[ "workload"; "validation trail"; "repaired model" ] ~rows)

let channels () =
  Format.printf "@.## Extension: channel-relative soundness (TLB / timing)@.@.";
  let run name template setup view =
    let cfg =
      Campaign.make ~name ~template ~setup ~view ~programs:10 ~tests_per_program:20
        ~seed:5L ()
    in
    let s = (Campaign.run cfg).Campaign.stats in
    [ name; string_of_int s.Stats.counterexamples; string_of_int s.Stats.experiments ]
  in
  let two_reads =
    Gen.return
      {
        Templates.template_name = "two reads";
        program =
          Scamv_arch.Isa.Aarch64_program
            [|
              Ast.Ldr (x 1, { Ast.base = x 0; offset = Ast.Imm 0L; scale = 0 });
              Ast.Ldr (x 2, { Ast.base = x 3; offset = Ast.Imm 0L; scale = 0 });
            |];
      }
  in
  let rows =
    [
      run "Mpage vs TLB attacker (Mline refined)" Templates.stride
        (Refinement.mpage_vs_mline platform) Executor.Tlb_state;
      run "Mpage vs cache attacker (Mline refined)" Templates.stride
        (Refinement.mpage_vs_mline platform) Executor.Full_cache;
      run "Mct vs TLB attacker (unguided)" Templates.stride Refinement.mct_unguided
        Executor.Tlb_state;
      run "Mpc vs timing attacker (Mline refined)" two_reads
        (Refinement.refine_with_model ~base:Catalog.mpc ~refined:(Catalog.mline platform) ())
        Executor.Total_time;
      run "Mct vs timing attacker (unguided)" two_reads Refinement.mct_unguided
        Executor.Total_time;
    ]
  in
  print_string
    (Text_table.render ~header:[ "validation"; "counterexamples"; "experiments" ] ~rows)

(* ------------------------------------------------------------------ *)
(* Incremental-vs-fresh identity check (`make solver-smoke`)           *)
(* ------------------------------------------------------------------ *)

(* The pipeline asserts a refined relation in two increments — the
   candidate part at session creation, the refinement part through
   [Solver.extend] on the same live session.  Because non-diversified
   enumeration is canonical (every draw is the lexicographically minimal
   unblocked model, a property of the formula alone), the staged session
   must produce byte-for-byte the same model sequence as a fresh session
   asserting everything at once.  This check enumerates both ways over a
   seeded workload and exits nonzero on the first divergence, so `make
   solver-smoke` / CI catches an unsound reuse of solver state. *)
let solver_identity () =
  let draws = 5 in
  let setup = Refinement.mct_vs_mspec () in
  let scfg = { Synth.platform; require_refined_difference = true } in
  let checked = ref 0 in
  List.iter
    (fun seed ->
      let program = arm_draw ~seed Templates.template_a in
      let leaves = Exec.execute (Refinement.annotate setup program) in
      let prepared = Synth.prepare scfg leaves in
      List.iter
        (fun pair ->
          match Synth.pair_relation_prepared prepared pair with
          | None -> ()
          | Some r ->
            let fresh = Solver.make_session ~seed:1L r.Synth.assertions in
            let staged =
              let s =
                Solver.make_session ~seed:1L r.Synth.candidate_assertions
              in
              Solver.extend s r.Synth.refinement_assertions
            in
            let show m = Format.asprintf "%a" Scamv_smt.Model.pp m in
            let next s =
              match Solver.next_model s with
              | Solver.Model m -> Some (show m)
              | Solver.Exhausted -> None
              | Solver.Budget_exceeded -> assert false (* no budget set *)
            in
            for draw = 1 to draws do
              let a = next fresh and b = next staged in
              if a <> b then begin
                Printf.eprintf
                  "FAIL: seed %Ld pair (%d,%d) draw %d: staged session \
                   diverges from fresh session\n"
                  seed (fst pair) (snd pair) draw;
                exit 1
              end;
              if a <> None then incr checked
            done)
        (Synth.compatible_pairs leaves))
    [ 11L; 12L; 13L ];
  Printf.printf
    "OK: incremental (extend) sessions enumerate identically to fresh \
     sessions (%d models compared)\n"
    !checked

(* Validates the --trace / --metrics output of a campaign run: the trace
   must re-parse with Scamv_util.Json and contain every pipeline span the
   instrumentation promises, and the metrics dump must expose the
   registry's core counter families.  Used by `make metrics-smoke` / CI so
   a telemetry regression fails the build. *)
let validate_telemetry trace_file metrics_file =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt in
  let read f =
    try In_channel.with_open_text f In_channel.input_all
    with Sys_error m -> fail "%s" m
  in
  let doc =
    try Json.of_string (read trace_file)
    with Json.Parse_error m -> fail "%s: %s" trace_file m
  in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr l) -> l
    | _ -> fail "%s: missing traceEvents array" trace_file
  in
  let span_names =
    List.filter_map
      (fun e ->
        match Json.member "name" e with Some (Json.Str s) -> Some s | _ -> None)
      events
  in
  List.iter
    (fun required ->
      if not (List.mem required span_names) then
        fail "%s: no %S span recorded" trace_file required)
    [
      "campaign"; "program"; "generate"; "prepare"; "annotate"; "lift";
      "symexec"; "synth"; "enumerate"; "execute"; "run"; "compare";
    ];
  let metrics_text = read metrics_file in
  let has_metric name =
    (* A metric is present iff some line starts with its mangled name
       (plain sample, _bucket{le=...}, _sum or _count line). *)
    String.split_on_char '\n' metrics_text
    |> List.exists (fun line ->
           String.length line >= String.length name
           && String.sub line 0 (String.length name) = name)
  in
  List.iter
    (fun required ->
      if not (has_metric required) then
        fail "%s: no %s metric" metrics_file required)
    [
      "scamv_sat_conflicts"; "scamv_sat_queries"; "scamv_sat_learned";
      "scamv_sat_deleted"; "scamv_sat_restarts"; "scamv_sat_lbd";
      "scamv_smt_blast_cache_hits"; "scamv_smt_blast_cache_cross_hits";
      "scamv_uarch_cache_hits"; "scamv_uarch_tlb_hits";
      "scamv_uarch_predictor_hits"; "scamv_campaign_experiments";
      "scamv_phase_generation_seconds"; "scamv_phase_execution_seconds";
      "scamv_span_enumerate_seconds";
      (* Incremental-session and portfolio instrumentation (the smoke
         campaign runs a refined setup with --portfolio 2, so the scope
         and rescue counters must all be registered). *)
      "scamv_sat_pushes"; "scamv_sat_pops"; "scamv_sat_assumption_solves";
      "scamv_smt_incremental_reuse_hits"; "scamv_portfolio_races";
      "scamv_portfolio_wins_0"; "scamv_portfolio_wins_1";
    ];
  Printf.printf "OK: %s (%d spans) and %s validate\n" trace_file
    (List.length events) metrics_file

(* Validates a /metrics dump from a live validation server (the optional
   third `validate-telemetry` argument, produced by `service-metrics`):
   the connection-management and scheduler families must all be present —
   they are pre-registered at startup, so a missing name means the
   registration regressed, not merely that a counter stayed at zero. *)
let validate_service_metrics file =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt in
  let text =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error m -> fail "%s" m
  in
  let has_metric name =
    String.split_on_char '\n' text
    |> List.exists (fun line ->
           String.length line >= String.length name
           && String.sub line 0 (String.length name) = name)
  in
  List.iter
    (fun required ->
      if not (has_metric required) then fail "%s: no %s metric" file required)
    [
      "scamv_service_http_requests";
      "scamv_service_campaigns_submitted";
      "scamv_service_campaigns_completed";
      "scamv_service_connections_active";
      "scamv_service_connections_queued";
      "scamv_service_connections_reused";
      "scamv_service_connections_rejected";
      "scamv_service_sessions_total";
      "scamv_scheduler_concurrent_sessions";
      "scamv_scheduler_slices";
      "scamv_scheduler_slice_width";
    ];
  (* the dump comes from a server that served a reused request *)
  let value name =
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ' ' with
           | Some i when String.sub line 0 i = name ->
             float_of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1))
           | _ -> None)
  in
  (match value "scamv_service_connections_reused" with
  | Some v when v >= 1.0 -> ()
  | Some v -> fail "%s: connections_reused stayed at %g" file v
  | None -> fail "%s: connections_reused has no sample line" file);
  Printf.printf "OK: %s carries the service/scheduler metric families\n" file

(* ------------------------------------------------------------------ *)
(* Chaos harness (`make chaos-smoke`)                                  *)
(* ------------------------------------------------------------------ *)

module Journal = Scamv.Journal
module Chaos = Scamv_util.Chaos
module Deadline = Scamv_util.Deadline
module Stopwatch = Scamv_util.Stopwatch

(* Acceptance tests for the supervised execution layer (DESIGN.md
   "Failure domains and supervision"):

   - kill/resume: a child process runs a journaled campaign and is
     SIGKILLed mid-flight; the surviving journal additionally has its
     tail truncated mid-record.  The resumed campaign must recover the
     clean prefix (reporting what it dropped) and finish with a journal,
     progress log and statistics byte-identical to an uninterrupted run.
   - worker crashes: with chaos worker kills armed, --jobs 1 and
     --jobs 4 runs must stay byte-identical — crash decisions are pure
     per-program functions of the chaos seed and domain restarts are
     schedule-independent — while actually crashing some (not all)
     programs.
   - deadlines: with a virtual conflict deadline armed, --jobs 1 and
     --jobs 2 runs must stay byte-identical and actually expire on some
     (not all) programs. *)

let chaos_fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* One fixed seeded campaign under the frozen clock, so every observable
   output (journal rows, stats, progress lines) is a pure function of the
   seed and the injected chaos/deadline — byte-identical means identical. *)
let chaos_cfg ?deadline_conflicts ?chaos ~programs ~tests () =
  Campaign.make ~name:"chaos"
    ~template:Templates.template_a
    ~setup:(Refinement.mct_vs_mspec ())
    ~programs ~tests_per_program:tests ~seed:2021L
    ~max_conflicts:200 ?deadline_conflicts ?chaos ~clock:Stopwatch.frozen ()

let run_campaign ?resume ~jobs cfg =
  let journal = Journal.create () in
  let events = ref [] in
  let outcome =
    Campaign.run ~on_event:(fun m -> events := m :: !events) ~journal ?resume ~jobs cfg
  in
  (Journal.to_csv journal, outcome, List.rev !events)

(* The `chaos-child` subcommand: runs the journaled campaign this process
   is about to SIGKILL.  Kept inside the bench executable so the harness
   needs no extra binary. *)
let chaos_child path programs tests =
  let cfg = chaos_cfg ~programs ~tests () in
  let journal = Journal.create ~path () in
  let (_ : Campaign.outcome) = Campaign.run ~journal ~jobs:1 cfg in
  Journal.close journal

let chaos_kill_resume ~programs ~tests () =
  let path = Filename.temp_file "scamv-chaos" ".journal" in
  Sys.remove path;
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "chaos-child"; path; string_of_int programs;
        string_of_int tests;
      |]
      Unix.stdin dev_null dev_null
  in
  Unix.close dev_null;
  (* Journal records are flushed one by one; wait until a couple are on
     disk, then SIGKILL the child mid-campaign.  If the machine is fast
     enough that the child finishes first, the test still exercises
     recovery: the tail is torn below either way. *)
  let give_up = Unix.gettimeofday () +. 120.0 in
  let size () = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  let child_exited = ref false in
  while (not !child_exited) && size () < 200 do
    if Unix.gettimeofday () > give_up then
      chaos_fail "chaos child wrote no journal records within 120s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> Unix.sleepf 0.02
    | _ -> child_exited := true)
  done;
  if not !child_exited then begin
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  end;
  let contents = In_channel.with_open_bin path In_channel.input_all in
  if String.length contents < 40 then
    chaos_fail "chaos child died before writing any journal record";
  (* Tear the tail mid-record so resume must take the recovery path. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub contents 0 (String.length contents - 7)));
  let cfg () = chaos_cfg ~programs ~tests () in
  let csv_resumed, resumed, events = run_campaign ~resume:path ~jobs:1 (cfg ()) in
  let csv_ref, reference, _ = run_campaign ~jobs:1 (cfg ()) in
  if not (List.exists (fun m -> contains_substring m "damaged tail") events) then
    chaos_fail "resume after SIGKILL did not report tail recovery";
  if csv_resumed <> csv_ref then
    chaos_fail "resumed journal differs from uninterrupted run";
  if Stdlib.compare resumed.Campaign.stats reference.Campaign.stats <> 0 then
    chaos_fail "resumed statistics differ from uninterrupted run";
  let m = resumed.Campaign.telemetry.Collector.metrics in
  if Metrics.counter m "journal.recovered_records" <= 0 then
    chaos_fail "resume recovered no journal records";
  if Metrics.counter m "journal.recovered_tails" <> 1 then
    chaos_fail "resume did not count the damaged tail";
  Sys.remove path;
  Printf.printf "OK: SIGKILL + torn tail resume matches uninterrupted run (%d records recovered)\n%!"
    (Metrics.counter m "journal.recovered_records")

let check_identical ~what (csv_a, (oa : Campaign.outcome), ev_a)
    (csv_b, (ob : Campaign.outcome), ev_b) =
  if csv_a <> csv_b then chaos_fail "%s: journals differ across --jobs" what;
  if ev_a <> ev_b then chaos_fail "%s: progress logs differ across --jobs" what;
  if Stdlib.compare oa.Campaign.stats ob.Campaign.stats <> 0 then begin
    Format.eprintf "--jobs A stats:@.%a@.--jobs B stats:@.%a@." Stats.pp
      oa.Campaign.stats Stats.pp ob.Campaign.stats;
    chaos_fail "%s: statistics differ across --jobs" what
  end

let chaos_worker_crash_identity ~programs ~tests () =
  let mk () =
    chaos_cfg ~chaos:(Chaos.create ~rate:0.4 ~seed:0xC4A05L ()) ~programs ~tests ()
  in
  let r1 = run_campaign ~jobs:1 (mk ()) in
  let r4 = run_campaign ~jobs:4 (mk ()) in
  check_identical ~what:"worker crashes" r1 r4;
  let _, (o : Campaign.outcome), _ = r1 in
  let crashed = o.Campaign.stats.Stats.crashed_programs in
  if crashed = 0 then
    chaos_fail "chaos rate produced no worker crashes (tune rate/seed)";
  if crashed >= programs then chaos_fail "chaos crashed every program";
  let _, o4, _ = r4 in
  let restarts j = Metrics.counter j.Campaign.telemetry.Collector.metrics "pool.restarts" in
  if restarts o = 0 then chaos_fail "no pool restarts recorded";
  if restarts o <> restarts o4 then
    chaos_fail "pool.restarts differs across --jobs (%d vs %d)" (restarts o)
      (restarts o4);
  Printf.printf "OK: worker-crash campaign byte-identical at --jobs 1/4 (%d of %d programs crashed, %d restarts)\n%!"
    crashed programs (restarts o)

let chaos_deadline_identity ~programs ~tests () =
  (* The limit scales with the per-program test count so that across the
     smoke and full sizes some programs expire and some finish. *)
  let mk () = chaos_cfg ~deadline_conflicts:(50 * tests) ~programs ~tests () in
  let r1 = run_campaign ~jobs:1 (mk ()) in
  let r2 = run_campaign ~jobs:2 (mk ()) in
  check_identical ~what:"deadlines" r1 r2;
  let _, (o : Campaign.outcome), _ = r1 in
  let hits = Metrics.counter o.Campaign.telemetry.Collector.metrics "deadline.hits" in
  if hits = 0 then chaos_fail "no program hit the conflict deadline (tune limit)";
  if o.Campaign.stats.Stats.crashed_programs >= programs then
    chaos_fail "every program hit the deadline";
  Printf.printf "OK: deadline campaign byte-identical at --jobs 1/2 (%d deadline hits)\n%!"
    hits

let chaos_suite ~smoke () =
  let programs = if smoke then 6 else 12 in
  let tests = if smoke then 3 else 6 in
  Printf.printf "## Chaos harness (%s: %d programs x %d tests)\n%!"
    (if smoke then "smoke" else "full")
    programs tests;
  chaos_kill_resume ~programs ~tests ();
  chaos_worker_crash_identity ~programs ~tests ();
  chaos_deadline_identity ~programs ~tests ();
  Printf.printf "chaos: all acceptance checks passed\n%!"

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (match args with
  | "validate-telemetry" :: trace :: metrics :: rest ->
    validate_telemetry trace metrics;
    (match rest with
    | service :: _ -> validate_service_metrics service
    | [] -> ());
    exit 0
  | "solver-identity" :: _ ->
    solver_identity ();
    exit 0
  | "chaos-child" :: path :: programs :: tests :: _ ->
    chaos_child path (int_of_string programs) (int_of_string tests);
    exit 0
  | "chaos" :: rest ->
    chaos_suite ~smoke:(List.mem "--smoke" rest) ();
    exit 0
  | "service-child" :: dir :: rest ->
    let concurrency = match rest with c :: _ -> int_of_string c | [] -> 1 in
    Service_bench.child ~concurrency dir;
    exit 0
  | "service-metrics" :: rest ->
    let out =
      let rec find = function
        | "--out" :: f :: _ -> f
        | _ :: tail -> find tail
        | [] -> "metrics.service.txt"
      in
      find rest
    in
    Service_bench.metrics_dump ~out ();
    exit 0
  | "service" :: _ ->
    Service_bench.suite ();
    exit 0
  | _ -> ());
  let full = List.mem "--full" args in
  let what =
    match List.filter (fun a -> a <> "--full") args with
    | [] -> [ "all" ]
    | what -> what
  in
  let wants k = List.mem k what || List.mem "all" what in
  let table1 =
    if wants "table1" then Some (run_rows ~full ~title:"Table 1" table1_rows) else None
  in
  let fig7 =
    if wants "fig7" then Some (run_rows ~full ~title:"Fig. 7 table" fig7_rows) else None
  in
  (match (table1, fig7) with Some t1, Some f7 -> checklist t1 f7 | _ -> ());
  if wants "fig3" then fig3 ();
  if wants "ablations" then ablations ();
  if wants "repair" then repair ();
  if wants "channels" then channels ();
  Format.printf "@.done.@."
