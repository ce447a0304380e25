(* End-to-end integration tests: the full Scam-V pipeline on the paper's
   templates, checking the qualitative results of Table 1 / Fig. 7 at
   miniature scale.  These are the repository's ground-truth regression
   tests for the reproduction. *)

module Ast = Scamv_isa.Ast
module Reg = Scamv_isa.Reg
module Machine = Scamv_isa.Machine
module Refinement = Scamv_models.Refinement
module Templates = Scamv_gen.Templates
module Pipeline = Scamv.Pipeline
module Campaign = Scamv.Campaign
module Stats = Scamv.Stats
module Isa = Scamv_arch.Isa
module Workload = Scamv_service.Workload
module Stopwatch = Scamv_util.Stopwatch

(* A miniature Table 1 row: the named request the CLI and the service
   run, under seed 99. *)
let mini ?(programs = 6) ?(tests = 10) ~template ~setup () =
  match
    Workload.config ~template ~setup ~isa:(`Single Isa.Aarch64) ~programs ~tests
      ~seed:99L ()
  with
  | Ok cfg -> (Campaign.run cfg).Campaign.stats
  | Error msg -> Alcotest.fail msg

(* ---- pipeline unit behaviour ---- *)

let test_pipeline_produces_test_cases () =
  let tmpl = Scamv_gen.Gen.generate ~seed:7L Templates.template_a in
  let cfg = Pipeline.default_config (Refinement.mct_vs_mspec ()) in
  let session = Pipeline.prepare cfg tmpl.Templates.program in
  Alcotest.(check bool) "has refinable pair" true (Pipeline.pair_count session > 0);
  match Pipeline.next_test_case session with
  | Pipeline.Exhausted | Pipeline.Quarantined _ | Pipeline.Crashed _ ->
    Alcotest.fail "expected a test case"
  | Pipeline.Case tc ->
    Alcotest.(check bool) "training states present" true (tc.Pipeline.train <> []);
    Alcotest.(check bool) "states differ" false
      (Machine.equal_arch tc.Pipeline.state1 tc.Pipeline.state2)

let test_pipeline_test_cases_distinct () =
  let tmpl = Scamv_gen.Gen.generate ~seed:7L Templates.template_a in
  let cfg = Pipeline.default_config (Refinement.mct_vs_mspec ()) in
  let session = Pipeline.prepare cfg tmpl.Templates.program in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 10 do
    match Pipeline.next_test_case session with
    | Pipeline.Exhausted | Pipeline.Quarantined _ | Pipeline.Crashed _ ->
      Alcotest.fail "exhausted too early"
    | Pipeline.Case tc ->
      let key =
        Format.asprintf "%a|%a" Machine.pp tc.Pipeline.state1 Machine.pp
          tc.Pipeline.state2
      in
      Alcotest.(check bool) "fresh test case" false (Hashtbl.mem seen key);
      Hashtbl.add seen key ()
  done

(* ---- solver portfolio ---- *)

let test_portfolio_rescues_budget_exhausted_pair () =
  (* On this seeded program the baseline solver configuration blows a
     100-conflict budget before the first model, so alone it quarantines
     the pair; with a 4-config portfolio a challenger answers within the
     same budget and takes the pair over (counted in portfolio.races /
     portfolio.wins.<rank>). *)
  let tmpl = Scamv_gen.Gen.generate ~seed:7L Templates.template_a in
  let run portfolio =
    let c = Scamv_telemetry.Collector.create () in
    Scamv_telemetry.Collector.with_current c (fun () ->
        let cfg =
          {
            (Pipeline.default_config (Refinement.mct_vs_mspec ())) with
            Pipeline.max_conflicts = Some 100;
            Pipeline.portfolio;
          }
        in
        let p = Pipeline.prepare ~seed:5L cfg tmpl.Templates.program in
        let cases = ref 0 and quarantined = ref 0 in
        (try
           for _ = 1 to 5 do
             match Pipeline.next_test_case p with
             | Pipeline.Case _ -> incr cases
             | Pipeline.Quarantined _ -> incr quarantined
             | Pipeline.Exhausted | Pipeline.Crashed _ -> raise Exit
           done
         with Exit -> ());
        let m =
          (Scamv_telemetry.Collector.report c).Scamv_telemetry.Collector.metrics
        in
        let counter = Scamv_telemetry.Metrics.counter m in
        ( !cases,
          !quarantined,
          counter "portfolio.races",
          List.init portfolio (fun r ->
              counter (Printf.sprintf "portfolio.wins.%d" r)) ))
  in
  let cases1, quarantined1, _, _ = run 1 in
  Alcotest.(check int) "baseline alone quarantines the pair" 1 quarantined1;
  Alcotest.(check int) "baseline alone yields no cases" 0 cases1;
  let cases4, quarantined4, races, wins = run 4 in
  Alcotest.(check int) "no quarantine with the portfolio" 0 quarantined4;
  Alcotest.(check bool) "portfolio produced cases" true (cases4 > 0);
  Alcotest.(check int) "exactly one race" 1 races;
  Alcotest.(check int) "baseline won no draw" 0 (List.hd wins);
  Alcotest.(check bool) "a challenger won the pair's draws" true
    (List.exists (fun w -> w > 0) (List.tl wins))

let test_campaign_portfolio_identity () =
  (* Without a SAT budget the baseline configuration never exhausts, so
     rescue never fires: campaign artifacts must be byte-identical for
     every portfolio size and every jobs level. *)
  let run ~portfolio ~jobs =
    let cfg =
      Campaign.make ~name:"portfolio-identity" ~template:Templates.template_a
        ~setup:(Refinement.mct_vs_mspec ()) ~programs:3 ~tests_per_program:3
        ~seed:2021L ~portfolio ~clock:Scamv_util.Stopwatch.frozen ()
    in
    let journal = Scamv.Journal.create () in
    let outcome = Campaign.run ~journal ~jobs cfg in
    ( Scamv.Journal.to_csv journal,
      Format.asprintf "%a" Stats.pp outcome.Campaign.stats )
  in
  let reference = run ~portfolio:1 ~jobs:1 in
  List.iter
    (fun (portfolio, jobs) ->
      Alcotest.(check (pair string string))
        (Printf.sprintf "portfolio %d, jobs %d" portfolio jobs)
        reference
        (run ~portfolio ~jobs))
    [ (1, 2); (2, 1); (2, 2); (4, 1); (4, 2) ]

let test_campaign_portfolio_rescue_jobs_identity () =
  (* Under a 100-conflict budget the baseline configuration exhausts on
     some pairs and a 4-config portfolio races challengers by rank, one
     after another inside the program's worker: journal and statistics
     must not depend on the jobs level, and the race must really fire. *)
  let run ~jobs =
    let cfg =
      Campaign.make ~name:"portfolio-rescue" ~template:Templates.template_a
        ~setup:(Refinement.mct_vs_mspec ()) ~programs:6 ~tests_per_program:4
        ~seed:2021L
        ~max_conflicts:100
        ~portfolio:4 ~clock:Scamv_util.Stopwatch.frozen ()
    in
    let journal = Scamv.Journal.create () in
    let outcome = Campaign.run ~journal ~jobs cfg in
    let counter =
      Scamv_telemetry.Metrics.counter
        outcome.Campaign.telemetry.Scamv_telemetry.Collector.metrics
    in
    ( ( Scamv.Journal.to_csv journal,
        Format.asprintf "%a" Stats.pp outcome.Campaign.stats ),
      counter "portfolio.races",
      List.init 3 (fun r -> counter (Printf.sprintf "portfolio.wins.%d" (r + 1))) )
  in
  let reference, races, challenger_wins = run ~jobs:1 in
  Alcotest.(check bool) "the portfolio raced" true (races > 0);
  Alcotest.(check bool) "a challenger won draws" true
    (List.exists (fun w -> w > 0) challenger_wins);
  List.iter
    (fun jobs ->
      let artifacts, _, _ = run ~jobs in
      Alcotest.(check (pair string string))
        (Printf.sprintf "jobs %d" jobs) reference artifacts)
    [ 2; 4 ]

(* ---- budget pin ----

   Frozen-clock campaigns under both budgets the campaign driver honours
   (the per-SAT-call conflict cap and the per-program virtual deadline),
   hashed over the journal CSV and the [Stats.pp] rendering.  A change to
   where a budget stops the search, to the quarantine or crash reason
   text, or to the portfolio race shows up as a different digest.  The
   assertions on the counters keep each pin from passing vacuously. *)

let smoke_name = "mct-vs-mspec on template A"

(* The [make smoke] configuration: template A, Mct vs Mspec, 6 programs x
   4 tests, seed 2021, 100 conflicts per SAT call, a 2-config portfolio,
   3 attempts per experiment, 10% board noise. *)
let smoke_config ?(isa = Isa.Aarch64) ?deadline_conflicts () =
  Campaign.make ~name:smoke_name ~isa ~template:(Templates.by_name ~isa "A")
    ~setup:(Refinement.mct_vs_mspec ()) ~programs:6 ~tests_per_program:4
    ~seed:2021L ~max_conflicts:100 ~portfolio:2
    ~retry:(Scamv.Retry.make ~max_attempts:3 ())
    ~faults:(Scamv_microarch.Faults.config ~rate:0.1 ~seed:7L ())
    ?deadline_conflicts ~clock:Stopwatch.frozen ()

let run_diff journal =
  Scamv.Diff.run ~journal ~template:"A"
    (Campaign.make ~name:smoke_name ~template:Templates.template_a
       ~setup:(Refinement.mct_vs_mspec ()) ~programs:6 ~tests_per_program:4
       ~seed:2021L ~max_conflicts:200 ~portfolio:2 ~clock:Stopwatch.frozen ())

let digest journal stats =
  Digest.to_hex
    (Digest.string
       (Scamv.Journal.to_csv journal ^ Format.asprintf "%a" Stats.pp stats))

let counter (o : Campaign.outcome) =
  Scamv_telemetry.Metrics.counter
    o.Campaign.telemetry.Scamv_telemetry.Collector.metrics

let pin_campaign ~expected cfg check =
  let journal = Scamv.Journal.create () in
  let outcome = Campaign.run ~journal cfg in
  check outcome;
  Alcotest.(check string) "journal + stats digest" expected
    (digest journal outcome.Campaign.stats)

let raced (o : Campaign.outcome) =
  Alcotest.(check bool) "the portfolio raced" true (counter o "portfolio.races" > 0)

let quarantined (o : Campaign.outcome) =
  Alcotest.(check bool) "a pair was quarantined" true
    (o.Campaign.stats.Stats.budget_exceeded > 0)

let test_pin_smoke_aarch64 () =
  pin_campaign ~expected:"3f03d855acb5247713b8fad6a1359be3" (smoke_config ()) (fun o ->
      raced o;
      quarantined o)

let test_pin_smoke_riscv () =
  pin_campaign ~expected:"c28bb15f75985dd77aa1d87428438ade" (smoke_config ~isa:Isa.Riscv ()) (fun o ->
      raced o;
      quarantined o)

let test_pin_deadline () =
  pin_campaign ~expected:"01ceb5049174b4c63f16d8bd0078b10d" (smoke_config ~deadline_conflicts:150 ())
    (fun o ->
      let hits = counter o "deadline.hits" in
      Alcotest.(check bool) "some programs crashed" true (hits > 0);
      Alcotest.(check bool) "some programs finished" true (hits < 6);
      Alcotest.(check int) "crashes counted" hits
        o.Campaign.stats.Stats.crashed_programs)

let test_pin_diff () =
  let journal = Scamv.Journal.create () in
  let outcome = run_diff journal in
  raced outcome.Scamv.Diff.riscv;
  quarantined outcome.Scamv.Diff.riscv;
  Alcotest.(check string) "journal + stats digest" "a13d654d77acc5f570351dfc6ca7e50d"
    (digest journal outcome.Scamv.Diff.stats)

(* The journal fold ([Stats]) and the worker's telemetry counters are
   computed independently from the same campaign; they must agree on every
   quantity both of them count. *)
let test_stats_match_telemetry () =
  let compared cfg =
    let o = Campaign.run cfg in
    let s = o.Campaign.stats in
    let m = o.Campaign.telemetry.Scamv_telemetry.Collector.metrics in
    [
      ("experiments", s.Stats.experiments, counter o "campaign.experiments");
      ("counterexamples", s.Stats.counterexamples, counter o "campaign.counterexamples");
      ("retries", s.Stats.retries, counter o "campaign.retries");
      ("budget", s.Stats.budget_exceeded, counter o "campaign.quarantined");
      ("skipped", s.Stats.skipped_programs, counter o "campaign.program_failures");
      ("crashed", s.Stats.crashed_programs, counter o "deadline.hits");
      ( "generation samples",
        s.Stats.experiments,
        Scamv_telemetry.Metrics.histogram_n m "phase.generation.seconds" );
    ]
  in
  let runs = [ compared (smoke_config ()); compared (smoke_config ~deadline_conflicts:150 ()) ] in
  List.iter
    (List.iter (fun (name, folded, counted) -> Alcotest.(check int) name counted folded))
    runs;
  (* Non-vacuous: every quantity is non-zero in some run, except skipped
     programs, since no smoke program raises. *)
  List.iter
    (fun (name, _, _) ->
      if name <> "skipped" then
        Alcotest.(check bool) (name ^ " non-zero") true
          (List.exists (List.exists (fun (n, v, _) -> n = name && v > 0)) runs))
    (List.hd runs)

let test_pipeline_deterministic () =
  let tmpl = Scamv_gen.Gen.generate ~seed:7L Templates.template_c in
  let run () =
    let cfg = Pipeline.default_config (Refinement.mct_vs_mspec ()) in
    let session = Pipeline.prepare ~seed:5L cfg tmpl.Templates.program in
    List.init 5 (fun _ ->
        match Pipeline.next_test_case session with
        | Pipeline.Exhausted | Pipeline.Quarantined _ | Pipeline.Crashed _ -> "-"
        | Pipeline.Case tc -> Format.asprintf "%a" Machine.pp tc.Pipeline.state1)
  in
  Alcotest.(check (list string)) "same seed, same test cases" (run ()) (run ())

let test_pipeline_unguided_straightline_program () =
  (* A branch-free program still generates (unguided) test cases. *)
  let tmpl = Scamv_gen.Gen.generate ~seed:3L Templates.stride in
  let setup = Result.get_ok (Workload.lookup_setup "mpart-unguided") in
  let cfg = Pipeline.default_config setup in
  let session = Pipeline.prepare cfg tmpl.Templates.program in
  match Pipeline.next_test_case session with
  | Pipeline.Exhausted | Pipeline.Quarantined _ | Pipeline.Crashed _ ->
    Alcotest.fail "expected a test case"
  | Pipeline.Case tc -> Alcotest.(check (list Alcotest.int)) "no training" [] (List.map (fun _ -> 0) tc.Pipeline.train)

(* ---- miniature campaigns: the paper's qualitative results ---- *)

let test_refinement_finds_siscloak_on_template_a () =
  let s = mini ~template:"A" ~setup:"mct-vs-mspec" () in
  Alcotest.(check bool) "counterexamples found" true (s.Stats.counterexamples > 0);
  Alcotest.(check bool) "most programs leak" true
    (s.Stats.programs_with_counterexample >= s.Stats.programs / 2)

let test_refinement_finds_siscloak_on_template_c () =
  let s = mini ~template:"C" ~setup:"mct-vs-mspec" () in
  Alcotest.(check bool) "counterexamples found" true (s.Stats.counterexamples > 0)

let test_unguided_finds_nothing_on_template_c () =
  let s = mini ~template:"C" ~setup:"mct-unguided" () in
  Alcotest.(check Alcotest.int) "no counterexamples without refinement" 0
    s.Stats.counterexamples

let test_mspec1_sound_for_dependent_loads () =
  let s = mini ~template:"C" ~setup:"mspec1-vs-mspec" () in
  Alcotest.(check Alcotest.int) "Mspec1 validated on template C" 0
    s.Stats.counterexamples

let test_no_straight_line_speculation_leak () =
  let s = mini ~template:"D" ~setup:"mct-vs-mspec-sl" () in
  Alcotest.(check Alcotest.int) "direct branches do not leak" 0 s.Stats.counterexamples

let test_prefetch_invalidates_mpart () =
  let s = mini ~programs:12 ~tests:20 ~template:"stride" ~setup:"mpart-vs-mpart'" () in
  Alcotest.(check bool) "prefetching violates cache coloring" true
    (s.Stats.counterexamples > 0)

let test_page_aligned_mpart_sound () =
  let s = mini ~programs:12 ~tests:20 ~template:"stride" ~setup:"mpart-pa-vs-mpart'" () in
  Alcotest.(check Alcotest.int) "page-aligned coloring holds" 0 s.Stats.counterexamples

let test_refinement_beats_unguided_on_mpart () =
  let refined = mini ~programs:12 ~tests:20 ~template:"stride" ~setup:"mpart-vs-mpart'" () in
  let unguided = mini ~programs:12 ~tests:20 ~template:"stride" ~setup:"mpart-unguided" () in
  Alcotest.(check bool) "refinement finds more counterexamples" true
    (refined.Stats.counterexamples > unguided.Stats.counterexamples)

let () =
  Alcotest.run "scamv_pipeline"
    [
      ( "pipeline",
        [
          Alcotest.test_case "produces test cases" `Quick test_pipeline_produces_test_cases;
          Alcotest.test_case "test cases distinct" `Quick test_pipeline_test_cases_distinct;
          Alcotest.test_case "deterministic" `Quick test_pipeline_deterministic;
          Alcotest.test_case "straight-line unguided" `Quick
            test_pipeline_unguided_straightline_program;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "rescues budget-exhausted pair" `Quick
            test_portfolio_rescues_budget_exhausted_pair;
          Alcotest.test_case "campaign identity across sizes and jobs" `Quick
            test_campaign_portfolio_identity;
          Alcotest.test_case "budgeted rescue independent of jobs" `Quick
            test_campaign_portfolio_rescue_jobs_identity;
        ] );
      ( "budget pin",
        [
          Alcotest.test_case "smoke on AArch64" `Quick test_pin_smoke_aarch64;
          Alcotest.test_case "smoke on RV64" `Quick test_pin_smoke_riscv;
          Alcotest.test_case "virtual deadline" `Quick test_pin_deadline;
          Alcotest.test_case "diff with portfolio" `Quick test_pin_diff;
          Alcotest.test_case "stats fold = telemetry" `Quick test_stats_match_telemetry;
        ] );
      ( "paper results (miniature)",
        [
          Alcotest.test_case "SiSCloak on template A" `Slow
            test_refinement_finds_siscloak_on_template_a;
          Alcotest.test_case "SiSCloak on template C" `Slow
            test_refinement_finds_siscloak_on_template_c;
          Alcotest.test_case "unguided blind on C" `Slow
            test_unguided_finds_nothing_on_template_c;
          Alcotest.test_case "Mspec1 sound on C" `Slow test_mspec1_sound_for_dependent_loads;
          Alcotest.test_case "no straight-line leak" `Slow
            test_no_straight_line_speculation_leak;
          Alcotest.test_case "prefetch invalidates Mpart" `Slow test_prefetch_invalidates_mpart;
          Alcotest.test_case "page-aligned Mpart sound" `Slow test_page_aligned_mpart_sound;
          Alcotest.test_case "refinement beats unguided" `Slow
            test_refinement_beats_unguided_on_mpart;
        ] );
    ]
