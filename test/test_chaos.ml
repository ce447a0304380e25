(* Chaos-injection integration tests: deterministic worker kills, injected
   solver-budget exhaustion, journal poisoning, deadline expiry — all at
   the campaign level, under the frozen clock so every run is a pure
   function of (campaign seed, chaos seed, deadline spec).  The
   process-level SIGKILL acceptance test lives in `bench/main.exe chaos`
   (`make chaos-smoke`); these are its fast in-process companions. *)

module Campaign = Scamv.Campaign
module Journal = Scamv.Journal
module Retry = Scamv.Retry
module Stats = Scamv.Stats
module Templates = Scamv_gen.Templates
module Refinement = Scamv_models.Refinement
module Executor = Scamv_microarch.Executor
module Chaos = Scamv_util.Chaos
module Stopwatch = Scamv_util.Stopwatch
module Collector = Scamv_telemetry.Collector
module Metrics = Scamv_telemetry.Metrics

let temp_path name =
  let path = Filename.temp_file "scamv_chaos" name in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let cfg ?deadline_conflicts ?chaos ?(programs = 4) ?(tests = 2) () =
  Campaign.make ~name:"chaos-test"
    ~template:(Templates.by_name "A")
    ~setup:(Refinement.mct_vs_mspec ())
    ~programs ~tests_per_program:tests ~seed:2021L
    ~max_conflicts:150 ?deadline_conflicts ?chaos ~clock:Stopwatch.frozen ()

let run ?resume ~jobs c =
  let journal = Journal.create () in
  let events = ref [] in
  let outcome =
    Campaign.run ~on_event:(fun m -> events := m :: !events) ~journal ?resume ~jobs c
  in
  (journal, outcome, List.rev !events)

let counter (o : Campaign.outcome) name =
  Metrics.counter o.Campaign.telemetry.Collector.metrics name

let crashed_events journal =
  List.filter_map
    (function
      | Journal.Crashed { program_index; reason; _ } -> Some (program_index, reason)
      | _ -> None)
    (Journal.events journal)

(* ---- worker kills ---- *)

let kill_chaos () = Chaos.create ~rate:0.4 ~seed:0xC4A05L ()

let test_worker_kills_supervised () =
  let programs = 6 in
  let journal, outcome, _ = run ~jobs:1 (cfg ~chaos:(kill_chaos ()) ~programs ()) in
  let crashed = outcome.Campaign.stats.Stats.crashed_programs in
  Alcotest.(check bool) "some programs crashed" true (crashed > 0);
  Alcotest.(check bool) "not all programs crashed" true (crashed < programs);
  Alcotest.(check Alcotest.int)
    "every program accounted for" programs outcome.Campaign.stats.Stats.programs;
  let crashes = crashed_events journal in
  Alcotest.(check Alcotest.int) "one Crashed event per kill" crashed
    (List.length crashes);
  List.iter
    (fun (_, reason) ->
      Alcotest.(check bool) "reason names the chaos kill" true
        (let has_sub s sub =
          let n = String.length sub and h = String.length s in
          let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        has_sub reason "chaos"))
    crashes;
  Alcotest.(check Alcotest.int)
    "one pool restart per crash" crashed
    (counter outcome "pool.restarts");
  Alcotest.(check bool) "injections counted" true (counter outcome "chaos.injections" > 0)

let test_worker_kills_jobs_independent () =
  (* The same chaos seed must produce byte-identical journals, stats and
     progress logs at every jobs level: kill decisions are keyed on the
     program index, never on the schedule. *)
  let go jobs =
    let journal, outcome, events = run ~jobs (cfg ~chaos:(kill_chaos ()) ~programs:6 ()) in
    (Journal.to_csv journal, outcome.Campaign.stats, events, counter outcome "pool.restarts")
  in
  let csv1, stats1, events1, restarts1 = go 1 in
  let csv3, stats3, events3, restarts3 = go 3 in
  Alcotest.(check string) "journal byte-identical" csv1 csv3;
  Alcotest.(check bool) "stats identical" true (Stdlib.compare stats1 stats3 = 0);
  Alcotest.(check (Alcotest.list Alcotest.string)) "progress identical" events1 events3;
  Alcotest.(check Alcotest.int) "restarts identical" restarts1 restarts3

let test_chaos_campaign_resume_redraws_faults () =
  (* A resumed chaos campaign re-draws exactly the faults the interrupted
     one saw: fault decisions are pure in (seed, site, key), so resuming
     from a torn checkpoint converges on identical final output. *)
  let mk () = cfg ~chaos:(kill_chaos ()) ~programs:6 () in
  let path = temp_path ".journal" in
  let persisted = Journal.create ~path () in
  let (_ : Campaign.outcome) = Campaign.run ~journal:persisted ~jobs:1 (mk ()) in
  Journal.close persisted;
  (* Tear the tail mid-record, as a kill would. *)
  let whole = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub whole 0 (String.length whole - 6)));
  let journal_resumed, resumed, _ = run ~resume:path ~jobs:1 (mk ()) in
  let journal_full, full, _ = run ~jobs:1 (mk ()) in
  Alcotest.(check string) "journal identical after resume"
    (Journal.to_csv journal_full)
    (Journal.to_csv journal_resumed);
  Alcotest.(check bool) "stats identical after resume" true
    (Stdlib.compare full.Campaign.stats resumed.Campaign.stats = 0);
  Alcotest.(check bool) "tail recovery counted" true
    (counter resumed "journal.recovered_tails" > 0)

(* ---- injected solver-budget exhaustion ---- *)

let test_solver_budget_chaos_quarantines () =
  (* A seed whose worker-kill rolls spare enough programs for their path
     pairs to reach the solver.budget site: injected exhaustion must
     surface as ordinary quarantine events. *)
  let c = Chaos.create ~rate:0.3 ~seed:7L () in
  let journal, outcome, _ = run ~jobs:1 (cfg ~chaos:c ~programs:6 ()) in
  let injected_quarantines =
    List.filter
      (function
        | Journal.Quarantined { reason; _ } ->
          (* The pipeline tags injected exhaustion distinctly. *)
          String.length reason >= 5 && String.sub reason 0 5 = "chaos"
        | _ -> false)
      (Journal.events journal)
  in
  Alcotest.(check bool) "chaos quarantined some path pairs" true
    (injected_quarantines <> []);
  Alcotest.(check bool) "quarantines counted in stats" true
    (outcome.Campaign.stats.Stats.budget_exceeded >= List.length injected_quarantines)

(* ---- journal poisoning ---- *)

let test_journal_poison_truncates_on_recovery () =
  (* Each record's poison decision is keyed on its index, so a twin chaos
     instance predicts exactly which record is first corrupted; tolerant
     recovery must keep exactly the records before it. *)
  let rate = 0.2 and seed = 42L in
  let twin = Chaos.create ~rate ~seed () in
  let first_poisoned = ref None in
  let k = ref 0 in
  while !first_poisoned = None && !k < 200 do
    if Chaos.roll twin ~site:"journal.poison" ~key:(Int64.of_int !k) then
      first_poisoned := Some !k;
    incr k
  done;
  let poisoned =
    match !first_poisoned with
    | Some k -> k
    | None -> Alcotest.fail "no poison roll in 200 records at rate 0.2"
  in
  let path = temp_path ".poison" in
  let j = Journal.create ~path ~chaos:(Chaos.create ~rate ~seed ()) () in
  let entry i =
    {
      Journal.campaign = "c";
      program_index = i;
      test_index = 0;
      template = "A";
      isa = Scamv_arch.Isa.Aarch64;
      path_pair = (0, 1);
      verdict = Executor.Inconclusive;
      generation_seconds = 0.0;
      execution_seconds = 0.0;
      retries = 0;
      faults = 0;
    }
  in
  for i = 0 to poisoned + 2 do
    Journal.record j (entry i)
  done;
  Journal.close j;
  let recovered, recovery = Journal.load ~path in
  Alcotest.(check Alcotest.int) "clean prefix ends at the poisoned record"
    poisoned recovery.Journal.records;
  Alcotest.(check bool) "corruption reported" true (recovery.Journal.dropped_bytes > 0);
  Alcotest.(check Alcotest.int) "events match prefix" poisoned
    (List.length (Journal.events recovered))

(* ---- deadline expiry ---- *)

let test_deadline_expiry_records_crash () =
  let programs = 6 in
  let journal, outcome, _ =
    run ~jobs:1 (cfg ~deadline_conflicts:150 ~programs ~tests:3 ())
  in
  let crashed = outcome.Campaign.stats.Stats.crashed_programs in
  Alcotest.(check bool) "some programs hit the deadline" true (crashed > 0);
  Alcotest.(check bool) "deadline.hits counted" true
    (counter outcome "deadline.hits" > 0);
  List.iter
    (fun (_, reason) ->
      Alcotest.(check bool) "reason names the deadline" true
        (let has_sub s sub =
           let n = String.length sub and h = String.length s in
           let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has_sub reason "deadline"))
    (crashed_events journal);
  (* No worker restarts: deadline expiry ends the program cooperatively,
     the domain survives. *)
  Alcotest.(check Alcotest.int) "no pool restarts" 0 (counter outcome "pool.restarts")

let test_deadline_jobs_independent () =
  let go jobs =
    let journal, outcome, events =
      run ~jobs (cfg ~deadline_conflicts:150 ~programs:6 ~tests:3 ())
    in
    (Journal.to_csv journal, outcome.Campaign.stats, events)
  in
  let csv1, stats1, events1 = go 1 in
  let csv2, stats2, events2 = go 2 in
  Alcotest.(check string) "journal byte-identical" csv1 csv2;
  Alcotest.(check bool) "stats identical" true (Stdlib.compare stats1 stats2 = 0);
  Alcotest.(check (Alcotest.list Alcotest.string)) "progress identical" events1 events2

let () =
  Alcotest.run "scamv_chaos"
    [
      ( "worker-kills",
        [
          Alcotest.test_case "supervised kills recorded" `Quick
            test_worker_kills_supervised;
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_worker_kills_jobs_independent;
          Alcotest.test_case "resume re-draws the same faults" `Quick
            test_chaos_campaign_resume_redraws_faults;
        ] );
      ( "solver-budget",
        [
          Alcotest.test_case "injected exhaustion quarantines" `Quick
            test_solver_budget_chaos_quarantines;
        ] );
      ( "journal-poison",
        [
          Alcotest.test_case "recovery stops at poisoned record" `Quick
            test_journal_poison_truncates_on_recovery;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "expiry records crash" `Quick
            test_deadline_expiry_records_crash;
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_deadline_jobs_independent;
        ] );
    ]
