module Gen = Scamv_gen.Gen
module Templates = Scamv_gen.Templates
module Refinement = Scamv_models.Refinement
module Executor = Scamv_microarch.Executor
module Faults = Scamv_microarch.Faults
module Splitmix = Scamv_util.Splitmix
module Stopwatch = Scamv_util.Stopwatch
module Pool = Scamv_util.Pool
module Deadline = Scamv_util.Deadline
module Chaos = Scamv_util.Chaos
module Collector = Scamv_telemetry.Collector
module Isa = Scamv_arch.Isa

type config = {
  name : string;
  isa : Isa.t;
  template : Templates.t Gen.t;
  setup : Refinement.t;
  view : Executor.view;
  programs : int;
  tests_per_program : int;
  seed : int64;
  executor : Executor.config;
  pipeline : Refinement.t -> Pipeline.config;
  max_conflicts : int option;
  portfolio : int;
  retry : Retry.policy;
  faults : Faults.config option;
  deadline_conflicts : int option;
  chaos : Chaos.t option;
  clock : Stopwatch.clock;
  cancel : Deadline.t option;
}

let make ~name ?(isa = Isa.Aarch64) ~template ~setup
    ?(view = Executor.Full_cache) ?(programs = 50)
    ?(tests_per_program = 30) ?(seed = 2021L) ?max_conflicts ?(portfolio = 1)
    ?(retry = Retry.default) ?faults ?deadline_conflicts ?chaos
    ?(clock = Stopwatch.wall) ?cancel () =
  if portfolio < 1 then invalid_arg "Campaign.make: portfolio must be >= 1";
  {
    name;
    isa;
    template;
    setup;
    view;
    programs;
    tests_per_program;
    seed;
    executor = Executor.default_config ~view ();
    pipeline = Pipeline.default_config;
    max_conflicts;
    portfolio;
    retry;
    faults;
    deadline_conflicts;
    chaos;
    clock;
    cancel;
  }

type outcome = {
  config_name : string;
  stats : Stats.t;
  wall_seconds : float;
  pool_width : int;
  telemetry : Collector.report;
}

(* ---- checkpoint/resume ----

   A journal written with incremental persistence doubles as a checkpoint:
   every event of every program is on disk the moment it happens.  On
   resume we treat a program as completed iff a *later* program has
   started (its events appear in the journal) — the last program seen may
   have been interrupted mid-flight, so it is re-run from scratch.  All
   per-program randomness is split off the campaign stream before the
   program runs, so re-running it reproduces exactly the events the
   interrupted run would have produced, and the final statistics match an
   uninterrupted campaign. *)

let load_checkpoint path =
  if not (Sys.file_exists path) then (0, [], None)
  else begin
    (* Tolerant load: a SIGKILLed campaign can leave a torn or
       chaos-poisoned record at the tail.  The loader keeps the longest
       clean prefix; whatever it dropped belonged to the last program
       seen, which is re-run anyway. *)
    let j, recovery = Journal.load ~path in
    let events = Journal.events j in
    let restart =
      List.fold_left (fun m ev -> max m (Journal.event_program_index ev)) (-1) events
    in
    if restart < 0 then (0, [], Some recovery)
    else
      ( restart,
        List.filter (fun ev -> Journal.event_program_index ev < restart) events,
        Some recovery )
  end

let replay stats journal watch ~on_record events =
  List.iter
    (fun ev ->
      Option.iter (fun j -> Journal.record_event j ev) journal;
      on_record ev;
      match ev with
      | Journal.Experiment e ->
        stats :=
          Stats.record_experiment !stats ~verdict:e.Journal.verdict
            ~retries:e.Journal.retries ~faults:e.Journal.faults
            ~gen_seconds:e.Journal.generation_seconds
            ~exe_seconds:e.Journal.execution_seconds
            ~elapsed:(Stopwatch.elapsed_s watch) ()
      | Journal.Quarantined _ -> stats := Stats.record_quarantine !stats
      | Journal.Program_failed _ -> stats := Stats.record_skipped_program !stats
      | Journal.Crashed _ -> stats := Stats.record_crashed_program !stats
      | Journal.Diverged _ -> stats := Stats.record_divergence !stats)
    events

(* ---- per-program pipeline (worker side) ----

   One program's whole synthesize→solve→run→compare unit, exactly as the
   sequential engine ran it, except that journal/stats/progress effects are
   buffered as an ordered event list instead of applied directly: workers
   run on pool domains and must not touch shared state (see Pool).  Every
   source of randomness is drawn from [program_rng], a stream split off the
   campaign seed in program order before any program runs, so the returned
   events depend only on (config, campaign seed, program index) — never on
   scheduling. *)

let run_program cfg pipeline_cfg ~program_index program_rng :
    Journal.event list * Collector.report =
  let events_rev = ref [] in
  let emit ev = events_rev := ev :: !events_rev in
  (* Each program gets its own collector (workers must not share mutable
     state across domains; see Pool): instrumented code anywhere below —
     solver, lifter, executor — records into it via the ambient API, and
     the frozen report is merged consumer-side in program order. *)
  let collector =
    Collector.create ~clock:cfg.clock ~track:(program_index + 1) ()
  in
  (* One virtual (conflict-count) deadline token per program: every
     program gets the same work allowance regardless of scheduling.  The
     token is ambient for the whole program body, so the SAT search, the
     blaster and the pipeline all poll it. *)
  let deadline =
    Option.map
      (fun n -> Deadline.create ~clock:cfg.clock (Deadline.Conflicts n))
      cfg.deadline_conflicts
  in
  (* Campaign-level cooperative cancel (the service's DELETE): when no
     per-program deadline claims the ambient slot, the cancel token itself
     goes ambient so the SAT search and blaster poll it and an in-flight
     program stops mid-enumeration; either way the test-case loop below
     checks it at every iteration. *)
  let with_deadline f =
    match (deadline, cfg.cancel) with
    | Some d, _ -> Deadline.with_current d f
    | None, Some c -> Deadline.with_current c f
    | None, None -> f ()
  in
  let cancelled () =
    match cfg.cancel with Some c -> Deadline.expired c | None -> false
  in
  (* Any exception in any stage — generation, symbolic execution, relation
     synthesis, SMT enumeration, execution — abandons this program with a
     recorded failure instead of killing the campaign: one pathological
     program must not cost hours of results. *)
  Collector.with_current collector (fun () ->
  Collector.span "program" ~args:[ ("index", string_of_int program_index) ]
  @@ fun () ->
  with_deadline @@ fun () ->
  (try
     if cancelled () then raise (Deadline.Expired "campaign cancelled");
     let { Templates.program; template_name }, program_rng =
       Collector.span "generate" (fun () -> Gen.run cfg.template program_rng)
     in
     let pipeline_seed, program_rng = Splitmix.next program_rng in
     let program_rng = ref program_rng in
     let session, prepare_seconds =
       Stopwatch.time ~clock:cfg.clock (fun () ->
           Pipeline.prepare ~seed:pipeline_seed pipeline_cfg program)
     in
     let continue_tests = ref true in
     let test_index = ref 0 in
     (* The per-program preparation cost (symbolic execution + relation
        synthesis) is charged to the first test case, matching how the
        paper reports average generation time per experiment. *)
     let carry_gen_cost = ref prepare_seconds in
     while !continue_tests && !test_index < cfg.tests_per_program do
       if cancelled () then raise (Deadline.Expired "campaign cancelled");
       let step, gen_seconds =
         Stopwatch.time ~clock:cfg.clock (fun () -> Pipeline.next_test_case session)
       in
       match step with
       | Pipeline.Exhausted -> continue_tests := false
       | Pipeline.Crashed { reason } ->
         (* The program's deadline expired mid-enumeration: record what
            was lost and stop drawing test cases — everything produced so
            far stays in the event buffer. *)
         let reason = if cancelled () then "campaign cancelled" else reason in
         Collector.incr "deadline.hits";
         continue_tests := false;
         emit (Journal.Crashed { campaign = cfg.name; program_index; reason })
       | Pipeline.Quarantined { pair; reason } ->
         (* The pair is out of the queue; its generation time is carried
            into the next successful test case.  No test slot is
            consumed. *)
         carry_gen_cost := !carry_gen_cost +. gen_seconds;
         Collector.incr "campaign.quarantined";
         emit
           (Journal.Quarantined
              { campaign = cfg.name; program_index; pair; reason })
       | Pipeline.Case tc ->
         let experiment =
           {
             Executor.program;
             state1 = tc.Pipeline.state1;
             state2 = tc.Pipeline.state2;
             train = tc.Pipeline.train;
           }
         in
         let retry_outcome, exe_seconds =
           Stopwatch.time ~clock:cfg.clock (fun () ->
               Collector.span "execute"
                 ~args:[ ("test", string_of_int !test_index) ]
                 (fun () ->
                   Retry.execute cfg.retry (fun ~attempt:_ ->
                       let exp_seed, program_rng' = Splitmix.next !program_rng in
                       program_rng := program_rng';
                       Executor.run_observed ~seed:exp_seed ?faults:cfg.faults
                         cfg.executor experiment)))
         in
         let total_gen_seconds = gen_seconds +. !carry_gen_cost in
         carry_gen_cost := 0.0;
         (* Phase histograms mirror the generation/execution columns of the
            statistics exactly (same per-experiment values), so the bench
            harness can read phase totals from the registry. *)
         Collector.observe "phase.generation.seconds" total_gen_seconds;
         Collector.observe "phase.execution.seconds" exe_seconds;
         Collector.incr "campaign.experiments";
         Collector.add "campaign.retries" retry_outcome.Retry.retries;
         if retry_outcome.Retry.verdict = Executor.Distinguishable then
           Collector.incr "campaign.counterexamples";
         emit
           (Journal.Experiment
              {
                Journal.campaign = cfg.name;
                program_index;
                test_index = !test_index;
                template = template_name;
                path_pair = tc.Pipeline.pair;
                verdict = retry_outcome.Retry.verdict;
                generation_seconds = total_gen_seconds;
                execution_seconds = exe_seconds;
                retries = retry_outcome.Retry.retries;
                faults = retry_outcome.Retry.faults;
                isa = cfg.isa;
              });
         incr test_index
     done
   with
  | (Stack_overflow | Out_of_memory | Sys.Break) as fatal ->
    (* Resource exhaustion of the whole process and user interrupts must
       not be swallowed as per-program noise.  (Stack_overflow is then
       classified as a worker crash by the supervised pool: the program is
       recorded as crashed and the campaign continues.) *)
    raise fatal
  | Deadline.Expired reason ->
    (* Expiry surfacing outside the pipeline's own handler — during
       prepare, blasting, or a phase boundary poll.  A campaign-level
       cancel travels the same path; its reason is normalized so the
       journal reads the same wherever cancellation was observed. *)
    let reason = if cancelled () then "campaign cancelled" else reason in
    Collector.incr "deadline.hits";
    emit (Journal.Crashed { campaign = cfg.name; program_index; reason })
  | exn ->
    Collector.incr "campaign.program_failures";
    emit
      (Journal.Program_failed
         { campaign = cfg.name; program_index; reason = Printexc.to_string exn })));
  (List.rev !events_rev, Collector.report collector)

(* ---- merge (consumer side) ----

   Fold one completed program's event buffer into the journal, statistics
   and progress stream.  The pool delivers buffers in program order, so
   everything observable — journal CSV bytes, checkpoint prefixes, final
   statistics, progress lines — is identical whatever [jobs] was. *)

let merge_program cfg ~on_event ~on_record ~journal ~watch ~stats ~program_index
    events =
  let found = ref false in
  List.iter
    (fun ev ->
      Option.iter (fun j -> Journal.record_event j ev) journal;
      on_record ev;
      match ev with
      | Journal.Experiment e ->
        let verdict = e.Journal.verdict in
        let was_first =
          verdict = Executor.Distinguishable && (!stats).Stats.counterexamples = 0
        in
        let elapsed = Stopwatch.elapsed_s watch in
        stats :=
          Stats.record_experiment !stats ~verdict ~retries:e.Journal.retries
            ~faults:e.Journal.faults ~gen_seconds:e.Journal.generation_seconds
            ~exe_seconds:e.Journal.execution_seconds ~elapsed ();
        if verdict = Executor.Distinguishable then found := true;
        if was_first then
          on_event
            (Printf.sprintf
               "[%s] first counterexample after %.2fs (program %d, test %d)"
               cfg.name elapsed program_index e.Journal.test_index)
      | Journal.Quarantined { pair; reason; _ } ->
        stats := Stats.record_quarantine !stats;
        on_event
          (Printf.sprintf "[%s] program %d: quarantined path pair (%d,%d): %s"
             cfg.name program_index (fst pair) (snd pair) reason)
      | Journal.Program_failed { reason; _ } ->
        stats := Stats.record_skipped_program !stats;
        on_event
          (Printf.sprintf "[%s] program %d failed: %s" cfg.name program_index reason)
      | Journal.Crashed { reason; _ } ->
        stats := Stats.record_crashed_program !stats;
        on_event
          (Printf.sprintf "[%s] program %d crashed: %s" cfg.name program_index
             reason)
      | Journal.Diverged { pair; aarch64; riscv; _ } ->
        stats := Stats.record_divergence !stats;
        on_event
          (Printf.sprintf
             "[%s] program %d: cross-ISA divergence on path pair (%d,%d): aarch64=%s riscv=%s"
             cfg.name program_index (fst pair) (snd pair)
             (Journal.verdict_string aarch64) (Journal.verdict_string riscv)))
    events;
  stats := Stats.record_program !stats ~found_counterexample:!found;
  if (program_index + 1) mod 25 = 0 then
    on_event
      (Printf.sprintf "[%s] %d/%d programs, %d experiments, %d counterexamples"
         cfg.name (program_index + 1) cfg.programs (!stats).Stats.experiments
         (!stats).Stats.counterexamples)

let run ?(on_event = fun _ -> ()) ?(on_record = fun (_ : Journal.event) -> ())
    ?journal ?resume ?pool ?(jobs = 1) cfg =
  (* When a persistent pool is supplied (the validation service runs every
     campaign on one long-lived pool), its size plays the role of [jobs];
     determinism is unaffected because the batch protocol is identical. *)
  let jobs =
    match pool with Some p -> Pool.size p | None -> Pool.resolve_jobs jobs
  in
  let watch = Stopwatch.start ~clock:cfg.clock () in
  let stats = ref Stats.empty in
  let pipeline_cfg =
    let pc = cfg.pipeline cfg.setup in
    {
      pc with
      Pipeline.isa = cfg.isa;
      max_conflicts =
        (if cfg.max_conflicts = None then pc.Pipeline.max_conflicts
         else cfg.max_conflicts);
      chaos = cfg.chaos;
      portfolio = cfg.portfolio;
    }
  in
  (* Split one RNG stream per program off the campaign seed, in program
     order, before anything runs: program i's randomness is a pure function
     of (seed, i), independent of resume points and worker scheduling. *)
  let streams =
    let rng = ref (Splitmix.of_seed cfg.seed) in
    Array.init cfg.programs (fun _ ->
        let stream, rng' = Splitmix.split !rng in
        rng := rng';
        stream)
  in
  let start_index, replayed, recovery =
    match resume with
    | None -> (0, [], None)
    | Some path -> load_checkpoint path
  in
  (match recovery with
  | Some { Journal.records; dropped_bytes } when dropped_bytes > 0 ->
    on_event
      (Printf.sprintf
         "[%s] resume journal had a damaged tail: kept %d clean record(s), dropped %d byte(s)"
         cfg.name records dropped_bytes)
  | _ -> ());
  let start_index = min start_index cfg.programs in
  if start_index > 0 then begin
    replay stats journal watch ~on_record replayed;
    for i = 0 to start_index - 1 do
      let found =
        List.exists
          (function
            | Journal.Experiment e ->
              e.Journal.program_index = i && e.Journal.verdict = Executor.Distinguishable
            | _ -> false)
          replayed
      in
      stats := Stats.record_program !stats ~found_counterexample:found
    done;
    on_event
      (Printf.sprintf "[%s] resumed at program %d (%d events replayed)" cfg.name
         start_index (List.length replayed))
  end;
  (* Campaign-level spans (track 0) live in their own collector on the
     calling domain; per-program reports arrive with the event buffers and
     are accumulated here in program order.  Replayed (resumed) programs
     were not re-executed, so they contribute no telemetry. *)
  let campaign_collector = Collector.create ~clock:cfg.clock ~track:0 () in
  let reports_rev = ref [] in
  (* Supervision policy: an exception that escapes run_program's own
     net — an injected chaos kill, a stack overflow — is a worker-domain
     crash.  The pool respawns the domain; here the lost program becomes a
     Crashed journal event feeding the normal quarantine/stats path, and
     the campaign carries on.  Whole-process conditions stay fatal. *)
  let worker_fatal = function
    | Chaos.Killed _ | Stack_overflow -> true
    | _ -> false
  in
  Collector.with_current campaign_collector (fun () ->
      Collector.span "campaign" ~args:[ ("name", cfg.name) ] (fun () ->
          (match recovery with
          | Some { Journal.records; dropped_bytes } ->
            Collector.add "journal.recovered_records" records;
            if dropped_bytes > 0 then Collector.incr "journal.recovered_tails"
          | None -> ());
          let tasks = cfg.programs - start_index in
          let on_restart _ = Collector.incr "pool.restarts" in
          let worker k =
            let program_index = start_index + k in
            (* Chaos site "pool.worker": simulate a worker-domain crash
               before this program runs.  Keyed by program index, so the
               set of killed programs is independent of jobs level and
               resume point. *)
            (match cfg.chaos with
            | Some c ->
              Chaos.kill c ~site:"pool.worker" ~key:(Int64.of_int program_index)
            | None -> ());
            run_program cfg pipeline_cfg ~program_index streams.(program_index)
          in
          let consume k result =
            let program_index = start_index + k in
            match result with
            | Ok (events, report) ->
              reports_rev := report :: !reports_rev;
              merge_program cfg ~on_event ~on_record ~journal ~watch ~stats
                ~program_index events
            | Error { Pool.exn = (Out_of_memory | Sys.Break) as fatal; backtrace }
              ->
              (* Whole-process conditions abort the campaign (the
                 journal holds a resumable checkpoint). *)
              Printexc.raise_with_backtrace fatal backtrace
            | Error { Pool.exn; _ } ->
              (match exn with
              | Chaos.Killed _ -> Collector.incr "chaos.injections"
              | _ -> ());
              let reason =
                match exn with
                | Chaos.Killed site ->
                  Printf.sprintf "worker killed by chaos injection (%s)" site
                | exn -> "worker crashed: " ^ Printexc.to_string exn
              in
              merge_program cfg ~on_event ~on_record ~journal ~watch ~stats
                ~program_index
                [ Journal.Crashed { campaign = cfg.name; program_index; reason } ]
          in
          match pool with
          | Some p ->
            Pool.exec p ~tasks ~fatal:worker_fatal ~on_restart ~worker ~consume ()
          | None ->
            Pool.run_supervised ~jobs ~tasks ~fatal:worker_fatal ~on_restart
              ~worker ~consume ()));
  let telemetry =
    List.fold_left Collector.merge_reports
      (Collector.report campaign_collector)
      (List.rev !reports_rev)
  in
  {
    config_name = cfg.name;
    stats = !stats;
    wall_seconds = Stopwatch.elapsed_s watch;
    pool_width = jobs;
    telemetry;
  }
