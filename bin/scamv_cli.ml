(* Command-line front end to the Scam-V reproduction.

   scamv campaign --template A --setup mct-vs-mspec ...   run a campaign
   scamv show --template C --setup mspec1-vs-mspec        inspect a program
   scamv models                                           list models/setups
*)

module Isa = Scamv_arch.Isa
module Refinement = Scamv_models.Refinement
module Templates = Scamv_gen.Templates
module Gen = Scamv_gen.Gen
module Campaign = Scamv.Campaign
module Pipeline = Scamv.Pipeline
module Stats = Scamv.Stats
module Workload = Scamv_service.Workload
open Cmdliner

(* ---- common options ---- *)

let template_arg =
  let doc = "Test-program template: stride, A, B, C or D (Fig. 5 / Fig. 7)." in
  Arg.(value & opt string "A" & info [ "template"; "t" ] ~docv:"NAME" ~doc)

let setup_arg =
  let doc =
    "Validation setup (model under validation and refinement): "
    ^ String.concat ", " (List.map fst Workload.setups)
    ^ "."
  in
  Arg.(value & opt string "mct-vs-mspec" & info [ "setup"; "m" ] ~docv:"SETUP" ~doc)

let seed_arg =
  let doc = "Random seed; campaigns are fully reproducible from it." in
  Arg.(value & opt int64 2021L & info [ "seed" ] ~docv:"SEED" ~doc)

let isa_arg =
  let doc = "Guest instruction set: aarch64 or riscv." in
  Arg.(value & opt string "aarch64" & info [ "isa" ] ~docv:"ISA" ~doc)

(* Catalogue and range errors become cmdliner usage errors (exit 124). *)
let usage r = Result.map_error (fun m -> `Msg m) r

(* The journal opens its [--csv] file only at the first record, after the
   campaign has started, so an unwritable path is probed up front and
   reported as a usage error.  The probe appends nothing, so a --resume
   checkpoint at the same path stays intact, and a file it had to create
   is removed again. *)
let writable_csv = function
  | None -> Ok ()
  | Some path -> (
    let existed = Sys.file_exists path in
    match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
    | oc ->
      close_out oc;
      if not existed then Sys.remove path;
      Ok ()
    | exception Sys_error msg -> Error (`Msg ("--csv: " ^ msg)))

(* ---- campaign command ---- *)

let campaign_cmd =
  let programs_arg =
    Arg.(value & opt int 50 & info [ "programs"; "p" ] ~docv:"N" ~doc:"Programs to generate.")
  in
  let tests_arg =
    Arg.(value & opt int 30 & info [ "tests"; "k" ] ~docv:"K" ~doc:"Test cases per program.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print progress events.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Persist the experiment journal to $(docv) incrementally (one \
             flushed CSV row per event); the file doubles as a checkpoint for \
             $(b,--resume).")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume a killed campaign from the journal CSV it left behind; \
             completed programs are replayed, the rest are re-run.  Typically \
             $(docv) is the same file as $(b,--csv).")
  in
  let max_conflicts_arg =
    Arg.(
      value & opt int 0
      & info [ "max-conflicts" ] ~docv:"N"
          ~doc:"SAT budget: conflicts allowed per solver call (0 = unlimited).")
  in
  let max_attempts_arg =
    Arg.(
      value & opt int 1
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:
            "Executor attempts per experiment; inconclusive (noisy) runs are \
             retried up to this many times with majority voting.")
  in
  let confirm_arg =
    Arg.(
      value & opt int 1
      & info [ "confirm" ] ~docv:"K"
          ~doc:"Votes a conclusive verdict needs before retrying stops.")
  in
  let fault_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ] ~docv:"R"
          ~doc:
            "Board-noise fault injection: probability in [0,1] that a \
             measurement is perturbed, dropped, or polluted.")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int64 0xFA17L
      & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed of the injected fault stream.")
  in
  let deadline_conflicts_arg =
    Arg.(
      value & opt int 0
      & info [ "deadline-conflicts" ] ~docv:"N"
          ~doc:
            "Per-program virtual deadline: abandon a program (recording it \
             as crashed) once its SAT searches have spent $(docv) conflicts. \
             Purely work-based, so output stays byte-identical across \
             $(b,--jobs) levels.  0 = no deadline.")
  in
  let chaos_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-rate" ] ~docv:"R"
          ~doc:
            "Chaos harness: probability in [0,1] of injecting a fault at \
             each chaos site (worker kills, journal write poison/delay, \
             solver budget exhaustion).  Injection decisions are a pure \
             function of ($(b,--chaos-seed), site, key), so chaos campaigns \
             are reproducible and jobs-independent.  0 = chaos off.")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int64 0xC4A05L
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"Seed of the chaos injection decisions.")
  in
  let portfolio_arg =
    Arg.(
      value & opt int 1
      & info [ "portfolio" ] ~docv:"K"
          ~doc:
            "Solver portfolio size: when a path pair's enumeration \
             exhausts its SAT budget, try up to $(docv)-1 challenger \
             solver configurations (varied restart series, decision \
             polarity and seed) in rank order before quarantining the \
             pair.  Configuration 0 is the stock solver, and the \
             challenger table is fixed, so results are deterministic \
             and — without a SAT budget — independent of $(docv).  \
             Counted as $(b,portfolio.races) / $(b,portfolio.wins.<k>).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains running program pipelines in parallel (0 = all \
             cores).  Results are merged in program order, so journal, \
             statistics and progress output are identical to $(b,--jobs 1) \
             for the same seed; only timings differ.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file of the campaign's phase \
             spans (lift, annotate, symexec, synth, enumerate, run, \
             compare, ...) to $(docv); open it in chrome://tracing or \
             Perfetto.  Spans are merged in program order, so the file is \
             independent of $(b,--jobs).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a Prometheus-style text dump of the telemetry registry \
             (SAT/SMT work, microarchitectural hit/miss counters, campaign \
             phase histograms) to $(docv) and print a summary table at the \
             end of the run.")
  in
  let run template_name setup_name isa_name programs tests seed verbose csv
      resume max_conflicts max_attempts confirm fault_rate fault_seed
      deadline_conflicts chaos_rate chaos_seed portfolio jobs trace metrics =
    let ( let* ) = Result.bind in
    let* isa = usage (Isa.of_string isa_name) in
    let* () =
      if fault_rate < 0.0 || fault_rate > 1.0 then
        Error (`Msg "--fault-rate must be within [0, 1]")
      else Ok ()
    in
    let* () =
      if max_attempts < 1 || confirm < 1 then
        Error (`Msg "--max-attempts and --confirm must be at least 1")
      else Ok ()
    in
    let* () =
      if jobs < 0 then Error (`Msg "--jobs must be at least 0") else Ok ()
    in
    let* () =
      if chaos_rate < 0.0 || chaos_rate > 1.0 then
        Error (`Msg "--chaos-rate must be within [0, 1]")
      else Ok ()
    in
    let retry = Scamv.Retry.make ~max_attempts ~confirm () in
    let faults =
      if fault_rate > 0.0 then
        Some (Scamv_microarch.Faults.config ~rate:fault_rate ~seed:fault_seed ())
      else None
    in
    let chaos =
      if chaos_rate > 0.0 then
        Some (Scamv_util.Chaos.create ~rate:chaos_rate ~seed:chaos_seed ())
      else None
    in
    let* cfg =
      usage
        (Workload.config ~template:template_name ~setup:setup_name
           ~isa:(`Single isa) ~programs ~tests ~seed ~max_conflicts
           ~deadline_conflicts ~portfolio ~retry ?faults ?chaos ())
    in
    let* () = writable_csv csv in
    let name = cfg.Campaign.name in
    let on_event = if verbose then print_endline else fun _ -> () in
    let journal = Scamv.Journal.create ?path:csv ?chaos () in
    let* outcome =
      (* Loading the checkpoint is the first thing the run does, before
         the journal records (and creates its file), so an exception with
         nothing recorded came from the load.  The load keeps a torn tail
         (and the run reports it): only an unreadable file or a malformed
         v1 CSV ends here. *)
      match Campaign.run ~on_event ~journal ?resume ~jobs cfg with
      | outcome -> Ok outcome
      | exception (Scamv.Journal.Parse_error msg | Sys_error msg)
        when resume <> None && Scamv.Journal.events journal = [] ->
        Error (`Msg (Printf.sprintf "--resume %s: %s" (Option.get resume) msg))
    in
    Scamv.Journal.close journal;
    print_string
      (Scamv_util.Text_table.render ~header:Stats.header
         ~rows:[ Stats.row ~name outcome.Campaign.stats ]);
    let m = outcome.Campaign.telemetry.Scamv_telemetry.Collector.metrics in
    let c k = Scamv_telemetry.Metrics.counter m k in
    Printf.printf
      "uarch: cache %d/%d hit/miss, tlb %d/%d, predictor %d/%d, %d \
       transient loads, %d faults injected\n"
      (c "uarch.cache.hits") (c "uarch.cache.misses") (c "uarch.tlb.hits")
      (c "uarch.tlb.misses")
      (c "uarch.predictor.hits")
      (c "uarch.predictor.misses")
      (c "uarch.transient_loads")
      (c "uarch.faults.injected");
    Printf.printf "wall time: %.1fs\n" outcome.Campaign.wall_seconds;
    (match csv with
    | None -> ()
    | Some path ->
      Printf.printf "journal: %d experiments written to %s\n"
        (Scamv.Journal.length journal) path);
    (match trace with
    | None -> ()
    | Some path ->
      Scamv_telemetry.Export.to_file path
        (Scamv_telemetry.Export.trace_string outcome.Campaign.telemetry);
      Printf.printf "trace: %d spans written to %s\n"
        (List.length outcome.Campaign.telemetry.Scamv_telemetry.Collector.spans)
        path);
    (match metrics with
    | None -> ()
    | Some path ->
      Scamv_telemetry.Export.to_file path (Scamv_telemetry.Export.prometheus m);
      print_string (Scamv_telemetry.Export.summary_table m);
      Printf.printf "metrics: written to %s\n" path);
    Ok ()
  in
  let term =
    Term.(
      const run $ template_arg $ setup_arg $ isa_arg $ programs_arg $ tests_arg
      $ seed_arg $ verbose_arg $ csv_arg $ resume_arg $ max_conflicts_arg
      $ max_attempts_arg $ confirm_arg $ fault_rate_arg $ fault_seed_arg
      $ deadline_conflicts_arg $ chaos_rate_arg $ chaos_seed_arg $ portfolio_arg
      $ jobs_arg $ trace_arg $ metrics_arg)
  in
  let info =
    Cmd.info "campaign" ~doc:"Run a validation campaign and print Table-1-style statistics."
  in
  Cmd.v info Term.(term_result term)

(* ---- show command ---- *)

let show_cmd =
  let run template_name setup_name isa_name seed =
    let ( let* ) = Result.bind in
    let* isa = usage (Isa.of_string isa_name) in
    let* template = usage (Workload.lookup_template ~isa template_name) in
    let* setup = usage (Workload.lookup_setup setup_name) in
    let { Templates.program; template_name = name } = Gen.generate ~seed template in
    let annotated =
      match program with
      | Isa.Aarch64_program p -> Refinement.annotate setup p
      | Isa.Riscv_program p ->
        Refinement.annotate_arch setup Scamv_riscv.Lift.arch p
    in
    Format.printf "=== template %s instance (%a) ===@.%a@." name Isa.pp isa
      Isa.pp_program program;
    Format.printf "=== instrumented BIR (%s) ===@.%a@." setup.Refinement.name
      Scamv_bir.Program.pp annotated;
    let leaves = Scamv_symbolic.Exec.execute annotated in
    Format.printf "=== symbolic paths ===@.";
    List.iteri
      (fun i l -> Format.printf "--- path %d ---@.%a@." i Scamv_symbolic.Exec.pp_leaf l)
      leaves;
    let cfg = Pipeline.default_config ~isa setup in
    let session = Pipeline.prepare ~seed cfg program in
    (match Pipeline.next_test_case session with
    | Pipeline.Exhausted -> Format.printf "=== no test case (relation unsatisfiable) ===@."
    | Pipeline.Quarantined { pair = p1, p2; reason } ->
      Format.printf "=== path pair (%d,%d) quarantined: %s ===@." p1 p2 reason
    | Pipeline.Crashed { reason } ->
      Format.printf "=== generation crashed: %s ===@." reason
    | Pipeline.Case tc ->
      Format.printf "=== first test case ===@.state 1:@.%a@.state 2:@.%a@."
        Scamv_isa.Machine.pp tc.Pipeline.state1 Scamv_isa.Machine.pp tc.Pipeline.state2);
    Ok ()
  in
  let term = Term.(const run $ template_arg $ setup_arg $ isa_arg $ seed_arg) in
  let info =
    Cmd.info "show"
      ~doc:"Generate one program and show its instrumentation, paths and a test case."
  in
  Cmd.v info Term.(term_result term)

(* ---- diff command ---- *)

let diff_cmd =
  let programs_arg =
    Arg.(
      value & opt int 20
      & info [ "programs"; "p" ] ~docv:"N" ~doc:"Programs to generate per ISA.")
  in
  let tests_arg =
    Arg.(value & opt int 10 & info [ "tests"; "k" ] ~docv:"K" ~doc:"Test cases per program.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print progress events.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Persist both sides' journal rows followed by the diverged \
             records to $(docv).")
  in
  let max_conflicts_arg =
    Arg.(
      value & opt int 0
      & info [ "max-conflicts" ] ~docv:"N"
          ~doc:"SAT budget: conflicts allowed per solver call (0 = unlimited).")
  in
  let portfolio_arg =
    Arg.(
      value & opt int 1
      & info [ "portfolio" ] ~docv:"K" ~doc:"Solver portfolio size.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains per side (0 = all cores).  Output is identical \
             across $(docv) levels for the same seed.")
  in
  let frozen_clock_arg =
    Arg.(
      value & flag
      & info [ "frozen-clock" ]
          ~doc:
            "Zero every measured duration so the journal is a pure function \
             of the parameters (used by the diff-smoke acceptance check).")
  in
  let run template_name setup_name programs tests seed verbose csv max_conflicts
      portfolio jobs frozen =
    let ( let* ) = Result.bind in
    let* () =
      if jobs < 0 then Error (`Msg "--jobs must be at least 0") else Ok ()
    in
    let clock =
      if frozen then Scamv_util.Stopwatch.frozen else Scamv_util.Stopwatch.wall
    in
    let* cfg =
      usage
        (Workload.config ~template:template_name ~setup:setup_name ~isa:`Diff
           ~programs ~tests ~seed ~max_conflicts ~portfolio ~clock ())
    in
    let* () = writable_csv csv in
    let name = cfg.Campaign.name in
    let on_event = if verbose then print_endline else fun _ -> () in
    let journal = Scamv.Journal.create ?path:csv () in
    let outcome =
      Scamv.Diff.run ~on_event ~journal ~jobs ~template:template_name cfg
    in
    Scamv.Journal.close journal;
    print_string
      (Scamv_util.Text_table.render ~header:Stats.header
         ~rows:
           [
             Stats.row
               ~name:(name ^ " [aarch64]")
               outcome.Scamv.Diff.aarch64.Campaign.stats;
             Stats.row ~name:(name ^ " [riscv]")
               outcome.Scamv.Diff.riscv.Campaign.stats;
           ]);
    Printf.printf "cross-ISA: %d path pair(s) compared, %d unmatched, %d divergence(s)\n"
      outcome.Scamv.Diff.compared_pairs outcome.Scamv.Diff.unmatched_pairs
      (List.length outcome.Scamv.Diff.divergences);
    List.iter
      (function
        | Scamv.Journal.Diverged { program_index; pair = p1, p2; aarch64; riscv; _ } ->
          Printf.printf "  program %d pair (%d,%d): aarch64=%s riscv=%s\n"
            program_index p1 p2
            (Scamv.Journal.verdict_string aarch64)
            (Scamv.Journal.verdict_string riscv)
        | _ -> ())
      outcome.Scamv.Diff.divergences;
    (match csv with
    | None -> ()
    | Some path ->
      Printf.printf "journal: %d records written to %s\n"
        (Scamv.Journal.length journal) path);
    Ok ()
  in
  let term =
    Term.(
      const run $ template_arg $ setup_arg $ programs_arg $ tests_arg $ seed_arg
      $ verbose_arg $ csv_arg $ max_conflicts_arg $ portfolio_arg $ jobs_arg
      $ frozen_clock_arg)
  in
  let info =
    Cmd.info "diff"
      ~doc:
        "Run the same (template, setup, seed) campaign on both guest ISAs and \
         report path pairs whose verdicts diverge."
  in
  Cmd.v info Term.(term_result term)

(* ---- models command ---- *)

let models_cmd =
  let run () =
    print_endline "Observational models:";
    List.iter
      (fun (m : Scamv_models.Model.t) ->
        Printf.printf "  %-8s %s\n" m.Scamv_models.Model.name m.Scamv_models.Model.description)
      (Workload.models ());
    print_endline "";
    print_endline "Validation setups (--setup):";
    List.iter (fun (name, _) -> Printf.printf "  %s\n" name) Workload.setups;
    Ok ()
  in
  let info = Cmd.info "models" ~doc:"List the available models and validation setups." in
  Cmd.v info Term.(term_result (const run $ const ()))

(* ---- serve command ---- *)

let serve_cmd =
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to listen on.")
  in
  let port_arg =
    Arg.(
      value & opt int 8421
      & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 = pick a free one).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains, split evenly over the $(b,--concurrency) \
             runners (0 = all cores).  Campaign artifacts are \
             byte-identical across $(docv) levels.")
  in
  let concurrency_arg =
    Arg.(
      value & opt int 1
      & info [ "concurrency" ] ~docv:"K"
          ~doc:
            "Runners: campaigns executed at once.  The $(b,--jobs) budget \
             is split evenly over the $(docv) runners; an idle runner takes \
             the next queued campaign, round-robin over tenants.  A runner \
             of width 1 computes inline on the server's main domain, \
             shared with the HTTP threads, so $(docv) campaigns compute in \
             parallel only when $(b,--jobs) is at least 2*$(docv); below \
             that, $(docv) interleaves campaigns but adds no cores.  \
             Artifacts are byte-identical across $(docv) levels.")
  in
  let max_connections_arg =
    Arg.(
      value & opt int 64
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Connection workers (and the accept-queue bound); overflow \
             connections are answered 503 with Retry-After.")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 5.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Idle time after which a keep-alive connection is closed.")
  in
  let state_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Persist each campaign's journal and metadata under $(docv); \
             without it campaigns are lost on restart.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Adopt the campaigns already recorded in $(b,--state-dir): \
             finished ones become streamable again, interrupted ones are \
             re-enqueued and resumed from their journals.")
  in
  let max_backlog_arg =
    Arg.(
      value & opt int Scamv_service.Tenant.default_quota.Scamv_service.Tenant.max_backlog
      & info [ "max-backlog" ] ~docv:"N"
          ~doc:"Queued campaigns allowed per tenant before submissions get 429.")
  in
  let max_active_arg =
    Arg.(
      value & opt int Scamv_service.Tenant.default_quota.Scamv_service.Tenant.max_active
      & info [ "max-active" ] ~docv:"N"
          ~doc:"Unfinished campaigns allowed per tenant before submissions get 429.")
  in
  let frozen_clock_arg =
    Arg.(
      value & flag
      & info [ "frozen-clock" ]
          ~doc:
            "Zero every measured duration so campaign artifacts are pure \
             functions of their parameters (used by the byte-identity \
             acceptance checks).")
  in
  let run host port jobs concurrency max_connections idle_timeout state_dir
      resume max_backlog max_active frozen =
    let ( let* ) = Result.bind in
    let* () =
      if jobs < 0 then Error (`Msg "--jobs must be at least 0") else Ok ()
    in
    let* () =
      if concurrency < 1 then Error (`Msg "--concurrency must be at least 1")
      else Ok ()
    in
    let* () =
      if max_connections < 1 then
        Error (`Msg "--max-connections must be at least 1")
      else Ok ()
    in
    let* () =
      if idle_timeout <= 0.0 then
        Error (`Msg "--idle-timeout must be positive")
      else Ok ()
    in
    let* () =
      if max_backlog < 1 || max_active < 1 then
        Error (`Msg "--max-backlog and --max-active must be at least 1")
      else Ok ()
    in
    let* () =
      (* A state dir with history from a previous server life must be
         adopted explicitly: silently ignoring it would reuse tenant
         sequence numbers and clobber old journals. *)
      match state_dir with
      | Some dir when (not resume) && Sys.file_exists dir ->
        let stale =
          Sys.readdir dir |> Array.to_list
          |> List.exists (fun f -> Filename.check_suffix f ".meta.json")
        in
        if stale then
          Error
            (`Msg
              (Printf.sprintf
                 "%s already holds campaigns from a previous run; pass \
                  --resume to adopt them or choose a fresh directory"
                 dir))
        else Ok ()
      | _ -> Ok ()
    in
    let config =
      {
        Scamv_service.Scheduler.jobs;
        concurrency;
        state_dir;
        quota =
          { Scamv_service.Tenant.max_backlog; max_active };
        clock =
          (if frozen then Scamv_util.Stopwatch.frozen else Scamv_util.Stopwatch.wall);
      }
    in
    let scheduler = Scamv_service.Scheduler.create ~config () in
    let server =
      Scamv_service.Server.create ~host ~port ~max_connections ~idle_timeout
        scheduler
    in
    let* () =
      try
        Scamv_service.Server.start server;
        Ok ()
      with Unix.Unix_error (e, _, _) ->
        Error (`Msg (Printf.sprintf "cannot listen on %s:%d: %s" host port
                       (Unix.error_message e)))
    in
    Printf.printf "scamv service listening on http://%s:%d\n%!" host
      (Scamv_service.Server.port server);
    (* Block until SIGINT/SIGTERM, then drain cooperatively.  The main
       thread must sleep in short slices: OCaml signal handlers only run
       when some thread reaches a poll point, and with every other
       thread parked in accept(2) or Condition.wait a main thread
       blocked the same way would never wake to see the signal. *)
    let quitting = ref false in
    let request_quit _ = quitting := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_quit);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_quit);
    while not !quitting do
      Thread.delay 0.2
    done;
    prerr_endline "shutting down...";
    Scamv_service.Server.stop server;
    Scamv_service.Scheduler.shutdown scheduler;
    Ok ()
  in
  let term =
    Term.(
      const run $ host_arg $ port_arg $ jobs_arg $ concurrency_arg
      $ max_connections_arg $ idle_timeout_arg $ state_dir_arg $ resume_arg
      $ max_backlog_arg $ max_active_arg $ frozen_clock_arg)
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the campaign-validation service: campaigns over HTTP with \
         streamed NDJSON verdicts, multi-tenant quotas and restartable \
         persistence."
  in
  Cmd.v info Term.(term_result term)

let () =
  let doc = "Validation of side-channel models via observation refinement (MICRO'21)" in
  let info = Cmd.info "scamv" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ campaign_cmd; diff_cmd; show_cmd; models_cmd; serve_cmd ]))
