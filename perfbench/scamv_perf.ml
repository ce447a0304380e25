(* The repository benchmark: three workloads, end-to-end metrics with
   tracing off, and a separate traced run that splits each workload's
   time across the library layers.  See README.md in this directory for
   the workloads, the metrics and why batch timings are kernel-scaled.

     scamv_perf.exe run --workload W --seed N --seconds S --trace 0|1
                        --cli PATH --expected FILE --dir DIR
     scamv_perf.exe golden --workload W     (prints the expected counts)
     scamv_perf.exe ready W DIR             (set-up probe, internal) *)

module Campaign = Scamv.Campaign
module Journal = Scamv.Journal
module Pipeline = Scamv.Pipeline
module Retry = Scamv.Retry
module Stats = Scamv.Stats
module Workload = Scamv_service.Workload
module Json = Scamv_util.Json
module Splitmix = Scamv_util.Splitmix
module Collector = Scamv_telemetry.Collector
module Metrics = Scamv_telemetry.Metrics
module Isa = Scamv_arch.Isa
module Executor = Scamv_microarch.Executor
module Refinement = Scamv_models.Refinement
module Synth = Scamv_relation.Synth

let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("scamv_perf: " ^ m);
      exit 2)
    fmt

(* ---- workloads ---- *)

type spec = {
  template : string;
  setup : string;
  isa : Isa.t;
  programs : int;
  tests : int;
  seed : int64;
}

type workload =
  | Batch of { template : string; setup : string; isa : Isa.t }
      (* a stream of journaled 1-program campaigns, k = 12 *)
  | Served of (string * string * string) list
      (* closed-loop tenants (name, template, setup); 1 program, k = 2 *)

let workloads =
  [
    ("refined-a", Batch { template = "A"; setup = "mct-vs-mspec"; isa = Isa.Aarch64 });
    ("unguided-c-rv64", Batch { template = "C"; setup = "mct-unguided"; isa = Isa.Riscv });
    ( "served-small",
      Served
        [ ("tenant-d", "D", "mct-vs-mspec-sl"); ("tenant-stride", "stride", "mpart-vs-mpart'") ] );
  ]

let batch_tests = 12
let served_tests = 2

(* Seed of the default-seed output check (the CLI's default seed). *)
let golden_seed = 2021

(* Campaign [k] of stream [stream] under run seed [seed]: a pure
   function, non-negative so the service accepts it as a decimal. *)
let derive_seed seed ~stream k =
  let g =
    Splitmix.of_seed
      (Int64.logxor (Int64.of_int seed)
         (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int ((stream * 1_000_003) + k + 1))))
  in
  Int64.shift_right_logical (fst (Splitmix.next g)) 1

let batch_spec ~template ~setup ~isa seed k =
  { template; setup; isa; programs = 1; tests = batch_tests; seed = derive_seed seed ~stream:0 k }

let served_spec (_, template, setup) ~tenant_index seed k =
  {
    template;
    setup;
    isa = Isa.Aarch64;
    programs = 1;
    tests = served_tests;
    seed = derive_seed seed ~stream:(tenant_index + 1) k;
  }

let get_ok what = function Ok v -> v | Error m -> die "%s: %s" what m

let campaign_config spec =
  let template = get_ok "template" (Workload.lookup_template ~isa:spec.isa spec.template) in
  let setup = get_ok "setup" (Workload.lookup_setup spec.setup) in
  Campaign.make
    ~name:(Workload.campaign_name ~setup:spec.setup ~template:spec.template)
    ~isa:spec.isa ~template ~setup ~view:(Workload.view_for spec.setup)
    ~programs:spec.programs ~tests_per_program:spec.tests ~seed:spec.seed ()

(* ---- small helpers ---- *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755

let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  In_channel.with_open_text path In_channel.input_lines
  |> List.find_map (fun l ->
         if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
           Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
               Some (fi kb /. 1024.0))
         else None)
  |> Option.value ~default:0.0

(* Timing fields vary run to run; everything else in an event must not. *)
let zero_times = function
  | Journal.Experiment e ->
    Journal.Experiment { e with Journal.generation_seconds = 0.0; execution_seconds = 0.0 }
  | ev -> ev

let record_line ev =
  Json.to_string (Json.Obj [ ("record", Journal.event_to_json (zero_times ev)) ])

let normalize_served_line line =
  match Json.of_string line with
  | Json.Obj [ ("record", Json.Obj fields) ] ->
    Some
      (Json.to_string
         (Json.Obj
            [
              ( "record",
                Json.Obj
                  (List.map
                     (function
                       | ("gen_seconds" | "exe_seconds") as k, _ -> (k, Json.Num 0.0)
                       | kv -> kv)
                     fields) );
            ]))
  | _ -> None
  | exception _ -> None

(* ---- output checks ---- *)

let failed_checks = ref 0

let fail_check fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("scamv_perf: check failed: " ^ m);
      incr failed_checks)
    fmt

(* The exact work counts of a fixed default-seed prefix, compared with
   the committed expectation. *)
let golden_stats = [ "experiments"; "counterexamples"; "inconclusive" ]

let golden_counters =
  [ "uarch.cache.hits"; "uarch.cache.misses"; "uarch.transient_loads"; "sat.conflicts";
    "sat.propagations"; "sat.queries" ]

let golden_specs = function
  | Batch { template; setup; isa } -> List.init 6 (batch_spec ~template ~setup ~isa golden_seed)
  | Served tenants ->
    List.concat
      (List.mapi
         (fun tenant_index t -> List.init 4 (served_spec t ~tenant_index golden_seed))
         tenants)

let golden_counts workload =
  let outcomes = List.map (fun spec -> Campaign.run (campaign_config spec)) (golden_specs workload) in
  let total f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let stat = function
    | "experiments" -> fun s -> s.Stats.experiments
    | "counterexamples" -> fun s -> s.Stats.counterexamples
    | _ -> fun s -> s.Stats.inconclusive
  in
  List.map (fun k -> (k, total (fun o -> stat k o.Campaign.stats))) golden_stats
  @ List.map
      (fun k -> (k, total (fun o -> Metrics.counter o.Campaign.telemetry.Collector.metrics k)))
      golden_counters

let check_golden ~expected_file name workload =
  let expected =
    match Json.member name (Json.of_string (In_channel.with_open_bin expected_file In_channel.input_all)) with
    | Some v -> v
    | None -> die "%s has no entry for %s" expected_file name
    | exception Sys_error m -> die "%s" m
  in
  List.iter
    (fun (k, got) ->
      match Option.bind (Json.member k expected) Json.to_float with
      | Some want when int_of_float want = got -> ()
      | Some want -> fail_check "default-seed %s: %s = %d, expected %.0f" name k got want
      | None -> fail_check "default-seed %s: no expected value for %s" name k)
    (golden_counts workload)

(* ---- set-up probes ---- *)

let ready workload_name dir =
  (match List.assoc_opt workload_name workloads with
  | Some (Batch { template; setup; isa }) ->
    let cfg = campaign_config (batch_spec ~template ~setup ~isa 0 0) in
    let journal = Journal.create ~path:(Filename.concat dir "ready.journal") () in
    ignore (Sys.opaque_identity cfg);
    print_endline "ready";
    Journal.close journal
  | _ -> die "no batch workload %s" workload_name);
  exit 0

let read_line_fd fd =
  let b = Buffer.create 64 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> ()
    | _ when Bytes.get c 0 = '\n' -> ()
    | _ ->
      Buffer.add_char b (Bytes.get c 0);
      go ()
  in
  go ();
  Buffer.contents b

(* Launch [argv], returning the time to its first output line and that
   line. *)
let launch_to_line argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let line = read_line_fd r in
  let dt = now () -. t0 in
  Unix.close r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (dt, line)
  | _ -> (dt, "")

(* Set-up times are rescaled like the batch timings, but by a reference
   of their own kind: the launch of [spawn_ref.exe], a stdlib-only
   program that prints one line.  Process launch is not memory-bound,
   so the hash-table kernel does not track it; the host's launch speed
   moves by up to 40% between quiet and busy periods, while the ratio
   of a set-up launch to the reference launches next to it repeats
   within a few percent.  One reference launch defines
   [Kernel.spawn_reference_s]. *)
let spawn_ref_exe = Filename.concat (Filename.dirname Sys.executable_name) "spawn_ref.exe"

let spawn_ref () =
  match launch_to_line [| spawn_ref_exe |] with
  | dt, "ready" -> dt
  | _ -> die "%s did not start" spawn_ref_exe

(* One set-up sample: [launch ()] between two reference launches. *)
let scaled_launch launch =
  let r1 = spawn_ref () in
  let d = launch () in
  let r2 = spawn_ref () in
  (d, d *. Kernel.spawn_reference_s /. ((r1 +. r2) /. 2.0))

let batch_ready workload_name dir () =
  match launch_to_line [| Sys.executable_name; "ready"; workload_name; dir |] with
  | dt, "ready" -> dt
  | _ ->
    fail_check "set-up probe for %s did not report ready" workload_name;
    0.0

let report_setup samples =
  Printf.printf "# set-up: %d launches, raw median %.3f ms, scaled median %.3f ms\n"
    (List.length samples)
    (1000. *. median (List.map fst samples))
    (1000. *. median (List.map snd samples));
  median (List.map snd samples)

(* Batch set-up launches are spread evenly over the timed loop (a burst
   would sample one host state) and kept out of the loop's intervals.
   Returns the hook for [batch_loop] and a function giving the median. *)
let setup_launches workload_name dir ~seconds =
  let count = 21 in
  let start = now () and samples = ref [] in
  let launch () = scaled_launch (batch_ready workload_name dir) in
  let hook scaler =
    let due = start +. (seconds *. fi (List.length !samples) /. fi count) in
    if List.length !samples < count && now () >= due then
      Kernel.excluded scaler (fun () -> samples := launch () :: !samples)
  in
  let finish () =
    while List.length !samples < count do
      samples := launch () :: !samples
    done;
    report_setup !samples
  in
  (hook, finish)

(* ---- served-workload plumbing ---- *)

type server = { pid : int; port : int; out : Unix.file_descr; started : float; healthy : float }

let rec healthz port deadline =
  match Http_client.connect port with
  | c ->
    let status = try fst (Http_client.request c "GET" "/healthz" "") with _ -> 0 in
    Http_client.close c;
    if status = 200 then now ()
    else if now () > deadline then die "server on port %d never became healthy" port
    else healthz port deadline
  | exception Unix.Unix_error _ ->
    if now () > deadline then die "server on port %d refused connections" port;
    Unix.sleepf 0.0005;
    healthz port deadline

(* Servers still running when the bench exits (a failed check or a
   [die] mid-run) are stopped on the way out. *)
let live_servers = ref []

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live_servers := List.filter (( <> ) pid) !live_servers

let () = at_exit (fun () -> List.iter reap !live_servers)

let start_server cli state_dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let started = now () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--port"; "0"; "--state-dir"; state_dir |]
      Unix.stdin w Unix.stderr
  in
  live_servers := pid :: !live_servers;
  Unix.close w;
  let line = read_line_fd r in
  let port =
    match String.rindex_opt line ':' with
    | Some i -> (
      match int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
      | Some p -> p
      | None -> die "unexpected server banner %S" line)
    | None -> die "unexpected server banner %S" line
  in
  let healthy = healthz port (now () +. 20.0) in
  { pid; port; out = r; started; healthy }

let stop_server s =
  reap s.pid;
  Unix.close s.out

let served_setup_s cli dir =
  List.init 15 (fun i ->
      scaled_launch (fun () ->
          let s = start_server cli (Filename.concat dir (Printf.sprintf "setup-%d" i)) in
          stop_server s;
          s.healthy -. s.started))
  |> report_setup

type served_campaign = {
  spec : spec;
  t_submit : float;  (* before POST *)
  t_admitted : float;  (* 201 received *)
  t_first : float;  (* first record line *)
  t_done : float;  (* done line *)
  t_status : float;  (* status response received *)
  lines : string list;  (* record lines in arrival order *)
  ok : bool;
}

let spec_body ~tenant spec =
  Json.to_string
    (Json.Obj
       ([
          ("tenant", Json.Str tenant);
          ("template", Json.Str spec.template);
          ("setup", Json.Str spec.setup);
          ("programs", Json.Num (fi spec.programs));
          ("tests_per_program", Json.Num (fi spec.tests));
          ("seed", Json.Str (Int64.to_string spec.seed));
        ]
       @ match spec.isa with Isa.Aarch64 -> [] | isa -> [ ("isa", Json.Str (Isa.to_string isa)) ]))

(* Submit, stream to the done line, then read the status. *)
let serve_one conn ~tenant spec =
  let t_submit = now () in
  let status, body = Http_client.request conn "POST" "/campaigns" (spec_body ~tenant spec) in
  let t_admitted = now () in
  let failed = { spec; t_submit; t_admitted; t_first = t_admitted; t_done = t_admitted;
                 t_status = t_admitted; lines = []; ok = false } in
  if status <> 201 then failed
  else
    match Option.bind (Json.member "id" (Json.of_string body)) Json.to_str with
    | None -> failed
    | Some id ->
      let t_first = ref 0.0 and t_done = ref 0.0 and lines = ref [] and done_ok = ref false in
      let st, _ =
        Http_client.stream conn ("/campaigns/" ^ id ^ "/stream") (fun line ->
            let t = now () in
            if String.starts_with ~prefix:"{\"record\"" line then begin
              if !t_first = 0.0 then t_first := t;
              lines := line :: !lines
            end
            else begin
              t_done := t;
              done_ok :=
                Option.bind (Json.member "done" (Json.of_string line)) Json.to_str
                = Some "completed"
            end)
      in
      let sst, sbody = Http_client.request conn "GET" ("/campaigns/" ^ id) "" in
      let t_status = now () in
      let completed =
        sst = 200
        && Option.bind (Json.member "state" (Json.of_string sbody)) Json.to_str = Some "completed"
      in
      {
        spec;
        t_submit;
        t_admitted;
        t_first = (if !t_first = 0.0 then !t_done else !t_first);
        t_done = !t_done;
        t_status;
        lines = List.rev !lines;
        ok = st = 200 && !done_ok && completed;
      }

(* A served campaign's record lines must be byte-identical to the
   batch run of its spec, timing fields zeroed. *)
let served_matches (s : served_campaign) events =
  List.map normalize_served_line s.lines = List.map (fun ev -> Some (record_line ev)) events

(* ---- traced driver ---- *)

(* Per-program layer times (raw seconds) from one traced program. *)
type layers = {
  mutable gen : float;
  mutable annotate : float;
  mutable symexec : float;
  mutable synth : float;
  mutable prepare : float;  (* whole Pipeline.prepare, nested layers included *)
  mutable next_case : float;
  mutable run : float;
  mutable journal : float;
}

let zero_layers () =
  { gen = 0.; annotate = 0.; symexec = 0.; synth = 0.; prepare = 0.; next_case = 0.; run = 0.;
    journal = 0. }

let timed acc f =
  let t0 = now () in
  let v = f () in
  acc (now () -. t0);
  v

let annotate setup = function
  | Isa.Aarch64_program p -> Refinement.annotate_arch setup Scamv_bir.Arch.aarch64 p
  | Isa.Riscv_program p -> Refinement.annotate_arch setup Scamv_riscv.Lift.arch p

(* One campaign through the layers' public calls, program by program,
   replaying exactly what Campaign.run does for it.  [scaler] takes a
   boundary after every program; the standalone annotate / symexec /
   synth calls (which repeat work Pipeline.prepare does internally) are
   kept out of the program's interval.  Returns the events, the merged
   telemetry and one (layers, interval index) per program. *)
let traced_campaign scaler ~journal_path (cfg : Campaign.config) =
  let pc = { (cfg.Campaign.pipeline cfg.Campaign.setup) with Pipeline.isa = cfg.Campaign.isa } in
  let pc = { pc with Pipeline.chaos = cfg.Campaign.chaos; portfolio = cfg.Campaign.portfolio } in
  let synth_cfg =
    { Synth.platform = pc.Pipeline.platform;
      require_refined_difference = Refinement.has_refinement cfg.Campaign.setup }
  in
  let journal = Journal.create ~path:journal_path () in
  let rng = ref (Splitmix.of_seed cfg.Campaign.seed) in
  let streams =
    Array.init cfg.Campaign.programs (fun _ ->
        let s, r = Splitmix.split !rng in
        rng := r;
        s)
  in
  let events_rev = ref [] and report = ref Collector.empty_report and per_program = ref [] in
  for program_index = 0 to cfg.Campaign.programs - 1 do
    let l = zero_layers () in
    let collector = Collector.create ~track:(program_index + 1) () in
    let inside f = Collector.with_current collector f in
    let emitted = ref [] in
    let emit ev = emitted := ev :: !emitted in
    (try
       let { Scamv_gen.Templates.program; template_name }, prng =
         inside (fun () ->
             timed (fun d -> l.gen <- d) (fun () -> Scamv_gen.Gen.run cfg.Campaign.template streams.(program_index)))
       in
       Kernel.excluded scaler (fun () ->
           let bir = timed (fun d -> l.annotate <- d) (fun () -> annotate cfg.Campaign.setup program) in
           let leaves =
             timed (fun d -> l.symexec <- d) (fun () ->
                 Scamv_symbolic.Exec.execute ~max_steps:pc.Pipeline.max_steps bir)
           in
           timed (fun d -> l.synth <- d) (fun () ->
               let prepared = Synth.prepare synth_cfg leaves in
               List.iter
                 (fun pair -> ignore (Synth.pair_relation_prepared prepared pair))
                 (Synth.compatible_pairs leaves)));
       inside (fun () ->
           let pipeline_seed, prng = Splitmix.next prng in
           let prng = ref prng in
           let session =
             timed (fun d -> l.prepare <- d) (fun () -> Pipeline.prepare ~seed:pipeline_seed pc program)
           in
           let test_index = ref 0 and continue = ref true in
           while !continue && !test_index < cfg.Campaign.tests_per_program do
             match timed (fun d -> l.next_case <- l.next_case +. d) (fun () -> Pipeline.next_test_case session) with
             | Pipeline.Exhausted -> continue := false
             | Pipeline.Crashed { reason } ->
               continue := false;
               emit (Journal.Crashed { campaign = cfg.Campaign.name; program_index; reason })
             | Pipeline.Quarantined { pair; reason } ->
               emit (Journal.Quarantined { campaign = cfg.Campaign.name; program_index; pair; reason })
             | Pipeline.Case tc ->
               let experiment =
                 { Executor.program; state1 = tc.Pipeline.state1; state2 = tc.Pipeline.state2;
                   train = tc.Pipeline.train }
               in
               let outcome =
                 Retry.execute cfg.Campaign.retry (fun ~attempt:_ ->
                     let exp_seed, r = Splitmix.next !prng in
                     prng := r;
                     timed (fun d -> l.run <- l.run +. d) (fun () ->
                         Executor.run_observed ~seed:exp_seed ?faults:cfg.Campaign.faults
                           cfg.Campaign.executor experiment))
               in
               emit
                 (Journal.Experiment
                    { Journal.campaign = cfg.Campaign.name; program_index; test_index = !test_index;
                      template = template_name; path_pair = tc.Pipeline.pair;
                      verdict = outcome.Retry.verdict; generation_seconds = 0.0;
                      execution_seconds = 0.0; retries = outcome.Retry.retries;
                      faults = outcome.Retry.faults; isa = cfg.Campaign.isa });
               incr test_index
           done)
     with
    | (Stack_overflow | Out_of_memory | Sys.Break) as e -> raise e
    | exn ->
      emit
        (Journal.Program_failed
           { campaign = cfg.Campaign.name; program_index; reason = Printexc.to_string exn }));
    let evs = List.rev !emitted in
    List.iter (fun ev -> timed (fun d -> l.journal <- l.journal +. d) (fun () -> Journal.record_event journal ev)) evs;
    events_rev := List.rev_append evs !events_rev;
    report := Collector.merge_reports !report (Collector.report collector);
    per_program := (l, Kernel.boundary scaler) :: !per_program
  done;
  Journal.close journal;
  (List.rev !events_rev, !report, List.rev !per_program)

(* Resolve the traced programs' interval indexes once the scaler has
   seen every kernel run. *)
let with_intervals scaler traced =
  let ivs = Kernel.intervals scaler in
  List.map (fun (report, progs) -> (report, List.map (fun (l, i) -> (l, ivs.(i))) progs)) traced

(* ---- metric output ---- *)

let print_metrics ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%-36s %14.6g %s\n" name v unit) metrics;
  let correct = !failed_checks = 0 && failed = 0 && attempted > 0 in
  let failed = failed + !failed_checks + if attempted = 0 then 1 else 0 in
  let attempted = max 1 attempted in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics))

(* ---- batch workloads ---- *)

type batch_campaign = {
  bspec : spec;
  journal_path : string;
  events : Journal.event list;
  latency : Kernel.interval;  (* from the previous boundary to this campaign's first record *)
  completed : bool;
  stats : Stats.t;
}

(* Journaled campaigns back to back, [next k] giving the [k]th spec until
   it returns [None].  The kernel runs from [on_record] at each
   campaign's first record (the program boundary), so each campaign's
   latency is one scaled interval. *)
let batch_loop ?(on_boundary = fun _ -> ()) ~dir next =
  let scaler = Kernel.create () in
  let boundary () =
    let i = Kernel.boundary scaler in
    on_boundary scaler;
    i
  in
  let rec go k acc =
    match next k with
    | None -> List.rev acc
    | Some spec ->
      let journal_path = Filename.concat dir (Printf.sprintf "c%05d.journal" k) in
      let journal = Journal.create ~path:journal_path () in
      let seen = ref [] and latency = ref None in
      let on_record ev =
        if !latency = None then latency := Some (boundary ());
        seen := ev :: !seen
      in
      let o = Campaign.run ~on_record ~journal (campaign_config spec) in
      Journal.close journal;
      let latency = match !latency with Some i -> i | None -> boundary () in
      go (k + 1) ((spec, journal_path, List.rev !seen, latency, o.Campaign.stats) :: acc)
  in
  let raw = go 0 [] in
  let ivs = Kernel.intervals scaler in
  let cs =
    List.map
      (fun (bspec, journal_path, events, i, s) ->
        { bspec; journal_path; events; latency = ivs.(i);
          completed = s.Stats.skipped_programs = 0 && s.Stats.crashed_programs = 0; stats = s })
      raw
  in
  (cs, scaler)

let timed_specs ~seconds spec =
  let t_end = now () +. seconds in
  fun k -> if now () >= t_end then None else Some (spec k)

let journal_events c = List.map zero_times (Journal.events (fst (Journal.load ~path:c.journal_path)))

(* The journal file of every campaign must hold exactly the records
   Campaign.run delivered. *)
let check_journals name cs =
  List.iter
    (fun c ->
      if journal_events c <> List.map zero_times c.events then
        fail_check "%s: journal of seed %Ld does not match its records" name c.bspec.seed)
    cs

(* The same campaigns through the traced driver; each traced event
   sequence must equal the campaign's journal. *)
let trace_campaigns name ~dir cs =
  let scaler = Kernel.create () in
  List.mapi
    (fun k c ->
      let journal_path = Filename.concat dir (Printf.sprintf "t%05d.journal" k) in
      let events, report, progs = traced_campaign scaler ~journal_path (campaign_config c.bspec) in
      if List.map zero_times events <> journal_events c then
        fail_check "%s: traced verdicts of seed %Ld differ from Campaign.run's journal" name
          c.bspec.seed;
      (report, progs))
    cs
  |> with_intervals scaler

let batch_summary cs =
  let exps = List.fold_left (fun a c -> a + c.stats.Stats.experiments) 0 cs in
  let scaled = sum (List.map (fun c -> c.latency.Kernel.scaled_s) cs) in
  let raw = sum (List.map (fun c -> c.latency.Kernel.raw_s) cs) in
  (exps, scaled, raw)

(* [served] timings are raw; [compute] is the in-process raw time of the
   same specs. *)
let service_metrics served compute =
  let m f = mean (List.map f served) in
  [
    ("service.submit_s", m (fun s -> s.t_admitted -. s.t_submit), "s");
    ("service.first_record_s", m (fun s -> s.t_first -. s.t_admitted), "s");
    ("service.stream_s", m (fun s -> s.t_done -. s.t_admitted), "s");
    ("service.status_s", m (fun s -> s.t_status -. s.t_done), "s");
    ("service.compute_s", mean compute, "s");
  ]

let layer_metrics ~cs ~traced ~service ~attempted ~failed =
  let report = List.fold_left (fun a (r, _) -> Collector.merge_reports a r) Collector.empty_report traced in
  let progs = List.concat_map snd traced in
  let np = fi (max 1 (List.length progs)) in
  let scaled_mean f =
    sum (List.map (fun (l, iv) -> f l *. ratio iv.Kernel.scaled_s iv.Kernel.raw_s) progs) /. np
  in
  let m = report.Collector.metrics in
  let c k = fi (Metrics.counter m k) in
  let exps = c "uarch.experiments" in
  let stats = List.fold_left (fun a c -> Stats.merge a c.stats) Stats.empty cs in
  let _, untraced_scaled, _ = batch_summary cs in
  let traced_scaled = sum (List.map (fun (_, iv) -> iv.Kernel.scaled_s) progs) in
  let program_s = traced_scaled /. np in
  let covered l = l.gen +. l.prepare +. l.next_case +. l.run +. l.journal in
  let hits = c "smt.blast_cache_hits" and misses = c "smt.blast_cache_misses" in
  Printf.printf "# traced: %d programs, raw %.6f s per program, scaled %.6f s per program\n"
    (List.length progs) (sum (List.map (fun (_, iv) -> iv.Kernel.raw_s) progs) /. np) program_s;
  print_metrics ~attempted ~failed
    ([
       ("generator.gen_s", scaled_mean (fun l -> l.gen), "s");
       ("models.annotate_s", scaled_mean (fun l -> l.annotate), "s");
       ("symbolic.exec_s", scaled_mean (fun l -> l.symexec), "s");
       ("relation.synth_s", scaled_mean (fun l -> l.synth), "s");
       ( "pipeline.prepare_s",
         scaled_mean (fun l -> Float.max 0.0 (l.prepare -. l.annotate -. l.symexec -. l.synth)),
         "s" );
       ("pipeline.next_case_s", scaled_mean (fun l -> l.next_case), "s");
       ("microarch.run_s", scaled_mean (fun l -> l.run), "s");
       ("journal.append_s", scaled_mean (fun l -> l.journal), "s");
       ("smt.blast_misses_per_program", misses /. np, "count");
       ("smt.blast_hit_ratio", ratio hits (hits +. misses), "ratio");
       ("smt.sat_conflicts_per_exp", ratio (c "sat.conflicts") exps, "count");
       ("smt.sat_propagations_per_exp", ratio (c "sat.propagations") exps, "count");
       ("smt.sat_queries_per_exp", ratio (c "sat.queries") exps, "count");
       ("microarch.runs_per_exp", ratio (fi (Metrics.histogram_n m "span.run.seconds")) exps, "count");
       ("microarch.cache_misses_per_exp", ratio (c "uarch.cache.misses") exps, "count");
       ("microarch.transient_loads_per_exp", ratio (c "uarch.transient_loads") exps, "count");
     ]
    @ service
    @ [
        ("campaign.counterexample_share", ratio (fi stats.Stats.counterexamples) (fi stats.Stats.experiments), "share");
        ("campaign.inconclusive_share", ratio (fi stats.Stats.inconclusive) (fi stats.Stats.experiments), "share");
        ("trace.program_s", program_s, "s");
        ("trace.covered_share", ratio (scaled_mean covered) program_s, "share");
        ("trace.overhead_share", ratio traced_scaled untraced_scaled -. 1.0, "share");
      ])

(* A short served probe of a batch workload's own first campaigns: gives
   the service-layer timings and checks served = batch for its spec. *)
let served_probe ~name ~cli ~dir cs =
  let sample = List.filteri (fun i _ -> i < 8) cs in
  let server = start_server cli (Filename.concat dir "probe-state") in
  let conn = Http_client.connect server.port in
  let served =
    List.map
      (fun c ->
        let s = serve_one conn ~tenant:"probe" c.bspec in
        if not (s.ok && served_matches s c.events) then
          fail_check "%s: served campaign (seed %Ld) failed or differs from batch" name c.bspec.seed;
        s)
      sample
  in
  Http_client.close conn;
  stop_server server;
  service_metrics served (List.map (fun c -> c.latency.Kernel.raw_s) sample)

let run_batch ~name ~workload ~dir ~seed ~seconds ~trace ~cli ~expected =
  let template, setup, isa =
    match workload with Batch { template; setup; isa } -> (template, setup, isa) | Served _ -> assert false
  in
  let jdir = Filename.concat dir "journals" in
  fresh_dir jdir;
  let spec = batch_spec ~template ~setup ~isa seed in
  if not trace then begin
    check_golden ~expected_file:expected name workload;
    let on_boundary, setup_samples = setup_launches name dir ~seconds in
    let cs, scaler = batch_loop ~on_boundary ~dir:jdir (timed_specs ~seconds spec) in
    let setup_s = setup_samples () in
    let rss = peak_rss_mb 0 in
    check_journals name cs;
    let exps, scaled, raw = batch_summary cs in
    let n = List.length cs in
    let failed = List.length (List.filter (fun c -> not c.completed) cs) in
    let lat = List.map (fun c -> c.latency.Kernel.scaled_s) cs in
    let raw_lat = List.map (fun c -> c.latency.Kernel.raw_s) cs in
    let kernels = Kernel.kernels scaler in
    Printf.printf "# %s seed %d: %d campaigns, %d experiments\n" name seed n exps;
    Printf.printf "# raw host seconds %.4f, reference-scaled seconds %.4f\n" raw scaled;
    Printf.printf "# raw experiments/s %.3f, scaled experiments/s %.3f\n" (fi exps /. raw) (fi exps /. scaled);
    Printf.printf "# campaign latency: raw p50 %.5f s, p95 %.5f s; scaled p50 %.5f s, p95 %.5f s\n"
      (median raw_lat) (quantile raw_lat 0.95) (median lat) (quantile lat 0.95);
    Printf.printf "# kernel: %d runs, median %.3f ms, p5 %.3f ms, p95 %.3f ms, %.3f s in total (excluded)\n"
      (List.length kernels) (1000. *. median kernels) (1000. *. quantile kernels 0.05)
      (1000. *. quantile kernels 0.95) (Kernel.kernel_total scaler);
    print_metrics ~attempted:n ~failed
      [
        ("experiments_per_s", ratio (fi exps) scaled, "1/s");
        ("campaigns_per_s", ratio (fi n) scaled, "1/s");
        ("campaign_p50_s", median lat, "s");
        ("campaign_p95_s", quantile lat 0.95, "s");
        ("setup_s", setup_s, "s");
        ("peak_rss_mb", rss, "MB");
        ("completed_share", ratio (fi (n - failed)) (fi n), "share");
      ]
  end
  else begin
    (* Untraced half, then the same campaigns through the traced driver. *)
    let cs, _ = batch_loop ~dir:jdir (timed_specs ~seconds:(seconds /. 2.0) spec) in
    let traced = trace_campaigns name ~dir:jdir cs in
    let service = served_probe ~name ~cli ~dir cs in
    layer_metrics ~cs ~traced ~service ~attempted:(List.length cs)
      ~failed:(List.length (List.filter (fun c -> not c.completed) cs))
  end

(* ---- served workload ---- *)

let served_loop ~cli ~dir ~seed ~seconds tenants =
  let server = start_server cli (Filename.concat dir "state") in
  let kernels_before = List.init 5 (fun _ -> Kernel.timed ()) in
  let t_end = now () +. seconds in
  let results = Array.make (List.length tenants) [] in
  let t0 = now () in
  let threads =
    List.mapi
      (fun tenant_index ((tenant, _, _) as t) ->
        Thread.create
          (fun () ->
            let conn = Http_client.connect server.port in
            let rec go k acc =
              if now () >= t_end then acc
              else
                let spec = served_spec t ~tenant_index seed k in
                let c =
                  try serve_one conn ~tenant spec
                  with e ->
                    prerr_endline ("scamv_perf: request failed: " ^ Printexc.to_string e);
                    Http_client.close conn;
                    let t = now () in
                    { spec; t_submit = t; t_admitted = t; t_first = t; t_done = t; t_status = t;
                      lines = []; ok = false }
                in
                go (k + 1) (c :: acc)
            in
            results.(tenant_index) <- List.rev (go 0 []);
            Http_client.close conn)
          ())
      tenants
  in
  List.iter Thread.join threads;
  let elapsed = now () -. t0 in
  let kernels_after = List.init 5 (fun _ -> Kernel.timed ()) in
  let rss = peak_rss_mb server.pid in
  stop_server server;
  (* Submission order, so samples taken from the front mix both tenants. *)
  let all = List.sort (fun a b -> compare a.t_submit b.t_submit) (List.concat (Array.to_list results)) in
  (all, elapsed, rss, kernels_before @ kernels_after)

(* In-process batch runs of served campaigns' specs, each compared with
   what was served. *)
let batch_of_served name ~dir served =
  let cs, _ = batch_loop ~dir (fun k -> Option.map (fun s -> s.spec) (List.nth_opt served k)) in
  List.iter2
    (fun s c ->
      if not (served_matches s c.events) then
        fail_check "%s: served campaign (seed %Ld) differs from batch" name c.bspec.seed)
    served cs;
  cs

let run_served ~name ~workload ~dir ~seed ~seconds ~trace ~cli ~expected =
  let tenants = match workload with Served t -> t | Batch _ -> assert false in
  let jdir = Filename.concat dir "journals" in
  fresh_dir jdir;
  if not trace then begin
    let setup_s = served_setup_s cli dir in
    check_golden ~expected_file:expected name workload;
    let all, elapsed, rss, kernels = served_loop ~cli ~dir ~seed ~seconds tenants in
    let ok = List.filter (fun c -> c.ok) all in
    let n = List.length all and nok = List.length ok in
    (* Every (n/8)th completed campaign from a seed-chosen offset: eight
       or nine per run, both tenants' templates among them. *)
    if nok > 0 then begin
      let step = max 1 (nok / 8) in
      let offset = seed land max_int mod step in
      ignore (batch_of_served name ~dir:jdir (List.filteri (fun i _ -> i mod step = offset) ok))
    end;
    let lat = List.map (fun c -> c.t_done -. c.t_submit) ok in
    let is_experiment l = String.starts_with ~prefix:"{\"record\":{\"kind\":\"experiment\"" l in
    let exps = List.fold_left (fun a c -> a + List.length (List.filter is_experiment c.lines)) 0 ok in
    Printf.printf "# %s seed %d: %d campaigns (%d completed), %d experiments, %.3f s wall\n" name
      seed n nok exps elapsed;
    Printf.printf "# kernel (before/after the loop, not used for scaling): median %.3f ms\n"
      (1000. *. median kernels);
    print_metrics ~attempted:n ~failed:(n - nok)
      [
        ("experiments_per_s", fi exps /. elapsed, "1/s");
        ("campaigns_per_s", fi nok /. elapsed, "1/s");
        ("campaign_p50_s", median lat, "s");
        ("campaign_p95_s", quantile lat 0.95, "s");
        ("setup_s", setup_s, "s");
        ("peak_rss_mb", rss, "MB");
        ("completed_share", ratio (fi nok) (fi n), "share");
      ]
  end
  else begin
    let all, _, _, _ = served_loop ~cli ~dir ~seed ~seconds:(seconds /. 2.0) tenants in
    let ok = List.filter (fun c -> c.ok) all in
    (* The layer split comes from the traced driver over a sample of the
       served campaigns' specs; their in-process time is the compute
       share of the served latency. *)
    let sample = List.filteri (fun i _ -> i < 120) ok in
    let cs = batch_of_served name ~dir:jdir sample in
    let traced = trace_campaigns name ~dir:jdir cs in
    let service = service_metrics ok (List.map (fun c -> c.latency.Kernel.raw_s) cs) in
    layer_metrics ~cs ~traced ~service ~attempted:(List.length all)
      ~failed:(List.length all - List.length ok)
  end

(* ---- command line ---- *)

let () =
  match Array.to_list Sys.argv with
  | [ _; "ready"; w; dir ] -> ready w dir
  | [ _; "golden"; "--workload"; w ] ->
    let workload = match List.assoc_opt w workloads with Some x -> x | None -> die "unknown workload %s" w in
    print_endline
      (Json.to_string
         (Json.Obj (List.map (fun (k, v) -> (k, Json.Num (fi v))) (golden_counts workload))))
  | _ :: "run" :: args ->
    let rec opts acc = function
      | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) tl
      | [] -> acc
      | a :: _ -> die "unexpected argument %s" a
    in
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> die "missing --%s" k in
    let int k = match int_of_string_opt (get k) with Some v -> v | None -> die "--%s wants an integer" k in
    let name = get "workload" in
    let workload = match List.assoc_opt name workloads with Some w -> w | None -> die "unknown workload %s" name in
    let seed = int "seed" and seconds = fi (int "seconds") and trace = int "trace" = 1 in
    let cli = get "cli" and expected = get "expected" and dir = get "dir" in
    if not (Sys.file_exists cli) then die "server binary %s is missing" cli;
    fresh_dir dir;
    let run = match workload with Batch _ -> run_batch | Served _ -> run_served in
    run ~name ~workload ~dir ~seed ~seconds ~trace ~cli ~expected;
    rm_rf dir
  | _ -> die "usage: scamv_perf.exe run --workload W --seed N --seconds S --trace 0|1 ..."
