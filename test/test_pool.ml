(* Deterministic worker pool, pure stats/summary merges, the JSON
   emitter, and the multicore campaign acceptance test: a seeded
   fault-injected campaign run at --jobs 4 must produce byte-identical
   journal output and identical statistics to --jobs 1. *)

module Pool = Scamv_util.Pool
module Json = Scamv_util.Json
module Summary = Scamv_util.Summary
module Stopwatch = Scamv_util.Stopwatch
module Campaign = Scamv.Campaign
module Journal = Scamv.Journal
module Retry = Scamv.Retry
module Stats = Scamv.Stats
module Sat = Scamv_smt.Sat
module Faults = Scamv_microarch.Faults
module Executor = Scamv_microarch.Executor
module Templates = Scamv_gen.Templates
module Refinement = Scamv_models.Refinement

let temp_path name =
  let path = Filename.temp_file "scamv_pool" name in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* ---- pool ---- *)

(* [(i, worker i)] for every index, in the order the consumer saw them. *)
let consumed ~jobs ~tasks worker =
  let order = ref [] in
  Pool.run_supervised ~jobs ~tasks ~worker
    ~consume:(fun i -> function
      | Ok v -> order := (i, v) :: !order
      | Error { Pool.exn; _ } -> raise exn)
    ();
  List.rev !order

let test_pool_ordering_adversarial () =
  (* Workers finish in roughly reverse index order (later items are much
     faster), yet the consumer must still see results in index order. *)
  let tasks = 12 in
  let order =
    consumed ~jobs:4 ~tasks (fun i ->
        Unix.sleepf (0.002 *. float_of_int (tasks - i));
        i * i)
  in
  let expected = List.init tasks (fun i -> (i, i * i)) in
  Alcotest.(check bool) "consumed in index order" true (order = expected)

let test_pool_sequential_matches_parallel () =
  let f i = (i * 37) lxor (i lsl 3) in
  Alcotest.(check bool)
    "jobs=1 = jobs=4" true
    (consumed ~jobs:1 ~tasks:50 f = consumed ~jobs:4 ~tasks:50 f);
  Alcotest.(check bool)
    "jobs=3 over a list" true
    (List.map snd
       (consumed ~jobs:3 ~tasks:3 (fun i ->
            String.uppercase_ascii (List.nth [ "a"; "b"; "c" ] i)))
    = [ "A"; "B"; "C" ])

let test_pool_zero_tasks_and_resolve () =
  Alcotest.(check bool) "zero tasks" true
    (consumed ~jobs:4 ~tasks:0 (fun _ -> Alcotest.fail "no worker should run")
    = []);
  Alcotest.(check bool) "0 resolves to all cores" true (Pool.resolve_jobs 0 >= 1);
  Alcotest.(check Alcotest.int) "positive passes through" 3 (Pool.resolve_jobs 3);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Pool: jobs must be >= 0") (fun () ->
      ignore (Pool.resolve_jobs (-1)))

(* ---- supervised pool ---- *)

exception Boom of int
exception Crash of int

let run_supervised_collect ~jobs ~tasks ~crashes =
  (* Items in [crashes] raise Crash (classified fatal); the rest return
     [i * 10].  Returns (consumed results in order, restart indices). *)
  let consumed = ref [] in
  let restarts = ref [] in
  Pool.run_supervised ~jobs ~tasks
    ~fatal:(function Crash _ -> true | _ -> false)
    ~on_restart:(fun i -> restarts := i :: !restarts)
    ~worker:(fun i ->
      if List.mem i crashes then raise (Crash i);
      i * 10)
    ~consume:(fun i r ->
      let tag =
        match r with
        | Ok v -> `Ok (i, v)
        | Error { Pool.exn = Crash j; _ } -> `Crashed (i, j)
        | Error _ -> `Other i
      in
      consumed := tag :: !consumed)
    ();
  (List.rev !consumed, List.rev !restarts)

let test_supervised_crash_continues () =
  (* A fatal worker crash is delivered as that item's Error and the pool
     keeps going: every other item is still consumed, in order. *)
  let consumed, restarts =
    run_supervised_collect ~jobs:4 ~tasks:10 ~crashes:[ 3; 7 ]
  in
  let expected =
    List.init 10 (fun i ->
        if i = 3 || i = 7 then `Crashed (i, i) else `Ok (i, i * 10))
  in
  Alcotest.(check bool) "all items consumed in order" true (consumed = expected);
  Alcotest.(check (Alcotest.list Alcotest.int))
    "one restart per crashed item" [ 3; 7 ] restarts

let test_supervised_restart_count_jobs_independent () =
  (* The number (and indices) of restarts is a pure function of which
     items crashed — identical across jobs levels, including jobs = 1 and
     a crash on the very last item (no untaken work remains, the
     replacement domain exits immediately, but the restart still fires). *)
  let crashes = [ 0; 4; 9 ] in
  let results =
    List.map
      (fun jobs -> run_supervised_collect ~jobs ~tasks:10 ~crashes)
      [ 1; 2; 4; 8 ]
  in
  let first = List.hd results in
  List.iter
    (fun r -> Alcotest.(check bool) "identical across jobs" true (r = first))
    (List.tl results);
  Alcotest.(check (Alcotest.list Alcotest.int))
    "restart indices = crash indices" crashes (snd first)

let test_supervised_nonfatal_keeps_domain () =
  (* Non-fatal exceptions are delivered as Errors but never restart. *)
  let consumed = ref 0 and restarts = ref 0 in
  Pool.run_supervised ~jobs:2 ~tasks:8
    ~on_restart:(fun _ -> incr restarts)
    ~worker:(fun i -> if i mod 2 = 0 then raise (Crash i) else i)
    ~consume:(fun _ _ -> incr consumed)
    ();
  Alcotest.(check Alcotest.int) "all consumed" 8 !consumed;
  Alcotest.(check Alcotest.int) "no restarts (default fatal)" 0 !restarts

let test_supervised_backtrace_preserved () =
  (* The Error cell carries the worker's original backtrace for callers
     that want to log or re-raise it. *)
  let saw_backtrace = ref false in
  Pool.run_supervised ~jobs:1 ~tasks:1
    ~worker:(fun _ -> raise (Crash 0))
    ~consume:(fun _ r ->
      match r with
      | Error { Pool.backtrace; _ } ->
        saw_backtrace := true;
        ignore (Printexc.raw_backtrace_to_string backtrace : string)
      | Ok _ -> Alcotest.fail "expected the failure")
    ();
  Alcotest.(check bool) "failure carries a backtrace" true !saw_backtrace

let test_supervised_consume_raise_drains () =
  (* The documented drain-order contract: a raising consumer still sees
     every earlier item, no later consume happens, and the pool joins all
     domains instead of wedging (this test terminating checks that). *)
  let consumed = ref [] in
  let raised =
    try
      Pool.run_supervised ~jobs:4 ~tasks:12
        ~worker:(fun i -> i)
        ~consume:(fun i _ ->
          if i = 6 then raise (Boom i);
          consumed := i :: !consumed)
        ();
      false
    with Boom 6 -> true
  in
  Alcotest.(check bool) "consumer exception propagates" true raised;
  Alcotest.(check (Alcotest.list Alcotest.int))
    "items before the raise consumed in order" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !consumed)

(* ---- persistent pool lifecycle ---- *)

let test_persistent_pool_reuse () =
  (* One pool, several batches: same index-ordered consumption per batch,
     domains parked in between. *)
  let pool = Pool.create ~size:3 in
  Alcotest.(check Alcotest.int) "size" 3 (Pool.size pool);
  for round = 1 to 3 do
    let consumed = ref [] in
    Pool.exec pool ~tasks:8
      ~worker:(fun i -> (round * 100) + i)
      ~consume:(fun i r ->
        match r with
        | Ok v -> consumed := (i, v) :: !consumed
        | Error _ -> Alcotest.fail "unexpected failure")
      ();
    let expected = List.init 8 (fun i -> (i, (round * 100) + i)) in
    Alcotest.(check bool)
      (Printf.sprintf "round %d in order" round)
      true
      (List.rev !consumed = expected)
  done;
  Pool.shutdown pool

let test_persistent_pool_shutdown_rejects () =
  (* The documented idle-pool lifecycle: an idle pool shuts down cleanly
     (nothing ever ran on it), shutdown is idempotent, and exec afterwards
     raises Shut_down instead of wedging. *)
  let pool = Pool.create ~size:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (match
     Pool.exec pool ~tasks:1
       ~worker:(fun i -> i)
       ~consume:(fun _ _ -> Alcotest.fail "must not run")
       ()
   with
  | () -> Alcotest.fail "exec after shutdown succeeded"
  | exception Pool.Shut_down -> ());
  (* size-1 pools have no domains but follow the same lifecycle *)
  let seq = Pool.create ~size:1 in
  let got = ref [] in
  Pool.exec seq ~tasks:3 ~worker:(fun i -> i) ~consume:(fun i _ -> got := i :: !got) ();
  Pool.shutdown seq;
  Alcotest.(check (Alcotest.list Alcotest.int)) "inline batch ran" [ 0; 1; 2 ]
    (List.rev !got);
  match Pool.exec seq ~tasks:1 ~worker:(fun i -> i) ~consume:(fun _ _ -> ()) () with
  | () -> Alcotest.fail "exec after shutdown succeeded (size 1)"
  | exception Pool.Shut_down -> ()

let test_persistent_pool_crash_respawn () =
  (* Fatal failures on a persistent pool respawn domains that park in the
     idle pool, and the next batch still works. *)
  let pool = Pool.create ~size:2 in
  let restarts = ref [] in
  let ok = ref 0 in
  Pool.exec pool ~tasks:6
    ~fatal:(function Crash _ -> true | _ -> false)
    ~on_restart:(fun i -> restarts := i :: !restarts)
    ~worker:(fun i -> if i = 2 || i = 5 then raise (Crash i) else i)
    ~consume:(fun _ r -> match r with Ok _ -> incr ok | Error _ -> ())
    ();
  Alcotest.(check (Alcotest.list Alcotest.int)) "restarts" [ 2; 5 ] (List.rev !restarts);
  Alcotest.(check Alcotest.int) "survivors" 4 !ok;
  let consumed = ref 0 in
  Pool.exec pool ~tasks:5 ~worker:(fun i -> i) ~consume:(fun _ _ -> incr consumed) ();
  Alcotest.(check Alcotest.int) "next batch runs" 5 !consumed;
  Pool.shutdown pool

let test_persistent_pool_consumer_abort_reusable () =
  (* A raising consumer cancels the batch but leaves the pool usable. *)
  let pool = Pool.create ~size:4 in
  (try
     Pool.exec pool ~tasks:10
       ~worker:(fun i -> i)
       ~consume:(fun i _ -> if i = 3 then raise (Boom i))
       ()
   with Boom 3 -> ());
  let consumed = ref 0 in
  Pool.exec pool ~tasks:7 ~worker:(fun i -> i) ~consume:(fun _ _ -> incr consumed) ();
  Alcotest.(check Alcotest.int) "pool reusable after abort" 7 !consumed;
  Pool.shutdown pool

(* ---- sliced pools (concurrent campaign scheduler) ---- *)

let test_slice_widths_partition () =
  (* Even split with the remainder on the low slices; never below 1 even
     when oversubscribed; a pure function of (total, slices). *)
  Alcotest.(check (Alcotest.array Alcotest.int)) "even" [| 2; 2 |]
    (Pool.slice_widths ~total:4 ~slices:2);
  Alcotest.(check (Alcotest.array Alcotest.int)) "remainder low" [| 3; 2; 2 |]
    (Pool.slice_widths ~total:7 ~slices:3);
  Alcotest.(check (Alcotest.array Alcotest.int)) "oversubscribed floors at 1"
    [| 1; 1; 1; 1 |]
    (Pool.slice_widths ~total:2 ~slices:4);
  Alcotest.(check (Alcotest.array Alcotest.int)) "single slice takes all" [| 5 |]
    (Pool.slice_widths ~total:5 ~slices:1);
  for total = 1 to 9 do
    for slices = 1 to 5 do
      let w = Pool.slice_widths ~total ~slices in
      Alcotest.(check Alcotest.int) "one width per slice" slices (Array.length w);
      Array.iter
        (fun x -> Alcotest.(check bool) "at least 1" true (x >= 1))
        w;
      if total >= slices then
        Alcotest.(check Alcotest.int) "partitions the budget" total
          (Array.fold_left ( + ) 0 w)
    done
  done;
  Alcotest.check_raises "zero slices rejected"
    (Invalid_argument "Pool.slice_widths: slices must be >= 1") (fun () ->
      ignore (Pool.slice_widths ~total:4 ~slices:0))

let test_sliced_pool_independent_batches () =
  (* Each slice is a full persistent pool: index-ordered batches run on
     different slices concurrently without interleaving results. *)
  let sl = Pool.create_sliced ~total:4 ~slices:2 in
  Alcotest.(check Alcotest.int) "slices" 2 (Pool.slice_count sl);
  Alcotest.(check Alcotest.int) "slice 0 width" 2 (Pool.slice_width sl 0);
  Alcotest.(check Alcotest.int) "slice 1 width" 2 (Pool.slice_width sl 1);
  let run slot =
    let consumed = ref [] in
    Pool.exec (Pool.slice sl slot) ~tasks:6
      ~worker:(fun i -> (slot * 100) + i)
      ~consume:(fun i r ->
        match r with
        | Ok v -> consumed := (i, v) :: !consumed
        | Error _ -> Alcotest.fail "unexpected failure")
      ();
    List.rev !consumed
  in
  let results = Array.make 2 [] in
  let threads =
    List.init 2 (fun slot ->
        Thread.create (fun () -> results.(slot) <- run slot) ())
  in
  List.iter Thread.join threads;
  for slot = 0 to 1 do
    let expected = List.init 6 (fun i -> (i, (slot * 100) + i)) in
    Alcotest.(check bool)
      (Printf.sprintf "slot %d ordered" slot)
      true
      (results.(slot) = expected)
  done;
  Pool.shutdown_sliced sl;
  (* idempotent, and every slice now rejects work *)
  Pool.shutdown_sliced sl;
  match
    Pool.exec (Pool.slice sl 0) ~tasks:1 ~worker:(fun i -> i)
      ~consume:(fun _ _ -> ())
      ()
  with
  | () -> Alcotest.fail "exec on a shut-down slice succeeded"
  | exception Pool.Shut_down -> ()

(* ---- Summary.merge / Stats.merge ---- *)

let summary_of = List.fold_left Summary.add Summary.empty

let test_summary_merge () =
  let a = summary_of [ 1.0; 5.0 ] and b = summary_of [ 0.5; 2.0; 3.0 ] in
  let m = Summary.merge a b in
  Alcotest.(check Alcotest.int) "count" 5 (Summary.count m);
  Alcotest.(check (Alcotest.float 1e-9)) "total" 11.5 (Summary.total m);
  Alcotest.(check (Alcotest.float 1e-9)) "min" 0.5 (Summary.min_value m);
  Alcotest.(check (Alcotest.float 1e-9)) "max" 5.0 (Summary.max_value m);
  Alcotest.(check bool) "empty is left identity" true (Summary.merge Summary.empty a = a);
  Alcotest.(check bool) "empty is right identity" true (Summary.merge a Summary.empty = a)

let test_stats_merge () =
  let s1 =
    Stats.record_experiment Stats.empty ~verdict:Executor.Distinguishable ~retries:1
      ~faults:2 ~gen_seconds:0.5 ~exe_seconds:0.25 ~elapsed:10.0 ()
  in
  let s1 = Stats.record_program s1 ~found_counterexample:true in
  let s2 =
    Stats.record_experiment Stats.empty ~verdict:Executor.Inconclusive ~gen_seconds:1.5
      ~exe_seconds:0.75 ~elapsed:4.0 ()
  in
  let s2 = Stats.record_quarantine (Stats.record_program s2 ~found_counterexample:false) in
  let m = Stats.merge s1 s2 in
  Alcotest.(check Alcotest.int) "programs" 2 m.Stats.programs;
  Alcotest.(check Alcotest.int) "experiments" 2 m.Stats.experiments;
  Alcotest.(check Alcotest.int) "counterexamples" 1 m.Stats.counterexamples;
  Alcotest.(check Alcotest.int) "inconclusive" 1 m.Stats.inconclusive;
  Alcotest.(check Alcotest.int) "quarantines" 1 m.Stats.budget_exceeded;
  Alcotest.(check Alcotest.int) "retries" 1 m.Stats.retries;
  Alcotest.(check Alcotest.int) "faults" 2 m.Stats.faults_observed;
  Alcotest.(check Alcotest.int) "gen samples" 2 (Summary.count m.Stats.generation_time);
  Alcotest.(check (Alcotest.float 1e-9))
    "gen total" 2.0
    (Summary.total m.Stats.generation_time);
  (* ttc: earliest counterexample wins, and only s1 has one. *)
  Alcotest.(check (Alcotest.option (Alcotest.float 1e-9)))
    "ttc from the counterexample side" (Some 10.0)
    m.Stats.time_to_first_counterexample;
  Alcotest.(check bool) "merge commutes" true (Stats.merge s2 s1 = m);
  Alcotest.(check bool) "empty is identity" true (Stats.merge Stats.empty s1 = s1)

(* ---- JSON ---- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\nline");
        ("n", Json.Num 2.5);
        ("i", Json.Num 42.);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.Arr [ Json.Num 1.; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  Alcotest.(check bool)
    "compact round-trips" true
    (Json.of_string (Json.to_string doc) = doc);
  Alcotest.(check bool)
    "pretty round-trips" true
    (Json.of_string (Json.to_string ~pretty:true doc) = doc);
  Alcotest.(check bool)
    "integral numbers print without decimals" true
    (Json.to_string (Json.Num 42.) = "42")

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "accepted garbage %S" s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2" ]

(* ---- multicore campaign determinism (the PR's acceptance criterion) ---- *)

let noisy_cfg ~clock () =
  Campaign.make ~name:"parallel determinism"
    ~template:(Templates.by_name "A")
    ~setup:(Refinement.mct_vs_mspec ())
    ~programs:6 ~tests_per_program:3 ~seed:2021L
    ~max_conflicts:100
    ~retry:(Retry.make ~max_attempts:3 ())
    ~faults:(Faults.config ~rate:0.1 ~seed:7L ())
    ~clock ()

let run_with_jobs jobs =
  (* The frozen clock zeroes every measured duration, making the run's
     observable output (journal CSV, stats, progress lines) a pure
     function of the campaign seed — so "identical" below means
     byte-identical, not merely equal modulo timings. *)
  let cfg = noisy_cfg ~clock:Stopwatch.frozen () in
  let path = temp_path (Printf.sprintf ".jobs%d.csv" jobs) in
  let journal = Journal.create ~path () in
  let events = ref [] in
  let outcome =
    Campaign.run ~on_event:(fun m -> events := m :: !events) ~journal ~jobs cfg
  in
  Journal.close journal;
  let csv = In_channel.with_open_bin path In_channel.input_all in
  (csv, outcome.Campaign.stats, List.rev !events)

let test_campaign_jobs4_identical_to_jobs1 () =
  let csv1, stats1, events1 = run_with_jobs 1 in
  let csv4, stats4, events4 = run_with_jobs 4 in
  Alcotest.(check bool) "campaign produced experiments" true (stats1.Stats.experiments > 0);
  Alcotest.(check bool) "journal is non-trivial" true (String.length csv1 > 100);
  Alcotest.(check string) "journal CSV byte-identical" csv1 csv4;
  Alcotest.(check bool) "final stats identical" true (stats1 = stats4);
  Alcotest.(check (Alcotest.list Alcotest.string)) "progress events identical" events1
    events4

let () =
  Alcotest.run "scamv_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "ordering under adversarial delays" `Quick
            test_pool_ordering_adversarial;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_pool_sequential_matches_parallel;
          Alcotest.test_case "zero tasks and resolve_jobs" `Quick
            test_pool_zero_tasks_and_resolve;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "crash becomes Error, pool continues" `Quick
            test_supervised_crash_continues;
          Alcotest.test_case "restart count jobs-independent" `Quick
            test_supervised_restart_count_jobs_independent;
          Alcotest.test_case "non-fatal keeps domain" `Quick
            test_supervised_nonfatal_keeps_domain;
          Alcotest.test_case "failure carries backtrace" `Quick
            test_supervised_backtrace_preserved;
          Alcotest.test_case "raising consumer drains cleanly" `Quick
            test_supervised_consume_raise_drains;
        ] );
      ( "persistent",
        [
          Alcotest.test_case "batches reuse parked domains" `Quick
            test_persistent_pool_reuse;
          Alcotest.test_case "idle lifecycle / shutdown rejects exec" `Quick
            test_persistent_pool_shutdown_rejects;
          Alcotest.test_case "crash respawn, next batch runs" `Quick
            test_persistent_pool_crash_respawn;
          Alcotest.test_case "consumer abort leaves pool reusable" `Quick
            test_persistent_pool_consumer_abort_reusable;
        ] );
      ( "sliced",
        [
          Alcotest.test_case "slice_widths partitions deterministically" `Quick
            test_slice_widths_partition;
          Alcotest.test_case "slices run independent ordered batches" `Quick
            test_sliced_pool_independent_batches;
        ] );
      ( "merge",
        [
          Alcotest.test_case "Summary.merge" `Quick test_summary_merge;
          Alcotest.test_case "Stats.merge" `Quick test_stats_merge;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs=4 identical to jobs=1" `Quick
            test_campaign_jobs4_identical_to_jobs1;
        ] );
    ]
