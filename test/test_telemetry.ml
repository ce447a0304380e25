(* Telemetry laws and the telemetry acceptance criterion: histogram
   bucketing is deterministic, registry merge is associative with the
   empty registry as identity (the same algebra as Stats.merge), and a
   frozen-clock campaign exports byte-identical trace and metrics files
   at --jobs 4 and --jobs 1. *)

module Metrics = Scamv_telemetry.Metrics
module Collector = Scamv_telemetry.Collector
module Export = Scamv_telemetry.Export
module Stopwatch = Scamv_util.Stopwatch
module Campaign = Scamv.Campaign
module Retry = Scamv.Retry
module Stats = Scamv.Stats
module Sat = Scamv_smt.Sat
module Faults = Scamv_microarch.Faults
module Templates = Scamv_gen.Templates
module Refinement = Scamv_models.Refinement

(* ---- histogram bucketing ---- *)

let test_bucket_determinism () =
  let check_bucket v expected =
    Alcotest.(check int)
      (Printf.sprintf "bucket_of %g" v)
      expected (Metrics.bucket_of v)
  in
  (* Non-positive and non-finite values collapse into bucket 0. *)
  check_bucket 0.0 0;
  check_bucket (-1.0) 0;
  check_bucket Float.nan 0;
  check_bucket Float.infinity 0;
  check_bucket Float.neg_infinity 0;
  (* frexp 1.0 = (0.5, 1), so 1.0 lands in bucket 1 + 21 = 22, whose
     exclusive upper bound is 2^(22-21) = 2. *)
  check_bucket 1.0 22;
  check_bucket 1.5 22;
  check_bucket 1.9999 22;
  check_bucket 2.0 23;
  check_bucket 0.5 21;
  (* Extremes clamp to [1, 63] instead of running off the array. *)
  check_bucket Float.min_float 1;
  check_bucket 1e-300 1;
  check_bucket Float.max_float 63;
  check_bucket 1e300 63;
  Alcotest.(check (float 1e-12)) "upper bound of bucket 22" 2.0
    (Metrics.bucket_upper_bound 22);
  Alcotest.(check (float 1e-12)) "upper bound of bucket 21" 1.0
    (Metrics.bucket_upper_bound 21)

let prop_bucket_in_range =
  QCheck.Test.make ~name:"bucket index within [0, 63]" ~count:1000 QCheck.float
    (fun v ->
      let b = Metrics.bucket_of v in
      b >= 0 && b < Metrics.bucket_count)

let prop_bucket_monotone =
  QCheck.Test.make ~name:"bucketing is monotone on positives" ~count:1000
    QCheck.(pair pos_float pos_float)
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Metrics.bucket_of lo <= Metrics.bucket_of hi)

(* ---- merge laws ---- *)

(* Registries built from integer-valued operations: counters and
   histogram sums then stay exactly representable, so associativity can
   be checked with structural equality (float addition is only exact on
   such values). *)
let apply_ops t ops =
  List.fold_left
    (fun t (kind, which, v) ->
      let name prefix = prefix ^ string_of_int (which mod 3) in
      match kind mod 3 with
      | 0 -> Metrics.add (name "c") v t
      | 1 -> Metrics.set_gauge (name "g") (float_of_int v) t
      | _ -> Metrics.observe (name "h") (float_of_int v) t)
    t ops

let gen_ops =
  QCheck.(small_list (triple (int_bound 2) (int_bound 2) (int_bound 64)))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:300
    QCheck.(triple gen_ops gen_ops gen_ops)
    (fun (o1, o2, o3) ->
      let a = apply_ops Metrics.empty o1
      and b = apply_ops Metrics.empty o2
      and c = apply_ops Metrics.empty o3 in
      Metrics.to_list (Metrics.merge (Metrics.merge a b) c)
      = Metrics.to_list (Metrics.merge a (Metrics.merge b c)))

let prop_merge_identity =
  QCheck.Test.make ~name:"empty is a two-sided identity" ~count:300 gen_ops
    (fun ops ->
      let a = apply_ops Metrics.empty ops in
      Metrics.to_list (Metrics.merge Metrics.empty a) = Metrics.to_list a
      && Metrics.to_list (Metrics.merge a Metrics.empty) = Metrics.to_list a)

let test_merge_semantics () =
  let a =
    Metrics.empty |> Metrics.add "c" 2 |> Metrics.set_gauge "g" 1.0
    |> Metrics.observe "h" 3.0
  in
  let b =
    Metrics.empty |> Metrics.add "c" 5 |> Metrics.set_gauge "g" 9.0
    |> Metrics.observe "h" 100.0
  in
  let m = Metrics.merge a b in
  Alcotest.(check int) "counters add" 7 (Metrics.counter m "c");
  Alcotest.(check (option (float 1e-12))) "gauges are right-biased" (Some 9.0)
    (Metrics.gauge m "g");
  Alcotest.(check int) "histogram counts add" 2 (Metrics.histogram_n m "h");
  Alcotest.(check (float 1e-12)) "histogram sums add" 103.0
    (Metrics.histogram_sum m "h");
  Alcotest.(check int) "absent counter reads 0" 0 (Metrics.counter m "nope");
  (match Metrics.merge a (Metrics.observe "c" 1.0 Metrics.empty) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise Invalid_argument")

(* ---- collector spans ---- *)

let test_collector_spans () =
  let c = Collector.create ~clock:Stopwatch.frozen ~track:7 () in
  let result =
    Collector.with_current c (fun () ->
        Collector.span "outer" (fun () ->
            Collector.span "inner" ~args:[ ("k", "v") ] (fun () ->
                Collector.incr "work");
            41 + 1))
  in
  Alcotest.(check int) "span returns the body's value" 42 result;
  let r = Collector.report c in
  (match r.Collector.spans with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner closes first" "inner" inner.Collector.name;
    Alcotest.(check int) "inner depth" 1 inner.Collector.depth;
    Alcotest.(check int) "inner track" 7 inner.Collector.track;
    Alcotest.(check string) "outer name" "outer" outer.Collector.name;
    Alcotest.(check int) "outer depth" 0 outer.Collector.depth
  | spans ->
    Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length spans)));
  Alcotest.(check int) "counter recorded" 1 (Metrics.counter r.Collector.metrics "work");
  Alcotest.(check int) "span durations feed histograms" 1
    (Metrics.histogram_n r.Collector.metrics "span.inner.seconds");
  (* Outside with_current, everything is a no-op. *)
  Collector.incr "work";
  Collector.span "ignored" (fun () -> ());
  let r' = Collector.report c in
  Alcotest.(check int) "no recording without a current collector" 1
    (Metrics.counter r'.Collector.metrics "work");
  Alcotest.(check int) "no span without a current collector" 2
    (List.length r'.Collector.spans)

let test_collector_span_on_exception () =
  let c = Collector.create ~clock:Stopwatch.frozen () in
  (try
     Collector.with_current c (fun () ->
         Collector.span "failing" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let r = Collector.report c in
  Alcotest.(check int) "span recorded despite the exception" 1
    (List.length r.Collector.spans)

(* ---- frozen-clock campaign: exporters byte-identical across jobs ---- *)

let noisy_cfg () =
  Campaign.make ~name:"telemetry determinism"
    ~template:(Templates.by_name "A")
    ~setup:(Refinement.mct_vs_mspec ())
    ~programs:5 ~tests_per_program:2 ~seed:2021L
    ~max_conflicts:100
    ~retry:(Retry.make ~max_attempts:3 ())
    ~faults:(Faults.config ~rate:0.1 ~seed:7L ())
    ~clock:Stopwatch.frozen ()

let export_with_jobs jobs =
  let outcome = Campaign.run ~jobs (noisy_cfg ()) in
  let t = outcome.Campaign.telemetry in
  ( Export.trace_string t,
    Export.prometheus t.Collector.metrics,
    outcome.Campaign.stats )

let contains_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_campaign_exports_deterministic_across_jobs () =
  let trace1, metrics1, stats1 = export_with_jobs 1 in
  let trace4, metrics4, stats4 = export_with_jobs 4 in
  Alcotest.(check bool) "campaign did real work" true (stats1.Stats.experiments > 0);
  Alcotest.(check bool) "stats identical" true (stats1 = stats4);
  Alcotest.(check string) "trace JSON byte-identical" trace1 trace4;
  Alcotest.(check string) "metrics dump byte-identical" metrics1 metrics4;
  (* The files actually carry the instrumentation they promise. *)
  List.iter
    (fun span ->
      Alcotest.(check bool) ("trace has span " ^ span) true
        (contains_substring trace1 (Printf.sprintf "%S" span)))
    [ "campaign"; "program"; "prepare"; "annotate"; "lift"; "symexec";
      "synth"; "enumerate"; "execute"; "run" ];
  List.iter
    (fun metric ->
      Alcotest.(check bool) ("metrics has " ^ metric) true
        (contains_substring metrics1 metric))
    [ "scamv_sat_conflicts"; "scamv_sat_queries"; "scamv_smt_blast_cache_hits";
      "scamv_uarch_cache_hits"; "scamv_campaign_experiments";
      "scamv_phase_generation_seconds"; "scamv_phase_execution_seconds" ];
  (* The trace re-parses with our own JSON parser. *)
  match Scamv_util.Json.of_string trace1 with
  | Scamv_util.Json.Obj _ -> ()
  | _ -> Alcotest.fail "trace did not parse back to an object"

let () =
  Alcotest.run "scamv_telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "bucket determinism" `Quick test_bucket_determinism;
          QCheck_alcotest.to_alcotest prop_bucket_in_range;
          QCheck_alcotest.to_alcotest prop_bucket_monotone;
          QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_merge_identity;
          Alcotest.test_case "merge semantics" `Quick test_merge_semantics;
        ] );
      ( "collector",
        [
          Alcotest.test_case "spans and ambient API" `Quick test_collector_spans;
          Alcotest.test_case "span survives exceptions" `Quick
            test_collector_span_on_exception;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs=4 exports byte-identical to jobs=1" `Quick
            test_campaign_exports_deterministic_across_jobs;
        ] );
    ]
