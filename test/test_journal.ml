(* Journal round-trip, incremental persistence, retry policy and fault
   injection: the robustness layer's unit tests. *)

module Executor = Scamv_microarch.Executor
module Faults = Scamv_microarch.Faults
module Campaign = Scamv.Campaign
module Journal = Scamv.Journal
module Retry = Scamv.Retry
module Stats = Scamv.Stats
module Sat = Scamv_smt.Sat
module Templates = Scamv_gen.Templates
module Refinement = Scamv_models.Refinement

let entry ?(campaign = "c") ?(template = "A") ?(retries = 0) ?(faults = 0)
    ?(isa = Scamv_arch.Isa.Aarch64) i verdict =
  {
    Journal.campaign;
    program_index = i;
    test_index = i * 2;
    template;
    isa;
    path_pair = (i, i + 1);
    verdict;
    generation_seconds = 0.125 +. float_of_int i;
    execution_seconds = 0.5;
    retries;
    faults;
  }

let experiments j =
  List.filter_map (function Journal.Experiment e -> Some e | _ -> None) (Journal.events j)

let events_equal j1 j2 =
  Alcotest.(check Alcotest.int)
    "event count" (List.length (Journal.events j1))
    (List.length (Journal.events j2));
  List.iter2
    (fun a b -> Alcotest.(check bool) "event round-trips" true (a = b))
    (Journal.events j1) (Journal.events j2)

(* ---- CSV round-trip ----

   The rows round-trip through the framed file [load] reads, the only
   form the journal is read back from. *)

let temp_path name =
  let path = Filename.temp_file "scamv_journal" name in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let reloaded j =
  let path = temp_path ".journal" in
  let persisted = Journal.create ~path () in
  List.iter (Journal.record_event persisted) (Journal.events j);
  Journal.close persisted;
  fst (Journal.load ~path)

let test_roundtrip_plain () =
  let j = Journal.create () in
  Journal.record j (entry 0 Executor.Distinguishable);
  Journal.record j (entry ~retries:2 ~faults:3 1 Executor.Indistinguishable);
  Journal.record j (entry 2 Executor.Inconclusive);
  events_equal j (reloaded j)

let test_roundtrip_quoting () =
  (* Campaign/template names with commas, quotes and even newlines must
     survive the CSV round trip unchanged. *)
  let j = Journal.create () in
  Journal.record j
    (entry ~campaign:"mct, refined \"v2\"" ~template:"A,B\"C\"" 0
       Executor.Distinguishable);
  Journal.record j (entry ~campaign:"multi\nline" 1 Executor.Inconclusive);
  let j' = reloaded j in
  events_equal j j';
  match experiments j' with
  | [ e0; e1 ] ->
    Alcotest.(check string) "commas+quotes" "mct, refined \"v2\"" e0.Journal.campaign;
    Alcotest.(check string) "template quoting" "A,B\"C\"" e0.Journal.template;
    Alcotest.(check string) "newline" "multi\nline" e1.Journal.campaign
  | _ -> Alcotest.fail "expected two entries"

let test_roundtrip_fault_events () =
  let j = Journal.create () in
  Journal.record j (entry 0 Executor.Distinguishable);
  Journal.record_event j
    (Journal.Quarantined
       {
         campaign = "c";
         program_index = 0;
         pair = (3, 7);
         reason = "SAT budget exceeded, \"hard\" pair";
       });
  Journal.record_event j
    (Journal.Program_failed
       { campaign = "c"; program_index = 1; reason = "Failure(\"synth, diverged\")" });
  let j' = reloaded j in
  events_equal j j';
  Alcotest.(check Alcotest.int) "experiments only" 1 (Journal.length j')

(* Only the framed format loads: a plain-CSV file, as builds before it
   wrote, is a [Parse_error]; an empty file or a torn magic line is an
   empty journal. *)
let test_load_rejects_plain_csv () =
  let path = temp_path ".csv" in
  let load content =
    Out_channel.with_open_bin path (fun oc -> output_string oc content);
    Journal.load ~path
  in
  let plain = Journal.create () in
  Journal.record plain (entry 0 Executor.Distinguishable);
  List.iter
    (fun content ->
      Alcotest.check_raises "not framed"
        (Journal.Parse_error "not a journal: the first line is not scamv-journal v2")
        (fun () -> ignore (load content)))
    [ "not,a,journal\n1,2,3\n"; Journal.to_csv plain; "scamv-journal v1\n" ];
  List.iter
    (fun content ->
      let j, recovery = load content in
      Alcotest.(check int) ("no events from " ^ String.escaped content) 0
        (List.length (Journal.events j));
      Alcotest.(check int) "torn bytes reported" (String.length content)
        recovery.Journal.dropped_bytes)
    [ ""; "scamv-jour"; "scamv-journal v2" ]

(* ---- incremental persistence ---- *)

let test_incremental_persistence () =
  let path = temp_path ".csv" in
  let j = Journal.create ~path () in
  Journal.record j (entry 0 Executor.Distinguishable);
  Journal.record j (entry 1 Executor.Inconclusive);
  (* Rows are flushed as they are recorded: the on-disk checkpoint must be
     loadable, whole, *before* the journal is closed, as after a kill. *)
  let load_clean () =
    let loaded, recovery = Journal.load ~path in
    Alcotest.(check Alcotest.int) "nothing dropped" 0 recovery.Journal.dropped_bytes;
    loaded
  in
  events_equal j (load_clean ());
  Journal.record_event j
    (Journal.Quarantined
       { campaign = "c"; program_index = 2; pair = (0, 1); reason = "budget" });
  Journal.close j;
  events_equal j (load_clean ())

(* ---- crash-safe journal format (v2) ---- *)

let v2_fixture () =
  (* A persisted v2 journal with four records, as a killed campaign would
     leave behind (including a Crashed event). *)
  let path = temp_path ".journal" in
  let j = Journal.create ~path () in
  Journal.record j (entry 0 Executor.Distinguishable);
  Journal.record j (entry 1 Executor.Indistinguishable);
  Journal.record_event j
    (Journal.Crashed { campaign = "c"; program_index = 2; reason = "worker killed" });
  Journal.record j (entry 3 Executor.Inconclusive);
  Journal.close j;
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_v2_roundtrip () =
  let path = v2_fixture () in
  let j, recovery = Journal.load ~path in
  Alcotest.(check Alcotest.int) "all records recovered" 4 recovery.Journal.records;
  Alcotest.(check Alcotest.int) "nothing dropped" 0 recovery.Journal.dropped_bytes;
  Alcotest.(check Alcotest.int) "four events" 4 (List.length (Journal.events j));
  (match Journal.events j with
  | [ _; _; Journal.Crashed { program_index; reason; _ }; _ ] ->
    Alcotest.(check Alcotest.int) "crashed index" 2 program_index;
    Alcotest.(check string) "crashed reason" "worker killed" reason
  | _ -> Alcotest.fail "crashed event lost")

let test_v2_truncated_final_record_recovers () =
  let path = v2_fixture () in
  let whole = read_file path in
  write_file path (String.sub whole 0 (String.length whole - 5));
  let j, recovery = Journal.load ~path in
  Alcotest.(check Alcotest.int) "clean prefix kept" 3 recovery.Journal.records;
  Alcotest.(check bool) "drop reported" true (recovery.Journal.dropped_bytes > 0);
  Alcotest.(check Alcotest.int) "three events" 3 (List.length (Journal.events j))

let test_v2_flipped_checksum_byte_recovers () =
  let path = v2_fixture () in
  let whole = read_file path in
  (* Flip one payload byte of the final record: its checksum no longer
     matches, so recovery must drop it (and only it). *)
  let b = Bytes.of_string whole in
  let pos = Bytes.length b - 3 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
  write_file path (Bytes.to_string b);
  let j, recovery = Journal.load ~path in
  Alcotest.(check Alcotest.int) "clean prefix kept" 3 recovery.Journal.records;
  Alcotest.(check bool) "drop reported" true (recovery.Journal.dropped_bytes > 0);
  Alcotest.(check Alcotest.int) "three events" 3 (List.length (Journal.events j))

let test_v2_zero_length_file_recovers () =
  let path = temp_path ".journal" in
  write_file path "";
  let j, recovery = Journal.load ~path in
  Alcotest.(check Alcotest.int) "no records" 0 recovery.Journal.records;
  Alcotest.(check Alcotest.int) "no events" 0 (List.length (Journal.events j))

(* A length field too large to index must stop the scan like any other
   damaged header, not overflow into an out-of-bounds read. *)
let test_v2_oversized_length_recovers () =
  let path = temp_path ".journal" in
  write_file path
    (Printf.sprintf "scamv-journal v2\nR %d 0\nabc\n" max_int);
  let j, recovery = Journal.load ~path in
  Alcotest.(check Alcotest.int) "no records" 0 recovery.Journal.records;
  Alcotest.(check bool) "drop reported" true (recovery.Journal.dropped_bytes > 0);
  Alcotest.(check Alcotest.int) "no events" 0 (List.length (Journal.events j))

(* The fuzzing fixture: every event kind, quoted and multi-line fields,
   and a RISC-V row with the 14th column. *)
let fuzz_fixture =
  lazy
    (let path = temp_path ".journal" in
     let j = Journal.create ~path () in
     Journal.record j (entry ~campaign:"mct, \"refined\"" 0 Executor.Distinguishable);
     Journal.record_event j
       (Journal.Quarantined
          { campaign = "c"; program_index = 1; pair = (0, 2); reason = "budget\nspent" });
     Journal.record j (entry ~isa:Scamv_arch.Isa.Riscv ~retries:1 2 Executor.Inconclusive);
     Journal.record_event j
       (Journal.Diverged
          { campaign = "c"; program_index = 3; pair = (1, 1);
            aarch64 = Executor.Distinguishable; riscv = Executor.Indistinguishable });
     Journal.record_event j
       (Journal.Program_failed { campaign = "c"; program_index = 4; reason = "lift, failed" });
     Journal.record_event j
       (Journal.Crashed { campaign = "c"; program_index = 5; reason = "worker killed" });
     Journal.record j (entry 6 Executor.Indistinguishable);
     Journal.close j;
     (read_file path, List.map Journal.as_stored (Journal.events j)))

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

(* One byte flipped to any other value, or the file cut anywhere: [load]
   returns a prefix of the recorded events and raises nothing.  Only
   damage inside the magic line makes the file not a journal, which is a
   [Parse_error]. *)
let prop_damaged_journal_loads_prefix =
  let magic_len = String.length "scamv-journal v2\n" in
  let path = lazy (temp_path ".journal") in
  QCheck.Test.make ~name:"damaged v2 journal loads a prefix" ~count:2000
    QCheck.(triple bool (int_bound 1_000_000) (int_range 1 255))
    (fun (cut, at, mask) ->
      let whole, recorded = Lazy.force fuzz_fixture in
      let n = String.length whole in
      let damaged_at, damaged =
        if cut then
          let len = at mod (n + 1) in
          (len, String.sub whole 0 len)
        else
          let i = at mod n in
          (i, String.mapi (fun k c -> if k = i then Char.chr (Char.code c lxor mask) else c) whole)
      in
      let path = Lazy.force path in
      write_file path damaged;
      match Journal.load ~path with
      | j, _ -> is_prefix (Journal.events j) recorded
      | exception Journal.Parse_error _ -> damaged_at < magic_len)

let test_isa_tail_compat () =
  (* The `isa` column is a tail extension: AArch64 rows keep the original
     13 fields byte-for-byte (so pre-ISA journals load as AArch64), RISC-V
     rows append a 14th, and both round-trip with the ISA preserved. *)
  let has_sub s sub =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let path = temp_path ".isa" in
  let j = Journal.create ~path () in
  Journal.record j (entry 0 Executor.Distinguishable);
  Journal.record j (entry ~isa:Scamv_arch.Isa.Riscv 1 Executor.Inconclusive);
  Journal.record_event j
    (Journal.Diverged
       {
         campaign = "c";
         program_index = 2;
         pair = (0, 1);
         aarch64 = Executor.Distinguishable;
         riscv = Executor.Indistinguishable;
       });
  Journal.close j;
  let bytes = read_file path in
  let rows = String.split_on_char '\n' bytes in
  let aarch64_row =
    List.find (fun r -> has_sub r "experiment,0") rows
  and riscv_row = List.find (fun r -> has_sub r "experiment,1") rows in
  Alcotest.(check bool) "aarch64 row keeps 13 fields" false
    (has_sub aarch64_row ",riscv");
  Alcotest.(check bool) "riscv row carries the isa tail" true
    (has_sub riscv_row ",riscv");
  let loaded, recovery = Journal.load ~path in
  Alcotest.(check Alcotest.int) "all records recovered" 3 recovery.Journal.records;
  events_equal j loaded;
  (match experiments loaded with
  | [ e0; e1 ] ->
    Alcotest.(check bool) "13-field row loads as aarch64" true
      (Scamv_arch.Isa.equal e0.Journal.isa Scamv_arch.Isa.Aarch64);
    Alcotest.(check bool) "14-field row loads as riscv" true
      (Scamv_arch.Isa.equal e1.Journal.isa Scamv_arch.Isa.Riscv)
  | _ -> Alcotest.fail "expected two experiment entries");
  match Journal.events loaded with
  | [ _; _; Journal.Diverged { program_index; pair; aarch64; riscv; _ } ] ->
    Alcotest.(check Alcotest.int) "diverged index" 2 program_index;
    Alcotest.(check bool) "diverged pair" true (pair = (0, 1));
    Alcotest.(check bool) "diverged verdicts" true
      (aarch64 = Executor.Distinguishable && riscv = Executor.Indistinguishable)
  | _ -> Alcotest.fail "Diverged event lost"

(* ---- retry policy ---- *)

let scripted verdicts =
  let calls = ref 0 in
  let run ~attempt =
    incr calls;
    (List.nth verdicts (min attempt (List.length verdicts - 1)), 0)
  in
  (run, calls)

let test_retry_first_conclusive_wins () =
  let run, calls = scripted [ Executor.Indistinguishable ] in
  let o = Retry.execute (Retry.make ~max_attempts:5 ()) run in
  Alcotest.(check bool) "verdict" true (o.Retry.verdict = Executor.Indistinguishable);
  Alcotest.(check Alcotest.int) "one attempt" 1 !calls;
  Alcotest.(check Alcotest.int) "no retries" 0 o.Retry.retries

let test_retry_on_inconclusive () =
  let run, calls =
    scripted [ Executor.Inconclusive; Executor.Inconclusive; Executor.Distinguishable ]
  in
  let o = Retry.execute (Retry.make ~max_attempts:5 ()) run in
  Alcotest.(check bool) "recovered" true (o.Retry.verdict = Executor.Distinguishable);
  Alcotest.(check Alcotest.int) "three attempts" 3 !calls;
  Alcotest.(check Alcotest.int) "two retries" 2 o.Retry.retries

let test_retry_persistent_noise_downgrades () =
  let run, calls = scripted [ Executor.Inconclusive ] in
  let o = Retry.execute (Retry.make ~max_attempts:4 ()) run in
  Alcotest.(check bool) "inconclusive" true (o.Retry.verdict = Executor.Inconclusive);
  Alcotest.(check Alcotest.int) "all attempts used" 4 !calls

let test_retry_majority_vote_disagreement () =
  (* D, I, I with confirm=2: indistinguishable wins the vote. *)
  let run, _ =
    scripted [ Executor.Distinguishable; Executor.Indistinguishable; Executor.Indistinguishable ]
  in
  let o = Retry.execute (Retry.make ~max_attempts:3 ~confirm:2 ()) run in
  Alcotest.(check bool) "majority" true (o.Retry.verdict = Executor.Indistinguishable);
  (* D, I with confirm=2 and only two attempts: a tie stays Inconclusive. *)
  let run, _ = scripted [ Executor.Distinguishable; Executor.Indistinguishable ] in
  let o = Retry.execute (Retry.make ~max_attempts:2 ~confirm:2 ()) run in
  Alcotest.(check bool) "tie downgrades" true (o.Retry.verdict = Executor.Inconclusive)

let test_retry_rejects_bad_policy () =
  Alcotest.(check bool) "max_attempts >= 1" true
    (try
       ignore (Retry.make ~max_attempts:0 ());
       false
     with Invalid_argument _ -> true)

(* ---- fault injection ---- *)

let sample_view = [ (0, [ 1L; 2L ]); (1, [ 3L ]); (2, []) ]

let test_faults_rate_zero_is_identity () =
  let f = Faults.start (Faults.config ~rate:0.0 ()) ~run_seed:42L in
  for _ = 1 to 100 do
    match Faults.apply f sample_view with
    | Some v when v = sample_view -> ()
    | _ -> Alcotest.fail "rate 0.0 must never inject"
  done;
  Alcotest.(check Alcotest.int) "no faults" 0 (Faults.injected f)

let test_faults_rate_one_always_injects () =
  let f = Faults.start (Faults.config ~rate:1.0 ~seed:9L ()) ~run_seed:1L in
  for _ = 1 to 50 do
    match Faults.apply f sample_view with
    | None -> () (* dropped *)
    | Some v ->
      Alcotest.(check bool) "perturbed or polluted" false (v = sample_view)
  done;
  Alcotest.(check Alcotest.int) "every measurement faulted" 50 (Faults.injected f)

let test_faults_deterministic () =
  let stream seed =
    let f = Faults.start (Faults.config ~rate:0.5 ~seed:11L ()) ~run_seed:seed in
    List.init 64 (fun _ -> Faults.apply f sample_view)
  in
  Alcotest.(check bool) "same seed, same faults" true (stream 5L = stream 5L);
  Alcotest.(check bool) "different seed, different faults" false (stream 5L = stream 6L)

let test_faults_config_validation () =
  Alcotest.(check bool) "rate out of range rejected" true
    (try
       ignore (Faults.config ~rate:1.5 ());
       false
     with Invalid_argument _ -> true)

(* ---- campaign robustness (the PR's acceptance criteria) ---- *)

let noisy_cfg ?max_conflicts ~programs ~tests () =
  Campaign.make ~name:"noisy"
    ~template:(Templates.by_name "A")
    ~setup:(Refinement.mct_vs_mspec ())
    ~programs ~tests_per_program:tests ~seed:2021L ?max_conflicts
    ~retry:(Retry.make ~max_attempts:3 ())
    ~faults:(Faults.config ~rate:0.1 ~seed:7L ())
    ()

let counts (s : Stats.t) =
  ( s.Stats.programs,
    s.Stats.programs_with_counterexample,
    s.Stats.experiments,
    s.Stats.counterexamples,
    s.Stats.inconclusive,
    s.Stats.skipped_programs,
    s.Stats.budget_exceeded,
    s.Stats.retries,
    s.Stats.faults_observed )

(* Events minus their timing fields, which legitimately differ between an
   original and a resumed run. *)
let event_key = function
  | Journal.Experiment e ->
    `Experiment
      ( e.Journal.program_index,
        e.Journal.test_index,
        e.Journal.path_pair,
        e.Journal.verdict,
        e.Journal.retries,
        e.Journal.faults )
  | Journal.Quarantined { program_index; pair; _ } -> `Quarantined (program_index, pair)
  | Journal.Program_failed { program_index; reason; _ } -> `Failed (program_index, reason)
  | Journal.Crashed { program_index; reason; _ } -> `Crashed (program_index, reason)
  | Journal.Diverged { program_index; pair; aarch64; riscv; _ } ->
    `Diverged (program_index, pair, aarch64, riscv)

let test_campaign_noisy_budgeted_completes () =
  (* A seeded campaign with 10% fault injection and a tight SAT budget must
     complete without raising, retry noisy experiments, and quarantine
     budget-blown path pairs. *)
  let cfg =
    noisy_cfg ~max_conflicts:100 ~programs:6 ~tests:4 ()
  in
  let outcome = Campaign.run cfg in
  let s = outcome.Campaign.stats in
  Alcotest.(check Alcotest.int) "all programs accounted for" 6 s.Stats.programs;
  Alcotest.(check bool) "experiments ran" true (s.Stats.experiments > 0);
  Alcotest.(check bool) "nonzero retries" true (s.Stats.retries > 0);
  Alcotest.(check bool) "nonzero budget_exceeded" true (s.Stats.budget_exceeded > 0);
  Alcotest.(check bool) "faults observed" true (s.Stats.faults_observed > 0)

let test_campaign_resume_matches_uninterrupted () =
  let cfg =
    noisy_cfg ~max_conflicts:100 ~programs:5 ~tests:3 ()
  in
  let full_journal = Journal.create () in
  let full = Campaign.run ~journal:full_journal cfg in
  let events = Journal.events full_journal in
  (* Simulate a kill partway through program 2: the checkpoint holds all
     events of programs 0-1 plus the first event of program 2. *)
  let seen_two = ref false in
  let partial =
    List.filter
      (fun ev ->
        let i = Journal.event_program_index ev in
        if i < 2 then true
        else if i = 2 && not !seen_two then begin
          seen_two := true;
          true
        end
        else false)
      events
  in
  Alcotest.(check bool) "kill point is mid-campaign" true !seen_two;
  let path = temp_path ".ckpt" in
  let ckpt = Journal.create ~path () in
  List.iter (Journal.record_event ckpt) partial;
  Journal.close ckpt;
  let resumed_journal = Journal.create () in
  let resumed = Campaign.run ~journal:resumed_journal ~resume:path cfg in
  Alcotest.(check bool) "final stats identical" true
    (counts full.Campaign.stats = counts resumed.Campaign.stats);
  Alcotest.(check bool) "event sequence identical" true
    (List.map event_key (Journal.events full_journal)
    = List.map event_key (Journal.events resumed_journal))

let test_campaign_resume_recovers_damaged_tail () =
  (* --resume pointed at a v2 journal damaged in each of the three ways —
     truncated final record, flipped checksum byte, zero-length file —
     must recover the clean prefix, re-run what was dropped, and land on
     final statistics identical to an uninterrupted run. *)
  let cfg =
    noisy_cfg ~max_conflicts:100 ~programs:4 ~tests:3 ()
  in
  let full = Campaign.run cfg in
  let persisted () =
    let path = temp_path ".v2" in
    let j = Journal.create ~path () in
    let (_ : Campaign.outcome) = Campaign.run ~journal:j cfg in
    Journal.close j;
    path
  in
  let damage_and_resume ~what damage =
    let path = persisted () in
    damage path;
    let resumed = Campaign.run ~resume:path cfg in
    Alcotest.(check bool)
      (what ^ ": stats match uninterrupted") true
      (counts full.Campaign.stats = counts resumed.Campaign.stats)
  in
  damage_and_resume ~what:"truncated final record" (fun path ->
      let whole = read_file path in
      write_file path (String.sub whole 0 (String.length whole - 7)));
  damage_and_resume ~what:"flipped checksum byte" (fun path ->
      let b = Bytes.of_string (read_file path) in
      let pos = Bytes.length b - 3 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
      write_file path (Bytes.to_string b));
  damage_and_resume ~what:"zero-length file" (fun path -> write_file path "")

let test_campaign_resume_from_missing_file_is_fresh_run () =
  let cfg = noisy_cfg ~programs:2 ~tests:2 () in
  let fresh = Campaign.run cfg in
  let resumed = Campaign.run ~resume:"/nonexistent/journal.csv" cfg in
  Alcotest.(check bool) "identical stats" true
    (counts fresh.Campaign.stats = counts resumed.Campaign.stats)

let () =
  Alcotest.run "scamv_journal"
    [
      ( "csv",
        [
          Alcotest.test_case "round-trip plain" `Quick test_roundtrip_plain;
          Alcotest.test_case "round-trip quoting" `Quick test_roundtrip_quoting;
          Alcotest.test_case "round-trip fault events" `Quick test_roundtrip_fault_events;
          Alcotest.test_case "rejects garbage" `Quick test_load_rejects_plain_csv;
          Alcotest.test_case "incremental persistence" `Quick test_incremental_persistence;
        ] );
      ( "journal-v2",
        [
          Alcotest.test_case "round-trip with Crashed event" `Quick test_v2_roundtrip;
          Alcotest.test_case "truncated final record recovers" `Quick
            test_v2_truncated_final_record_recovers;
          Alcotest.test_case "flipped checksum byte recovers" `Quick
            test_v2_flipped_checksum_byte_recovers;
          Alcotest.test_case "zero-length file recovers" `Quick
            test_v2_zero_length_file_recovers;
          Alcotest.test_case "isa column is a compatible tail" `Quick
            test_isa_tail_compat;
          Alcotest.test_case "oversized length field recovers" `Quick
            test_v2_oversized_length_recovers;
          QCheck_alcotest.to_alcotest prop_damaged_journal_loads_prefix;
        ] );
      ( "retry",
        [
          Alcotest.test_case "first conclusive wins" `Quick test_retry_first_conclusive_wins;
          Alcotest.test_case "retries on inconclusive" `Quick test_retry_on_inconclusive;
          Alcotest.test_case "persistent noise downgrades" `Quick
            test_retry_persistent_noise_downgrades;
          Alcotest.test_case "majority vote" `Quick test_retry_majority_vote_disagreement;
          Alcotest.test_case "rejects bad policy" `Quick test_retry_rejects_bad_policy;
        ] );
      ( "faults",
        [
          Alcotest.test_case "rate 0 identity" `Quick test_faults_rate_zero_is_identity;
          Alcotest.test_case "rate 1 injects" `Quick test_faults_rate_one_always_injects;
          Alcotest.test_case "deterministic" `Quick test_faults_deterministic;
          Alcotest.test_case "config validation" `Quick test_faults_config_validation;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "noisy+budgeted completes" `Quick
            test_campaign_noisy_budgeted_completes;
          Alcotest.test_case "resume matches uninterrupted" `Quick
            test_campaign_resume_matches_uninterrupted;
          Alcotest.test_case "resume recovers damaged tails" `Quick
            test_campaign_resume_recovers_damaged_tail;
          Alcotest.test_case "resume from missing file" `Quick
            test_campaign_resume_from_missing_file_is_fresh_run;
        ] );
    ]
