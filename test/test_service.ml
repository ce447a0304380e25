(* Validation service: HTTP request parsing and keep-alive semantics,
   routing, tenant quotas and seed namespace, session streaming
   semantics, scheduler admission control / backpressure / cancellation,
   over-the-wire connection management (persistent connections, idle
   timeout, request cap, 503 load shedding), and the acceptance tests
   that a served campaign's streamed record sequence and journal are
   byte-identical to a batch Campaign.run of the same parameters — at
   concurrency 1 and with two campaigns in flight at once; finished
   campaigns read back from the state dir (one stream live, evicted and
   restarted; flat memory; path-safe lookups). *)

module Json = Scamv_util.Json
module Stopwatch = Scamv_util.Stopwatch
module Campaign = Scamv.Campaign
module Journal = Scamv.Journal
module Http = Scamv_service.Http
module Router = Scamv_service.Router
module Tenant = Scamv_service.Tenant
module Session = Scamv_service.Session
module Scheduler = Scamv_service.Scheduler
module Server = Scamv_service.Server
module Workload = Scamv_service.Workload
module Isa = Scamv_arch.Isa

let temp_path name =
  let path = Filename.temp_file "scamv_service" name in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Parse raw request bytes through the real reader. *)
let parse_request bytes = Http.read_request (Http.reader_of_string bytes)

(* ---- http ---- *)

let test_http_parse_get () =
  match parse_request "GET /campaigns/a%2Db/stream?from=3&x=a+b HTTP/1.1\r\nHost: h\r\nX-Thing:  v  \r\n\r\n" with
  | None -> Alcotest.fail "no request parsed"
  | Some req ->
    Alcotest.(check string) "method" "GET" req.Http.meth;
    Alcotest.(check string) "path" "/campaigns/a-b/stream" req.Http.path;
    Alcotest.(check string) "version" "HTTP/1.1" req.Http.version;
    Alcotest.(check (option string)) "query from" (Some "3") (Http.query req "from");
    Alcotest.(check (option string)) "query plus" (Some "a b") (Http.query req "x");
    Alcotest.(check (option string)) "header trim" (Some "v") (Http.header req "x-thing");
    Alcotest.(check (option string)) "header case" (Some "h") (Http.header req "HOST");
    Alcotest.(check string) "no body" "" req.Http.body

let test_http_parse_post_body () =
  match parse_request "POST /campaigns HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world" with
  | None -> Alcotest.fail "no request parsed"
  | Some req ->
    Alcotest.(check string) "body" "hello world" req.Http.body

let test_http_rejects_malformed () =
  let bad bytes =
    match parse_request bytes with
    | exception Http.Bad_request _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "accepted malformed request %S" bytes)
  in
  bad "GET /\r\n\r\n";  (* missing version *)
  bad "GET / SMTP/1.0\r\n\r\n";  (* wrong protocol *)
  bad "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n";
  bad "POST / HTTP/1.1\r\nContent-Length: trouble\r\n\r\n";
  bad "POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort";
  Alcotest.(check bool) "EOF before any byte is a clean close" true
    (parse_request "" = None)

let test_http_pipelined_requests_share_reader () =
  (* The reader's buffer persists across read_request calls, so bytes of
     a second request already buffered are not lost. *)
  let r =
    Http.reader_of_string
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n"
  in
  (match Http.read_request r with
  | Some req -> Alcotest.(check string) "first path" "/a" req.Http.path
  | None -> Alcotest.fail "first request missing");
  (match Http.read_request r with
  | Some req ->
    Alcotest.(check string) "second path" "/b" req.Http.path;
    Alcotest.(check bool) "second opts out" false (Http.wants_keep_alive req)
  | None -> Alcotest.fail "second request missing");
  Alcotest.(check bool) "then EOF" true (Http.read_request r = None)

let test_http_keep_alive_intent () =
  let intent bytes =
    match parse_request bytes with
    | Some req -> Http.wants_keep_alive req
    | None -> Alcotest.fail "no request parsed"
  in
  Alcotest.(check bool) "1.1 default persistent" true
    (intent "GET / HTTP/1.1\r\n\r\n");
  Alcotest.(check bool) "1.1 close" false
    (intent "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  Alcotest.(check bool) "case and token list" false
    (intent "GET / HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n");
  Alcotest.(check bool) "1.0 default close" false
    (intent "GET / HTTP/1.0\r\n\r\n");
  Alcotest.(check bool) "1.0 keep-alive opt-in" true
    (intent "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")

(* The reader returns a request, [None] at a clean end, or raises
   [Bad_request] — never anything else — on arbitrary bytes and on valid
   requests cut, spliced and mutated byte by byte.  Each input is read
   to its end, so pipelined leftovers are parsed too. *)
let prop_http_reader_total =
  let valid =
    [|
      "GET /campaigns/a%2Db/stream?from=3&x=a+b HTTP/1.1\r\nHost: h\r\n\r\n";
      "POST /campaigns HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
      "DELETE /campaigns/t-0 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
    |]
  in
  let raw = QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 64)) in
  let mutated =
    QCheck.Gen.(
      let* base = oneofa valid and* other = oneofa valid in
      let* op = int_bound 4 and* at = int_bound 1_000 in
      (* half the replacement bytes are the syntax the reader splits on *)
      let* c = oneof [ char; oneofl [ '%'; '\r'; '\n'; ':'; ' '; '?'; '&'; '='; '+'; '9' ] ] in
      let n = String.length base in
      let i = at mod n in
      let o = at mod String.length other in
      return
        (match op with
        | 0 -> String.sub base 0 i
        | 1 -> String.mapi (fun k x -> if k = i then c else x) base
        | 2 -> String.sub base 0 i ^ String.make 1 c ^ String.sub base i (n - i)
        | 3 -> String.sub base 0 i ^ String.sub base (i + 1) (n - i - 1)
        | _ -> String.sub base 0 i ^ String.sub other o (String.length other - o)))
  in
  QCheck.Test.make ~name:"reader returns or raises Bad_request only" ~count:20_000
    (QCheck.make ~print:String.escaped QCheck.Gen.(oneof [ raw; mutated ]))
    (fun input ->
      let r = Http.reader_of_string input in
      let rec drain k =
        k = 0
        ||
        match Http.read_request r with
        | None -> true
        | Some _ -> drain (k - 1)
        | exception Http.Bad_request _ -> true
      in
      drain 8)

(* ---- router ---- *)

let test_router_dispatch () =
  let routes =
    Router.create
      [
        Router.route "GET" "/campaigns" (fun _ -> "list");
        Router.route "POST" "/campaigns" (fun _ -> "submit");
        Router.route "GET" "/campaigns/:id/stream" (fun p -> "stream " ^ List.assoc "id" p);
        Router.route "DELETE" "/campaigns/:id" (fun p -> "cancel " ^ List.assoc "id" p);
      ]
  in
  let matched meth path =
    match Router.dispatch routes ~meth ~path with
    | Router.Matched v -> v
    | _ -> Alcotest.fail (Printf.sprintf "no match for %s %s" meth path)
  in
  Alcotest.(check string) "fixed" "list" (matched "GET" "/campaigns");
  Alcotest.(check string) "trailing slash" "list" (matched "get" "/campaigns/");
  Alcotest.(check string) "binder" "stream abc-1" (matched "GET" "/campaigns/abc-1/stream");
  Alcotest.(check string) "delete binder" "cancel x-2" (matched "DELETE" "/campaigns/x-2");
  (match Router.dispatch routes ~meth:"PUT" ~path:"/campaigns" with
  | Router.Method_not_allowed allowed ->
    Alcotest.(check (list string)) "allow header" [ "GET"; "POST" ] allowed
  | _ -> Alcotest.fail "expected 405");
  (match Router.dispatch routes ~meth:"GET" ~path:"/nope" with
  | Router.Not_found -> ()
  | _ -> Alcotest.fail "expected 404")

(* ---- tenant ---- *)

let test_tenant_names_and_seeds () =
  Alcotest.(check bool) "valid" true (Tenant.validate_name "alice.dev-1" = Ok "alice.dev-1");
  Alcotest.(check bool) "empty" true (Result.is_error (Tenant.validate_name ""));
  Alcotest.(check bool) "slash" true (Result.is_error (Tenant.validate_name "a/b"));
  Alcotest.(check bool) "too long" true
    (Result.is_error (Tenant.validate_name (String.make 65 'a')));
  let s1 = Tenant.derive_seed ~tenant:"alice" ~sequence:0 in
  Alcotest.(check bool) "stable" true (s1 = Tenant.derive_seed ~tenant:"alice" ~sequence:0);
  Alcotest.(check bool) "per-sequence" true
    (s1 <> Tenant.derive_seed ~tenant:"alice" ~sequence:1);
  Alcotest.(check bool) "per-tenant" true
    (s1 <> Tenant.derive_seed ~tenant:"bob" ~sequence:0)

let test_tenant_quota () =
  let ten = Tenant.create ~name:"t" ~quota:{ Tenant.max_backlog = 2; max_active = 3 } in
  let admit () = Tenant.admit ten in
  let ok = function Ok (_ : int) -> () | Error _ -> Alcotest.fail "unexpected rejection" in
  ok (admit ());
  Queue.push "t-0" ten.Tenant.pending;
  ok (admit ());
  Queue.push "t-1" ten.Tenant.pending;
  (* backlog full (2 queued) even though active quota has room *)
  Alcotest.(check bool) "backlog full" true (admit () = Error Tenant.Backlog_full);
  (* runner takes one off the queue: backlog has room, but active hits 3 *)
  ignore (Queue.pop ten.Tenant.pending);
  ok (admit ());
  Queue.push "t-2" ten.Tenant.pending;
  ignore (Queue.pop ten.Tenant.pending);
  Alcotest.(check bool) "active quota" true (admit () = Error Tenant.Quota_exceeded);
  (* a finished session frees an active slot *)
  Tenant.finish ten;
  ok (admit ())

(* ---- workload ---- *)

(* Every front end turns a named request into a campaign through
   [Workload.config], so its rules are the CLI's and the service's. *)
let test_workload_config () =
  let config ?(template = "A") ?(setup = "mct-vs-mspec")
      ?(isa = `Single Isa.Aarch64) ?(programs = 2) ?(tests = 3) ?max_conflicts
      ?deadline_conflicts ?portfolio () =
    Workload.config ~template ~setup ~isa ~programs ~tests ~seed:7L
      ?max_conflicts ?deadline_conflicts ?portfolio ()
  in
  let rejects what r =
    Alcotest.(check bool) (what ^ " rejected") true (Result.is_error r)
  in
  rejects "programs 0" (config ~programs:0 ());
  rejects "programs -1" (config ~programs:(-1) ());
  rejects "programs 100001" (config ~programs:100_001 ());
  rejects "tests 0" (config ~tests:0 ());
  rejects "tests -3" (config ~tests:(-3) ());
  rejects "tests 100001" (config ~tests:100_001 ());
  rejects "max_conflicts -5" (config ~max_conflicts:(-5) ());
  rejects "deadline_conflicts -1" (config ~deadline_conflicts:(-1) ());
  rejects "portfolio 0" (config ~portfolio:0 ());
  rejects "portfolio 65" (config ~portfolio:65 ());
  rejects "unknown template" (config ~template:"Z9" ());
  rejects "unknown diff template" (config ~isa:`Diff ~template:"Z9" ());
  rejects "unknown setup" (config ~setup:"nope" ());
  (match config ~setup:"nope" () with
  | Error m ->
    Alcotest.(check bool) "setup error lists the names" true
      (List.for_all
         (fun (name, _) ->
           let n = String.length m and k = String.length name in
           let rec has i = i + k <= n && (String.sub m i k = name || has (i + 1)) in
           has 0)
         Workload.setups)
  | Ok _ -> Alcotest.fail "unknown setup accepted");
  (match
     config ~setup:"mpart-vs-mpart'" ~isa:(`Single Isa.Riscv) ~programs:100_000
       ~tests:1 ~max_conflicts:0 ~deadline_conflicts:9 ~portfolio:64 ()
   with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    Alcotest.(check string) "name formula" "mpart-vs-mpart' on template A"
      cfg.Campaign.name;
    Alcotest.(check bool) "isa" true (cfg.Campaign.isa = Isa.Riscv);
    Alcotest.(check bool) "partition view" true
      (cfg.Campaign.view = Workload.view_for "mpart-vs-mpart'");
    Alcotest.(check bool) "0 conflicts = no budget" true
      (cfg.Campaign.max_conflicts = None);
    Alcotest.(check bool) "deadline kept" true
      (cfg.Campaign.deadline_conflicts = Some 9);
    Alcotest.(check int) "portfolio" 64 cfg.Campaign.portfolio);
  match config ~isa:`Diff () with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
    Alcotest.(check bool) "diff carries the AArch64 side" true
      (cfg.Campaign.isa = Isa.Aarch64)

(* ---- session ---- *)

let test_session_params_json () =
  let p =
    match
      Session.params_of_json
        (Json.of_string
           {|{"template":"C","programs":4,"seed":"-3","tenant":"ignored"}|})
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "template" "C" p.Session.template;
  Alcotest.(check int) "programs" 4 p.Session.programs;
  Alcotest.(check string) "defaulted setup" "mct-vs-mspec" p.Session.setup;
  Alcotest.(check bool) "seed" true (p.Session.seed = Some (-3L));
  Alcotest.(check bool) "unknown field rejected" true
    (Result.is_error (Session.params_of_json (Json.of_string {|{"porgrams":4}|})));
  Alcotest.(check bool) "non-object rejected" true
    (Result.is_error (Session.params_of_json (Json.Arr [])));
  (* round-trip through the meta rendering *)
  match Session.params_of_json (Session.params_to_json p) with
  | Ok p' -> Alcotest.(check bool) "params round-trip" true (p = p')
  | Error e -> Alcotest.fail e

let make_session ?(id = "t-0") () =
  Session.create ~id ~tenant:"t" ~params:Session.default_params ~seed:1L ~submitted:0 ()

let test_session_stream_semantics () =
  let s = make_session () in
  Session.push_line s "one";
  Session.push_line s "two";
  let lines, next, terminal = Session.wait_lines s ~from:0 in
  Alcotest.(check (list string)) "lines" [ "one"; "two" ] lines;
  Alcotest.(check int) "next" 2 next;
  Alcotest.(check bool) "not terminal" false terminal;
  (* a waiter blocked past the end is released by conclude, and the done
     line is already visible when it wakes *)
  let woke = ref [] in
  let waiter =
    Thread.create (fun () -> woke := (fun (l, _, t) -> assert t; l) (Session.wait_lines s ~from:2)) ()
  in
  Thread.yield ();
  Session.conclude s Session.Completed ();
  Thread.join waiter;
  (match !woke with
  | [ done_line ] ->
    Alcotest.(check bool) "done line terminal" true
      (String.length done_line >= 8 && String.sub done_line 0 8 = "{\"done\":")
  | other -> Alcotest.fail (Printf.sprintf "waiter saw %d lines" (List.length other)));
  let all, _, terminal = Session.wait_lines s ~from:0 in
  Alcotest.(check int) "terminal stream length" 3 (List.length all);
  Alcotest.(check bool) "terminal" true terminal

(* A terminal meta as the scheduler persists it, with every optional
   field present and escaped bytes in the failure reason. *)
let meta_session =
  lazy
    (let s = make_session () in
     Session.push_progress s "resumed at program 1";
     Session.push_line s "{\"record\":{}}";
     Session.conclude s (Session.Failed "lift \"x\"\n\xff")
       ~stats:(Json.Obj [ ("experiments", Json.Num 4.); ("share", Json.Num 0.25) ])
       ~wall_seconds:1.5 ();
     s)

let meta_fixture = lazy (Json.to_string ~pretty:true (Session.meta_json (Lazy.force meta_session)))

(* What the JSON parser reads in service: a request body and a terminal
   meta with progress lines, both far inside the nesting cap. *)
let test_session_meta_roundtrip () =
  let meta =
    match Session.meta_of_json (Json.of_string (Lazy.force meta_fixture)) with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list (pair int string))) "progress" [ (0, "resumed at program 1") ]
    meta.Session.meta_progress;
  Alcotest.(check (option int)) "records" (Some 3) meta.Session.meta_records;
  Alcotest.(check bool) "failed with its reason" true
    (meta.Session.meta_state = Session.Failed "lift \"x\"\n\xff");
  Alcotest.(check string) "status from the meta"
    (Json.to_string (Session.status_json (Lazy.force meta_session)))
    (Json.to_string (Session.status_of_meta (Json.of_string (Lazy.force meta_fixture))));
  let request = {|{"tenant":"t","template":"C","programs":4,"seed":"7","isa":"riscv"}|} in
  match Session.params_of_json (Json.of_string request) with
  | Ok p ->
    Alcotest.(check bool) "request round-trips" true
      (Session.params_of_json (Json.of_string (Json.to_string (Session.params_to_json p)))
      = Ok p)
  | Error e -> Alcotest.fail e

(* The meta reader [recover] and [find] depend on: a truncated,
   overwritten, deleted or inserted byte makes [Json.of_string] raise
   nothing but [Parse_error], and [meta_of_json] raise nothing at all. *)
let prop_mutated_meta_json =
  QCheck.Test.make ~name:"mutated meta JSON raises only Parse_error" ~count:2000
    QCheck.(triple (int_bound 3) (int_bound 1_000_000) (int_bound 255))
    (fun (op, at, byte) ->
      let meta = Lazy.force meta_fixture in
      let n = String.length meta in
      let i = at mod n and c = String.make 1 (Char.chr byte) in
      let mutated =
        match op with
        | 0 -> String.sub meta 0 i
        | 1 -> String.sub meta 0 i ^ c ^ String.sub meta (i + 1) (n - i - 1)
        | 2 -> String.sub meta 0 i ^ String.sub meta (i + 1) (n - i - 1)
        | _ -> String.sub meta 0 i ^ c ^ String.sub meta i (n - i)
      in
      match Json.of_string mutated with
      | json ->
        ignore (Session.meta_of_json json);
        true
      | exception Json.Parse_error _ -> true)

(* ---- scheduler: admission control (no runner thread) ---- *)

let sched_config ?state_dir ?(jobs = 1) ?(concurrency = 1)
    ?(quota = Tenant.default_quota) () =
  { Scheduler.jobs; concurrency; state_dir; quota; clock = Stopwatch.frozen }

let small_params = { Session.default_params with Session.programs = 2; tests_per_program = 2 }

(* [Scheduler.cancel]'s answer: cancelled by this call, and the state. *)
let cancel_answer = Alcotest.(option (pair bool string))

let test_scheduler_admission () =
  let quota = { Tenant.max_backlog = 2; max_active = 8 } in
  let t = Scheduler.create ~config:(sched_config ~quota ()) ~start:false () in
  let ok tenant =
    match Scheduler.submit t ~tenant small_params with
    | Ok s -> s
    | Error _ -> Alcotest.fail "unexpected rejection"
  in
  (* invalid input is rejected up front *)
  (match Scheduler.submit t ~tenant:"bad/name" small_params with
  | Error (Scheduler.Invalid _) -> ()
  | _ -> Alcotest.fail "bad tenant accepted");
  (match
     Scheduler.submit t ~tenant:"a"
       { small_params with Session.template = "Z9" }
   with
  | Error (Scheduler.Invalid _) -> ()
  | _ -> Alcotest.fail "bad template accepted");
  (match
     Scheduler.submit t ~tenant:"a" { small_params with Session.setup = "nope" }
   with
  | Error (Scheduler.Invalid _) -> ()
  | _ -> Alcotest.fail "bad setup accepted");
  (match
     Scheduler.submit t ~tenant:"a" { small_params with Session.programs = 0 }
   with
  | Error (Scheduler.Invalid _) -> ()
  | _ -> Alcotest.fail "out-of-range program count accepted");
  (match Scheduler.submit t ~tenant:"a" { small_params with Session.isa = "sparc" } with
  | Error (Scheduler.Invalid _) -> ()
  | _ -> Alcotest.fail "bad isa accepted");
  (* per-tenant backlog: two queued fill tenant a; b is unaffected *)
  let a0 = ok "a" in
  let _a1 = ok "a" in
  (match Scheduler.submit t ~tenant:"a" small_params with
  | Error (Scheduler.Busy Tenant.Backlog_full) -> ()
  | _ -> Alcotest.fail "expected backlog rejection");
  let _b0 = ok "b" in
  (* ids are per-tenant sequences; seeds come from the tenant namespace *)
  Alcotest.(check string) "id" "a-0" a0.Session.id;
  Alcotest.(check bool) "namespace seed" true
    (a0.Session.seed = Tenant.derive_seed ~tenant:"a" ~sequence:0);
  (* cancelling a queued session frees its backlog slot immediately *)
  Alcotest.(check cancel_answer) "cancel" (Some (true, "cancelled"))
    (Scheduler.cancel t a0.Session.id);
  Alcotest.(check cancel_answer) "cancel idempotent" (Some (false, "cancelled"))
    (Scheduler.cancel t a0.Session.id);
  Alcotest.(check cancel_answer) "cancel unknown" None (Scheduler.cancel t "a-9");
  Alcotest.(check bool) "terminal" true (Session.state a0 = Session.Cancelled);
  (match Scheduler.submit t ~tenant:"a" small_params with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "slot not freed by cancel");
  (* the cancelled session's stream is exactly one done line *)
  (match Session.wait_lines a0 ~from:0 with
  | [ line ], _, true ->
    Alcotest.(check bool) "cancelled done line" true
      (String.length line >= 20 && String.sub line 0 20 = "{\"done\":\"cancelled\"}")
  | lines, _, _ -> Alcotest.fail (Printf.sprintf "stream of %d lines" (List.length lines)));
  Scheduler.shutdown t;
  (* after shutdown: reject new work *)
  match Scheduler.submit t ~tenant:"a" small_params with
  | Error Scheduler.Stopped -> ()
  | _ -> Alcotest.fail "submit after shutdown accepted"

(* ---- scheduler: execution, cancellation, acceptance ---- *)

let wait_terminal s =
  let rec go from =
    let _, next, terminal = Session.wait_lines s ~from in
    if not terminal then go next
  in
  go 0

let test_scheduler_cancel_running () =
  let t = Scheduler.create ~config:(sched_config ()) () in
  let s =
    match
      Scheduler.submit t ~tenant:"c"
        { Session.default_params with Session.programs = 200; tests_per_program = 4 }
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "submit failed"
  in
  (* wait for the first record, then cancel mid-campaign *)
  let (_ : string list * int * bool) = Session.wait_lines s ~from:0 in
  Alcotest.(check cancel_answer) "cancel running" (Some (true, "running"))
    (Scheduler.cancel t s.Session.id);
  wait_terminal s;
  Alcotest.(check bool) "cancelled" true (Session.state s = Session.Cancelled);
  (* the drained campaign journals every unfinished program as crashed
     with the normalized cancel reason *)
  let lines, _, _ = Session.wait_lines s ~from:0 in
  Alcotest.(check bool) "cancel reason recorded" true
    (List.exists
       (fun l ->
         let n = String.length l and needle = "campaign cancelled" in
         let nn = String.length needle in
         let rec has i = i + nn <= n && (String.sub l i nn = needle || has (i + 1)) in
         has 0)
       lines);
  Scheduler.shutdown t

(* Batch reference for the acceptance checks: the campaign the CLI runs
   for the same request (built by the same [Workload.config]), with its
   own journal file. *)
let batch_reference ~programs ~tests_per_program ~seed =
  let cfg =
    Result.get_ok
      (Workload.config ~template:"A" ~setup:"mct-vs-mspec"
         ~isa:(`Single Isa.Aarch64) ~programs ~tests:tests_per_program ~seed
         ~clock:Stopwatch.frozen ())
  in
  let ref_path = temp_path ".journal" in
  Sys.remove ref_path;
  let journal = Journal.create ~path:ref_path () in
  let (_ : Campaign.outcome) = Campaign.run ~journal cfg in
  Journal.close journal;
  (List.map Session.record_line (Journal.events journal), ref_path)

let record_lines_of s =
  let lines, _, _ = Session.wait_lines s ~from:0 in
  List.filter
    (fun l -> String.length l >= 10 && String.sub l 0 10 = "{\"record\":")
    lines

(* The acceptance check: a served campaign's record stream and journal
   file are byte-identical to a batch Campaign.run of the same
   (template, setup, seed, sizes) under the same frozen clock. *)
let test_scheduler_stream_matches_batch () =
  let dir = Filename.temp_file "scamv_service_state" "" in
  Sys.remove dir;
  let params =
    { Session.default_params with Session.programs = 4; tests_per_program = 3;
      seed = Some 2021L }
  in
  let t = Scheduler.create ~config:(sched_config ~state_dir:dir ~jobs:2 ()) () in
  let s =
    match Scheduler.submit t ~tenant:"acc" params with
    | Ok s -> s
    | Error _ -> Alcotest.fail "submit failed"
  in
  wait_terminal s;
  Alcotest.(check bool) "completed" true (Session.state s = Session.Completed);
  Scheduler.shutdown t;
  let expected, ref_path =
    batch_reference ~programs:4 ~tests_per_program:3 ~seed:2021L
  in
  let records = record_lines_of s in
  Alcotest.(check bool) "some records" true (expected <> []);
  Alcotest.(check (list string)) "stream matches batch" expected records;
  let served_journal = Filename.concat dir (s.Session.id ^ ".journal") in
  Alcotest.(check string) "journal bytes match batch" (read_file ref_path)
    (read_file served_journal)

(* Concurrency acceptance: two campaigns in flight at once, each on its
   own runner's pool, still produce streams byte-identical to batch runs. *)
let test_scheduler_concurrent_matches_batch () =
  let t =
    Scheduler.create ~config:(sched_config ~jobs:2 ~concurrency:2 ()) ()
  in
  Alcotest.(check int) "slots" 2 (Scheduler.concurrency t);
  let submit tenant seed =
    match
      Scheduler.submit t ~tenant
        { Session.default_params with Session.programs = 3;
          tests_per_program = 2; seed = Some seed }
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "submit failed"
  in
  (* Whichever runner takes each campaign, both must match their batch
     references. *)
  let sessions =
    List.map
      (fun (tenant, seed) -> (submit tenant seed, seed))
      [ ("conc-a", 41L); ("conc-b", 42L) ]
  in
  Scheduler.drain t;
  List.iter
    (fun (s, seed) ->
      Alcotest.(check bool) "completed" true (Session.state s = Session.Completed);
      let expected, _ = batch_reference ~programs:3 ~tests_per_program:2 ~seed in
      Alcotest.(check (list string))
        (Printf.sprintf "stream of %s matches batch" s.Session.id)
        expected (record_lines_of s))
    sessions;
  Scheduler.shutdown t

(* Runners are work-conserving: with two runners, a tenant's second
   campaign starts on the idle runner while its first one is still
   computing, instead of queueing behind it. *)
let test_scheduler_idle_runner_takes_next () =
  let t = Scheduler.create ~config:(sched_config ~concurrency:2 ()) () in
  let submit params =
    match Scheduler.submit t ~tenant:"work" params with
    | Ok s -> s
    | Error _ -> Alcotest.fail "submit failed"
  in
  let long =
    submit { Session.default_params with Session.programs = 200; tests_per_program = 4 }
  in
  let short =
    submit
      { Session.default_params with Session.template = "D";
        setup = "mct-vs-mspec-sl"; programs = 1; tests_per_program = 1 }
  in
  let give_up = Unix.gettimeofday () +. 60.0 in
  while
    not (Session.is_terminal (Session.state short)
         || Session.is_terminal (Session.state long)
         || Unix.gettimeofday () > give_up)
  do
    Thread.delay 0.01
  done;
  Alcotest.(check string) "second campaign completed" "completed"
    (Session.state_name (Session.state short));
  Alcotest.(check string) "first campaign still running" "running"
    (Session.state_name (Session.state long));
  Alcotest.(check cancel_answer) "cancel the first" (Some (true, "running"))
    (Scheduler.cancel t long.Session.id);
  wait_terminal long;
  Alcotest.(check string) "first campaign cancelled" "cancelled"
    (Session.state_name (Session.state long));
  Scheduler.shutdown t

(* A served differential campaign honours its per-program virtual
   deadline on both sides: at 150 conflicts some programs of the smoke
   workload run out of deadline and stream as crashed records. *)
let test_scheduler_diff_deadline () =
  let t = Scheduler.create ~config:(sched_config ()) () in
  let s =
    match
      Scheduler.submit t ~tenant:"diff"
        { Session.default_params with Session.isa = "diff"; programs = 6;
          tests_per_program = 4; seed = Some 2021L; deadline_conflicts = 150 }
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "submit failed"
  in
  wait_terminal s;
  Scheduler.shutdown t;
  Alcotest.(check bool) "completed" true (Session.state s = Session.Completed);
  let crashed line =
    let record = Json.member "record" (Json.of_string line) in
    let field k = Option.bind (Option.bind record (Json.member k)) Json.to_str in
    field "kind" = Some "crashed"
    && field "reason" = Some "virtual deadline of 150 conflicts exceeded"
  in
  Alcotest.(check bool) "a program crashed on its deadline" true
    (List.exists crashed (record_lines_of s))

(* ---- scheduler: finished campaigns read back from the state dir ---- *)

let fresh_dir () =
  let dir = Filename.temp_file "scamv_service_state" "" in
  Sys.remove dir;
  dir

let all_lines s =
  let lines, _, _ = Session.wait_lines s ~from:0 in
  lines

let status_bytes s = Json.to_string (Session.status_json s)

let submit_ok t ~tenant params =
  match Scheduler.submit t ~tenant params with
  | Ok s -> s
  | Error _ -> Alcotest.fail "submit failed"

let find_ok t id =
  match Scheduler.find t id with
  | Some s -> s
  | None -> Alcotest.fail ("no campaign " ^ id)

(* One stream per campaign: a wall-clock campaign with a progress line
   reads the same bytes live, after it left the session table, and after
   a restart — and its status reports the same record count. *)
let test_scheduler_stream_identity () =
  let dir = fresh_dir () in
  let config = { (sched_config ~state_dir:dir ()) with Scheduler.clock = Stopwatch.wall } in
  let t = Scheduler.create ~config () in
  let s =
    submit_ok t ~tenant:"late"
      { Session.default_params with Session.programs = 2; tests_per_program = 3;
        seed = Some 2021L }
  in
  Scheduler.drain t;
  let live = all_lines s and live_status = status_bytes s in
  Alcotest.(check bool) "has a progress line" true
    (List.exists (String.starts_with ~prefix:"{\"progress\":") live);
  let check_same what reread =
    Alcotest.(check (list string)) ("stream " ^ what) live (all_lines reread);
    Alcotest.(check string) ("status " ^ what) live_status (status_bytes reread);
    Alcotest.(check (option (float 0.0))) ("records " ^ what)
      (Some (float_of_int (List.length live)))
      (Option.bind (Json.member "records" (Session.status_json reread)) Json.to_float)
  in
  check_same "after eviction" (find_ok t s.Session.id);
  Scheduler.shutdown t;
  let t = Scheduler.create ~config () in
  check_same "after restart" (find_ok t s.Session.id);
  Scheduler.shutdown t

(* Server memory stays flat: finished campaigns live in the state dir
   only, and every one of them still lists and reads back exactly as it
   concluded. *)
let test_scheduler_memory_flat () =
  let t = Scheduler.create ~config:(sched_config ~state_dir:(fresh_dir ()) ()) () in
  let params =
    { Session.default_params with Session.template = "D";
      setup = "mct-vs-mspec-sl"; programs = 1; tests_per_program = 1 }
  in
  let run_one () =
    let s = submit_ok t ~tenant:"flat" params in
    Scheduler.drain t;
    let concluded = status_bytes s in
    let reread = find_ok t s.Session.id in
    Alcotest.(check bool) "read back from disk" false (reread == s);
    Alcotest.(check string) "status after eviction" concluded (status_bytes reread)
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  for _ = 1 to 20 do run_one () done;
  let before = live_words () in
  for _ = 1 to 120 do run_one () done;
  let growth = live_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "live words grew %d (<= 64 per campaign)" growth)
    true
    (growth <= 64 * 120);
  Alcotest.(check int) "list keeps every campaign" 140 (List.length (Scheduler.list t));
  Scheduler.shutdown t

(* The campaign log's record payloads, oldest first. *)
let log_records dir =
  let content = read_file (Filename.concat dir Scheduler.log_file) in
  let pos = Option.get (Scamv_util.Frame.records_start ~magic:"scamv-campaigns v1" content) in
  let records, _ =
    Scamv_util.Frame.fold content ~pos ~init:[] (fun acc ~offset:_ payload ->
        Some (Json.of_string payload :: acc))
  in
  List.rev records

(* The listing reads no file: a queued record carries no [records], a
   terminal one does, and once the log and every journal are deleted the
   listing is unchanged. *)
let test_scheduler_list_from_metas () =
  let dir = fresh_dir () in
  let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) ~start:false () in
  let queued = submit_ok t ~tenant:"meta" small_params in
  (match log_records dir with
  | [ record ] ->
    Alcotest.(check bool) "queued record has no records" true
      (Json.member "records" record = None)
  | records -> Alcotest.fail (Printf.sprintf "%d log records" (List.length records)));
  Scheduler.shutdown t;
  let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) () in
  let sessions =
    List.map
      (fun (programs, tests_per_program) ->
        let s =
          submit_ok t ~tenant:"meta"
            { Session.default_params with Session.template = "D";
              setup = "mct-vs-mspec-sl"; programs; tests_per_program }
        in
        Scheduler.drain t;
        s)
      [ (1, 1); (1, 2); (2, 2) ]
  in
  let finished = find_ok t queued.Session.id :: sessions in
  let expected = List.map (fun s -> Json.to_string (Session.summary_json s)) finished in
  let listed () = List.map Json.to_string (Scheduler.list t) in
  Alcotest.(check (list string)) "list at conclusion" expected (listed ());
  List.iter
    (fun s ->
      Alcotest.(check (option string)) "status from the terminal record"
        (Some (status_bytes s))
        (Option.map Json.to_string (Scheduler.status t s.Session.id)))
    finished;
  List.iter
    (fun record ->
      let terminal = Json.member "state" record <> Some (Json.Str "queued") in
      Alcotest.(check bool) "terminal records carry records" terminal
        (Json.member "records" record <> None))
    (log_records dir);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Alcotest.(check (list string)) "list without log or journals" expected (listed ());
  Scheduler.shutdown t

(* After a run, a queued cancel and a shutdown that cancels a queued
   campaign, the state dir holds the campaign log and journals only. *)
let test_scheduler_state_dir_files () =
  let dir = fresh_dir () in
  let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) () in
  let ran = submit_ok t ~tenant:"files" small_params in
  Scheduler.drain t;
  Scheduler.shutdown t;
  let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) ~start:false () in
  let cancelled = submit_ok t ~tenant:"files" small_params in
  Alcotest.(check cancel_answer) "queued cancel" (Some (true, "cancelled"))
    (Scheduler.cancel t cancelled.Session.id);
  let dropped = submit_ok t ~tenant:"files" small_params in
  Scheduler.shutdown t;
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check (list string)) "state dir files"
    [ Scheduler.log_file; ran.Session.id ^ ".journal" ]
    files;
  Alcotest.(check (list string)) "every campaign ended in the log"
    [ "queued"; "completed"; "queued"; "cancelled"; "queued"; "cancelled" ]
    (List.map
       (fun r -> Option.get (Option.bind (Json.member "state" r) Json.to_str))
       (log_records dir));
  let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) ~start:false () in
  Alcotest.(check (list string)) "restart lists all three"
    [ ran.Session.id; cancelled.Session.id; dropped.Session.id ]
    (List.map
       (fun j -> Option.get (Option.bind (Json.member "id" j) Json.to_str))
       (Scheduler.list t));
  Scheduler.shutdown t

(* Every truncation point and every single-byte flip of a log holding
   three campaigns: restart raises nothing.  A cut keeps the records
   before it; a flip costs the record it hits (none in the magic line),
   and the file is cut only at a torn tail.  A campaign whose terminal
   record survived lists and streams as before; one whose terminal
   record was lost is re-enqueued, and finishes with a journal
   byte-identical to the batch run and a terminal record the next
   restart reads; one with no record left is unknown.  The re-enqueued
   campaigns run once per distinct set of them and kind of damage. *)
let test_scheduler_damaged_log () =
  let dir = fresh_dir () in
  let seeds = [ 11L; 12L; 13L ] in
  let params seed =
    { Session.default_params with Session.programs = 1; tests_per_program = 2;
      seed = Some seed }
  in
  let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) ~start:false () in
  let queued = List.map (fun seed -> submit_ok t ~tenant:"log" (params seed)) seeds in
  let log_path = Filename.concat dir Scheduler.log_file in
  let queued_log = read_file log_path in
  Scheduler.shutdown t;
  (* restart from the three queued records and run them to completion,
     so the log ends with their three terminal records *)
  Out_channel.with_open_bin log_path (fun oc -> output_string oc queued_log);
  let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) () in
  Scheduler.drain t;
  let ids = List.map (fun s -> s.Session.id) queued in
  let finished = List.map (find_ok t) ids in
  let summary = List.map (fun s -> Json.to_string (Session.summary_json s)) finished in
  let streams = List.map all_lines finished in
  Scheduler.shutdown t;
  let whole = read_file (Filename.concat dir Scheduler.log_file) in
  let journal id = read_file (Filename.concat dir (id ^ ".journal")) in
  let journals = List.map journal ids in
  let batch =
    List.map
      (fun seed ->
        read_file (snd (batch_reference ~programs:1 ~tests_per_program:2 ~seed)))
      seeds
  in
  List.iter2 (Alcotest.(check string) "served journal is the batch one") batch journals;
  (* each record's (start offset, end offset, id, terminal) *)
  let magic_end = String.length "scamv-campaigns v1\n" in
  let frames, _ =
    Scamv_util.Frame.fold whole ~pos:magic_end ~init:[] (fun acc ~offset payload ->
        let json = Json.of_string payload in
        let field k = Option.get (Option.bind (Json.member k json) Json.to_str) in
        Some ((offset, field "id", field "state" <> "queued") :: acc))
  in
  let frames = List.rev frames in
  Alcotest.(check int) "six records" 6 (List.length frames);
  let ends = List.map (fun (o, _, _) -> o) (List.tl frames) @ [ String.length whole ] in
  let records = List.map2 (fun e (o, id, terminal) -> (o, e, id, terminal)) ends frames in
  let write_log content =
    Out_channel.with_open_bin log_path (fun oc -> output_string oc content)
  in
  let check_journals what =
    List.iter2 (fun id j -> Alcotest.(check string) (what ^ ": journal kept") j (journal id))
      ids journals
  in
  let restore_journals () =
    List.iter2
      (fun id j ->
        Out_channel.with_open_bin (Filename.concat dir (id ^ ".journal")) (fun oc ->
            output_string oc j))
      ids journals
  in
  let ran = Hashtbl.create 8 in
  let check ~what ~flip ~survives content =
    let survivors = List.filter survives records in
    let status id =
      if List.exists (fun (_, _, i, term) -> i = id && term) survivors then `Finished
      else if List.exists (fun (_, _, i, _) -> i = id) survivors then `Requeued
      else `Unknown
    in
    (* the file keeps everything up to its last clean record *)
    let clean_end =
      List.fold_left (fun acc (_, e, _, _) -> max acc e)
        (if Scamv_util.Frame.torn_magic ~magic:"scamv-campaigns v1" content then 0
         else min magic_end (String.length content))
        survivors
    in
    write_log content;
    let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) ~start:false () in
    Alcotest.(check string) (what ^ ": log cut only at a torn tail")
      (String.sub content 0 clean_end) (read_file log_path);
    let listed = List.map Json.to_string (Scheduler.list t) in
    List.iteri
      (fun i id ->
        match status id with
        | `Finished ->
          Alcotest.(check bool) (what ^ ": lists as before") true
            (List.mem (List.nth summary i) listed);
          Alcotest.(check (list string)) (what ^ ": streams as before")
            (List.nth streams i) (all_lines (find_ok t id))
        | `Requeued ->
          Alcotest.(check string) (what ^ ": re-enqueued " ^ id) "queued"
            (Session.state_name (Session.state (find_ok t id)))
        | `Unknown ->
          Alcotest.(check bool) (what ^ ": unknown") true (Scheduler.find t id = None))
      ids;
    Scheduler.shutdown t;
    check_journals what;
    let requeued = List.filter (fun id -> status id = `Requeued) ids in
    if requeued <> [] && not (Hashtbl.mem ran (requeued, flip)) then begin
      Hashtbl.add ran (requeued, flip) ();
      write_log content;
      let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) () in
      Scheduler.drain t;
      List.iteri
        (fun i id ->
          if List.mem id requeued then begin
            Alcotest.(check bool) (what ^ ": re-run completed") true
              (Session.state (find_ok t id) = Session.Completed);
            Alcotest.(check string) (what ^ ": re-run journal is the batch one")
              (List.nth batch i) (journal id)
          end)
        ids;
      Scheduler.shutdown t;
      (* the new terminal records follow a clean record, so the next
         restart reads them back *)
      let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) ~start:false () in
      List.iter
        (fun id ->
          Alcotest.(check bool) (what ^ ": re-run logged") true
            (Session.state (find_ok t id) = Session.Completed))
        requeued;
      Scheduler.shutdown t;
      restore_journals ()
    end
  in
  let n = String.length whole in
  for len = 0 to n - 1 do
    check ~what:(Printf.sprintf "cut at %d" len) ~flip:false
      ~survives:(fun (_, e, _, _) -> len >= magic_end && e <= len)
      (String.sub whole 0 len)
  done;
  let flip i content =
    let mask = 1 + (i mod 255) in
    String.mapi (fun k c -> if k = i then Char.chr (Char.code c lxor mask) else c) content
  in
  for i = 0 to n - 1 do
    check ~what:(Printf.sprintf "flip at %d" i) ~flip:true
      ~survives:(fun (o, e, _, _) -> i < o || i >= e)
      (flip i whole)
  done;
  Alcotest.(check bool) "some re-enqueued sets ran" true (Hashtbl.length ran > 0);
  (* A flip in the first record leaves the log as it is, and a new
     campaign takes the next id: no journal is reused. *)
  let first_flipped = flip (magic_end + 3) whole in
  write_log first_flipped;
  let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) () in
  Alcotest.(check string) "first-record flip: log untouched" first_flipped (read_file log_path);
  Alcotest.(check string) "first-record flip: next id" "log-3"
    (submit_ok t ~tenant:"log" (params 14L)).Session.id;
  Scheduler.drain t;
  Scheduler.shutdown t;
  check_journals "first-record flip";
  Sys.remove (Filename.concat dir "log-3.journal");
  (* A lost record that was its campaign's only one: the mark still goes
     past that campaign's journal. *)
  let last_queued, _, _, _ = List.nth records 2 in
  write_log (flip (last_queued + 3) queued_log);
  let t = Scheduler.create ~config:(sched_config ~state_dir:dir ()) ~start:false () in
  Alcotest.(check bool) "only record lost: unknown" true
    (Scheduler.find t (List.nth ids 2) = None);
  Alcotest.(check string) "only record lost: next id skips its journal" "log-3"
    (submit_ok t ~tenant:"log" (params 14L)).Session.id;
  Scheduler.shutdown t;
  check_journals "only record lost";
  (* A file that is no campaign log is refused and left alone. *)
  write_log "not a campaign log\n";
  Alcotest.check_raises "no log refused" (Failure (log_path ^ " is not a campaign log"))
    (fun () -> ignore (Scheduler.create ~config:(sched_config ~state_dir:dir ()) ~start:false ()));
  Alcotest.(check string) "no log left alone" "not a campaign log\n" (read_file log_path)

(* ---- server: wire-level connection management ---- *)

let with_server ?(concurrency = 1) ?(jobs = 1) ?state_dir ?max_connections
    ?idle_timeout ?max_requests ?(start_sched = true) f =
  let sched =
    Scheduler.create
      ~config:(sched_config ?state_dir ~jobs ~concurrency ())
      ~start:start_sched ()
  in
  let server =
    Server.create ~port:0 ?max_connections ?idle_timeout ?max_requests sched
  in
  Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Scheduler.shutdown sched)
    (fun () -> f sched (Server.port server))

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "request fully written" (String.length s) n

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Read one response off a (possibly persistent) connection: status,
   lowercased headers, and the body (Content-Length or chunked). *)
let read_response ic =
  let status_line = strip_cr (input_line ic) in
  let status = Scanf.sscanf status_line "HTTP/1.1 %d" (fun c -> c) in
  let rec headers acc =
    match strip_cr (input_line ic) with
    | "" -> List.rev acc
    | line -> (
      match String.index_opt line ':' with
      | Some i ->
        headers
          ((String.lowercase_ascii (String.sub line 0 i),
            String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          :: acc)
      | None -> headers acc)
  in
  let hs = headers [] in
  let body =
    match List.assoc_opt "content-length" hs with
    | Some n -> really_input_string ic (int_of_string n)
    | None ->
      if List.assoc_opt "transfer-encoding" hs = Some "chunked" then begin
        let b = Buffer.create 256 in
        let rec chunks () =
          let size = int_of_string ("0x" ^ strip_cr (input_line ic)) in
          if size = 0 then ignore (input_line ic)
          else begin
            Buffer.add_string b (really_input_string ic size);
            ignore (input_line ic);
            chunks ()
          end
        in
        chunks ();
        Buffer.contents b
      end
      else ""
  in
  (status, hs, body)

let expect_eof ic =
  match input_char ic with
  | exception End_of_file -> ()
  | _ -> Alcotest.fail "expected the server to close the connection"

let metric_value body name =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
           float_of_string_opt
             (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)

let test_server_keep_alive_reuse () =
  with_server (fun _sched port ->
      let fd = connect port in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* three requests down one connection *)
          send fd "GET /healthz HTTP/1.1\r\n\r\n";
          let status, hs, body = read_response ic in
          Alcotest.(check int) "first status" 200 status;
          Alcotest.(check (option string)) "first advertises keep-alive"
            (Some "keep-alive")
            (List.assoc_opt "connection" hs);
          Alcotest.(check string) "healthz body" "{\"ok\":true}\n" body;
          send fd "GET /healthz HTTP/1.1\r\n\r\n";
          let status, _, _ = read_response ic in
          Alcotest.(check int) "second status" 200 status;
          send fd "GET /metrics HTTP/1.1\r\n\r\n";
          let status, _, body = read_response ic in
          Alcotest.(check int) "third status" 200 status;
          (* requests 2 and 3 each count one reuse; the gauge sees this
             very connection as active *)
          Alcotest.(check (option (float 0.0))) "reuse counter" (Some 2.0)
            (metric_value body "scamv_service_connections_reused");
          Alcotest.(check (option (float 0.0))) "active gauge" (Some 1.0)
            (metric_value body "scamv_service_connections_active")))

let test_server_connection_close_honored () =
  with_server (fun _sched port ->
      let fd = connect port in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          send fd "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
          let status, hs, _ = read_response ic in
          Alcotest.(check int) "status" 200 status;
          Alcotest.(check (option string)) "advertises close" (Some "close")
            (List.assoc_opt "connection" hs);
          expect_eof ic))

let test_server_idle_timeout_closes () =
  with_server ~idle_timeout:0.4 (fun _sched port ->
      let fd = connect port in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          send fd "GET /healthz HTTP/1.1\r\n\r\n";
          let status, _, _ = read_response ic in
          Alcotest.(check int) "served before idling" 200 status;
          (* send nothing more: the idle deadline closes the connection *)
          expect_eof ic))

let test_server_request_cap_rollover () =
  with_server ~max_requests:2 (fun _sched port ->
      let fd = connect port in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          send fd "GET /healthz HTTP/1.1\r\n\r\n";
          let _, hs, _ = read_response ic in
          Alcotest.(check (option string)) "first keeps alive" (Some "keep-alive")
            (List.assoc_opt "connection" hs);
          send fd "GET /healthz HTTP/1.1\r\n\r\n";
          let status, hs, _ = read_response ic in
          Alcotest.(check int) "capped request served" 200 status;
          Alcotest.(check (option string)) "cap forces close" (Some "close")
            (List.assoc_opt "connection" hs);
          expect_eof ic);
      (* rollover: a fresh connection is served normally *)
      let fd2 = connect port in
      let ic2 = Unix.in_channel_of_descr fd2 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          send fd2 "GET /healthz HTTP/1.1\r\n\r\n";
          let status, _, _ = read_response ic2 in
          Alcotest.(check int) "fresh connection after rollover" 200 status))

let test_server_malformed_second_request () =
  with_server (fun _sched port ->
      let fd = connect port in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          send fd "GET /healthz HTTP/1.1\r\n\r\n";
          let status, _, _ = read_response ic in
          Alcotest.(check int) "first ok" 200 status;
          (* garbage on the reused connection: 400, then close — framing
             is no longer trustworthy *)
          send fd "BOGUS\r\n\r\n";
          let status, hs, _ = read_response ic in
          Alcotest.(check int) "malformed rejected" 400 status;
          Alcotest.(check (option string)) "and closed" (Some "close")
            (List.assoc_opt "connection" hs);
          expect_eof ic);
      (* the worker is not poisoned: it serves the next connection *)
      let fd2 = connect port in
      let ic2 = Unix.in_channel_of_descr fd2 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          send fd2 "GET /healthz HTTP/1.1\r\n\r\n";
          let status, _, _ = read_response ic2 in
          Alcotest.(check int) "worker survives" 200 status))

let test_server_backpressure_503 () =
  (* One connection worker, no campaign runner: a streaming request for a
     queued session parks the only worker forever, the next connection
     waits in the handoff queue, and the one after that must be shed with
     503 + Retry-After by the acceptor itself. *)
  with_server ~start_sched:false ~max_connections:1 (fun sched port ->
      let s =
        match Scheduler.submit sched ~tenant:"bp" small_params with
        | Ok s -> s
        | Error _ -> Alcotest.fail "submit failed"
      in
      let fd_a = connect port in
      let ic_a = Unix.in_channel_of_descr fd_a in
      let closer fd () = try Unix.close fd with Unix.Unix_error _ -> () in
      Fun.protect ~finally:(closer fd_a) (fun () ->
          send fd_a
            (Printf.sprintf
               "GET /campaigns/%s/stream HTTP/1.1\r\nConnection: close\r\n\r\n"
               s.Session.id);
          (* the stream head arrives immediately; the body then blocks *)
          let line = strip_cr (input_line ic_a) in
          Alcotest.(check string) "stream head" "HTTP/1.1 200 OK" line;
          let fd_b = connect port in
          Fun.protect ~finally:(closer fd_b) (fun () ->
              (* b sits in the handoff queue; give the acceptor a moment *)
              Thread.delay 0.05;
              let fd_c = connect port in
              let ic_c = Unix.in_channel_of_descr fd_c in
              Fun.protect ~finally:(closer fd_c) (fun () ->
                  let status, hs, _ = read_response ic_c in
                  Alcotest.(check int) "shed with 503" 503 status;
                  Alcotest.(check (option string)) "retry-after" (Some "1")
                    (List.assoc_opt "retry-after" hs);
                  Alcotest.(check (option string)) "and closed" (Some "close")
                    (List.assoc_opt "connection" hs);
                  expect_eof ic_c));
          (* unblock the parked worker so stop is prompt *)
          ignore (Scheduler.cancel sched s.Session.id)))

(* One request on its own connection: status and body. *)
let request port meth path =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send fd (Printf.sprintf "%s %s HTTP/1.1\r\nConnection: close\r\n\r\n" meth path);
      let status, _, body = read_response (Unix.in_channel_of_descr fd) in
      (status, body))

let get_status port path = fst (request port "GET" path)

(* Ids reach the lookup percent-decoded from the URL, and only an id in
   the finished table reaches the disk.  A journal planted one level
   above the state dir, under the id a traversal would build, must stay
   unreachable. *)
let test_server_lookup_path_safety () =
  let root = fresh_dir () in
  Unix.mkdir root 0o755;
  let state_dir = Filename.concat root "state" in
  with_server ~state_dir (fun sched port ->
      let s =
        submit_ok sched ~tenant:"safe"
          { Session.default_params with Session.template = "D";
            setup = "mct-vs-mspec-sl"; programs = 1; tests_per_program = 1 }
      in
      Scheduler.drain sched;
      let id = s.Session.id in
      Out_channel.with_open_bin (Filename.concat root "outside-0.journal") (fun oc ->
          output_string oc (read_file (Filename.concat state_dir (id ^ ".journal"))));
      Alcotest.(check int) "finished stream served from disk" 200
        (get_status port ("/campaigns/" ^ id ^ "/stream"));
      Alcotest.(check int) "dot-dot id" 404 (get_status port "/campaigns/%2E%2E/stream");
      Alcotest.(check int) "NUL in id" 404
        (get_status port ("/campaigns/" ^ id ^ "%00/stream"));
      List.iter
        (fun bad ->
          Alcotest.(check bool) (Printf.sprintf "find %S" bad) true
            (Scheduler.find sched bad = None))
        [ "../outside-0"; id ^ "\000"; ".."; id ^ "x"; "-0"; "safe-" ])

(* Cancelling a finished campaign answers from its summary: with its
   journal turned into a directory, a journal read would raise. *)
let test_server_cancel_finished_reads_no_journal () =
  let state_dir = fresh_dir () in
  with_server ~state_dir (fun sched port ->
      let s = submit_ok sched ~tenant:"done" small_params in
      Scheduler.drain sched;
      let id = s.Session.id in
      let journal = Filename.concat state_dir (id ^ ".journal") in
      Sys.remove journal;
      Unix.mkdir journal 0o755;
      let status, body = request port "DELETE" ("/campaigns/" ^ id) in
      Alcotest.(check int) "DELETE of a finished campaign" 200 status;
      Alcotest.(check string) "answered from the summary"
        (Printf.sprintf {|{"id":"%s","cancelled":false,"state":"completed"}|} id)
        (Json.to_string (Json.of_string body));
      Alcotest.(check int) "unknown id" 404 (fst (request port "DELETE" "/campaigns/done-7")))

(* Connection workers start on demand and stay, up to the cap.  The
   gauge counts the worker serving the scrape itself. *)
let test_server_workers_on_demand () =
  with_server ~max_connections:4 (fun _sched port ->
      let opened = ref [] in
      let open_conn () =
        let fd = connect port in
        opened := fd :: !opened;
        (fd, Unix.in_channel_of_descr fd)
      in
      let get (fd, ic) path =
        send fd (Printf.sprintf "GET %s HTTP/1.1\r\n\r\n" path);
        let status, _, body = read_response ic in
        Alcotest.(check int) (path ^ " status") 200 status;
        body
      in
      let workers conn =
        match metric_value (get conn "/metrics") "scamv_service_connection_workers" with
        | Some v -> int_of_float v
        | None -> Alcotest.fail "no connection_workers sample"
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !opened)
        (fun () ->
          (* a held keep-alive connection: its scrape runs the only worker *)
          let a = open_conn () in
          Alcotest.(check int) "first scrape" 1 (workers a);
          (* a second held connection finds no free worker and starts one;
             the scrape on a third does the same *)
          ignore (get (open_conn ()) "/healthz");
          let c = open_conn () in
          Alcotest.(check int) "two idle connections held" 3 (workers c);
          (* once the third connection's worker is free again, the next
             connection takes it *)
          Unix.close (fst c);
          opened := List.tl !opened;
          let active () =
            metric_value (get a "/metrics") "scamv_service_connections_active"
          in
          let give_up = Unix.gettimeofday () +. 10.0 in
          while active () <> Some 2.0 && Unix.gettimeofday () < give_up do
            Thread.delay 0.01
          done;
          Alcotest.(check int) "a free worker is reused" 3 (workers (open_conn ()));
          (* a burst of silent connects holds the other workers and fills
             the queue; the gauge never passes the cap *)
          let read_capped () =
            let n = workers a in
            if n > 4 then Alcotest.failf "%d workers past a cap of 4" n;
            n
          in
          for _ = 1 to 12 do
            ignore (open_conn ());
            ignore (read_capped ())
          done;
          let give_up = Unix.gettimeofday () +. 10.0 in
          while read_capped () < 4 && Unix.gettimeofday () < give_up do
            Thread.delay 0.01
          done;
          Alcotest.(check int) "burst reaches the cap" 4 (read_capped ())))

let () =
  Alcotest.run "scamv_service"
    [
      ( "http",
        [
          Alcotest.test_case "parses GET with query" `Quick test_http_parse_get;
          Alcotest.test_case "parses POST body" `Quick test_http_parse_post_body;
          Alcotest.test_case "rejects malformed requests" `Quick
            test_http_rejects_malformed;
          Alcotest.test_case "pipelined bytes survive between requests" `Quick
            test_http_pipelined_requests_share_reader;
          Alcotest.test_case "keep-alive intent" `Quick test_http_keep_alive_intent;
          QCheck_alcotest.to_alcotest prop_http_reader_total;
        ] );
      ( "router",
        [ Alcotest.test_case "dispatch/405/404" `Quick test_router_dispatch ] );
      ( "tenant",
        [
          Alcotest.test_case "names and seed namespace" `Quick
            test_tenant_names_and_seeds;
          Alcotest.test_case "quota admission" `Quick test_tenant_quota;
        ] );
      ( "workload",
        [ Alcotest.test_case "config range rules" `Quick test_workload_config ] );
      ( "session",
        [
          Alcotest.test_case "params JSON" `Quick test_session_params_json;
          Alcotest.test_case "stream wait/conclude" `Quick
            test_session_stream_semantics;
          Alcotest.test_case "meta and request round-trip" `Quick
            test_session_meta_roundtrip;
          QCheck_alcotest.to_alcotest prop_mutated_meta_json;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "admission control and backpressure" `Quick
            test_scheduler_admission;
          Alcotest.test_case "cancel mid-campaign" `Quick
            test_scheduler_cancel_running;
          Alcotest.test_case "stream and journal match batch run" `Quick
            test_scheduler_stream_matches_batch;
          Alcotest.test_case "concurrent campaigns match batch runs" `Quick
            test_scheduler_concurrent_matches_batch;
          Alcotest.test_case "an idle runner takes the next campaign" `Quick
            test_scheduler_idle_runner_takes_next;
          Alcotest.test_case "diff campaign honours its deadline" `Quick
            test_scheduler_diff_deadline;
          Alcotest.test_case "one stream live, evicted and restarted" `Quick
            test_scheduler_stream_identity;
          Alcotest.test_case "finished campaigns keep memory flat" `Quick
            test_scheduler_memory_flat;
          Alcotest.test_case "list reads terminal metas" `Quick
            test_scheduler_list_from_metas;
          Alcotest.test_case "state dir holds the log and journals only" `Quick
            test_scheduler_state_dir_files;
          Alcotest.test_case "damaged campaign log restarts cleanly" `Quick
            test_scheduler_damaged_log;
        ] );
      ( "server",
        [
          Alcotest.test_case "keep-alive reuse and metrics" `Quick
            test_server_keep_alive_reuse;
          Alcotest.test_case "Connection: close honored" `Quick
            test_server_connection_close_honored;
          Alcotest.test_case "idle timeout closes cleanly" `Quick
            test_server_idle_timeout_closes;
          Alcotest.test_case "request cap rolls the connection over" `Quick
            test_server_request_cap_rollover;
          Alcotest.test_case "malformed reused request isolated" `Quick
            test_server_malformed_second_request;
          Alcotest.test_case "accept queue sheds with 503" `Quick
            test_server_backpressure_503;
          Alcotest.test_case "disk lookups stay inside the state dir" `Quick
            test_server_lookup_path_safety;
          Alcotest.test_case "cancel of a finished campaign reads no journal" `Quick
            test_server_cancel_finished_reads_no_journal;
          Alcotest.test_case "connection workers start on demand" `Quick
            test_server_workers_on_demand;
        ] );
    ]
