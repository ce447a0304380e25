(* Validation-service acceptance harness (`make serve-smoke`).

   Everything runs against a real Server over loopback TCP — the same
   code path a remote client exercises — with a frozen campaign clock so
   the acceptance checks can demand byte identity:

   - two tenants submit and stream campaigns concurrently, and each
     streamed record sequence (and the server's on-disk journal) must be
     byte-identical to a batch Campaign.run of the same parameters;
   - the same campaigns served at every --concurrency {1,2,4} x
     --jobs {1,2} combination must stream the same bytes — which runner
     takes a campaign, and its pool width, are never observable;
   - connections are persistent: sequential requests reuse one socket
     and the /metrics reuse counter proves it;
   - a SIGKILLed --concurrency 2 server with two campaigns mid-flight
     must, after restart from its state directory, finish both and leave
     journals + streams indistinguishable from uninterrupted runs;
   - a finished campaign's stream, re-read once it has left the session
     table and again after a restart, is the live stream byte for byte;
   - quota rejections surface as HTTP 429, cancellation as a terminal
     "cancelled" stream, and /metrics as a Prometheus dump.

   Service latency and throughput are measured by perfbench's
   served-small workload, not here. *)

module Json = Scamv_util.Json
module Stopwatch = Scamv_util.Stopwatch
module Campaign = Scamv.Campaign
module Journal = Scamv.Journal
module Scheduler = Scamv_service.Scheduler
module Server = Scamv_service.Server
module Session = Scamv_service.Session
module Tenant = Scamv_service.Tenant
module Workload = Scamv_service.Workload

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("service: FAIL: " ^ m);
      exit 1)
    fmt

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Minimal HTTP/1.1 client                                             *)
(* ------------------------------------------------------------------ *)

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let read_line_crlf ic =
  match In_channel.input_line ic with
  | None -> fail "connection closed mid-response"
  | Some line ->
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let read_chunked ic =
  let b = Buffer.create 4096 in
  let rec loop () =
    let size_line = read_line_crlf ic in
    let size = int_of_string ("0x" ^ size_line) in
    if size > 0 then begin
      Buffer.add_string b (really_input_string ic size);
      let _crlf = read_line_crlf ic in
      loop ()
    end
    else
      let _trailer = read_line_crlf ic in
      ()
  in
  loop ();
  Buffer.contents b

let read_response ic =
  let status_line = read_line_crlf ic in
  let status =
    match String.split_on_char ' ' status_line with
    | _ :: code :: _ -> int_of_string code
    | _ -> fail "malformed status line %S" status_line
  in
  let rec headers acc =
    match read_line_crlf ic with
    | "" -> List.rev acc
    | line -> (
      match String.index_opt line ':' with
      | None -> fail "malformed response header %S" line
      | Some i ->
        headers
          (( String.lowercase_ascii (String.sub line 0 i),
             String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
          :: acc))
  in
  let headers = headers [] in
  let body =
    match List.assoc_opt "transfer-encoding" headers with
    | Some "chunked" -> read_chunked ic
    | _ -> (
      match List.assoc_opt "content-length" headers with
      | Some n -> really_input_string ic (int_of_string n)
      | None -> In_channel.input_all ic)
  in
  { status; headers; body }

(* A persistent (keep-alive) connection: every response is framed by
   Content-Length or chunked encoding, so the socket stays usable for the
   next request until [close:true] or [close_conn]. *)
type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request_on c ~meth ~path ?(body = "") ?(close = false) () =
  Printf.fprintf c.oc "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n%s\r\n%s"
    meth path (String.length body)
    (if close then "Connection: close\r\n" else "")
    body;
  flush c.oc;
  read_response c.ic

let request ~port ~meth ~path ?(body = "") () =
  let c = connect ~port in
  Fun.protect
    ~finally:(fun () -> close_conn c)
    (fun () -> request_on c ~meth ~path ~body ~close:true ())

let body_json r = Json.of_string r.body

let body_member r name =
  match Json.member name (body_json r) with
  | Some v -> v
  | None -> fail "response body missing field %s: %s" name r.body

let ndjson_lines body =
  String.split_on_char '\n' body |> List.filter (fun l -> l <> "")

let record_lines lines =
  List.filter (fun l -> String.length l >= 10 && String.sub l 0 10 = "{\"record\":") lines

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------------------------------ *)
(* Submissions and batch references                                    *)
(* ------------------------------------------------------------------ *)

type spec = {
  tenant : string;
  template : string;
  setup : string;
  programs : int;
  tests : int;
  seed : int64 option;
}

let spec_body s =
  Json.to_string
    (Json.Obj
       ([
          ("tenant", Json.Str s.tenant);
          ("template", Json.Str s.template);
          ("setup", Json.Str s.setup);
          ("programs", Json.Num (float_of_int s.programs));
          ("tests_per_program", Json.Num (float_of_int s.tests));
        ]
       @
       match s.seed with
       | None -> []
       | Some v -> [ ("seed", Json.Str (Int64.to_string v)) ]))

let submit ~port s =
  let r = request ~port ~meth:"POST" ~path:"/campaigns" ~body:(spec_body s) () in
  if r.status <> 201 then fail "submit: expected 201, got %d (%s)" r.status r.body;
  match body_member r "id" with
  | Json.Str id -> id
  | _ -> fail "submit: non-string id in %s" r.body

let stream ~port id =
  let r = request ~port ~meth:"GET" ~path:(Printf.sprintf "/campaigns/%s/stream" id) () in
  if r.status <> 200 then fail "stream %s: expected 200, got %d" id r.status;
  if List.assoc_opt "transfer-encoding" r.headers <> Some "chunked" then
    fail "stream %s: response is not chunked" id;
  ndjson_lines r.body

(* Run the same campaign the service would, directly through
   Campaign.run, and return (journal file bytes, expected record lines). *)
let batch_reference s ~seed =
  let cfg =
    match
      Workload.config ~template:s.template ~setup:s.setup
        ~isa:(`Single Scamv_arch.Isa.Aarch64) ~programs:s.programs
        ~tests:s.tests ~seed ~clock:Stopwatch.frozen ()
    with
    | Ok cfg -> cfg
    | Error e -> fail "batch reference: %s" e
  in
  let path = Filename.temp_file "scamv-service-ref" ".journal" in
  Sys.remove path;
  let journal = Journal.create ~path () in
  let (_ : Campaign.outcome) = Campaign.run ~journal cfg in
  Journal.close journal;
  let bytes = read_file path in
  Sys.remove path;
  (bytes, List.map Session.record_line (Journal.events journal))

let check_stream_matches_batch ~what ~state_dir id s ~seed lines =
  let bytes, expected = batch_reference s ~seed in
  if record_lines lines <> expected then
    fail "%s: streamed records differ from batch run" what;
  (match List.rev lines with
  | last :: _ when has_prefix ~prefix:"{\"done\":\"completed\"" last -> ()
  | last :: _ -> fail "%s: stream ended with %s" what last
  | [] -> fail "%s: empty stream" what);
  let server_journal = Filename.concat state_dir (id ^ ".journal") in
  if read_file server_journal <> bytes then
    fail "%s: server journal differs from batch journal" what;
  Printf.printf "OK: %s byte-identical to batch (%d records)\n%!" what
    (List.length expected)

(* A finished campaign's stream, read again now, must be the bytes that
   were streamed live: progress and done lines included. *)
let check_reread ~what ~port id live =
  if stream ~port id <> live then fail "%s: re-read stream differs from the live one" what;
  Printf.printf "OK: %s re-read stream identical to the live one\n%!" what

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let scheduler_config ?state_dir ?(jobs = 1) ?(concurrency = 1)
    ?(quota = Tenant.default_quota) () =
  { Scheduler.jobs; concurrency; state_dir; quota; clock = Stopwatch.frozen }

let start_server scd =
  let srv = Server.create ~port:0 scd in
  Server.start srv;
  srv

(* ------------------------------------------------------------------ *)
(* Functional smoke suite                                              *)
(* ------------------------------------------------------------------ *)

let spec_alice = {
  tenant = "alice"; template = "A"; setup = "mct-vs-mspec";
  programs = 3; tests = 3; seed = Some 2021L;
}

let spec_bob = {
  tenant = "bob"; template = "C"; setup = "mspec1-vs-mspec";
  programs = 2; tests = 2; seed = Some 7L;
}

let smoke_two_tenants () =
  let dir = temp_dir "scamv-service" in
  let scd = Scheduler.create ~config:(scheduler_config ~state_dir:dir ~jobs:2 ()) () in
  let srv = start_server scd in
  let port = Server.port srv in
  let health = request ~port ~meth:"GET" ~path:"/healthz" () in
  if health.status <> 200 then fail "healthz: %d" health.status;
  (* Two tenants, submitted and streamed concurrently: the streams open
     while the campaigns are still queued/running, so this exercises the
     blocking wait path, not just replay of finished sessions. *)
  let id_a = submit ~port spec_alice in
  let id_b = submit ~port spec_bob in
  let results = Array.make 2 [] in
  let reader i id = Thread.create (fun () -> results.(i) <- stream ~port id) () in
  let ta = reader 0 id_a and tb = reader 1 id_b in
  Thread.join ta;
  Thread.join tb;
  check_stream_matches_batch ~what:"tenant alice campaign" ~state_dir:dir
    id_a spec_alice ~seed:2021L results.(0);
  check_stream_matches_batch ~what:"tenant bob campaign" ~state_dir:dir
    id_b spec_bob ~seed:7L results.(1);
  (* Both campaigns are finished and out of the session table: the
     re-reads come from the state directory. *)
  check_reread ~what:"tenant alice campaign" ~port id_a results.(0);
  check_reread ~what:"tenant bob campaign" ~port id_b results.(1);
  (* Status and listing. *)
  let st = request ~port ~meth:"GET" ~path:("/campaigns/" ^ id_a) () in
  if st.status <> 200 then fail "status: %d" st.status;
  (match body_member st "state" with
  | Json.Str "completed" -> ()
  | j -> fail "status: unexpected state %s" (Json.to_string j));
  let listing = request ~port ~meth:"GET" ~path:"/campaigns" () in
  (match Json.member "campaigns" (body_json listing) with
  | Some (Json.Arr l) when List.length l = 2 -> ()
  | _ -> fail "listing: expected 2 campaigns: %s" listing.body);
  (* Error surfaces. *)
  let miss = request ~port ~meth:"GET" ~path:"/campaigns/nope-0" () in
  if miss.status <> 404 then fail "missing campaign: expected 404, got %d" miss.status;
  let put = request ~port ~meth:"PUT" ~path:"/campaigns" () in
  if put.status <> 405 then fail "PUT /campaigns: expected 405, got %d" put.status;
  let bad = request ~port ~meth:"POST" ~path:"/campaigns" ~body:"{nope" () in
  if bad.status <> 400 then fail "bad JSON: expected 400, got %d" bad.status;
  let bad_setup =
    request ~port ~meth:"POST" ~path:"/campaigns"
      ~body:{|{"setup":"not-a-setup"}|} ()
  in
  if bad_setup.status <> 400 then fail "bad setup: expected 400, got %d" bad_setup.status;
  (* Prometheus export carries both campaign telemetry and service
     counters. *)
  let metrics = request ~port ~meth:"GET" ~path:"/metrics" () in
  if metrics.status <> 200 then fail "metrics: %d" metrics.status;
  List.iter
    (fun needle ->
      if not (contains_substring metrics.body needle) then
        fail "metrics: missing %s" needle)
    [
      "service_campaigns_completed 2";
      "service_campaigns_submitted 2";
      "service_http_requests";
      "service_sessions_total 2";
      "sat_conflicts";
    ];
  Server.stop srv;
  Scheduler.shutdown scd;
  Printf.printf "OK: two-tenant smoke (status/listing/errors/metrics)\n%!";
  dir

(* The same campaign served by a --jobs 1 server must stream the same
   bytes as the --jobs 2 server above. *)
let smoke_jobs_identity dir_jobs2 =
  let dir = temp_dir "scamv-service-j1" in
  let scd = Scheduler.create ~config:(scheduler_config ~state_dir:dir ~jobs:1 ()) () in
  let srv = start_server scd in
  let port = Server.port srv in
  let id = submit ~port spec_alice in
  let lines = stream ~port id in
  let bytes, expected = batch_reference spec_alice ~seed:2021L in
  if record_lines lines <> expected then
    fail "jobs identity: --jobs 1 stream differs from batch";
  let j1 = read_file (Filename.concat dir (id ^ ".journal")) in
  let j2 = read_file (Filename.concat dir_jobs2 (id ^ ".journal")) in
  if j1 <> bytes || j1 <> j2 then
    fail "jobs identity: journals differ across server --jobs levels";
  Server.stop srv;
  Scheduler.shutdown scd;
  Printf.printf "OK: served campaign byte-identical across --jobs 1/2 servers\n%!"

(* Quota backpressure and queued-cancel, over real HTTP against a
   scheduler with no runner thread (so sessions stay queued
   deterministically). *)
let smoke_backpressure_and_cancel () =
  let quota = { Tenant.max_backlog = 1; max_active = 1 } in
  let scd = Scheduler.create ~config:(scheduler_config ~quota ()) ~start:false () in
  let srv = start_server scd in
  let port = Server.port srv in
  let id = submit ~port { spec_alice with seed = None } in
  let r = request ~port ~meth:"POST" ~path:"/campaigns" ~body:(spec_body spec_alice) () in
  if r.status <> 429 then fail "backpressure: expected 429, got %d" r.status;
  if List.assoc_opt "retry-after" r.headers <> Some "1" then
    fail "backpressure: missing Retry-After";
  let del = request ~port ~meth:"DELETE" ~path:("/campaigns/" ^ id) () in
  if del.status <> 200 then fail "cancel: %d" del.status;
  (match body_member del "cancelled" with
  | Json.Bool true -> ()
  | j -> fail "cancel: expected true, got %s" (Json.to_string j));
  (* The freed backlog slot admits a new campaign. *)
  let id2 = submit ~port spec_bob in
  (* A cancelled queued campaign streams exactly one line: done. *)
  (match stream ~port id with
  | [ line ] when has_prefix ~prefix:"{\"done\":\"cancelled\"" line -> ()
  | lines -> fail "cancel: unexpected stream %s" (String.concat " | " lines));
  let del2 = request ~port ~meth:"DELETE" ~path:("/campaigns/" ^ id) () in
  (match body_member del2 "cancelled" with
  | Json.Bool false -> ()
  | _ -> fail "cancel: second DELETE should be a no-op");
  ignore id2;
  Server.stop srv;
  Scheduler.shutdown scd;
  Printf.printf "OK: quota 429 backpressure and queued-campaign cancel\n%!"

(* Persistent connections over the wire: three requests down one socket,
   with the server's own reuse counter as the witness. *)
let smoke_keep_alive () =
  let scd = Scheduler.create ~config:(scheduler_config ()) ~start:false () in
  let srv = start_server scd in
  let port = Server.port srv in
  let c = connect ~port in
  let r1 = request_on c ~meth:"GET" ~path:"/healthz" () in
  if r1.status <> 200 then fail "keep-alive: first request: %d" r1.status;
  if List.assoc_opt "connection" r1.headers <> Some "keep-alive" then
    fail "keep-alive: server did not advertise a persistent connection";
  let r2 = request_on c ~meth:"GET" ~path:"/healthz" () in
  if r2.status <> 200 then fail "keep-alive: second request: %d" r2.status;
  let r3 = request_on c ~meth:"GET" ~path:"/metrics" ~close:true () in
  if r3.status <> 200 then fail "keep-alive: metrics request: %d" r3.status;
  if not (contains_substring r3.body "service_connections_reused 2") then
    fail "keep-alive: reuse counter did not reach 2:\n%s" r3.body;
  if List.assoc_opt "connection" r3.headers <> Some "close" then
    fail "keep-alive: Connection: close not honored";
  (match In_channel.input_line c.ic with
  | None -> ()
  | Some _ -> fail "keep-alive: connection still open after Connection: close");
  close_conn c;
  Server.stop srv;
  Scheduler.shutdown scd;
  Printf.printf "OK: persistent connection served 3 requests (2 reuses counted)\n%!"

(* The tentpole acceptance: the same two campaigns served at every
   --concurrency {1,2,4} x --jobs {1,2} combination stream and journal
   exactly the batch bytes. *)
let smoke_concurrency_identity () =
  let refs =
    List.map
      (fun s -> (s, batch_reference s ~seed:(Option.get s.seed)))
      [ spec_alice; spec_bob ]
  in
  List.iter
    (fun (concurrency, jobs) ->
      let dir = temp_dir "scamv-service-conc" in
      let scd =
        Scheduler.create
          ~config:(scheduler_config ~state_dir:dir ~jobs ~concurrency ())
          ()
      in
      let srv = start_server scd in
      let port = Server.port srv in
      (* submit both before streaming so they are in flight together *)
      let ids = List.map (fun (s, _) -> submit ~port s) refs in
      List.iter2
        (fun id (s, (bytes, expected)) ->
          let lines = stream ~port id in
          if record_lines lines <> expected then
            fail
              "concurrency identity: --concurrency %d --jobs %d: %s stream \
               differs from batch"
              concurrency jobs s.tenant;
          if read_file (Filename.concat dir (id ^ ".journal")) <> bytes then
            fail
              "concurrency identity: --concurrency %d --jobs %d: %s journal \
               differs from batch"
              concurrency jobs s.tenant)
        ids refs;
      Server.stop srv;
      Scheduler.shutdown scd)
    [ (1, 1); (1, 2); (2, 1); (2, 2); (4, 1); (4, 2) ];
  Printf.printf
    "OK: served campaigns byte-identical to batch across --concurrency \
     {1,2,4} x --jobs {1,2}\n\
     %!"

(* ------------------------------------------------------------------ *)
(* Kill + resume                                                       *)
(* ------------------------------------------------------------------ *)

let spec_carol = {
  tenant = "carol"; template = "A"; setup = "mct-vs-mspec";
  programs = 10; tests = 4; seed = None;  (* namespace seed *)
}

let spec_dave = {
  tenant = "dave"; template = "A"; setup = "mct-vs-mspec";
  programs = 8; tests = 3; seed = None;  (* namespace seed *)
}

(* The `service-child` subcommand: a real server on an ephemeral port,
   state in [dir], prints "PORT <n>" and serves until SIGKILLed. *)
let child ?(concurrency = 1) dir =
  let scd =
    Scheduler.create ~config:(scheduler_config ~state_dir:dir ~concurrency ()) ()
  in
  let srv = start_server scd in
  Printf.printf "PORT %d\n%!" (Server.port srv);
  while true do
    Unix.sleepf 3600.0
  done

let kill_resume () =
  let dir = temp_dir "scamv-service-kr" in
  let out_read, out_write = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "service-child"; dir; "2" |]
      Unix.stdin out_write Unix.stderr
  in
  Unix.close out_write;
  let child_out = Unix.in_channel_of_descr out_read in
  let port =
    match In_channel.input_line child_out with
    | Some line when has_prefix ~prefix:"PORT " line ->
      int_of_string (String.sub line 5 (String.length line - 5))
    | _ -> fail "service child did not report its port"
  in
  (* Two tenants' campaigns in flight on the concurrency-2 child. *)
  let id_carol = submit ~port spec_carol in
  let id_dave = submit ~port spec_dave in
  (* Wait for journal records from both campaigns to reach the child's
     disk, then SIGKILL it mid-campaign.  (On a very fast machine a
     campaign may already be done — recovery of a completed session is
     exercised instead.) *)
  let size id =
    try (Unix.stat (Filename.concat dir (id ^ ".journal"))).Unix.st_size
    with Unix.Unix_error _ -> 0
  in
  let give_up = Unix.gettimeofday () +. 120.0 in
  while size id_carol < 200 || size id_dave < 200 do
    if Unix.gettimeofday () > give_up then
      fail "service child wrote no journal records within 120s";
    Unix.sleepf 0.02
  done;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  close_in child_out;
  (* Restart "the server" from the same state directory: recovery must
     re-enqueue both interrupted campaigns and finish them.  The restart
     also runs at --concurrency 2, so the two recovered campaigns resume
     side by side, each on whichever runner takes it. *)
  let restart () =
    let scd =
      Scheduler.create ~config:(scheduler_config ~state_dir:dir ~concurrency:2 ()) ()
    in
    (scd, start_server scd)
  in
  let scd, srv = restart () in
  let port = Server.port srv in
  let campaigns = [ (id_carol, spec_carol); (id_dave, spec_dave) ] in
  (* Stream while the recovered campaigns run, so these are live reads. *)
  let live = List.map (fun (id, _) -> (id, ref [])) campaigns in
  let readers =
    List.map (fun (id, lines) -> Thread.create (fun () -> lines := stream ~port id) ()) live
  in
  Scheduler.drain scd;
  List.iter Thread.join readers;
  List.iter
    (fun (id, s) ->
      let what = Printf.sprintf "kill+resume campaign (%s)" s.tenant in
      let seed = Tenant.derive_seed ~tenant:s.tenant ~sequence:0 in
      let lines = !(List.assoc id live) in
      check_stream_matches_batch ~what ~state_dir:dir id s ~seed lines;
      check_reread ~what ~port id lines)
    campaigns;
  Server.stop srv;
  Scheduler.shutdown scd;
  (* One more restart: finished campaigns now come back from disk only. *)
  let scd, srv = restart () in
  List.iter
    (fun (id, s) ->
      check_reread
        ~what:(Printf.sprintf "kill+resume campaign (%s) after restart" s.tenant)
        ~port:(Server.port srv) id !(List.assoc id live))
    campaigns;
  Server.stop srv;
  Scheduler.shutdown scd

(* The `service-metrics` subcommand (`make metrics-smoke`): boot a
   --concurrency 2 server, run one campaign and a couple of keep-alive
   requests so the connection counters move, and dump /metrics to a file
   for `validate-telemetry` to check the service families. *)
let metrics_dump ~out () =
  let scd = Scheduler.create ~config:(scheduler_config ~concurrency:2 ()) () in
  let srv = start_server scd in
  let port = Server.port srv in
  let id = submit ~port { spec_alice with programs = 2; tests = 2 } in
  let (_ : string list) = stream ~port id in
  let c = connect ~port in
  let r1 = request_on c ~meth:"GET" ~path:"/healthz" () in
  if r1.status <> 200 then fail "metrics dump: healthz: %d" r1.status;
  let r = request_on c ~meth:"GET" ~path:"/metrics" ~close:true () in
  if r.status <> 200 then fail "metrics dump: /metrics: %d" r.status;
  close_conn c;
  Server.stop srv;
  Scheduler.shutdown scd;
  Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc r.body);
  Printf.printf "service metrics dump written to %s\n%!" out

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let suite () =
  Printf.printf "## Service smoke suite\n%!";
  let dir_jobs2 = smoke_two_tenants () in
  smoke_jobs_identity dir_jobs2;
  smoke_keep_alive ();
  smoke_backpressure_and_cancel ();
  smoke_concurrency_identity ();
  kill_resume ();
  Printf.printf "service: all acceptance checks passed\n%!"
