(* The service's brain: admission control, per-tenant FIFO queues served
   round-robin by K runner threads (each with its own worker pool), and
   journal-backed persistence so a restarted server resumes in-flight
   campaigns.

   Memory model: the session table holds the sessions that are queued or
   running, and with a state directory the finished table the summaries
   of the rest (see the interface); without one the session table keeps
   every session.

   Concurrency model: one mutex guards all scheduler state (tenant table,
   session table, queues, counters).  An idle runner takes the head of
   the next non-empty tenant queue out under the lock, runs the campaign
   with the lock released — on its own pool — and re-acquires it only to
   publish the result.  Sessions have their own locks (see Session), and
   the ordering discipline is strictly scheduler lock -> session lock,
   never the reverse.

   Determinism needs no placement rule: a campaign's artifacts depend on
   its seed alone, never on the width of the pool that runs it (the
   pool's index-ordered batch protocol), so whichever runner takes a
   campaign, its journal and record stream are byte-identical at every
   --concurrency level and identical to a batch CLI run. *)

module Json = Scamv_util.Json
module Deadline = Scamv_util.Deadline
module Stopwatch = Scamv_util.Stopwatch
module Pool = Scamv_util.Pool
module Metrics = Scamv_telemetry.Metrics
module Campaign = Scamv.Campaign
module Journal = Scamv.Journal
module Diff = Scamv.Diff
module Frame = Scamv_util.Frame

type config = {
  jobs : int;
  concurrency : int;
  state_dir : string option;
  quota : Tenant.quota;
  clock : Stopwatch.clock;
}

let default_config =
  {
    jobs = 1;
    concurrency = 1;
    state_dir = None;
    quota = Tenant.default_quota;
    clock = Stopwatch.wall;
  }

type submit_error = Invalid of string | Busy of Tenant.rejection | Stopped

(* A finished campaign as the listing needs it, and where its terminal
   record starts in the log.  Its id is <tenant>-<sequence>, its place in
   the finished table, so a summary holds no string. *)
type finished = {
  state : string;  (** {!Session.state_name} *)
  records : int;  (** the stream's line count *)
  submitted : int;
  offset : int;
}

let unfinished = { state = ""; records = 0; submitted = -1; offset = -1 }

type t = {
  cfg : config;
  lock : Mutex.t;
  work : Condition.t;  (** signalled on submit/stop; runners wait here *)
  idle : Condition.t;  (** broadcast when a runner finishes a session *)
  tenants : (string, Tenant.t) Hashtbl.t;
  sessions : (string, Session.t) Hashtbl.t;
      (** queued and running sessions; every session without a state dir *)
  finished : (string, finished array) Hashtbl.t;
      (** with a state dir, each tenant's campaigns whose terminal record
          is logged, indexed by sequence ([unfinished] elsewhere) *)
  log : Buffer.t;  (** the frames of one append *)
  mutable log_oc : out_channel option;  (** opened by the first append *)
  pools : Pool.t array;  (** runner [i] runs its campaigns on [pools.(i)] *)
  mutable rr : string list;  (** tenant round-robin order *)
  mutable submitted : int;  (** global submission counter *)
  mutable stopping : bool;
  running : Session.t option array;  (** what each runner executes *)
  mutable runners : Thread.t list;
  mutable gauge_sources : (unit -> (string * float) list) list;
      (** live gauges contributed by other layers (the HTTP server's
          connection gauges); sampled by {!metrics_snapshot} *)
  mutable server_metrics : Metrics.t;  (** request/session counters *)
  mutable campaign_metrics : Metrics.t;  (** merged campaign telemetry *)
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bump ?(n = 1) t name = locked t (fun () -> t.server_metrics <- Metrics.add name n t.server_metrics)

let register_gauge_source t f =
  locked t (fun () -> t.gauge_sources <- t.gauge_sources @ [ f ])

let concurrency t = Array.length t.pools

(* ---- persistence ---- *)

let ( let* ) = Option.bind
let log_file = "campaigns.log"
let log_magic = "scamv-campaigns v1"

let state_file t name = Option.map (fun dir -> Filename.concat dir name) t.cfg.state_dir
let journal_file t id = state_file t (id ^ ".journal")

(* Under the scheduler lock: append [s]'s current meta to the log, one
   buffered write and flush, and return the record's offset ([None]
   without a state dir).  The channel opens at the first append, so a
   server that never takes a campaign creates no file. *)
let append t s =
  match state_file t log_file with
  | None -> None
  | Some path ->
    let oc =
      match t.log_oc with
      | Some oc -> oc
      | None ->
        let oc =
          open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 path
        in
        seek_out oc (out_channel_length oc);
        t.log_oc <- Some oc;
        oc
    in
    Buffer.clear t.log;
    if pos_out oc = 0 then Buffer.add_string t.log (log_magic ^ "\n");
    let offset = pos_out oc + Buffer.length t.log in
    Frame.add t.log (Json.to_string (Session.meta_json s));
    Buffer.output_buffer oc t.log;
    flush oc;
    Some offset

(* The tenant and sequence number of a well-formed session id,
   <tenant>-<sequence> with the tenant charset of [Tenant.validate_name]
   and the sequence in decimal as [submit] prints it; recovery adopts no
   other id, so every id in the tables is a safe state-dir file name. *)
let sequence_of_id id =
  match String.rindex_opt id '-' with
  | None -> None
  | Some i -> (
    let tenant = String.sub id 0 i in
    let digits = String.sub id (i + 1) (String.length id - i - 1) in
    match int_of_string_opt digits with
    | Some seq
      when Result.is_ok (Tenant.validate_name tenant) && string_of_int seq = digits ->
      Some (tenant, seq)
    | _ -> None)

(* Under the scheduler lock: [f] summarizes [tenant]'s campaign [seq]. *)
let keep_finished t tenant seq f =
  let row = Option.value ~default:[||] (Hashtbl.find_opt t.finished tenant) in
  let row =
    if seq < Array.length row then row
    else Array.append row (Array.make (seq + 1 + Array.length row) unfinished)
  in
  row.(seq) <- f;
  Hashtbl.replace t.finished tenant row

let finished_of t id =
  let* tenant, seq = sequence_of_id id in
  let* row = Hashtbl.find_opt t.finished tenant in
  if seq < Array.length row && row.(seq) != unfinished then Some row.(seq) else None

(* Under the scheduler lock, once [s] is terminal: log its terminal
   record; with a state dir the session table lets go of it and the
   finished table keeps its summary (streamers already holding [s]
   finish from memory). *)
let retire t s =
  match append t s with
  | None -> ()
  | Some offset ->
    let id = s.Session.id in
    Hashtbl.remove t.sessions id;
    let tenant, seq = Option.get (sequence_of_id id) in
    keep_finished t tenant seq
      { state = Session.state_name (Session.state s); records = s.Session.nlines;
        submitted = s.Session.submitted; offset }

(* The terminal record at [offset], parsed. *)
let read_record t offset =
  let* path = state_file t log_file in
  let* payload =
    try
      In_channel.with_open_bin path (fun ic ->
          In_channel.seek ic (Int64.of_int offset);
          Frame.input ic)
    with Sys_error _ -> None
  in
  try Some (Json.of_string payload) with Json.Parse_error _ -> None

let meta_of_record json =
  match Session.meta_of_json json with
  | Ok m when Option.map fst (sequence_of_id m.Session.meta_id) = Some m.Session.meta_tenant ->
    Some m
  | Ok _ | Error _ -> None

(* A fresh session for a logged meta. *)
let session_of_meta (m : Session.meta) =
  let p = m.Session.meta_params in
  Session.create ~id:m.Session.meta_id ~tenant:m.Session.meta_tenant ~params:p
    ~seed:(Option.get p.Session.seed) ~submitted:m.Session.meta_submitted ()

(* The one loader of finished sessions: the terminal record at [offset]
   for identity, state and stats, the journal and the record's progress
   lines for the stream.  The rebuilt session streams, lists and reports
   status byte for byte as the live one did. *)
let session_of_finished t offset =
  let* m = Option.bind (read_record t offset) meta_of_record in
  let s = session_of_meta m in
  let events =
    match journal_file t s.Session.id with
    | Some p when Sys.file_exists p -> Journal.events (fst (Journal.load ~path:p))
    | _ -> []
  in
  Session.replay s ~events ~progress:m.Session.meta_progress;
  Session.conclude s m.Session.meta_state ?stats:m.Session.meta_stats
    ~wall_seconds:m.Session.meta_wall_seconds ();
  Some s

(* ---- tenant bookkeeping (all under the scheduler lock) ---- *)

let tenant_of t name =
  match Hashtbl.find_opt t.tenants name with
  | Some ten -> ten
  | None ->
    let ten = Tenant.create ~name ~quota:t.cfg.quota in
    Hashtbl.replace t.tenants name ten;
    t.rr <- t.rr @ [ name ];
    ten

(* Round-robin pick for an idle runner: the first tenant (in rr order)
   with pending work gives up its queue head and moves to the back; the
   others keep their relative order. *)
let pick t =
  let rec go seen = function
    | [] -> None
    | name :: rest -> (
      let ten = Hashtbl.find t.tenants name in
      match Queue.take_opt ten.Tenant.pending with
      | None -> go (name :: seen) rest
      | Some id ->
        t.rr <- List.rev_append seen rest @ [ name ];
        Some (Hashtbl.find t.sessions id))
  in
  go [] t.rr

let queued_count t =
  Hashtbl.fold (fun _ ten acc -> acc + Queue.length ten.Tenant.pending) t.tenants 0

let running_count t =
  Array.fold_left
    (fun acc -> function Some _ -> acc + 1 | None -> acc)
    0 t.running

(* ---- campaign execution ---- *)

(* The one construction of a request's campaign, shared with the CLI
   through [Workload.config]: [submit] validates by calling it, and the
   runner calls it again with the resolved seed, the clock and the
   session's cancel token. *)
let build_config ?clock ?cancel ~seed p =
  let ( let* ) = Result.bind in
  let* isa = Workload.isa_of_string p.Session.isa in
  let* cfg =
    Workload.config ~template:p.Session.template ~setup:p.Session.setup ~isa
      ~programs:p.Session.programs ~tests:p.Session.tests_per_program ~seed
      ~max_conflicts:p.Session.max_conflicts
      ~deadline_conflicts:p.Session.deadline_conflicts
      ~portfolio:p.Session.portfolio ?clock ?cancel ()
  in
  Ok (isa, cfg)

let finish_counter = function
  | Session.Completed -> "service.campaigns.completed"
  | Session.Cancelled -> "service.campaigns.cancelled"
  | _ -> "service.campaigns.failed"

let run_session t s ~pool =
  Session.set_state s Session.Running;
  (* No log record here: a restart re-enqueues a queued campaign exactly
     as a running one. *)
  (let on_event m = Session.push_progress s m in
   let on_record ev = Session.push_line s (Session.record_line ev) in
   let publish (stats, wall_seconds, telemetry) =
     let final =
       if Deadline.expired s.Session.cancel then Session.Cancelled
       else Session.Completed
     in
     Session.conclude s final ~stats:(Session.stats_json stats) ~wall_seconds ();
     locked t (fun () ->
         t.campaign_metrics <-
           Metrics.merge t.campaign_metrics
             telemetry.Scamv_telemetry.Collector.metrics)
   in
   let with_journal run =
     let journal = Journal.create ?path:(journal_file t s.Session.id) () in
     let result =
       try Ok (run journal) with
       | Pool.Shut_down -> Error "service shutting down"
       | e -> Error (Printexc.to_string e)
     in
     Journal.close journal;
     match result with
     | Ok outcome -> publish outcome
     | Error reason -> Session.conclude s (Session.Failed reason) ()
   in
   match
     build_config ~clock:t.cfg.clock ~cancel:s.Session.cancel
       ~seed:s.Session.seed s.Session.params
   with
   | Error msg -> Session.conclude s (Session.Failed msg) ()
   | Ok (`Single _, cfg) ->
     let resume =
       match s.Session.resume_from with
       | Some p when Sys.file_exists p -> Some p
       | _ -> None
     in
     with_journal (fun journal ->
         let outcome =
           Campaign.run ~on_event ~on_record ~journal ?resume ~pool cfg
         in
         ( outcome.Campaign.stats,
           outcome.Campaign.wall_seconds,
           outcome.Campaign.telemetry ))
   | Ok (`Diff, cfg) ->
     (* Differential campaigns re-run from scratch after a restart: the
        comparison needs both sides' full event streams, so a partial
        journal is not resumed into. *)
     with_journal (fun journal ->
         let outcome =
           Diff.run ~on_event ~on_record ~journal ~pool
             ~template:s.Session.params.Session.template cfg
         in
         let wall =
           outcome.Diff.aarch64.Campaign.wall_seconds
           +. outcome.Diff.riscv.Campaign.wall_seconds
         in
         let telemetry =
           Scamv_telemetry.Collector.merge_reports
             outcome.Diff.aarch64.Campaign.telemetry
             outcome.Diff.riscv.Campaign.telemetry
         in
         (outcome.Diff.stats, wall, telemetry)));
  locked t (fun () ->
      retire t s;
      t.server_metrics <-
        Metrics.incr (finish_counter (Session.state s)) t.server_metrics)

let rec runner_loop t i =
  Mutex.lock t.lock;
  let rec next () =
    if t.stopping then None
    else
      match pick t with
      | Some s -> Some s
      | None ->
        Condition.wait t.work t.lock;
        next ()
  in
  match next () with
  | None -> Mutex.unlock t.lock
  | Some s ->
    t.running.(i) <- Some s;
    Mutex.unlock t.lock;
    run_session t s ~pool:t.pools.(i);
    Mutex.lock t.lock;
    t.running.(i) <- None;
    Tenant.finish (Hashtbl.find t.tenants s.Session.tenant);
    Condition.broadcast t.idle;
    Mutex.unlock t.lock;
    runner_loop t i

(* ---- restart recovery ---- *)

(* Under the scheduler lock: future namespace seeds must never repeat,
   and no new campaign may reuse (and empty) a journal. *)
let mark t tenant seq =
  let ten = tenant_of t tenant in
  ten.Tenant.sequence <- max ten.Tenant.sequence (seq + 1)

(* Read campaigns.log once, in order: restore each tenant's sequence
   high-water mark and the global submission counter from every record,
   keep a summary per terminal record, and re-enqueue the campaigns
   without one, in submission order (the order their queued records were
   logged), with their journal as a resume checkpoint, so completed
   programs replay instead of re-running.

   Records stand alone, so a damaged one costs that record only: the
   scan skips forward to the next clean frame, and the file is cut only
   at a torn tail, bytes after the last clean frame that hold none (what
   a kill during an append leaves), so the next append follows a clean
   frame.  A lost record may have been its campaign's only one, so after
   any damage the marks also go past every journal in the dir.  A log
   with neither a magic line nor a clean frame is not adopted. *)
let recover t dir =
  let path = Filename.concat dir log_file in
  let content =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
    else ""
  in
  let restore queued ~offset payload =
    match meta_of_record (Json.of_string payload) with
    | exception Json.Parse_error _ -> queued
    | None -> queued
    | Some m ->
      let tenant, seq = Option.get (sequence_of_id m.Session.meta_id) in
      mark t tenant seq;
      t.submitted <- max t.submitted (m.Session.meta_submitted + 1);
      if not (Session.is_terminal m.Session.meta_state) then m :: queued
      else begin
        keep_finished t tenant seq
          { state = Session.state_name m.Session.meta_state;
            records = Option.value ~default:0 m.Session.meta_records;
            submitted = m.Session.meta_submitted; offset };
        queued
      end
  in
  (* [kept] counts the magic line and the clean frames' bytes *)
  let rec scan queued kept pos =
    match Frame.next content pos with
    | None -> (queued, kept, pos)
    | Some (offset, payload, after) ->
      scan (restore queued ~offset payload) (kept + after - offset) after
  in
  let start = Option.value ~default:0 (Frame.records_start ~magic:log_magic content) in
  let queued, kept, clean_end = scan [] start start in
  if clean_end = 0 && not (Frame.torn_magic ~magic:log_magic content) then
    failwith (path ^ " is not a campaign log");
  if clean_end < String.length content then Unix.truncate path clean_end;
  if kept < String.length content then
    Array.iter
      (fun f ->
        match Option.bind (Filename.chop_suffix_opt ~suffix:".journal" f) sequence_of_id with
        | Some (tenant, seq) -> mark t tenant seq
        | None -> ())
      (Sys.readdir dir);
  List.rev queued
  |> List.filter (fun (m : Session.meta) -> finished_of t m.Session.meta_id = None)
  |> List.iter (fun m ->
         let s = session_of_meta m in
         let ten = Hashtbl.find t.tenants s.Session.tenant in
         Hashtbl.replace t.sessions s.Session.id s;
         ten.Tenant.active <- ten.Tenant.active + 1;
         (match journal_file t s.Session.id with
         | Some p when Sys.file_exists p -> s.Session.resume_from <- Some p
         | _ -> ());
         Queue.push s.Session.id ten.Tenant.pending)

(* ---- public interface ---- *)

let create ?(config = default_config) ?(start = true) () =
  if config.concurrency < 1 then
    invalid_arg "Scheduler.create: concurrency must be >= 1";
  let concurrency = config.concurrency in
  let t =
    {
      cfg = config;
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      tenants = Hashtbl.create 8;
      sessions = Hashtbl.create 32;
      finished = Hashtbl.create 32;
      log = Buffer.create 512;
      log_oc = None;
      pools =
        Array.map
          (fun size -> Pool.create ~size)
          (Pool.slice_widths ~total:(Pool.resolve_jobs config.jobs)
             ~slices:concurrency);
      rr = [];
      submitted = 0;
      stopping = false;
      running = Array.make concurrency None;
      runners = [];
      gauge_sources = [];
      server_metrics =
        (* Pre-register the campaign outcome counters so /metrics exposes
           them (as zeros) from the first scrape. *)
        List.fold_left
          (fun m name -> Metrics.add name 0 m)
          Metrics.empty
          [
            "service.campaigns.submitted";
            "service.campaigns.completed";
            "service.campaigns.cancelled";
            "service.campaigns.failed";
          ];
      campaign_metrics = Metrics.empty;
    }
  in
  (match config.state_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    recover t dir);
  if start then
    t.runners <-
      List.init concurrency (fun i -> Thread.create (fun () -> runner_loop t i) ());
  t

let submit t ~tenant params =
  let ( let* ) = Result.bind in
  let validated =
    let* tenant = Tenant.validate_name tenant in
    (* The seed is resolved at admission; any seed validates alike. *)
    let* _ = build_config ~seed:0L params in
    Ok tenant
  in
  match validated with
  | Error e -> Error (Invalid e)
  | Ok tenant ->
    locked t (fun () ->
        if t.stopping then Error Stopped
        else
          let ten = tenant_of t tenant in
          match Tenant.admit ten with
          | Error r -> Error (Busy r)
          | Ok seq ->
            let seed =
              match params.Session.seed with
              | Some s -> s
              | None -> Tenant.derive_seed ~tenant ~sequence:seq
            in
            let id = Printf.sprintf "%s-%d" tenant seq in
            let submitted = t.submitted in
            t.submitted <- submitted + 1;
            let s = Session.create ~id ~tenant ~params ~seed ~submitted () in
            Hashtbl.replace t.sessions id s;
            Queue.push id ten.Tenant.pending;
            ignore (append t s);
            t.server_metrics <- Metrics.incr "service.campaigns.submitted" t.server_metrics;
            Condition.broadcast t.work;
            Ok s)

let lookup t id = locked t (fun () -> (Hashtbl.find_opt t.sessions id, finished_of t id))

let find t id =
  match lookup t id with
  | Some s, _ -> Some s
  | None, Some f -> session_of_finished t f.offset
  | None, None -> None

let status t id =
  match lookup t id with
  | Some s, _ -> Some (Session.status_json s)
  | None, Some f -> Option.map Session.status_of_meta (read_record t f.offset)
  | None, None -> None

(* The listing reads no file: live sessions render themselves, finished
   ones from their summaries. *)
let list t =
  let live, finished =
    locked t (fun () ->
        ( Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [],
          Hashtbl.fold (fun tenant row acc -> (tenant, Array.copy row) :: acc) t.finished [] ))
  in
  let summaries (tenant, row) =
    Array.to_seqi row
    |> Seq.filter_map (fun (seq, (f : finished)) ->
           if f == unfinished then None
           else
             Some
               ( f.submitted,
                 Session.summary ~id:(Printf.sprintf "%s-%d" tenant seq) ~tenant
                   ~state:f.state ~records:f.records ))
    |> List.of_seq
  in
  List.rev_append
    (List.map (fun s -> (s.Session.submitted, Session.summary_json s)) live)
    (List.concat_map summaries finished)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Cancel a campaign by id (the DELETE handler).  Queued sessions cancel
   immediately (dequeued, terminal, done-line pushed); a running session
   gets its cancel token expired and drains cooperatively — its runner
   publishes the Cancelled state when the campaign returns.  A finished
   one answers from its summary, reading no file. *)
let cancel t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.sessions id with
      | None -> Option.map (fun f -> (false, f.state)) (finished_of t id)
      | Some s ->
        let cancelled =
          match Session.state s with
          | st when Session.is_terminal st -> false
          | Session.Running ->
            Deadline.cancel s.Session.cancel;
            true
          | _ ->
            let ten = Hashtbl.find t.tenants s.Session.tenant in
            let keep = Queue.create () in
            Queue.iter
              (fun id -> if id <> s.Session.id then Queue.push id keep)
              ten.Tenant.pending;
            Queue.clear ten.Tenant.pending;
            Queue.transfer keep ten.Tenant.pending;
            Tenant.finish ten;
            Session.conclude s Session.Cancelled ();
            retire t s;
            t.server_metrics <- Metrics.incr "service.campaigns.cancelled" t.server_metrics;
            true
        in
        Some (cancelled, Session.state_name (Session.state s)))

let drain t =
  locked t (fun () ->
      while running_count t > 0 || queued_count t > 0 do
        Condition.wait t.idle t.lock
      done)

let metrics_snapshot t =
  let sources = locked t (fun () -> t.gauge_sources) in
  (* Sample external gauge sources outside the scheduler lock: sources
     take their own locks (the HTTP server's), and the ordering
     discipline keeps the scheduler lock innermost-free of them. *)
  let live = List.concat_map (fun f -> f ()) sources in
  locked t (fun () ->
      let m = Metrics.merge t.campaign_metrics t.server_metrics in
      let m =
        Metrics.set_gauge "service.sessions.queued"
          (float_of_int (queued_count t)) m
      in
      let running = running_count t in
      let m =
        Metrics.set_gauge "service.sessions.running" (float_of_int running) m
      in
      let m =
        Metrics.set_gauge "scheduler.concurrent_sessions" (float_of_int running)
          m
      in
      let m =
        Metrics.set_gauge "scheduler.slices"
          (float_of_int (Array.length t.pools))
          m
      in
      let m =
        Metrics.set_gauge "scheduler.slice_width"
          (float_of_int (Pool.size t.pools.(0)))
          m
      in
      let m =
        Metrics.set_gauge "service.sessions.total"
          (float_of_int t.submitted)
          m
      in
      let m =
        Metrics.set_gauge "service.tenants"
          (float_of_int (Hashtbl.length t.tenants))
          m
      in
      List.fold_left (fun m (name, v) -> Metrics.set_gauge name v m) m live)

let shutdown t =
  let proceed =
    locked t (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          (* Queued sessions will never run: cancel them now. *)
          Hashtbl.iter
            (fun _ ten ->
              Queue.iter
                (fun id ->
                  let s = Hashtbl.find t.sessions id in
                  Session.conclude s Session.Cancelled ();
                  retire t s;
                  Tenant.finish ten)
                ten.Tenant.pending;
              Queue.clear ten.Tenant.pending)
            t.tenants;
          (* Running campaigns drain at their next cancellation poll. *)
          Array.iter
            (function
              | Some s -> Deadline.cancel s.Session.cancel
              | None -> ())
            t.running;
          Condition.broadcast t.work;
          true
        end)
  in
  if proceed then begin
    List.iter Thread.join t.runners;
    t.runners <- [];
    Array.iter Pool.shutdown t.pools;
    locked t (fun () ->
        Option.iter close_out t.log_oc;
        t.log_oc <- None)
  end
