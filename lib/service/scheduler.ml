(* The service's brain: admission control, per-tenant FIFO queues served
   round-robin by K runner threads (one per pool slice), a deterministically
   sliced worker pool, and journal-backed persistence so a restarted server
   resumes in-flight campaigns.

   Memory model: the session table holds the sessions that are queued or
   running.  With a state directory, a session leaves the table once it
   is terminal and its final meta is on disk; from then on
   <id>.meta.json plus <id>.journal are its only copy, and [find]/[list]
   read it back from there.  Server memory therefore does not grow with
   the number of campaigns served.  Without a state directory the table
   is the only store and keeps every session.

   Concurrency model: one mutex guards all scheduler state (tenant table,
   session table, queues, counters).  Each runner thread owns one slot: it
   takes a session assigned to that slot out under the lock, runs the
   campaign with the lock released — on the slot's own pool slice — and
   re-acquires it only to publish the result.  Sessions have their own
   locks (see Session), and the ordering discipline is strictly
   scheduler lock -> session lock, never the reverse.

   Determinism under concurrency: slice widths are a pure function of
   (jobs, concurrency) and a session's slot is a pure function of its
   (tenant, sequence) — Tenant.derive_slot — so which slice a campaign
   runs on, and with how many workers, never depends on arrival timing or
   on what the other slots are doing.  Combined with the per-campaign
   seeds and the pool's index-ordered batch protocol, a served campaign's
   journal and record stream stay byte-identical at every --concurrency
   level and identical to a batch CLI run. *)

module Json = Scamv_util.Json
module Deadline = Scamv_util.Deadline
module Stopwatch = Scamv_util.Stopwatch
module Pool = Scamv_util.Pool
module Metrics = Scamv_telemetry.Metrics
module Campaign = Scamv.Campaign
module Journal = Scamv.Journal
module Diff = Scamv.Diff

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

type t = {
  cfg : config;
  concurrency : int;  (** normalized [cfg.concurrency] (>= 1) *)
  lock : Mutex.t;
  work : Condition.t;  (** signalled on submit/stop; runners wait here *)
  idle : Condition.t;  (** broadcast when a runner finishes a session *)
  tenants : (string, Tenant.t) Hashtbl.t;
  sessions : (string, Session.t) Hashtbl.t;
      (** queued and running sessions; every session without a state dir *)
  mutable finished_on_disk : int;  (** terminal sessions kept only on disk *)
  slices : Pool.sliced;
  mutable rr : string list;  (** tenant round-robin order *)
  mutable submitted : int;  (** global submission counter *)
  mutable stopping : bool;
  running : Session.t option array;  (** what each runner slot executes *)
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

let concurrency t = t.concurrency

(* ---- persistence ---- *)

let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

let persist_meta s =
  match s.Session.meta_path with
  | None -> ()
  | Some path ->
    write_atomic path (Json.to_string ~pretty:true (Session.meta_json s))

let session_paths cfg id =
  match cfg.state_dir with
  | None -> (None, None)
  | Some dir ->
    (Some (Filename.concat dir (id ^ ".journal")),
     Some (Filename.concat dir (id ^ ".meta.json")))

(* The sequence number of a well-formed session id, <tenant>-<digits>
   with the tenant charset of [Tenant.validate_name].  Ids reach [find]
   percent-decoded from the URL, so nothing else may become a state-dir
   path. *)
let sequence_of_id id =
  let is_digit = function '0' .. '9' -> true | _ -> false in
  match String.rindex_opt id '-' with
  | None -> None
  | Some i ->
    let digits = String.sub id (i + 1) (String.length id - i - 1) in
    if Result.is_ok (Tenant.validate_name (String.sub id 0 i))
       && digits <> "" && String.for_all is_digit digits
    then int_of_string_opt digits
    else None

let read_meta path =
  let read () = In_channel.with_open_bin path In_channel.input_all in
  match Session.meta_of_json (Json.of_string (read ())) with
  | Ok m -> Some m
  | Error _ | (exception Json.Parse_error _) | (exception Sys_error _) -> None

let terminal_state (m : Session.meta) =
  match m.Session.meta_state with
  | "completed" -> Some Session.Completed
  | "cancelled" -> Some Session.Cancelled
  | "failed" ->
    Some (Session.Failed (Option.value ~default:"unknown" m.Session.meta_reason))
  | _ -> None

(* A fresh session for a persisted meta.  The slot is re-derived from the
   id's sequence suffix rather than persisted, so a restart under a
   different --concurrency re-partitions the backlog cleanly. *)
let session_of_meta t (m : Session.meta) =
  let id = m.Session.meta_id and tenant = m.Session.meta_tenant in
  let p = m.Session.meta_params in
  let journal_path, meta_path = session_paths t.cfg id in
  let slot =
    match sequence_of_id id with
    | Some sequence -> Tenant.derive_slot ~tenant ~sequence ~slots:t.concurrency
    | None -> 0
  in
  Session.create ~id ~tenant ~params:p ~seed:(Option.get p.Session.seed)
    ~campaign_name:
      (Workload.campaign_name ~setup:p.Session.setup ~template:p.Session.template)
    ?journal_path ?meta_path ~submitted:m.Session.meta_submitted ~slot ()

(* A finished session's meta and terminal state, if [id] names one. *)
let finished_meta t id =
  match (t.cfg.state_dir, sequence_of_id id) with
  | None, _ | _, None -> None
  | Some dir, Some _ -> (
    match read_meta (Filename.concat dir (id ^ ".meta.json")) with
    | Some m when m.Session.meta_id = id ->
      Option.map (fun st -> (m, st)) (terminal_state m)
    | _ -> None)

(* The one loader of finished sessions: the meta for identity, state and
   stats, the journal and the meta's progress lines for the stream.  The
   rebuilt session streams, lists and reports status byte for byte as the
   live one did. *)
let session_of_finished t (m, st) =
  let s = session_of_meta t m in
  let events =
    match s.Session.journal_path with
    | Some p when Sys.file_exists p -> Journal.events (fst (Journal.load ~path:p))
    | _ -> []
  in
  Session.replay s ~events ~progress:m.Session.meta_progress;
  Session.conclude s st ?stats:m.Session.meta_stats
    ~wall_seconds:m.Session.meta_wall_seconds ();
  s

let meta_ids dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".meta.json" then
           Some (Filename.chop_suffix f ".meta.json")
         else None)

(* Under the scheduler lock, once [s] is terminal and its final meta is
   written: with a state dir the table lets go of it (streamers already
   holding [s] finish from memory). *)
let evict t s =
  if t.cfg.state_dir <> None then begin
    Hashtbl.remove t.sessions s.Session.id;
    t.finished_on_disk <- t.finished_on_disk + 1
  end

(* ---- tenant bookkeeping (all under the scheduler lock) ---- *)

let tenant_of t name =
  match Hashtbl.find_opt t.tenants name with
  | Some ten -> ten
  | None ->
    let ten = Tenant.create ~name ~quota:t.cfg.quota in
    Hashtbl.replace t.tenants name ten;
    t.rr <- t.rr @ [ name ];
    ten

(* Take the tenant's first pending session assigned to [slot], keeping
   the relative order of everything else in the queue. *)
let take_for_slot t ten ~slot =
  let keep = Queue.create () in
  let found = ref None in
  Queue.iter
    (fun id ->
      if !found = None && (Hashtbl.find t.sessions id).Session.slot = slot then
        found := Some id
      else Queue.push id keep)
    ten.Tenant.pending;
  (match !found with
  | Some _ ->
    Queue.clear ten.Tenant.pending;
    Queue.transfer keep ten.Tenant.pending
  | None -> ());
  !found

(* Round-robin pick for one runner slot: first tenant (in rr order) with
   pending work for that slot wins and moves to the back; the others keep
   their relative order. *)
let pick t ~slot =
  let rec go seen = function
    | [] -> None
    | name :: rest -> (
      let ten = Hashtbl.find t.tenants name in
      match take_for_slot t ten ~slot with
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

let run_session t s ~slot =
  let pool = Pool.slice t.slices slot in
  Session.set_state s Session.Running;
  (* No meta write here: a restart re-enqueues a queued meta exactly as
     a running one, and every write is a create plus a rename. *)
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
     let journal = Journal.create ?path:s.Session.journal_path () in
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
  persist_meta s;
  locked t (fun () ->
      evict t s;
      t.server_metrics <-
        Metrics.incr (finish_counter (Session.state s)) t.server_metrics)

let rec runner_loop t slot =
  Mutex.lock t.lock;
  let rec next () =
    if t.stopping then None
    else
      match pick t ~slot with
      | Some s -> Some s
      | None ->
        Condition.wait t.work t.lock;
        next ()
  in
  match next () with
  | None -> Mutex.unlock t.lock
  | Some s ->
    t.running.(slot) <- Some s;
    Mutex.unlock t.lock;
    run_session t s ~slot;
    Mutex.lock t.lock;
    t.running.(slot) <- None;
    Tenant.finish (Hashtbl.find t.tenants s.Session.tenant);
    Condition.broadcast t.idle;
    Mutex.unlock t.lock;
    runner_loop t slot

(* ---- restart recovery ---- *)

(* Scan the state directory's <id>.meta.json files in submission order:
   restore each tenant's sequence high-water mark and the global
   submission counter from every meta, and re-enqueue the unfinished
   sessions (in original submission order) with their journal as a resume
   checkpoint, so completed programs replay instead of re-running.
   Finished sessions stay on disk; [find] loads them on demand. *)
let recover t dir =
  let metas =
    meta_ids dir
    |> List.filter_map (fun id -> read_meta (Filename.concat dir (id ^ ".meta.json")))
    |> List.sort (fun a b ->
           compare a.Session.meta_submitted b.Session.meta_submitted)
  in
  List.iter
    (fun (m : Session.meta) ->
      let ten = tenant_of t m.Session.meta_tenant in
      (* Future namespace seeds must never repeat. *)
      (match sequence_of_id m.Session.meta_id with
      | Some seq when seq >= ten.Tenant.sequence -> ten.Tenant.sequence <- seq + 1
      | _ -> ());
      t.submitted <- max t.submitted (m.Session.meta_submitted + 1);
      match terminal_state m with
      | Some _ -> t.finished_on_disk <- t.finished_on_disk + 1
      | None ->
        let s = session_of_meta t m in
        Hashtbl.replace t.sessions s.Session.id s;
        ten.Tenant.active <- ten.Tenant.active + 1;
        (match s.Session.journal_path with
        | Some p when Sys.file_exists p -> s.Session.resume_from <- Some p
        | _ -> ());
        Queue.push s.Session.id ten.Tenant.pending)
    metas

(* ---- public interface ---- *)

let create ?(config = default_config) ?(start = true) () =
  if config.concurrency < 1 then
    invalid_arg "Scheduler.create: concurrency must be >= 1";
  let concurrency = config.concurrency in
  let t =
    {
      cfg = config;
      concurrency;
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      tenants = Hashtbl.create 8;
      sessions = Hashtbl.create 32;
      finished_on_disk = 0;
      slices =
        Pool.create_sliced ~total:(Pool.resolve_jobs config.jobs)
          ~slices:concurrency;
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
      List.init concurrency (fun slot ->
          Thread.create (fun () -> runner_loop t slot) ());
  t

let submit t ~tenant params =
  let ( let* ) = Result.bind in
  let validated =
    let* tenant = Tenant.validate_name tenant in
    (* The seed is resolved at admission; any seed validates alike. *)
    let* _, cfg = build_config ~seed:0L params in
    Ok (tenant, cfg.Campaign.name)
  in
  match validated with
  | Error e -> Error (Invalid e)
  | Ok (tenant, campaign_name) ->
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
            let slot =
              Tenant.derive_slot ~tenant ~sequence:seq ~slots:t.concurrency
            in
            let id = Printf.sprintf "%s-%d" tenant seq in
            let submitted = t.submitted in
            t.submitted <- submitted + 1;
            let journal_path, meta_path = session_paths t.cfg id in
            let s =
              Session.create ~id ~tenant ~params ~seed ~campaign_name
                ?journal_path ?meta_path ~submitted ~slot ()
            in
            Hashtbl.replace t.sessions id s;
            Queue.push id ten.Tenant.pending;
            persist_meta s;
            t.server_metrics <- Metrics.incr "service.campaigns.submitted" t.server_metrics;
            Condition.broadcast t.work;
            Ok s)

let find t id =
  match locked t (fun () -> Hashtbl.find_opt t.sessions id) with
  | Some s -> Some s
  | None -> Option.map (session_of_finished t) (finished_meta t id)

(* A finished campaign lists from its terminal meta alone; only a meta
   written before [records] was persisted needs its journal replayed. *)
let list t =
  let live = locked t (fun () -> Hashtbl.copy t.sessions) in
  let summary s = (s.Session.submitted, Session.summary_json s) in
  let finished =
    match t.cfg.state_dir with
    | None -> []
    | Some dir ->
      meta_ids dir
      |> List.filter (fun id -> not (Hashtbl.mem live id))
      |> List.filter_map (fun id ->
             Option.map
               (fun ((m, _) as f) ->
                 match Session.meta_summary_json m with
                 | Some json -> (m.Session.meta_submitted, json)
                 | None -> summary (session_of_finished t f))
               (finished_meta t id))
  in
  Hashtbl.fold (fun _ s acc -> summary s :: acc) live finished
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Cancel a session (the DELETE handler).  Queued sessions cancel
   immediately (dequeued, terminal, done-line pushed); a running session
   gets its cancel token expired and drains cooperatively — its runner
   publishes the Cancelled state when the campaign returns.  Returns
   false when the session was already terminal. *)
let cancel t s =
  locked t (fun () ->
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
        persist_meta s;
        evict t s;
        t.server_metrics <- Metrics.incr "service.campaigns.cancelled" t.server_metrics;
        true)

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
          (float_of_int (Pool.slice_count t.slices))
          m
      in
      let m =
        Metrics.set_gauge "scheduler.slice_width"
          (float_of_int (Pool.slice_width t.slices 0))
          m
      in
      let m =
        Metrics.set_gauge "service.sessions.total"
          (float_of_int (Hashtbl.length t.sessions + t.finished_on_disk))
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
                  persist_meta s;
                  evict t s;
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
    Pool.shutdown_sliced t.slices
  end
