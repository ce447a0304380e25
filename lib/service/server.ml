(* The HTTP front end: a listening socket, an accept loop on its own
   thread, and a fixed pool of connection workers fed through a bounded
   handoff queue — when the queue is full the acceptor answers 503 with
   Retry-After itself, so load shedding happens before any thread is
   spawned (there is no thread-per-connection path).  Connections are
   persistent: each worker serves requests off one socket until the
   client says Connection: close, the per-connection request cap rolls
   it over, the idle timeout fires, or the server stops.  All campaign
   logic lives behind Scheduler; this module only translates HTTP to
   scheduler calls and wire renderings. *)

module Json = Scamv_util.Json
module Deadline = Scamv_util.Deadline
module Export = Scamv_telemetry.Export

type t = {
  scheduler : Scheduler.t;
  host : string;
  mutable port : int;  (** resolved after {!start} when created with port 0 *)
  max_connections : int;  (** connection workers; also the handoff-queue cap *)
  idle_timeout : float;  (** seconds a keep-alive connection may sit idle *)
  max_requests : int;  (** requests served per connection before rollover *)
  lock : Mutex.t;
  pending_nonempty : Condition.t;
  pending : Unix.file_descr Queue.t;  (** accepted, not yet claimed by a worker *)
  idle_tokens : Deadline.t option array;
      (** per-worker idle deadline, cancelled by {!stop} to unpark readers *)
  mutable active : int;  (** connections currently being served *)
  mutable fd : Unix.file_descr option;
  mutable accept_thread : Thread.t option;
  mutable workers : Thread.t list;
  mutable stopping : bool;
}

let create ?(host = "127.0.0.1") ?(port = 8421) ?(max_connections = 16)
    ?(idle_timeout = 5.0) ?(max_requests = 1000) scheduler =
  if max_connections < 1 then
    invalid_arg "Server.create: max_connections must be >= 1";
  if max_requests < 1 then invalid_arg "Server.create: max_requests must be >= 1";
  if idle_timeout <= 0.0 then
    invalid_arg "Server.create: idle_timeout must be > 0";
  {
    scheduler;
    host;
    port;
    max_connections;
    idle_timeout;
    max_requests;
    lock = Mutex.create ();
    pending_nonempty = Condition.create ();
    pending = Queue.create ();
    idle_tokens = Array.make max_connections None;
    active = 0;
    fd = None;
    accept_thread = None;
    workers = [];
    stopping = false;
  }

let port t = t.port

(* ---- handlers ---- *)

let error_json msg = Json.Obj [ ("error", Json.Str msg) ]

let respond_error conn ~status msg = Http.respond_json ~status conn (error_json msg)

let h_submit t req conn =
  match Json.of_string req.Http.body with
  | exception Json.Parse_error msg -> respond_error conn ~status:400 ("bad JSON: " ^ msg)
  | body -> (
    let tenant =
      match Json.member "tenant" body with
      | Some (Json.Str s) -> Ok s
      | None -> Ok "default"
      | Some _ -> Error "field tenant must be a string"
    in
    match tenant with
    | Error msg -> respond_error conn ~status:400 msg
    | Ok tenant -> (
      match Session.params_of_json body with
      | Error msg -> respond_error conn ~status:400 msg
      | Ok params -> (
        match Scheduler.submit t.scheduler ~tenant params with
        | Ok s -> Http.respond_json ~status:201 conn (Session.status_json s)
        | Error (Scheduler.Invalid msg) -> respond_error conn ~status:400 msg
        | Error (Scheduler.Busy r) ->
          Scheduler.bump t.scheduler "service.http.rejected";
          Http.respond_json ~status:429
            ~headers:[ ("Retry-After", "1") ]
            conn
            (error_json (Tenant.rejection_reason r))
        | Error Scheduler.Stopped ->
          respond_error conn ~status:503 "service shutting down")))

let h_list t _req conn =
  Http.respond_json conn
    (Json.Obj [ ("campaigns", Json.Arr (Scheduler.list t.scheduler)) ])

let with_session t id conn f =
  match Scheduler.find t.scheduler id with
  | None -> respond_error conn ~status:404 (Printf.sprintf "no campaign %s" id)
  | Some s -> f s

let h_status t id _req conn =
  with_session t id conn (fun s -> Http.respond_json conn (Session.status_json s))

let h_cancel t id _req conn =
  with_session t id conn (fun s ->
      let cancelled = Scheduler.cancel t.scheduler s in
      Http.respond_json conn
        (Json.Obj
           [
             ("id", Json.Str id);
             ("cancelled", Json.Bool cancelled);
             ("state", Json.Str (Session.state_name (Session.state s)));
           ]))

let h_stream t id req conn =
  with_session t id conn (fun s ->
      let from =
        match Http.query req "from" with
        | None -> 0
        | Some v -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> n
          | _ -> raise (Http.Bad_request "query parameter from must be a non-negative integer"))
      in
      let st = Http.start_stream conn ~status:200 in
      let rec loop from =
        let lines, next, terminal = Session.wait_lines s ~from in
        List.iter (fun line -> Http.stream_chunk st (line ^ "\n")) lines;
        if not terminal then loop next
      in
      loop from;
      Http.stream_close st)

let h_metrics t _req conn =
  Http.respond ~content_type:"text/plain; version=0.0.4" conn ~status:200
    (Export.prometheus (Scheduler.metrics_snapshot t.scheduler))

let h_health _t _req conn = Http.respond_json conn (Json.Obj [ ("ok", Json.Bool true) ])

let routes t =
  let param name params = List.assoc name params in
  Router.create
    [
      Router.route "POST" "/campaigns" (fun _ -> h_submit t);
      Router.route "GET" "/campaigns" (fun _ -> h_list t);
      Router.route "GET" "/campaigns/:id" (fun p -> h_status t (param "id" p));
      Router.route "GET" "/campaigns/:id/stream" (fun p -> h_stream t (param "id" p));
      Router.route "DELETE" "/campaigns/:id" (fun p -> h_cancel t (param "id" p));
      Router.route "GET" "/metrics" (fun _ -> h_metrics t);
      Router.route "GET" "/healthz" (fun _ -> h_health t);
    ]

(* ---- connection plumbing ---- *)

let dispatch t routes req conn =
  Scheduler.bump t.scheduler "service.http.requests";
  match Router.dispatch routes ~meth:req.Http.meth ~path:req.Http.path with
  | Router.Matched handler -> handler req conn
  | Router.Method_not_allowed allowed ->
    Http.respond
      ~headers:[ ("Allow", String.concat ", " allowed) ]
      conn ~status:405 "method not allowed\n"
  | Router.Not_found -> respond_error conn ~status:404 "no such resource"

let set_idle_token t slot token =
  Mutex.lock t.lock;
  t.idle_tokens.(slot) <- token;
  Mutex.unlock t.lock

(* Serve requests off one connection until the client closes or opts out,
   the request cap rolls the connection over, the idle deadline fires, or
   the server stops.  A [Bad_request] — from the parser or a handler —
   answers 400 and closes: the stream's framing can no longer be trusted,
   but the worker itself stays healthy and moves on to the next
   connection. *)
let handle_connection t routes slot fd =
  let reader = Http.reader_of_fd fd in
  let oc = Unix.out_channel_of_descr fd in
  let conn = Http.conn_of_channel oc in
  let finally () =
    set_idle_token t slot None;
    (try flush oc with Sys_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      let rec loop served =
        let idle = Deadline.create (Deadline.Wall_seconds t.idle_timeout) in
        Mutex.lock t.lock;
        let stopping = t.stopping in
        t.idle_tokens.(slot) <- (if stopping then None else Some idle);
        Mutex.unlock t.lock;
        if not stopping then
          match Http.read_request ~idle reader with
          | None -> ()  (* peer closed between requests *)
          | exception Http.Timeout -> ()  (* idle too long, or server stop *)
          | exception Http.Bad_request msg ->
            Http.set_keep_alive conn false;
            (try respond_error conn ~status:400 msg with Sys_error _ -> ())
          | Some req ->
            if served > 0 then
              Scheduler.bump t.scheduler "service.connections_reused";
            Http.set_keep_alive conn
              (Http.wants_keep_alive req
              && served + 1 < t.max_requests
              && not t.stopping);
            (try dispatch t routes req conn with
            | Http.Bad_request msg ->
              Http.set_keep_alive conn false;
              (try respond_error conn ~status:400 msg with Sys_error _ -> ())
            | Sys_error _ -> Http.set_keep_alive conn false  (* peer went away *)
            | e ->
              Scheduler.bump t.scheduler "service.http.errors";
              Http.set_keep_alive conn false;
              (try respond_error conn ~status:500 (Printexc.to_string e)
               with Sys_error _ -> ()));
            if Http.keep_alive conn then loop (served + 1)
      in
      loop 0)

let rec worker_loop t routes slot =
  Mutex.lock t.lock;
  while Queue.is_empty t.pending && not t.stopping do
    Condition.wait t.pending_nonempty t.lock
  done;
  if t.stopping then Mutex.unlock t.lock  (* stop drains the queue itself *)
  else begin
    let fd = Queue.pop t.pending in
    t.active <- t.active + 1;
    Mutex.unlock t.lock;
    (try handle_connection t routes slot fd with _ -> ());
    Mutex.lock t.lock;
    t.active <- t.active - 1;
    Mutex.unlock t.lock;
    worker_loop t routes slot
  end

(* Load shedding on the accept path: the handoff queue is bounded, and a
   connection that would overflow it is answered 503 + Retry-After by the
   acceptor itself (the response is small enough to fit the socket
   buffer, so this cannot block the accept loop on a slow client). *)
let reject_overloaded t fd =
  Scheduler.bump t.scheduler "service.connections_rejected";
  (try
     let conn = Http.conn_of_channel (Unix.out_channel_of_descr fd) in
     Http.respond
       ~headers:[ ("Retry-After", "1") ]
       conn ~status:503 "connection queue full\n"
   with Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t listener =
  let rec loop () =
    match Unix.accept ~cloexec:true listener with
    | fd, _ ->
      (* Responses are written as a few small segments (head, body,
         chunks); with Nagle on, each request would wait out the
         client's delayed ACK before the last one leaves. *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      if t.stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        let overloaded =
          Mutex.lock t.lock;
          let over = Queue.length t.pending >= t.max_connections in
          if not over then begin
            Queue.push fd t.pending;
            Condition.signal t.pending_nonempty
          end;
          Mutex.unlock t.lock;
          over
        in
        if overloaded then reject_overloaded t fd;
        loop ()
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (_, _, _) -> ()  (* listener gone: stop *)
  in
  loop ()

let start t =
  if t.fd <> None then invalid_arg "Server.start: already started";
  (* A peer that disconnects mid-stream must surface as EPIPE, not kill
     the process. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  (* Pre-register the connection counters and contribute the live
     connection gauges, so /metrics carries them from the first scrape. *)
  List.iter
    (fun name -> Scheduler.bump ~n:0 t.scheduler name)
    [ "service.connections_reused"; "service.connections_rejected" ];
  Scheduler.register_gauge_source t.scheduler (fun () ->
      Mutex.lock t.lock;
      let active = t.active and queued = Queue.length t.pending in
      Mutex.unlock t.lock;
      [
        ("service.connections_active", float_of_int active);
        ("service.connections_queued", float_of_int queued);
      ]);
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener
    (Unix.ADDR_INET (Unix.inet_addr_of_string t.host, t.port));
  Unix.listen listener 64;
  (match Unix.getsockname listener with
  | Unix.ADDR_INET (_, p) -> t.port <- p
  | _ -> ());
  t.fd <- Some listener;
  let routes = routes t in
  t.workers <-
    List.init t.max_connections (fun slot ->
        Thread.create (fun () -> worker_loop t routes slot) ());
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t listener) ())

let stop t =
  match t.fd with
  | None -> ()
  | Some listener ->
    t.fd <- None;
    t.stopping <- true;
    (* Closing a listening socket does not wake a thread blocked in
       accept(2); a throw-away connection does, portably. *)
    (try
       let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
       let addr =
         if t.host = "0.0.0.0" then "127.0.0.1" else t.host
       in
       (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, t.port))
        with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    t.accept_thread <- None;
    (try Unix.close listener with Unix.Unix_error _ -> ());
    Mutex.lock t.lock;
    (* Queued connections never reached a worker: just close them. *)
    Queue.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.pending;
    Queue.clear t.pending;
    (* Unpark workers waiting for connections, and wake workers parked in
       an idle keep-alive read (their next poll raises Timeout). *)
    Array.iter
      (function Some d -> Deadline.cancel d | None -> ())
      t.idle_tokens;
    Condition.broadcast t.pending_nonempty;
    Mutex.unlock t.lock;
    t.workers <- []
