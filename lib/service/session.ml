(* One submitted campaign: its parameters, life-cycle state machine, the
   cooperative cancel token, and the growing sequence of NDJSON lines that
   [GET /campaigns/:id/stream] serves.

   The line buffer is the service's fan-out point: the scheduler's runner
   thread appends lines as the campaign produces journal records, and any
   number of streaming connections block on [wait_lines] until more lines
   (or a terminal state) arrive.  All mutable state is guarded by the
   session's own lock, so streamers never touch scheduler internals. *)

module Json = Scamv_util.Json
module Deadline = Scamv_util.Deadline
module Stats = Scamv.Stats

(* ---- parameters ---- *)

type params = {
  template : string;
  setup : string;
  isa : string;  (** ["aarch64"] | ["riscv"] | ["diff"] (both + compare) *)
  programs : int;
  tests_per_program : int;
  seed : int64 option;  (** [None]: draw from the tenant's seed namespace *)
  max_conflicts : int;  (** SAT budget per solver call; 0 = unlimited *)
  deadline_conflicts : int;  (** per-program virtual deadline; 0 = none *)
  portfolio : int;  (** solver portfolio size *)
}

let default_params =
  {
    template = "A";
    setup = "mct-vs-mspec";
    isa = "aarch64";
    programs = 10;
    tests_per_program = 10;
    seed = None;
    max_conflicts = 0;
    deadline_conflicts = 0;
    portfolio = 1;
  }

let int_field name json =
  match json with
  | Json.Num f when Float.is_integer f && Float.abs f <= 1e9 -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "field %s must be an integer" name)

(* Seeds are full 64-bit values (the tenant namespace uses all the bits),
   which a JSON double cannot carry, so the canonical encoding is a
   decimal string; small integral numbers are accepted for hand-written
   requests. *)
let seed_field json =
  match json with
  | Json.Str s -> (
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> Error "field seed must be a decimal int64 string")
  | Json.Num f when Float.is_integer f && Float.abs f < 9.007199254740992e15 ->
    Ok (Int64.of_float f)
  | _ -> Error "field seed must be a decimal int64 string or an integer"

let params_of_json json =
  match json with
  | Json.Obj fields ->
    let ( let* ) = Result.bind in
    let rec fold p = function
      | [] -> Ok p
      | (key, value) :: rest ->
        let* p =
          match key with
          | "template" -> (
            match value with
            | Json.Str s -> Ok { p with template = s }
            | _ -> Error "field template must be a string")
          | "setup" -> (
            match value with
            | Json.Str s -> Ok { p with setup = s }
            | _ -> Error "field setup must be a string")
          | "isa" -> (
            match value with
            | Json.Str s -> Ok { p with isa = s }
            | _ -> Error "field isa must be a string")
          | "programs" ->
            let* n = int_field key value in
            Ok { p with programs = n }
          | "tests_per_program" ->
            let* n = int_field key value in
            Ok { p with tests_per_program = n }
          | "seed" ->
            let* v = seed_field value in
            Ok { p with seed = Some v }
          | "max_conflicts" ->
            let* n = int_field key value in
            Ok { p with max_conflicts = n }
          | "deadline_conflicts" ->
            let* n = int_field key value in
            Ok { p with deadline_conflicts = n }
          | "portfolio" ->
            let* n = int_field key value in
            Ok { p with portfolio = n }
          | "tenant" -> Ok p  (* handled by the server, tolerated here *)
          | other -> Error (Printf.sprintf "unknown field %s" other)
        in
        fold p rest
    in
    fold default_params fields
  | _ -> Error "request body must be a JSON object"

let params_to_json p =
  Json.Obj
    ([
      ("template", Json.Str p.template);
      ("setup", Json.Str p.setup);
    ]
    (* appended only when non-default, so AArch64 log records and status
       payloads keep their historical bytes *)
    @ (if p.isa = "aarch64" then [] else [ ("isa", Json.Str p.isa) ])
    @ [
      ("programs", Json.Num (float_of_int p.programs));
      ("tests_per_program", Json.Num (float_of_int p.tests_per_program));
      ( "seed",
        match p.seed with
        | None -> Json.Null
        | Some s -> Json.Str (Int64.to_string s) );
      ("max_conflicts", Json.Num (float_of_int p.max_conflicts));
      ("deadline_conflicts", Json.Num (float_of_int p.deadline_conflicts));
      ("portfolio", Json.Num (float_of_int p.portfolio));
    ])

let stats_json (s : Stats.t) =
  let i name v = (name, Json.Num (float_of_int v)) in
  Json.Obj
    ([
      i "programs" s.Stats.programs;
      i "programs_with_counterexample" s.Stats.programs_with_counterexample;
      i "experiments" s.Stats.experiments;
      i "counterexamples" s.Stats.counterexamples;
      i "inconclusive" s.Stats.inconclusive;
      i "skipped_programs" s.Stats.skipped_programs;
      i "crashed_programs" s.Stats.crashed_programs;
      i "budget_exceeded" s.Stats.budget_exceeded;
      i "retries" s.Stats.retries;
      i "faults_observed" s.Stats.faults_observed;
    ]
    @
    if s.Stats.divergences > 0 then [ i "divergences" s.Stats.divergences ]
    else [])

(* ---- life cycle ---- *)

type state = Queued | Running | Completed | Cancelled | Failed of string

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Completed -> "completed"
  | Cancelled -> "cancelled"
  | Failed _ -> "failed"

let is_terminal = function
  | Completed | Cancelled | Failed _ -> true
  | Queued | Running -> false

type t = {
  id : string;
  tenant : string;
  params : params;
  seed : int64;  (** resolved: the submitted seed or the namespace draw *)
  campaign_name : string;
  submitted : int;  (** global submission index; orders [GET /campaigns] *)
  cancel : Deadline.t;
  lock : Mutex.t;
  changed : Condition.t;
  mutable state : state;
  mutable resume_from : string option;
      (** journal to replay before running (set by server [--resume]) *)
  mutable lines : string array;
  mutable nlines : int;
  mutable progress : (int * string) list;
      (** progress messages with their stream positions, newest first *)
  mutable stats : Json.t option;
  mutable wall_seconds : float;
}

let create ~id ~tenant ~params ~seed ~submitted () =
  {
    id;
    tenant;
    params;
    seed;
    campaign_name =
      Workload.campaign_name ~setup:params.setup ~template:params.template;
    submitted;
    (* The token only ever expires by explicit [Deadline.cancel]. *)
    cancel = Deadline.create (Deadline.Wall_seconds infinity);
    lock = Mutex.create ();
    changed = Condition.create ();
    state = Queued;
    resume_from = None;
    lines = Array.make 64 "";
    nlines = 0;
    progress = [];
    stats = None;
    wall_seconds = 0.0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let push_line_unlocked t line =
  if t.nlines = Array.length t.lines then begin
    let bigger = Array.make (2 * t.nlines) "" in
    Array.blit t.lines 0 bigger 0 t.nlines;
    t.lines <- bigger
  end;
  t.lines.(t.nlines) <- line;
  t.nlines <- t.nlines + 1

let push_line t line =
  locked t (fun () ->
      push_line_unlocked t line;
      Condition.broadcast t.changed)

let progress_line message =
  Json.to_string (Json.Obj [ ("progress", Json.Str message) ])

(* Progress lines are not in the journal, so the session remembers where
   each one sits; the final meta persists them (see [meta_json]). *)
let push_progress_unlocked t message =
  t.progress <- (t.nlines, message) :: t.progress;
  push_line_unlocked t (progress_line message)

let push_progress t message =
  locked t (fun () ->
      push_progress_unlocked t message;
      Condition.broadcast t.changed)

let set_state t state =
  locked t (fun () ->
      t.state <- state;
      Condition.broadcast t.changed)

let state t = locked t (fun () -> t.state)

let slice t from upto =
  let rec collect i acc =
    if i < from then acc else collect (i - 1) (t.lines.(i) :: acc)
  in
  collect (upto - 1) []

let wait_lines t ~from =
  locked t (fun () ->
      let from = max 0 (min from t.nlines) in
      while t.nlines <= from && not (is_terminal t.state) do
        Condition.wait t.changed t.lock
      done;
      (slice t from t.nlines, t.nlines, is_terminal t.state))

(* ---- wire renderings ---- *)

(* The failure reason and final statistics, once there are any: the tail
   of the status, done line and meta alike.  Call under the lock. *)
let outcome_fields t =
  (match t.state with Failed reason -> [ ("reason", Json.Str reason) ] | _ -> [])
  @
  match t.stats with
  | None -> []
  | Some s -> [ ("stats", s); ("wall_seconds", Json.Num t.wall_seconds) ]

(* The status, without [records] for a queued log record.  Call under
   the lock. *)
let status_fields t ~records =
  [
    ("id", Json.Str t.id);
    ("tenant", Json.Str t.tenant);
    ("state", Json.Str (state_name t.state));
    ("campaign", Json.Str t.campaign_name);
    ("params", params_to_json { t.params with seed = Some t.seed });
  ]
  @ (if records then [ ("records", Json.Num (float_of_int t.nlines)) ] else [])
  @ outcome_fields t

let status_json t = locked t (fun () -> Json.Obj (status_fields t ~records:true))

let summary ~id ~tenant ~state ~records =
  Json.Obj
    [
      ("id", Json.Str id);
      ("tenant", Json.Str tenant);
      ("state", Json.Str state);
      ("records", Json.Num (float_of_int records));
    ]

let summary_json t =
  locked t (fun () ->
      summary ~id:t.id ~tenant:t.tenant ~state:(state_name t.state) ~records:t.nlines)

let record_line event =
  let module Journal = Scamv.Journal in
  Json.to_string
    (Json.Obj [ ("record", Journal.event_to_json (Journal.as_stored event)) ])

let done_line_unlocked t =
  Json.to_string
    (Json.Obj
       (("done", Json.Str (state_name t.state)) :: outcome_fields t))

(* Rebuild a finished session's stream from what the state dir keeps:
   the journal's events, with each persisted progress message put back at
   its recorded position. *)
let replay t ~events ~progress =
  locked t (fun () ->
      let rec go events progress =
        match (progress, events) with
        | (at, message) :: rest, _ when at <= t.nlines || events = [] ->
          push_progress_unlocked t message;
          go events rest
        | _, ev :: evs ->
          push_line_unlocked t (record_line ev);
          go evs progress
        | _, [] -> ()
      in
      go events progress)

(* Entering a terminal state and appending the final "done" NDJSON line
   happen in one critical section: a streamer that observes a terminal
   state is guaranteed to already have the done line in its slice, so
   every stream ends with it exactly once. *)
let conclude t state ?stats ?(wall_seconds = 0.0) () =
  locked t (fun () ->
      t.state <- state;
      t.stats <- stats;
      t.wall_seconds <- wall_seconds;
      push_line_unlocked t (done_line_unlocked t);
      Condition.broadcast t.changed)

(* ---- persistence (campaign log records) ---- *)

(* The status fields (a terminal record's [records] answers the
   listing), the submission index, and the progress lines when there are
   any. *)
let meta_json t =
  locked t (fun () ->
      Json.Obj
        (status_fields t ~records:(is_terminal t.state)
        @ [ ("submitted", Json.Num (float_of_int t.submitted)) ]
        @
        match t.progress with
        | [] -> []
        | progress ->
          [
            ( "progress",
              Json.Arr
                (List.rev_map
                   (fun (at, message) ->
                     Json.Arr [ Json.Num (float_of_int at); Json.Str message ])
                   progress) );
          ]))

let status_of_meta = function
  | Json.Obj fields ->
    Json.Obj (List.filter (fun (k, _) -> k <> "submitted" && k <> "progress") fields)
  | json -> json

type meta = {
  meta_id : string;
  meta_tenant : string;
  meta_submitted : int;
  meta_state : state;
  meta_params : params;  (** seed always resolved ([Some _]) *)
  meta_stats : Json.t option;
  meta_wall_seconds : float;
  meta_progress : (int * string) list;
  meta_records : int option;
}

let meta_of_json json =
  let ( let* ) = Result.bind in
  let str name =
    match Json.member name json with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "meta field %s missing or not a string" name)
  in
  let* meta_id = str "id" in
  let* meta_tenant = str "tenant" in
  let* meta_state =
    match (str "state", Json.member "reason" json) with
    | Ok ("queued" | "running"), _ -> Ok Queued
    | Ok "completed", _ -> Ok Completed
    | Ok "cancelled", _ -> Ok Cancelled
    | Ok "failed", Some (Json.Str reason) -> Ok (Failed reason)
    | Ok "failed", _ -> Ok (Failed "unknown")
    | Ok other, _ -> Error ("meta state unknown: " ^ other)
    | (Error _ as e), _ -> e
  in
  let* meta_submitted =
    match Json.member "submitted" json with
    | Some v -> int_field "submitted" v
    | None -> Error "meta field submitted missing"
  in
  let* meta_params =
    match Json.member "params" json with
    | Some p -> params_of_json p
    | None -> Error "meta field params missing"
  in
  let* () =
    if meta_params.seed = None then Error "meta params missing resolved seed"
    else Ok ()
  in
  let meta_stats = Json.member "stats" json in
  let meta_wall_seconds =
    match Json.member "wall_seconds" json with Some (Json.Num f) -> f | _ -> 0.0
  in
  let* meta_records =
    match Json.member "records" json with
    | None -> Ok None
    | Some v -> Result.map Option.some (int_field "records" v)
  in
  let* meta_progress =
    let entry = function
      | Json.Arr [ at; Json.Str message ] ->
        Result.map (fun at -> (at, message)) (int_field "progress position" at)
      | _ -> Error "meta field progress must hold [position, message] pairs"
    in
    match Json.member "progress" json with
    | None -> Ok []
    | Some (Json.Arr entries) ->
      List.fold_right
        (fun e acc ->
          let* e = entry e in
          let* acc = acc in
          Ok (e :: acc))
        entries (Ok [])
    | Some _ -> Error "meta field progress must be an array"
  in
  Ok
    {
      meta_id;
      meta_tenant;
      meta_submitted;
      meta_state;
      meta_params;
      meta_stats;
      meta_wall_seconds;
      meta_progress;
      meta_records;
    }
