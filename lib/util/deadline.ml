(* Cooperative cancellation tokens.

   A token is created per unit of supervised work (the campaign driver
   makes one per program) and handed to the hot loops through the ambient
   (domain-local) API, mirroring how the telemetry collector travels.  The
   loops *cooperate*: the SAT search charges one unit per conflict and
   checks [expired] at its loop head, the blaster and pipeline poll at
   phase boundaries, and whoever observes expiry raises {!Expired} after
   rewinding its own state — nothing is interrupted asynchronously.

   Two modes:

   - [Conflicts n] is the *virtual* deadline: purely a budget of charged
     work units (SAT conflicts).  Expiry is a function of the work
     performed, never of the scheduler or the machine, so a campaign with
     a virtual deadline produces byte-identical output at any [--jobs]
     level — the property the chaos acceptance tests check.

   - [Wall_seconds s] is the watchdog for service use: expiry consults
     the token's clock, but only every [wall_check_interval] polls so the
     hot loops don't pay a syscall per iteration.  Under
     [Stopwatch.frozen] the clock never advances and the deadline never
     fires, which keeps deterministic test campaigns unaffected.

   Expiry is sticky: once observed (or forced with [cancel]) the token
   stays expired.  The flag is an [Atomic.t] so a supervisor on another
   domain may cancel a token its worker is polling. *)

type spec = Conflicts of int | Wall_seconds of float

type t = {
  spec : spec;
  clock : Stopwatch.clock;
  started : float;
  mutable used : int;  (* charged work units (virtual mode) *)
  mutable countdown : int;  (* polls until the next clock read (wall mode) *)
  cancelled : bool Atomic.t;
}

exception Expired of string

let () =
  Printexc.register_printer (function
    | Expired reason -> Some (Printf.sprintf "Deadline.Expired(%s)" reason)
    | _ -> None)

let wall_check_interval = 256

let create ?(clock = Stopwatch.wall) spec =
  (match spec with
  | Conflicts n when n < 1 ->
    invalid_arg "Deadline.create: conflict limit must be >= 1"
  | Wall_seconds s when s <= 0.0 ->
    invalid_arg "Deadline.create: wall deadline must be > 0"
  | _ -> ());
  {
    spec;
    clock;
    started = clock ();
    used = 0;
    countdown = wall_check_interval;
    cancelled = Atomic.make false;
  }

let describe t =
  match t.spec with
  | Conflicts n -> Printf.sprintf "virtual deadline of %d conflicts exceeded" n
  | Wall_seconds s -> Printf.sprintf "wall-clock deadline of %.3fs exceeded" s

let cancel t = Atomic.set t.cancelled true
let used t = t.used

let expired t =
  Atomic.get t.cancelled
  ||
  match t.spec with
  | Conflicts limit ->
    t.used >= limit
    && begin
         Atomic.set t.cancelled true;
         true
       end
  | Wall_seconds s ->
    t.countdown <- t.countdown - 1;
    t.countdown <= 0
    && begin
         t.countdown <- wall_check_interval;
         t.clock () -. t.started >= s
         && begin
              Atomic.set t.cancelled true;
              true
            end
       end

(* Unlike [expired], this always consults the clock: it serves waiters
   (e.g. the HTTP idle loop) that poll a few times per second and need an
   accurate select(2) timeout, not hot loops amortizing the syscall. *)
let remaining_seconds t =
  if Atomic.get t.cancelled then Some 0.0
  else
    match t.spec with
    | Conflicts limit ->
      if t.used >= limit then begin
        Atomic.set t.cancelled true;
        Some 0.0
      end
      else None
    | Wall_seconds s ->
      let rem = s -. (t.clock () -. t.started) in
      if rem <= 0.0 then begin
        Atomic.set t.cancelled true;
        Some 0.0
      end
      else Some rem

let tick t n = t.used <- t.used + n
let check t = if expired t then raise (Expired (describe t))

(* ---- ambient (domain-local) token ---- *)

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key

let with_current t f =
  let previous = Domain.DLS.get key in
  Domain.DLS.set key (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key previous) f

let poll () = match Domain.DLS.get key with None -> () | Some t -> check t
let charge n = match Domain.DLS.get key with None -> () | Some t -> tick t n
