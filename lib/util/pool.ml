(* Deterministic Domain-based worker pool with supervision.

   Work items are identified by their index 0..tasks-1.  Worker domains
   pull indices from a shared counter guarded by a mutex; each result is
   written into its slot of a result array and the consumer (the calling
   domain) is woken through a condition variable.  The consumer hands
   results to [consume] strictly in index order, whatever order the
   workers complete in, so any state folded over the results (journals,
   statistics, output files) is identical to a sequential run.

   Two lifecycles share that engine:

   - [run_supervised]: one batch, domains spawned for the call and joined
     before it returns (the original batch API).
   - a {e persistent} pool ([create] / [exec] / [shutdown]): domains are
     spawned once and then sleep between batches, so a long-running
     service can run many campaigns on the same warmed-up pool and stop it
     cleanly at the end.  [exec] runs exactly the same supervised batch
     protocol; batches are serialized (one at a time per pool).

   Supervision: a worker exception is captured as a per-item [Error] and
   delivered to the consumer in the item's index position — it is never
   re-raised inside the pool.  Exceptions the caller declares [fatal]
   additionally kill the worker domain that hit them (modelling a crashed
   worker, e.g. a stack overflow or an injected chaos kill); when the
   consumer drains such a failure it runs [on_restart] and spawns a
   replacement domain, so a campaign outlives any number of worker
   crashes.  Because every taken index is always filled (the failure cell
   is written before the domain exits), the drain order is total: the
   consumer never waits on a slot no live or future domain will fill.

   With [size/jobs = 1] no domain is spawned at all: the calling domain
   runs worker and consumer interleaved (compute item i, consume item i) —
   including the [on_restart] bookkeeping for fatal failures, so
   supervision counters are identical across jobs levels. *)

type failure = { exn : exn; backtrace : Printexc.raw_backtrace }

type 'a cell =
  | Empty
  | Done of 'a
  | Failed of failure

let default_jobs () = Domain.recommended_domain_count ()

let resolve_jobs jobs =
  if jobs < 0 then invalid_arg "Pool: jobs must be >= 0"
  else if jobs = 0 then default_jobs ()
  else jobs

(* ---- persistent pool ---- *)

(* The batch installed in the pool is type-erased: [run i] is a closure
   (built by [exec]) that computes item [i], deposits the result into the
   batch's own typed slot array, wakes the consumer, and returns whether
   the executing domain should keep pulling work ([false] = the item's
   exception was fatal, the domain "crashes").  [next] is the shared take
   counter, advanced under the pool lock. *)
type batch = { mutable next : int; tasks : int; run : int -> bool }

type t = {
  size : int;  (* worker count an exec batch sees (>= 1) *)
  lock : Mutex.t;
  work : Condition.t;  (* a batch was installed, or shutdown began *)
  filled : Condition.t;  (* some slot of the current batch was filled *)
  idle : Condition.t;  (* the current batch finished (exec serialization) *)
  mutable batch : batch option;
  mutable busy : bool;  (* an exec call is in progress *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

exception Shut_down

let () =
  Printexc.register_printer (function
    | Shut_down -> Some "Scamv_util.Pool.Shut_down"
    | _ -> None)

let rec domain_loop pool =
  Mutex.lock pool.lock;
  let rec await () =
    if pool.stopping then None
    else
      match pool.batch with
      | Some b when b.next < b.tasks ->
        let i = b.next in
        b.next <- i + 1;
        Some (b, i)
      | _ ->
        Condition.wait pool.work pool.lock;
        await ()
  in
  match await () with
  | None -> Mutex.unlock pool.lock
  | Some (b, i) ->
    Mutex.unlock pool.lock;
    if b.run i then domain_loop pool
(* [b.run i = false]: the item's exception was fatal — this domain exits
   to model the crash; the consumer respawns a replacement when it drains
   the failure. *)

let create ~size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  let pool =
    {
      size;
      lock = Mutex.create ();
      work = Condition.create ();
      filled = Condition.create ();
      idle = Condition.create ();
      batch = None;
      busy = false;
      stopping = false;
      domains = [];
    }
  in
  (* size = 1 keeps the pool domain-free: exec runs inline on the calling
     domain, preserving the sequential interleaving run_supervised
     documents for jobs = 1. *)
  if size > 1 then
    pool.domains <- List.init size (fun _ -> Domain.spawn (fun () -> domain_loop pool));
  pool

let size pool = pool.size

let exec pool ~tasks ?(fatal = fun _ -> false)
    ?(on_restart = fun (_ : int) -> ()) ~worker ~consume () =
  if tasks < 0 then invalid_arg "Pool.exec: tasks must be >= 0";
  (* Serialize batches: one exec at a time per pool, and none once
     shutdown has begun. *)
  Mutex.lock pool.lock;
  while pool.busy && not pool.stopping do
    Condition.wait pool.idle pool.lock
  done;
  if pool.stopping then begin
    Mutex.unlock pool.lock;
    raise Shut_down
  end;
  pool.busy <- true;
  Mutex.unlock pool.lock;
  let finish () =
    Mutex.lock pool.lock;
    pool.batch <- None;
    pool.busy <- false;
    Condition.broadcast pool.idle;
    Mutex.unlock pool.lock
  in
  match
    if tasks = 0 then ()
    else if pool.size = 1 then
      for i = 0 to tasks - 1 do
        match worker i with
        | v -> consume i (Ok v)
        | exception exn ->
          let backtrace = Printexc.get_raw_backtrace () in
          if fatal exn then on_restart i;
          consume i (Error { exn; backtrace })
      done
    else begin
      let slots = Array.make tasks Empty in
      let completed = ref 0 in
      let put i cell =
        Mutex.lock pool.lock;
        slots.(i) <- cell;
        incr completed;
        Condition.broadcast pool.filled;
        Mutex.unlock pool.lock
      in
      let run i =
        match worker i with
        | v ->
          put i (Done v);
          true
        | exception exn ->
          let backtrace = Printexc.get_raw_backtrace () in
          put i (Failed { exn; backtrace });
          not (fatal exn)
      in
      let b = { next = 0; tasks; run } in
      Mutex.lock pool.lock;
      pool.batch <- Some b;
      Condition.broadcast pool.work;
      Mutex.unlock pool.lock;
      (* Consumer abort: stop handing out new items, then wait for the
         in-flight ones so no domain still touches [slots] when we
         return — the batch is fully quiesced, the pool reusable. *)
      let cancel_and_quiesce () =
        Mutex.lock pool.lock;
        let taken = min b.next b.tasks in
        b.next <- b.tasks;
        while !completed < taken do
          Condition.wait pool.filled pool.lock
        done;
        Mutex.unlock pool.lock
      in
      match
        for i = 0 to tasks - 1 do
          Mutex.lock pool.lock;
          while (match slots.(i) with Empty -> true | _ -> false) do
            Condition.wait pool.filled pool.lock
          done;
          let cell = slots.(i) in
          slots.(i) <- Empty;
          (* release the result for collection *)
          Mutex.unlock pool.lock;
          match cell with
          | Done v -> consume i (Ok v)
          | Failed f ->
            if fatal f.exn then begin
              (* Restart unconditionally — even when no untaken work
                 remains a replacement is spawned (it parks in the idle
                 pool), so the restart count is a pure function of which
                 items crashed, not of the schedule: identical at every
                 pool size. *)
              on_restart i;
              Mutex.lock pool.lock;
              pool.domains <-
                Domain.spawn (fun () -> domain_loop pool) :: pool.domains;
              Mutex.unlock pool.lock
            end;
            consume i (Error f)
          | Empty -> assert false
        done
      with
      | () -> ()
      | exception exn ->
        cancel_and_quiesce ();
        finish ();
        raise exn
    end
  with
  | () -> finish ()
  | exception exn ->
    (* the inline (size = 1) path has no batch state to clear, but busy
       must still be released *)
    finish ();
    raise exn

let shutdown pool =
  Mutex.lock pool.lock;
  if pool.stopping then begin
    (* idempotent: a second shutdown waits for the first to have joined *)
    Mutex.unlock pool.lock
  end
  else begin
    (* Drain: let an in-progress batch finish before the domains go. *)
    while pool.busy do
      Condition.wait pool.idle pool.lock
    done;
    pool.stopping <- true;
    Condition.broadcast pool.work;
    let domains = pool.domains in
    pool.domains <- [];
    Mutex.unlock pool.lock;
    List.iter Domain.join domains
  end

(* ---- deterministic slicing ---- *)

(* A sliced pool partitions a global worker budget into [slices] fixed
   sub-pools so independent campaigns can run concurrently, each on its
   own slice, without sharing batch state.  The widths are a pure
   function of (total, slices) — never of arrival timing — so a given
   slice index always commands the same worker count; combined with the
   index-ordered batch protocol this keeps every campaign's output
   byte-identical whatever else runs beside it. *)

type sliced = { members : t array }

let slice_widths ~total ~slices =
  if total < 1 then invalid_arg "Pool.slice_widths: total must be >= 1";
  if slices < 1 then invalid_arg "Pool.slice_widths: slices must be >= 1";
  (* Even split with the remainder on the lowest indices; a slice never
     drops below one worker, so oversubscribed configurations (slices >
     total) degrade to width-1 (inline, domain-free) slices rather than
     failing. *)
  let base = total / slices and rem = total mod slices in
  Array.init slices (fun s -> max 1 (base + if s < rem then 1 else 0))

let create_sliced ~total ~slices =
  {
    members =
      Array.map (fun w -> create ~size:w) (slice_widths ~total ~slices);
  }

let slice sl i = sl.members.(i)
let slice_count sl = Array.length sl.members
let slice_width sl i = sl.members.(i).size
let shutdown_sliced sl = Array.iter shutdown sl.members

(* ---- one-shot batch API ---- *)

let run_supervised ~jobs ~tasks ?fatal ?on_restart ~worker ~consume () =
  if tasks < 0 then invalid_arg "Pool.run_supervised: tasks must be >= 0";
  let jobs = resolve_jobs jobs in
  if tasks = 0 then ()
  else begin
    let pool = create ~size:(min jobs tasks) in
    Fun.protect
      ~finally:(fun () -> shutdown pool)
      (fun () -> exec pool ~tasks ?fatal ?on_restart ~worker ~consume ())
  end
