(* Deterministic fault injector.

   Every injection decision is a pure function of (chaos seed, site name,
   site-local key): [roll] hashes the three together and draws one float
   from a throwaway splitmix stream.  No state advances between rolls, so
   the decision for a given (site, key) does not depend on how many other
   rolls happened before it, on which domain asked, or on the schedule —
   which is what lets a chaos campaign stay byte-identical across
   [--jobs] levels and across resume boundaries (a resumed run re-rolls
   the same keys and gets the same faults).

   The only mutable state is the injection counter, an [Atomic.t] because
   sites roll from worker domains and the consumer domain alike. *)

type t = { rate : float; seed : int64; injections : int Atomic.t }

exception Killed of string

let () =
  Printexc.register_printer (function
    | Killed site -> Some (Printf.sprintf "Chaos.Killed(%s)" site)
    | _ -> None)

let create ?(rate = 0.0) ?(seed = 0L) () =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Chaos.create: rate must be in [0, 1]";
  { rate; seed; injections = Atomic.make 0 }

let injections t = Atomic.get t.injections

(* FNV-1a over the site name, so distinct sites with the same key draw
   independent decisions. *)
let site_hash site =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    site;
  !h

let golden = 0x9E3779B97F4A7C15L

let roll t ~site ~key =
  t.rate > 0.0
  &&
  let mixed =
    Int64.add t.seed (Int64.add (site_hash site) (Int64.mul key golden))
  in
  let u, _ = Splitmix.float (Splitmix.of_seed mixed) in
  let hit = u < t.rate in
  if hit then Atomic.incr t.injections;
  hit

let kill t ~site ~key =
  if roll t ~site ~key then raise (Killed site)
