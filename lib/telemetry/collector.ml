(* Per-domain telemetry collector.

   A collector is a mutable buffer — a metrics registry plus a list of
   completed spans — confined to the domain that created it.  Campaign
   workers create one collector per program, install it as the domain's
   *current* collector for the duration of that program's pipeline
   (instrumented code throughout the tree records into whatever collector
   is current, or does nothing when none is), and return its frozen
   {!report}.  The consumer merges reports strictly in program order, so
   the merged registry and span stream compose with
   [Scamv_util.Pool.run_supervised] and do not depend on the number of
   worker domains.

   All timestamps come from the collector's injectable
   [Scamv_util.Stopwatch.clock]; under [Stopwatch.frozen] every span has
   start 0 and duration 0, which makes exported telemetry byte-identical
   across runs and across [--jobs] levels. *)

module Stopwatch = Scamv_util.Stopwatch

type span = {
  name : string;
  track : int;  (* logical lane (program index), not the OS domain *)
  depth : int;  (* nesting depth at the time the span opened *)
  start_s : float;  (* clock value when the span opened *)
  duration_s : float;
  args : (string * string) list;
}

type t = {
  clock : Stopwatch.clock;
  track : int;
  mutable metrics : Metrics.t;
  mutable spans_rev : span list;
  mutable depth : int;
}

let create ?(clock = Stopwatch.wall) ?(track = 0) () =
  { clock; track; metrics = Metrics.empty; spans_rev = []; depth = 0 }

type report = { metrics : Metrics.t; spans : span list }

let empty_report = { metrics = Metrics.empty; spans = [] }

let report (c : t) = { metrics = c.metrics; spans = List.rev c.spans_rev }

let merge_reports a b =
  { metrics = Metrics.merge a.metrics b.metrics; spans = a.spans @ b.spans }

(* ---- ambient (domain-local) current collector ---- *)

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key

let with_current c f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

(* Recording into the current collector is the hot-path entry point used
   by the instrumented layers; with no collector installed each call is a
   domain-local read and a match — cheap enough to leave compiled in
   unconditionally. *)

let add name n =
  match current () with
  | None -> ()
  | Some c -> c.metrics <- Metrics.add name n c.metrics

let incr name = add name 1

let observe name v =
  match current () with
  | None -> ()
  | Some c -> c.metrics <- Metrics.observe name v c.metrics

let observe_n name v n =
  match current () with
  | None -> ()
  | Some c -> c.metrics <- Metrics.observe_n name v n c.metrics

(* A span is recorded when it closes (exceptions included, so a failing
   program still reports the phases it entered); every close also feeds
   the span's duration into the "span.<name>.seconds" histogram, giving
   the registry per-phase totals without separate bookkeeping. *)
let span ?(args = []) name f =
  match current () with
  | None -> f ()
  | Some c ->
    let start = c.clock () in
    let depth = c.depth in
    c.depth <- depth + 1;
    Fun.protect f ~finally:(fun () ->
        c.depth <- depth;
        let duration_s = c.clock () -. start in
        c.spans_rev <-
          { name; track = c.track; depth; start_s = start; duration_s; args }
          :: c.spans_rev;
        c.metrics <-
          Metrics.observe ("span." ^ name ^ ".seconds") duration_s c.metrics)
