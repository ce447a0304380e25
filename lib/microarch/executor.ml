module Machine = Scamv_isa.Machine
module Splitmix = Scamv_util.Splitmix

type view =
  | Full_cache
  | Region of { first_set : int; last_set : int }
  | Tlb_state
  | Total_time
type verdict = Distinguishable | Indistinguishable | Inconclusive

type config = {
  core : Core.config;
  view : view;
  repetitions : int;
  train_runs : int;
}

let default_config ?(view = Full_cache) () =
  { core = Core.cortex_a53; view; repetitions = 10; train_runs = 5 }

type experiment = {
  program : Scamv_arch.Isa.program;
  state1 : Machine.t;
  state2 : Machine.t;
  train : Machine.t list;
}

let take_view cfg core =
  match cfg.view with
  | Full_cache -> Cache.snapshot (Core.cache core)
  | Region { first_set; last_set } ->
    Cache.snapshot_region (Core.cache core) ~first_set ~last_set
  | Tlb_state -> [ (0, Tlb.snapshot (Core.tlb core)) ]
  | Total_time -> [ (0, [ Int64.of_int (Core.last_run_cycles core) ]) ]

(* One measured run: fresh predictor, training executions (cache cleared
   before each, predictor persists), then the measured execution from a
   cold cache.  With fault injection active the observation may come back
   perturbed or not at all ([None]). *)
let measured_run ?faults cfg core program ~train state =
  Core.reset_predictor core;
  List.iter
    (fun st ->
      Core.reset_cache core;
      ignore (Core.run core program (Machine.copy st)))
    (List.concat_map (fun st -> List.init cfg.train_runs (fun _ -> st)) train);
  Core.reset_cache core;
  ignore (Core.run core program (Machine.copy state));
  let view = take_view cfg core in
  match faults with None -> Some view | Some f -> Faults.apply f view

(* Repeat a measured run and demand identical cache dumps.  A dropped or
   perturbed measurement breaks the consistency check exactly like board
   noise does in the paper's setup, so the experiment degrades to
   [Inconclusive] instead of silently using a corrupt observation. *)
let stable_view ?faults cfg core rng program ~train state =
  let measure () =
    let seed, rng' = Splitmix.next !rng in
    rng := rng';
    Core.reseed core seed;
    measured_run ?faults cfg core program ~train state
  in
  match measure () with
  | None -> None
  | Some first ->
    let rec go i =
      if i >= cfg.repetitions then Some first
      else
        match measure () with
        | Some v when Cache.equal_snapshot v first -> go (i + 1)
        | _ -> None
    in
    go 1

let run_observed ?(seed = 0L) ?faults cfg { program; state1; state2; train } =
  let module Tm = Scamv_telemetry.Collector in
  let core = Core.create cfg.core in
  let program = Core.decode program in
  let rng = ref (Splitmix.of_seed seed) in
  let faults = Option.map (fun f -> Faults.start f ~run_seed:seed) faults in
  let verdict =
    match
      Tm.span "run" ~args:[ ("state", "1") ] (fun () ->
          stable_view ?faults cfg core rng program ~train state1)
    with
    | None -> Inconclusive
    | Some v1 -> (
      match
        Tm.span "run" ~args:[ ("state", "2") ] (fun () ->
            stable_view ?faults cfg core rng program ~train state2)
      with
      | None -> Inconclusive
      | Some v2 ->
        Tm.span "compare" (fun () ->
            if Cache.equal_snapshot v1 v2 then Indistinguishable
            else Distinguishable))
  in
  let injected = match faults with None -> 0 | Some f -> Faults.injected f in
  (* The core is private to this experiment, so its lifetime counters are
     exactly this experiment's work: flush them in one pass. *)
  List.iter (fun (k, n) -> Tm.add ("uarch." ^ k) n) (Core.counters core);
  Tm.add "uarch.faults.injected" injected;
  Tm.incr "uarch.experiments";
  (verdict, injected)

let run ?seed ?faults cfg experiment = fst (run_observed ?seed ?faults cfg experiment)

let observe_once ?(seed = 0L) cfg program ~train state =
  let core = Core.create ~seed cfg.core in
  (* No fault injection: the measurement is always present. *)
  Option.get (measured_run cfg core (Core.decode program) ~train state)
