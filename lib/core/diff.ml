module Templates = Scamv_gen.Templates
module Executor = Scamv_microarch.Executor
module Isa = Scamv_arch.Isa
module Tm = Scamv_telemetry.Collector

(* A differential campaign runs the *same* (template, setup, seed,
   parameters) on both guest ISAs and compares what the platform said,
   path pair by path pair.  Both sides are fully deterministic on their
   own (same campaign engine, same seed discipline), so the comparison —
   and the Diverged events it appends — is a pure function of the
   configuration, whatever [jobs] was. *)

type outcome = {
  name : string;
  aarch64 : Campaign.outcome;
  riscv : Campaign.outcome;
  divergences : Journal.event list;
  compared_pairs : int;
  unmatched_pairs : int;
  stats : Stats.t;
}

(* Per (program, path pair), the side's verdict is the *strongest* over
   its test cases: one distinguishable test case makes the pair a
   counterexample no matter how many indistinguishable ones surround it
   (the paper's notion of a falsified pair), and inconclusive outranks
   indistinguishable because it withholds judgement. *)
let rank = function
  | Executor.Distinguishable -> 2
  | Executor.Inconclusive -> 1
  | Executor.Indistinguishable -> 0

let strongest a b = if rank a >= rank b then a else b

let pair_verdicts events =
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | Journal.Experiment e ->
        let key = (e.Journal.program_index, e.Journal.path_pair) in
        let v =
          match Hashtbl.find_opt tbl key with
          | None -> e.Journal.verdict
          | Some v -> strongest v e.Journal.verdict
        in
        Hashtbl.replace tbl key v
      | _ -> ())
    events;
  tbl

let side_name name isa = Printf.sprintf "%s [%s]" name (Isa.to_string isa)

let run ?(on_event = fun _ -> ()) ?(on_record = fun (_ : Journal.event) -> ())
    ?journal ?pool ?(jobs = 1) ~template (cfg : Campaign.config) =
  let name = cfg.Campaign.name in
  let side isa =
    let cfg =
      { cfg with
        Campaign.name = side_name name isa;
        isa;
        template = Templates.by_name ~isa template }
    in
    let events_rev = ref [] in
    let on_record ev =
      events_rev := ev :: !events_rev;
      on_record ev
    in
    let outcome = Campaign.run ~on_event ~on_record ?journal ?pool ~jobs cfg in
    (outcome, List.rev !events_rev)
  in
  let a_outcome, a_events = side Isa.Aarch64 in
  let r_outcome, r_events = side Isa.Riscv in
  let a_verdicts = pair_verdicts a_events in
  let r_verdicts = pair_verdicts r_events in
  let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  let shared, a_only =
    List.partition (fun k -> Hashtbl.mem r_verdicts k) (keys a_verdicts)
  in
  let r_only = List.filter (fun k -> not (Hashtbl.mem a_verdicts k)) (keys r_verdicts) in
  let shared = List.sort compare shared in
  let divergences =
    List.filter_map
      (fun ((program_index, pair) as key) ->
        let va = Hashtbl.find a_verdicts key in
        let vr = Hashtbl.find r_verdicts key in
        if va = vr then None
        else
          Some (Journal.Diverged { campaign = name; program_index; pair;
                                   aarch64 = va; riscv = vr }))
      shared
  in
  List.iter
    (fun ev ->
      Option.iter (fun j -> Journal.record_event j ev) journal;
      on_record ev;
      match ev with
      | Journal.Diverged { program_index; pair; aarch64; riscv; _ } ->
        on_event
          (Printf.sprintf
             "[%s] program %d path pair (%d,%d): aarch64=%s riscv=%s" name
             program_index (fst pair) (snd pair)
             (Journal.verdict_string aarch64)
             (Journal.verdict_string riscv))
      | _ -> ())
    divergences;
  let compared_pairs = List.length shared in
  let unmatched_pairs = List.length a_only + List.length r_only in
  Tm.add "diff.compared_pairs" compared_pairs;
  Tm.add "diff.unmatched_pairs" unmatched_pairs;
  Tm.add "diff.divergences" (List.length divergences);
  let stats =
    List.fold_left (Stats.add_event ~elapsed:0.)
      (Stats.merge a_outcome.Campaign.stats r_outcome.Campaign.stats)
      divergences
  in
  on_event
    (Printf.sprintf
       "[%s] compared %d path pair(s) across ISAs: %d divergence(s), %d unmatched"
       name compared_pairs (List.length divergences) unmatched_pairs);
  {
    name;
    aarch64 = a_outcome;
    riscv = r_outcome;
    divergences;
    compared_pairs;
    unmatched_pairs;
    stats;
  }
