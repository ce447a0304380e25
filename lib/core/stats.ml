module Executor = Scamv_microarch.Executor

type t = {
  programs : int;
  programs_with_counterexample : int;
  experiments : int;
  counterexamples : int;
  inconclusive : int;
  skipped_programs : int;
  crashed_programs : int;
  budget_exceeded : int;
  retries : int;
  faults_observed : int;
  divergences : int;
  generation_seconds : float;
  execution_seconds : float;
  time_to_first_counterexample : float option;
}

let empty =
  {
    programs = 0;
    programs_with_counterexample = 0;
    experiments = 0;
    counterexamples = 0;
    inconclusive = 0;
    skipped_programs = 0;
    crashed_programs = 0;
    budget_exceeded = 0;
    retries = 0;
    faults_observed = 0;
    divergences = 0;
    generation_seconds = 0.;
    execution_seconds = 0.;
    time_to_first_counterexample = None;
  }

let add_event ~elapsed t = function
  | Journal.Experiment e ->
    let counterexample = e.Journal.verdict = Executor.Distinguishable in
    {
      t with
      experiments = t.experiments + 1;
      counterexamples = (t.counterexamples + if counterexample then 1 else 0);
      inconclusive =
        (t.inconclusive + if e.Journal.verdict = Executor.Inconclusive then 1 else 0);
      retries = t.retries + e.Journal.retries;
      faults_observed = t.faults_observed + e.Journal.faults;
      generation_seconds = t.generation_seconds +. e.Journal.generation_seconds;
      execution_seconds = t.execution_seconds +. e.Journal.execution_seconds;
      time_to_first_counterexample =
        (match t.time_to_first_counterexample with
        | None when counterexample -> Some elapsed
        | ttc -> ttc);
    }
  | Journal.Quarantined _ -> { t with budget_exceeded = t.budget_exceeded + 1 }
  | Journal.Program_failed _ -> { t with skipped_programs = t.skipped_programs + 1 }
  | Journal.Crashed _ -> { t with crashed_programs = t.crashed_programs + 1 }
  | Journal.Diverged _ -> { t with divergences = t.divergences + 1 }

let add_program ~elapsed t events =
  let t' = List.fold_left (add_event ~elapsed) t events in
  {
    t' with
    programs = t'.programs + 1;
    programs_with_counterexample =
      (t'.programs_with_counterexample
      + if t'.counterexamples > t.counterexamples then 1 else 0);
  }

let merge a b =
  {
    programs = a.programs + b.programs;
    programs_with_counterexample =
      a.programs_with_counterexample + b.programs_with_counterexample;
    experiments = a.experiments + b.experiments;
    counterexamples = a.counterexamples + b.counterexamples;
    inconclusive = a.inconclusive + b.inconclusive;
    skipped_programs = a.skipped_programs + b.skipped_programs;
    crashed_programs = a.crashed_programs + b.crashed_programs;
    budget_exceeded = a.budget_exceeded + b.budget_exceeded;
    retries = a.retries + b.retries;
    faults_observed = a.faults_observed + b.faults_observed;
    divergences = a.divergences + b.divergences;
    generation_seconds = a.generation_seconds +. b.generation_seconds;
    execution_seconds = a.execution_seconds +. b.execution_seconds;
    time_to_first_counterexample =
      (match (a.time_to_first_counterexample, b.time_to_first_counterexample) with
      | Some x, Some y -> Some (min x y)
      | (Some _ as t), None | None, (Some _ as t) -> t
      | None, None -> None);
  }

(* Per-experiment means; 0 before the first experiment. *)
let mean sum t = if t.experiments = 0 then 0. else sum /. float_of_int t.experiments

let ttc suffix t =
  match t.time_to_first_counterexample with
  | None -> "-"
  | Some s -> Printf.sprintf "%.2f%s" s suffix

let columns =
  let int label f = (label, fun t -> string_of_int (f t)) in
  let seconds label f = (label, fun t -> Printf.sprintf "%.4f" (mean (f t) t)) in
  [
    int "programs" (fun t -> t.programs);
    int "w/count." (fun t -> t.programs_with_counterexample);
    int "experiments" (fun t -> t.experiments);
    int "counterex." (fun t -> t.counterexamples);
    int "inconcl." (fun t -> t.inconclusive);
    int "skipped" (fun t -> t.skipped_programs);
    int "crashed" (fun t -> t.crashed_programs);
    int "budget" (fun t -> t.budget_exceeded);
    int "retries" (fun t -> t.retries);
    int "faults" (fun t -> t.faults_observed);
    seconds "avg gen (s)" (fun t -> t.generation_seconds);
    seconds "avg exe (s)" (fun t -> t.execution_seconds);
    ("T.T.C. (s)", ttc "");
  ]

let header = "campaign" :: List.map fst columns
let row ~name t = name :: List.map (fun (_, render) -> render t) columns

let pp ppf t =
  Format.fprintf ppf
    "@[<v>programs: %d (with counterexample: %d, skipped: %d, crashed: %d)@,\
     experiments: %d, counterexamples: %d, inconclusive: %d@,\
     quarantined path pairs: %d, retries: %d, faults observed: %d@,\
     avg generation: %.4fs, avg execution: %.4fs@,\
     time to first counterexample: %s%s@]"
    t.programs t.programs_with_counterexample t.skipped_programs
    t.crashed_programs t.experiments
    t.counterexamples t.inconclusive t.budget_exceeded t.retries
    t.faults_observed
    (mean t.generation_seconds t)
    (mean t.execution_seconds t)
    (ttc "s" t)
    (if t.divergences > 0 then
       Printf.sprintf "\ncross-ISA divergences: %d" t.divergences
     else "")
