module Refinement = Scamv_models.Refinement
module Speculation = Scamv_models.Speculation
module Catalog = Scamv_models.Catalog
module Obs = Scamv_bir.Obs
module Executor = Scamv_microarch.Executor

type candidate = {
  observed_transient_loads : int;
  setup : Refinement.t;
}

(* The candidate observing the first [k] transient loads. *)
let candidate ~window k =
  let spec =
    {
      (Speculation.mspec ~window ()) with
      Speculation.load_tag =
        (fun i -> Some (if i < k then Obs.Base else Obs.Refined));
    }
  in
  let name =
    if k = 0 then "Mct vs Mspec (repair step 0)"
    else Printf.sprintf "Mct+%d transient loads vs Mspec (repair step %d)" k k
  in
  { observed_transient_loads = k; setup = Refinement.refine_with_spec ~base:Catalog.mct ~name spec }

type step = { tried : candidate; stats : Stats.t; sound_so_far : bool; vacuous : bool }
type outcome = { steps : step list; repaired : candidate option }

let run ?(max_loads = 4) ?(window = 8) ?(programs = 20) ?(tests_per_program = 20)
    ?(seed = 2021L) ~template () =
  let rec loop k steps =
    if k > max_loads then { steps = List.rev steps; repaired = None }
    else begin
      let cand = candidate ~window k in
      let cfg =
        Campaign.make
          ~name:(Printf.sprintf "repair k=%d" k)
          ~template ~setup:cand.setup ~view:Executor.Full_cache ~programs
          ~tests_per_program ~seed ()
      in
      let stats = (Campaign.run cfg).Campaign.stats in
      let sound_so_far = stats.Stats.counterexamples = 0 in
      let vacuous = sound_so_far && stats.Stats.experiments = 0 in
      let step = { tried = cand; stats; sound_so_far; vacuous } in
      if sound_so_far then { steps = List.rev (step :: steps); repaired = Some cand }
      else loop (k + 1) (step :: steps)
    end
  in
  loop 0 []
