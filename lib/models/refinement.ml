module Obs = Scamv_bir.Obs
module Arch = Scamv_bir.Arch
module Lifter = Scamv_bir.Lifter
module Program = Scamv_bir.Program

type t = {
  name : string;
  base_name : string;
  refined_name : string option;
  coverage_names : string list;
  hooks : Lifter.hooks;
  spec : Speculation.config option;
}

(* Every accessed address must lie in the platform's experiment memory
   region; the marker observations are turned into range constraints by
   relation synthesis. *)
let platform_hooks =
  let obs ~pc:_ ~addr = [ Obs.make ~tag:Obs.Platform ~kind:"platform_addr" [ addr ] ] in
  { Lifter.no_hooks with Lifter.on_load = obs; on_store = obs }

let annotate_arch t arch program =
  let hooks = Model.merge_hooks [ t.hooks; platform_hooks ] in
  let bir = Lifter.lift_arch ~hooks arch program in
  match t.spec with
  | None -> bir
  | Some spec -> Speculation.instrument_arch spec arch program bir

let annotate t program = annotate_arch t Arch.aarch64 program

let has_refinement t = Option.is_some t.refined_name

let coverage_hooks coverage =
  List.map (fun (m : Model.t) -> m.Model.hooks ~tag:Obs.Coverage) coverage

let coverage_names coverage = List.map (fun (m : Model.t) -> m.Model.name) coverage

(* Validate [model] without guidance: only its [Base] observations, and
   test cases enumerated from the plain equivalence relation. *)
let unguided (model : Model.t) =
  {
    name = model.Model.name ^ " unguided";
    base_name = model.Model.name;
    refined_name = None;
    coverage_names = [];
    hooks = model.Model.hooks ~tag:Obs.Base;
    spec = Option.map (fun s -> s ~tag:Obs.Base) model.Model.spec;
  }

let refine_with_model ?(coverage = []) ~(base : Model.t) ~(refined : Model.t) () =
  if Option.is_some refined.Model.spec then
    invalid_arg
      "Refinement.refine_with_model: refined model is speculative; use refine_with_spec";
  {
    name = Printf.sprintf "%s vs %s" base.Model.name refined.Model.name;
    base_name = base.Model.name;
    refined_name = Some refined.Model.name;
    coverage_names = coverage_names coverage;
    hooks =
      Model.merge_hooks
        (base.Model.hooks ~tag:Obs.Base
        :: refined.Model.hooks ~tag:Obs.Refined
        :: coverage_hooks coverage);
    spec = Option.map (fun s -> s ~tag:Obs.Base) base.Model.spec;
  }

let refine_with_spec ?(coverage = []) ~(base : Model.t) ~name spec =
  if Option.is_some base.Model.spec then
    invalid_arg
      "Refinement.refine_with_spec: base speculation must be folded into the config";
  {
    name;
    base_name = base.Model.name;
    refined_name = Some "Mspec";
    coverage_names = coverage_names coverage;
    hooks =
      Model.merge_hooks (base.Model.hooks ~tag:Obs.Base :: coverage_hooks coverage);
    spec = Some spec;
  }

(* ---- The paper's setups ---- *)

let mpart_vs_mpart' ?(line_coverage = true) platform region =
  let coverage = if line_coverage then [ Catalog.mline platform ] else [] in
  refine_with_model ~coverage ~base:(Catalog.mpart platform region)
    ~refined:(Catalog.mpart_refined platform region) ()

let mpart_unguided platform region = unguided (Catalog.mpart platform region)

let mct_unguided = unguided Catalog.mct

let mct_vs_mspec ?window () =
  refine_with_spec ~base:Catalog.mct ~name:"Mct vs Mspec" (Speculation.mspec ?window ())

let mspec1_vs_mspec ?window () =
  refine_with_spec ~base:Catalog.mct ~name:"Mspec1 vs Mspec"
    (Speculation.mspec1 ?window ())

let mct_vs_mspec_straight_line ?window () =
  refine_with_spec ~base:Catalog.mct ~name:"Mct vs Mspec' (straight-line)"
    (Speculation.mspec_straight_line ?window ())

let mpage_unguided platform = unguided (Catalog.mpage platform)

let mpage_vs_mline platform =
  refine_with_model ~base:(Catalog.mpage platform) ~refined:(Catalog.mline platform) ()
