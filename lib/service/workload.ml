(* The named workload catalogue and the one place a named campaign
   request becomes a [Campaign.config].  The batch CLI, the validation
   service and the service benchmark all build campaigns through
   [config], so a campaign submitted over the wire is constructed exactly
   like one launched from the command line — the prerequisite for
   streamed artifacts being byte-identical to a batch run. *)

module Isa = Scamv_arch.Isa
module Platform = Scamv_isa.Platform
module Executor = Scamv_microarch.Executor
module Refinement = Scamv_models.Refinement
module Region = Scamv_models.Region
module Catalog = Scamv_models.Catalog
module Templates = Scamv_gen.Templates
module Campaign = Scamv.Campaign

let platform = Platform.cortex_a53
let region = Region.paper_unaligned platform
let region_pa = Region.paper_page_aligned platform

let setups =
  [
    ("mct-unguided", fun () -> Refinement.mct_unguided);
    ("mct-vs-mspec", fun () -> Refinement.mct_vs_mspec ());
    ("mspec1-vs-mspec", fun () -> Refinement.mspec1_vs_mspec ());
    ("mct-vs-mspec-sl", fun () -> Refinement.mct_vs_mspec_straight_line ());
    ("mpart-unguided", fun () -> Refinement.mpart_unguided platform region);
    ("mpart-vs-mpart'", fun () -> Refinement.mpart_vs_mpart' platform region);
    ("mpart-pa-unguided", fun () -> Refinement.mpart_unguided platform region_pa);
    ("mpart-pa-vs-mpart'", fun () -> Refinement.mpart_vs_mpart' platform region_pa);
  ]

let models () =
  Catalog.all_static platform region
  @ [ Catalog.mspec (); Catalog.mspec1 (); Catalog.mspec_straight_line () ]

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let view_for name =
  let watch r =
    Executor.Region { first_set = r.Region.first_set; last_set = r.Region.last_set }
  in
  if has_prefix ~prefix:"mpart-pa" name then watch region_pa
  else if has_prefix ~prefix:"mpart" name then watch region
  else Executor.Full_cache

let lookup_setup name =
  match List.assoc_opt name setups with
  | Some s -> Ok (s ())
  | None ->
    Error
      (Printf.sprintf "unknown setup %s (expected one of: %s)" name
         (String.concat ", " (List.map fst setups)))

let lookup_template ?isa name =
  match Templates.by_name ?isa name with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg

let isa_of_string = function
  | "diff" -> Ok `Diff
  | name -> (
    match Isa.of_string name with
    | Ok isa -> Ok (`Single isa)
    | Error _ ->
      Error
        (Printf.sprintf "unknown isa %s (expected one of: aarch64, riscv, diff)"
           name))

(* Journal records embed the campaign name, so every front end must spell
   it identically for served streams to match batch output byte for
   byte. *)
let campaign_name ~setup ~template =
  Printf.sprintf "%s on template %s" setup template

let in_range what ~lo ~hi n =
  if n < lo || n > hi then Error (Printf.sprintf "%s must be in [%d, %d]" what lo hi)
  else Ok ()

let non_negative what n =
  if n < 0 then Error (what ^ " must be at least 0") else Ok ()

let config ~template ~setup ~isa ~programs ~tests ~seed ?(max_conflicts = 0)
    ?(deadline_conflicts = 0) ?(portfolio = 1) ?retry ?faults ?chaos ?clock
    ?cancel () =
  let ( let* ) = Result.bind in
  let* () = in_range "programs" ~lo:1 ~hi:100_000 programs in
  let* () = in_range "tests per program" ~lo:1 ~hi:100_000 tests in
  let* () = non_negative "max conflicts" max_conflicts in
  let* () = non_negative "deadline conflicts" deadline_conflicts in
  let* () = in_range "portfolio" ~lo:1 ~hi:64 portfolio in
  (* A differential request carries the AArch64 side; [Diff.run]
     instantiates the template per ISA, so it must exist on both. *)
  let side = match isa with `Single i -> i | `Diff -> Isa.Aarch64 in
  let* generator = lookup_template ~isa:side template in
  let* () =
    if isa = `Diff then Result.map ignore (lookup_template ~isa:Isa.Riscv template)
    else Ok ()
  in
  let* refinement = lookup_setup setup in
  let budget n = if n > 0 then Some n else None in
  Ok
    (Campaign.make ~name:(campaign_name ~setup ~template) ~isa:side
       ~template:generator ~setup:refinement ~view:(view_for setup) ~programs
       ~tests_per_program:tests ~seed ?max_conflicts:(budget max_conflicts)
       ~portfolio ?retry ?faults ?deadline_conflicts:(budget deadline_conflicts)
       ?chaos ?clock ?cancel ())
