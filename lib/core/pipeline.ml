module Solver = Scamv_smt.Solver
module Model = Scamv_smt.Model
module Exec = Scamv_symbolic.Exec
module Synth = Scamv_relation.Synth
module Training = Scamv_relation.Training
module Concretize = Scamv_relation.Concretize
module Refinement = Scamv_models.Refinement
module Isa = Scamv_arch.Isa
module Splitmix = Scamv_util.Splitmix
module Deadline = Scamv_util.Deadline
module Chaos = Scamv_util.Chaos
module Tm = Scamv_telemetry.Collector

type config = {
  setup : Refinement.t;
  isa : Isa.t;
  platform : Scamv_isa.Platform.t;
  diversify : bool;
  max_steps : int;
  max_conflicts : int option;
  chaos : Chaos.t option;
  portfolio : int;
      (* number of solver configurations to try per pair (>= 1); only
         consulted when a session hits its conflict cap *)
}

let default_config ?(isa = Isa.Aarch64) setup =
  {
    setup;
    isa;
    platform = Scamv_isa.Platform.cortex_a53;
    diversify = Refinement.has_refinement setup;
    max_steps = 4096;
    max_conflicts = None;
    chaos = None;
    portfolio = 1;
  }

type test_case = {
  pair : int * int;
  state1 : Scamv_isa.Machine.t;
  state2 : Scamv_isa.Machine.t;
  train : Scamv_isa.Machine.t list;
  model : Model.t;
}

type pair_session = {
  pair : int * int;
  mutable session : Solver.session;
  mutable config_index : int;  (* portfolio rank of [session] *)
  rebuild : int -> Solver.session;
      (* fresh session over the same assertions under the portfolio
         configuration of the given rank (shares the program's blast
         graph); used by the budget-exhaustion rescue *)
  training : Scamv_isa.Machine.t list Lazy.t;
}

type t = {
  cfg : config;
  seed : int64;  (* prepare seed: keys the chaos site below *)
  mutable queue : pair_session list;  (* round-robin of live sessions *)
}

(* Per-ISA dispatch: the architecture descriptor is indexed by its
   instruction type, so the existential is opened here, once per entry
   point, and everything downstream is descriptor-generic. *)

let annotate setup = function
  | Isa.Aarch64_program p -> Refinement.annotate_arch setup Scamv_bir.Arch.aarch64 p
  | Isa.Riscv_program p -> Refinement.annotate_arch setup Scamv_riscv.Lift.arch p

let machine_of_model isa =
  match isa with
  | Isa.Aarch64 -> Concretize.machine_of_model_arch ~arch:Scamv_bir.Arch.aarch64
  | Isa.Riscv -> Concretize.machine_of_model_arch ~arch:Scamv_riscv.Lift.arch

let test_states isa model =
  match isa with
  | Isa.Aarch64 -> Concretize.test_states_arch ~arch:Scamv_bir.Arch.aarch64 model
  | Isa.Riscv -> Concretize.test_states_arch ~arch:Scamv_riscv.Lift.arch model

let prepare ?(seed = 0L) cfg isa_program =
  Tm.span "prepare" (fun () ->
  if not (Isa.equal cfg.isa (Isa.of_program isa_program)) then
    invalid_arg
      (Printf.sprintf "Pipeline.prepare: config is for %s but the program is %s"
         (Isa.to_string cfg.isa)
         (Isa.to_string (Isa.of_program isa_program)));
  (* Deadline polls at the phase boundaries: each phase below can run for
     seconds on a pathological program, and an ambient token expired by
     the previous phase (or program) must stop the next one from
     starting. *)
  Deadline.poll ();
  let bir_program =
    (* The lifter records its own nested "lift" span. *)
    Tm.span "annotate" (fun () -> annotate cfg.setup isa_program)
  in
  Deadline.poll ();
  let leaf_list =
    Tm.span "symexec" (fun () -> Exec.execute ~max_steps:cfg.max_steps bir_program)
  in
  Deadline.poll ();
  let synth_cfg =
    {
      Synth.platform = cfg.platform;
      require_refined_difference = Refinement.has_refinement cfg.setup;
    }
  in
  let pairs = Synth.compatible_pairs leaf_list in
  let rng = ref (Splitmix.of_seed seed) in
  (* One blast graph per program: every enumeration session and training
     solve below shares it, so structurally equal sub-terms (path
     conditions, observation equalities) are folded into circuit nodes
     once per program instead of once per pair.  The graph is mutable and
     unsynchronized, which is safe here because a pipeline instance —
     sessions, training cache and all — lives on a single domain. *)
  let graph = Scamv_smt.Blaster.new_graph () in
  let tcache =
    Training.prepare ~graph ~machine_of_model:(machine_of_model cfg.isa)
      ~platform:cfg.platform ~leaves:leaf_list ()
  in
  let sessions =
    Tm.span "synth" (fun () ->
    let prepared = Synth.prepare synth_cfg leaf_list in
    List.filter_map
      (fun pair ->
        match Synth.pair_relation_prepared prepared pair with
        | None -> None
        | Some relation ->
          let pair_seed, rng' = Splitmix.next !rng in
          rng := rng';
          (* Coverage observations, when present, define the blocking set:
             successive models then come from different classes of the
             supporting model (Sec. 4.1).  Unguided generation blocks on
             register inputs only (the original register-enumeration
             behaviour); refined generation without coverage blocks on
             everything the relation mentions. *)
          let track =
            match relation.Synth.coverage_track with
            | _ :: _ as t -> Some t
            | [] ->
              if Refinement.has_refinement cfg.setup then None
              else Some relation.Synth.register_track
          in
          let build rank =
            let pc = Scamv_smt.Portfolio.config rank in
            let seed = Scamv_smt.Portfolio.seed_for pc pair_seed in
            let default_phase = pc.Scamv_smt.Portfolio.default_phase in
            let restart_base = pc.Scamv_smt.Portfolio.restart_base in
            if Refinement.has_refinement cfg.setup then begin
              (* Refinement chain: assert the candidate relation
                 (M1-equivalence) first, then extend the same live session
                 with what refinement adds.  The extension reuses the
                 candidate's blasted structure and solver state instead of
                 re-blasting the whole relation — the reuse shows up as
                 [smt.incremental_reuse_hits]. *)
              let s =
                Solver.make_session ~default_phase ~restart_base
                  ?max_conflicts:cfg.max_conflicts ~seed ~graph
                  relation.Synth.candidate_assertions
              in
              Solver.extend ?track s relation.Synth.refinement_assertions
            end
            else
              Solver.make_session ~default_phase ~restart_base ?track
                ?max_conflicts:cfg.max_conflicts ~seed ~graph
                relation.Synth.assertions
          in
          let session = build 0 in
          let training = lazy (Training.states tcache ~pair) in
          Some { pair; session; config_index = 0; rebuild = build; training })
      pairs)
  in
  Tm.add "campaign.path_pairs" (List.length sessions);
  if cfg.portfolio > 1 then begin
    (* Register the portfolio counters up front so exports show them at
       zero for campaigns where the baseline never exhausts its budget. *)
    Tm.add "portfolio.races" 0;
    for c = 0 to cfg.portfolio - 1 do
      Tm.add (Printf.sprintf "portfolio.wins.%d" c) 0
    done
  end;
  { cfg; seed; queue = sessions })

let pair_count t = List.length t.queue

type progress =
  | Case of test_case
  | Quarantined of { pair : int * int; reason : string }
  | Crashed of { reason : string }
  | Exhausted

(* Chaos site "solver.budget": pretend this pair's enumeration session
   just blew its SAT budget.  Keyed on (prepare seed, pair), so the
   decision is per-pair, schedule-independent, and identical across jobs
   levels and resume boundaries. *)
let chaos_budget_exhausted t ps =
  match t.cfg.chaos with
  | None -> false
  | Some c ->
    let p1, p2 = ps.pair in
    let key = Int64.logxor t.seed (Int64.of_int ((p1 * 8191) + p2)) in
    let hit = Chaos.roll c ~site:"solver.budget" ~key in
    if hit then Tm.incr "chaos.injections";
    hit

(* Portfolio rescue: the baseline configuration ran out of SAT budget on
   this pair, so try the challenger configurations in rank order.  Each
   challenger is a fresh session over the same assertions (sharing the
   program's blast graph, so re-blasting is cheap) with the already-
   enumerated models replayed as blocking clauses; the first one that
   answers within the same per-call budget takes over the pair.  The
   whole race is deterministic — budget exhaustion is a pure function of
   the query, the challenger table is fixed, and ranks are tried in
   order — so campaign artifacts stay byte-identical across jobs levels,
   and across portfolio sizes wherever the baseline never loses. *)
let rescue t ps =
  if t.cfg.portfolio <= 1 then None
  else begin
    Tm.incr "portfolio.races";
    let blocked = Solver.blocked_models ps.session in
    let rec attempt rank =
      if rank >= t.cfg.portfolio then None
      else begin
        let session =
          Tm.span "portfolio"
            ~args:[ ("config", string_of_int rank) ]
            (fun () ->
              let s = ps.rebuild rank in
              List.iter (Solver.block_model s) blocked;
              s)
        in
        match Solver.next_model ~diversify:t.cfg.diversify session with
        | Solver.Budget_exceeded -> attempt (rank + 1)
        | outcome ->
          (* The challenger takes over the pair; its wins are counted per
             model by [emit_case]. *)
          ps.session <- session;
          ps.config_index <- rank;
          Some outcome
      end
    in
    attempt 1
  end

let rec advance t =
  Deadline.poll ();
  match t.queue with
  | [] -> Exhausted
  | ps :: rest when chaos_budget_exhausted t ps ->
    let reason = "chaos: injected SAT budget exhaustion" in
    t.queue <- rest;
    Quarantined { pair = ps.pair; reason }
  | ps :: rest -> (
    match
      Tm.span "enumerate"
        ~args:
          [ ("pair", Printf.sprintf "%d,%d" (fst ps.pair) (snd ps.pair)) ]
        (fun () -> Solver.next_model ~diversify:t.cfg.diversify ps.session)
    with
    | Solver.Exhausted ->
      t.queue <- rest;
      advance t
    | Solver.Budget_exceeded -> (
      match rescue t ps with
      | Some (Solver.Model model) -> emit_case t ps rest model
      | Some Solver.Exhausted ->
        (* A challenger proved within budget that no further model
           exists: a definitive answer, not a failure. *)
        t.queue <- rest;
        advance t
      | Some Solver.Budget_exceeded | None ->
        (* A hard path pair even for the whole portfolio: drop it from
           the round-robin queue so it cannot stall the rest of the
           program's enumeration, and report why. *)
        let reason =
          Printf.sprintf "SAT budget exceeded after %d model(s) (%s%s)"
            (Solver.models_found ps.session)
            (match t.cfg.max_conflicts with
            | None -> "unlimited"
            | Some n -> Printf.sprintf "conflicts<=%d" n)
            (if t.cfg.portfolio > 1 then
               Printf.sprintf ", portfolio of %d" t.cfg.portfolio
             else "")
        in
        t.queue <- rest;
        Quarantined { pair = ps.pair; reason })
    | Solver.Model model -> emit_case t ps rest model)

and emit_case t ps rest model =
  if t.cfg.portfolio > 1 then
    Tm.incr (Printf.sprintf "portfolio.wins.%d" ps.config_index);
  t.queue <- rest @ [ ps ];
  let state1, state2 = test_states t.cfg.isa model in
  Case { pair = ps.pair; state1; state2; train = Lazy.force ps.training; model }

(* Deadline expiry anywhere under enumeration — the SAT search, blasting a
   training query, forcing the training states — surfaces here as a
   [Crashed] progress value rather than an exception: the caller treats it
   like any other terminal outcome for the program (the solver rewound its
   own trail before raising, so the sessions stay intact). *)
let next_test_case t =
  try advance t with Deadline.Expired reason -> Crashed { reason }
