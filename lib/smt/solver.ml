module Splitmix = Scamv_util.Splitmix

type result = Sat of Model.t | Unsat

exception Solver_invariant of string

type model_result = Model of Model.t | Exhausted | Budget_exceeded

type session = {
  blaster : Blaster.t;
  state : Arrays.state;  (* array-elimination state, for [extend] *)
  mutable reads : Arrays.read list;
  mutable track : (string * Sort.t) list;  (* inputs to block on *)
  max_conflicts : int option;  (* per-SAT-call conflict cap *)
  mutable count : int;
  mutable exhausted : bool;
  mutable rng : Splitmix.t;
  mutable blocked_rev : Model.t list;
      (* raw input valuations blocked so far (newest first), for replaying
         this session's enumeration state into a portfolio challenger *)
}

let compare_key (x1, s1) (x2, s2) =
  (* Monomorphic comparator for tracked-variable sets: same order as the
     polymorphic [Stdlib.compare] on [(string * Sort.t)] (name first, then
     {!Sort.compare}), without the polymorphic-comparison overhead on this
     session-setup path. *)
  let c = String.compare x1 x2 in
  if c <> 0 then c else Sort.compare s1 s2

let default_track formulas (reads : Arrays.read list) =
  (* Track every non-memory free variable of the original formulas plus
     every memory read variable, so enumerated models differ on program-
     visible state (registers or read memory cells). *)
  let module S = Set.Make (struct
    type t = string * Sort.t

    let compare = compare_key
  end) in
  let base =
    List.fold_left
      (fun acc f ->
        List.fold_left
          (fun acc (x, s) ->
            match s with Sort.Mem -> acc | _ -> S.add (x, s) acc)
          acc (Term.free_vars f))
      S.empty formulas
  in
  let with_reads =
    List.fold_left
      (fun acc (r : Arrays.read) -> S.add (r.var_name, Sort.Bv 64) acc)
      base reads
  in
  S.elements with_reads

let expand_track reads track =
  (* A tracked memory means: track all of its read variables. *)
  List.concat_map
    (fun (x, s) ->
      match s with
      | Sort.Mem ->
        List.filter_map
          (fun (r : Arrays.read) ->
            if String.equal r.mem_name x then Some (r.var_name, Sort.Bv 64) else None)
          reads
      | _ -> [ (x, s) ])
    track

let make_session ?seed ?default_phase ?restart_base ?track ?max_conflicts ?graph
    formulas =
  let state = Arrays.new_state () in
  let { Arrays.formulas = fs; side_conditions; reads } =
    Arrays.eliminate_into state formulas
  in
  let blaster = Blaster.create ?seed ?default_phase ?restart_base ?graph () in
  List.iter (Blaster.assert_term blaster) fs;
  List.iter (Blaster.assert_term blaster) side_conditions;
  let track =
    match track with
    | None -> default_track formulas reads
    | Some t -> expand_track reads t
  in
  (* Allocate literals for tracked variables even if simplification erased
     them from the assertions, so they are reported in models. *)
  List.iter (fun key -> ignore (Blaster.input_literals blaster key)) track;
  (* All blasting for this session happens above (enumeration only adds
     blocking clauses over already-allocated literals), so the cache
     totals are final here: flush them once per session. *)
  let hits, misses = Blaster.cache_stats blaster in
  Scamv_telemetry.Collector.incr "smt.sessions";
  Scamv_telemetry.Collector.add "smt.blast_cache_hits" hits;
  Scamv_telemetry.Collector.add "smt.blast_cache_misses" misses;
  Scamv_telemetry.Collector.add "smt.blast_cache_cross_hits" (Blaster.cross_stats blaster);
  (* Open the enumeration scope: blocking clauses added by [next_model]
     are guarded by its selector, so [extend] can retract them when the
     refinement chain replaces the relation being enumerated. *)
  Sat.push (Blaster.solver blaster);
  {
    blaster;
    state;
    reads;
    track;
    max_conflicts;
    count = 0;
    exhausted = false;
    rng = Splitmix.of_seed (Option.value seed ~default:1L);
    blocked_rev = [];
  }

(* Lexicographic model minimization: greedily clear set bits of the input
   variables, most significant first, re-solving under assumptions.  This
   makes every non-diversified model the canonical smallest one allowed
   by the clauses (including the accumulated blocking clauses) — the
   behaviour of Z3-style default models, on which the unguided-search
   characteristics of the paper depend. *)
exception Out_of_budget
(* Internal early exit from the minimization loop; surfaced to callers as
   [Budget_exceeded]. *)

let minimize_model s =
  let sat = Blaster.solver s.blaster in
  let max_conflicts = s.max_conflicts in
  let lit_true l =
    if Sat.is_pos l then Sat.value sat (Sat.var_of l)
    else not (Sat.value sat (Sat.var_of l))
  in
  (* One growable assumption prefix shared by every query of the loop:
     each decided bit appends its pin in place and re-solves with
     [~n_assumptions], instead of rebuilding an assumption array per bit.
     The final model does not depend on assumption order — a bit ends up
     0 exactly when the clauses plus the higher-significance pins admit
     0 — so appending (rather than consing) changes no enumerated model. *)
  let pins = ref (Array.make 64 0) in
  let n_pins = ref 0 in
  let push l =
    if !n_pins = Array.length !pins then begin
      let grown = Array.make (2 * !n_pins) 0 in
      Array.blit !pins 0 grown 0 !n_pins;
      pins := grown
    end;
    !pins.(!n_pins) <- l;
    incr n_pins
  in
  List.iter
    (fun (_, _, lits) ->
      for i = Array.length lits - 1 downto 0 do
        let l = lits.(i) in
        if Sat.root_value sat (Sat.var_of l) <> 0 then
          (* Forced at level 0 (by the clauses or accumulated blocking
             clauses): the bit is not free, so it needs neither a query
             nor a pin. *)
          ()
        else if not (lit_true l) then push (Sat.negate l)
        else begin
          push (Sat.negate l);
          match Sat.solve ~assumptions:!pins ~n_assumptions:!n_pins ?max_conflicts sat with
          | Sat.Unknown -> raise Out_of_budget
          | Sat.Sat -> () (* the cleared bit stays pinned *)
          | Sat.Unsat -> (
            !pins.(!n_pins - 1) <- l;
            (* Restore a model satisfying the pins so the next bit reads a
               valid current value.  With the assumption-trail reuse in
               {!Sat.solve} this restore shares all but the last pin's
               decision level with the failed query, so it costs one
               re-descent from there, not a search from scratch — and the
               fresh witness usually has more low bits already clear than
               a stale snapshot would, saving whole pin queries below.
               The pins only constrain bits of the model just found, so
               this must be satisfiable; if it is not, enumeration state
               is corrupt and the campaign layer should quarantine this
               session rather than crash. *)
            match Sat.solve ~assumptions:!pins ~n_assumptions:!n_pins ?max_conflicts sat with
            | Sat.Sat -> ()
            | Sat.Unknown -> raise Out_of_budget
            | Sat.Unsat ->
              raise
                (Solver_invariant
                   "minimize_model: pinned bits of a known model became unsatisfiable"))
        end
      done)
    (Blaster.inputs s.blaster)

let next_model ?(diversify = false) s =
  if s.exhausted then Exhausted
  else begin
    if diversify then begin
      let seed, rng = Splitmix.next s.rng in
      s.rng <- rng;
      Sat.randomize_phases (Blaster.solver s.blaster) seed
    end
    else Sat.reset_phases (Blaster.solver s.blaster);
    match Sat.solve ?max_conflicts:s.max_conflicts (Blaster.solver s.blaster) with
    | Sat.Unknown ->
      Scamv_telemetry.Collector.incr "smt.budget_exceeded";
      Budget_exceeded
    | Sat.Unsat ->
      s.exhausted <- true;
      Exhausted
    | Sat.Sat -> (
      match if diversify then Ok () else (try Ok (minimize_model s) with Out_of_budget -> Error ()) with
      | Error () ->
        Scamv_telemetry.Collector.incr "smt.budget_exceeded";
        Budget_exceeded
      | Ok () ->
        let raw = Blaster.read_model s.blaster in
        let model = Arrays.recover_memories raw s.reads in
        Blaster.block_assignment s.blaster s.track;
        s.blocked_rev <- raw :: s.blocked_rev;
        s.count <- s.count + 1;
        Scamv_telemetry.Collector.incr "smt.models";
        Model model)
  end

let push s = Sat.push (Blaster.solver s.blaster)
let pop s = Sat.pop (Blaster.solver s.blaster)

let solve_assuming s assumptions =
  let sat = Blaster.solver s.blaster in
  (* Blasting the assumed terms may emit fresh Tseitin clauses, but the
     terms themselves are only assumed for this one query — nothing is
     asserted permanently. *)
  let lits =
    Array.of_list (List.map (Blaster.bool_literal s.blaster) assumptions)
  in
  match Sat.solve ~assumptions:lits ?max_conflicts:s.max_conflicts sat with
  | Sat.Unknown ->
    Scamv_telemetry.Collector.incr "smt.budget_exceeded";
    Budget_exceeded
  | Sat.Unsat -> Exhausted
  | Sat.Sat ->
    let model = Blaster.read_model s.blaster in
    Model (Arrays.recover_memories model s.reads)

let extend ?track s formulas =
  let sat = Blaster.solver s.blaster in
  (* Retract the enumeration scope: blocking clauses accumulated while
     enumerating the previous relation must not constrain the extended
     one.  Everything else — CNF, learnt clauses, activities, phases, the
     blast graph — carries over, which is the point of extending the
     session instead of re-blasting and re-solving from scratch. *)
  Sat.pop sat;
  s.blocked_rev <- [];
  let h0, m0 = Blaster.cache_stats s.blaster in
  let x0 = Blaster.cross_stats s.blaster in
  let { Arrays.formulas = fs; side_conditions; reads } =
    Arrays.eliminate_into s.state formulas
  in
  List.iter (Blaster.assert_term s.blaster) fs;
  List.iter (Blaster.assert_term s.blaster) side_conditions;
  s.reads <- reads;
  (match track with
  | Some tr -> s.track <- expand_track reads tr
  | None ->
    (* Merge the new formulas' default track into the existing one. *)
    let merged =
      List.sort_uniq compare_key (s.track @ default_track formulas reads)
    in
    s.track <- merged);
  List.iter (fun key -> ignore (Blaster.input_literals s.blaster key)) s.track;
  let h1, m1 = Blaster.cache_stats s.blaster in
  (* Cache hits while blasting the extension are precisely the structure
     reused from the live session instead of being rebuilt. *)
  Scamv_telemetry.Collector.add "smt.incremental_reuse_hits" (h1 - h0);
  Scamv_telemetry.Collector.add "smt.blast_cache_hits" (h1 - h0);
  Scamv_telemetry.Collector.add "smt.blast_cache_misses" (m1 - m0);
  Scamv_telemetry.Collector.add "smt.blast_cache_cross_hits"
    (Blaster.cross_stats s.blaster - x0);
  Sat.push sat;
  s.exhausted <- false;
  s

let blocked_models s = List.rev s.blocked_rev

let block_model s raw =
  Blaster.block_values s.blaster s.track raw;
  s.blocked_rev <- raw :: s.blocked_rev;
  s.count <- s.count + 1

let models_found s = s.count

let solve ?seed ?default_phase ?graph formulas =
  let s = make_session ?seed ?default_phase ?graph formulas in
  (* No conflict cap is installed, so [Budget_exceeded] cannot occur here. *)
  match next_model s with Model m -> Sat m | Exhausted | Budget_exceeded -> Unsat
