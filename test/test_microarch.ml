module Ast = Scamv_isa.Ast
module Reg = Scamv_isa.Reg
module Machine = Scamv_isa.Machine
module Platform = Scamv_isa.Platform
module Cache = Scamv_microarch.Cache
module Prefetcher = Scamv_microarch.Prefetcher
module Predictor = Scamv_microarch.Predictor
module Core = Scamv_microarch.Core
module Executor = Scamv_microarch.Executor
module Flush_reload = Scamv_microarch.Flush_reload
module Splitmix = Scamv_util.Splitmix
module Rv = Scamv_riscv.Ast

let x = Reg.x
let imm v = Ast.Imm v
let reg r = Ast.Reg r
let addr ?(scale = 0) base offset = { Ast.base; offset; scale }
let platform = Platform.cortex_a53

let run_a64 core program m = Core.run core (Core.decode (Scamv_arch.Isa.Aarch64_program program)) m

(* Deterministic core config: prefetcher always fires, no noise. *)
let quiet_config =
  {
    Core.cortex_a53 with
    Core.prefetch_fire_prob = 1.0;
    mispredict_noise = 0.0;
  }

(* ---- Cache ---- *)

let test_cache_miss_then_hit () =
  let c = Cache.create platform in
  Alcotest.(check bool) "first access misses" true (Cache.access c 0x1000L = `Miss);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0x1000L = `Hit);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x103FL = `Hit);
  Alcotest.(check bool) "next line misses" true (Cache.access c 0x1040L = `Miss)

let test_cache_lru_eviction () =
  let c = Cache.create platform in
  (* Five addresses mapping to set 0 (stride = sets * line = 8192). *)
  let a i = Int64.of_int (i * 8192) in
  for i = 0 to 4 do
    ignore (Cache.access c (a i))
  done;
  Alcotest.(check bool) "oldest evicted" false (Cache.contains c (a 0));
  Alcotest.(check bool) "newest present" true (Cache.contains c (a 4));
  Alcotest.(check bool) "second present" true (Cache.contains c (a 1))

let test_cache_lru_touch_refreshes () =
  let c = Cache.create platform in
  let a i = Int64.of_int (i * 8192) in
  for i = 0 to 3 do
    ignore (Cache.access c (a i))
  done;
  ignore (Cache.access c (a 0)) (* refresh LRU position *);
  ignore (Cache.access c (a 4)) (* evicts a1, not a0 *);
  Alcotest.(check bool) "refreshed survives" true (Cache.contains c (a 0));
  Alcotest.(check bool) "stale evicted" false (Cache.contains c (a 1))

let test_cache_flush () =
  let c = Cache.create platform in
  ignore (Cache.access c 0x2000L);
  Cache.flush_line c 0x2010L;
  Alcotest.(check bool) "flushed" false (Cache.contains c 0x2000L)

let test_cache_snapshot () =
  let c = Cache.create platform in
  ignore (Cache.access c 0x0L);
  ignore (Cache.access c 0x40L);
  let snap = Cache.snapshot c in
  Alcotest.(check Alcotest.int) "two sets" 2 (List.length snap);
  Alcotest.(check bool) "region filter" true
    (Cache.snapshot_region c ~first_set:1 ~last_set:1 = [ (1, [ 0x40L ]) ]);
  Alcotest.(check bool) "equal to itself" true (Cache.equal_snapshot snap snap);
  Cache.reset c;
  Alcotest.(check bool) "reset clears" true (Cache.snapshot c = [])

let test_cache_snapshot_ignores_lru_order () =
  let c1 = Cache.create platform and c2 = Cache.create platform in
  ignore (Cache.access c1 0x0L);
  ignore (Cache.access c1 8192L);
  ignore (Cache.access c2 8192L);
  ignore (Cache.access c2 0x0L);
  Alcotest.(check bool) "order-insensitive" true
    (Cache.equal_snapshot (Cache.snapshot c1) (Cache.snapshot c2))

(* ---- Prefetcher ---- *)

let observe_seq p addrs =
  let rng = ref (Splitmix.of_seed 1L) in
  List.filter_map (fun a -> Prefetcher.observe p ~rng a) addrs

let test_prefetcher_fires_after_threshold () =
  let p = Prefetcher.create ~fire_prob:1.0 platform in
  let fires = observe_seq p [ 0L; 64L; 128L ] in
  Alcotest.(check (list Alcotest.int64)) "fires at third access" [ 192L ] fires

let test_prefetcher_needs_constant_stride () =
  let p = Prefetcher.create ~fire_prob:1.0 platform in
  let fires = observe_seq p [ 0L; 64L; 256L ] in
  Alcotest.(check (list Alcotest.int64)) "irregular stride silent" [] fires

let test_prefetcher_stops_at_page_boundary () =
  let p = Prefetcher.create ~fire_prob:1.0 platform in
  (* Stride 64 approaching the 4 KiB boundary: last access 0xFC0,
     candidate 0x1000 is on the next page. *)
  let fires = observe_seq p [ 0xE80L; 0xEC0L; 0xF00L; 0xF40L; 0xF80L; 0xFC0L ] in
  Alcotest.(check bool) "never crosses page" true
    (List.for_all (fun a -> Int64.unsigned_compare a 0x1000L < 0) fires);
  Alcotest.(check bool) "did fire within page" true (fires <> [])

let test_prefetcher_large_stride () =
  let p = Prefetcher.create ~fire_prob:1.0 platform in
  let fires = observe_seq p [ 0L; 128L; 256L ] in
  Alcotest.(check (list Alcotest.int64)) "stride 128" [ 384L ] fires

let test_prefetcher_probabilistic () =
  let p = Prefetcher.create ~fire_prob:0.0 platform in
  let fires = observe_seq p [ 0L; 64L; 128L; 192L ] in
  Alcotest.(check (list Alcotest.int64)) "never fires at prob 0" [] fires

let test_prefetcher_reset () =
  let p = Prefetcher.create ~fire_prob:1.0 platform in
  ignore (observe_seq p [ 0L; 64L ]);
  Prefetcher.reset p;
  let fires = observe_seq p [ 128L ] in
  Alcotest.(check (list Alcotest.int64)) "no stale stream" [] fires

(* ---- Predictor ---- *)

let test_predictor_default_not_taken () =
  let p = Predictor.create () in
  Alcotest.(check bool) "untrained predicts not taken" false (Predictor.predict p 3)

let test_predictor_training () =
  let p = Predictor.create () in
  Predictor.update p 3 ~taken:true;
  Alcotest.(check bool) "weakly taken" true (Predictor.predict p 3);
  Predictor.update p 3 ~taken:false;
  Predictor.update p 3 ~taken:false;
  Alcotest.(check bool) "retrained not taken" false (Predictor.predict p 3)

let test_predictor_saturation () =
  let p = Predictor.create () in
  for _ = 1 to 10 do
    Predictor.update p 3 ~taken:true
  done;
  Alcotest.(check Alcotest.int) "saturates at 3" 3 (Predictor.counter p 3);
  Predictor.update p 3 ~taken:false;
  Alcotest.(check bool) "one miss keeps prediction" true (Predictor.predict p 3)

let test_predictor_indexed_by_pc () =
  let p = Predictor.create () in
  Predictor.update p 1 ~taken:true;
  Predictor.update p 1 ~taken:true;
  Alcotest.(check bool) "other pc unaffected" false (Predictor.predict p 2)

(* ---- Core: committed execution ---- *)

let test_core_commit_loads_fill_cache () =
  let core = Core.create quiet_config in
  let m = Machine.create () in
  Machine.set_reg m (x 0) 0x8000_0000L;
  let events = run_a64 core [| Ast.Ldr (x 1, addr (x 0) (imm 0L)) |] m in
  Alcotest.(check bool) "line cached" true (Cache.contains (Core.cache core) 0x8000_0000L);
  Alcotest.(check bool) "load event" true
    (List.exists (function Core.Commit_load 0x8000_0000L -> true | _ -> false) events)

let test_core_stride_triggers_prefetch () =
  let core = Core.create quiet_config in
  let m = Machine.create () in
  Machine.set_reg m (x 0) 0x8000_0000L;
  let program =
    [|
      Ast.Ldr (x 1, addr (x 0) (imm 0L));
      Ast.Ldr (x 2, addr (x 0) (imm 64L));
      Ast.Ldr (x 3, addr (x 0) (imm 128L));
    |]
  in
  let events = run_a64 core program m in
  Alcotest.(check bool) "prefetch event" true
    (List.exists (function Core.Prefetch 0x8000_00C0L -> true | _ -> false) events);
  Alcotest.(check bool) "prefetched line cached" true
    (Cache.contains (Core.cache core) 0x8000_00C0L)

let test_core_architectural_equivalence () =
  (* The core must compute the same architectural result as the reference
     semantics, speculation and caches notwithstanding. *)
  let program =
    [|
      Ast.Mov (x 0, imm 0x8000_0100L);
      Ast.Str (x 0, addr (x 0) (imm 0L));
      Ast.Ldr (x 1, addr (x 0) (imm 0L));
      Ast.Cmp (x 1, reg (x 0));
      Ast.B_cond (Ast.Eq, 6);
      Ast.Mov (x 2, imm 1L);
      Ast.Add (x 3, x 1, imm 2L);
    |]
  in
  let m1 = Machine.create () and m2 = Machine.create () in
  ignore (run_a64 (Core.create quiet_config) program m1);
  ignore (Scamv_isa.Semantics.run program m2);
  Alcotest.(check bool) "architecturally equal" true (Machine.equal_arch m1 m2)

(* ---- Core: speculation ---- *)

(* Template-A shape: committed load, compare on registers, guarded load.
   Returns (events, core) after a run with the predictor trained to take
   the wrong direction. *)
let spectre_program =
  [|
    Ast.Ldr (x 2, addr (x 0) (reg (x 1)));
    Ast.Cmp (x 1, reg (x 4));
    Ast.B_cond (Ast.Hs, 4);
    Ast.Ldr (x 5, addr (x 6) (reg (x 2)));
  |]

let spectre_guest = Scamv_arch.Isa.Aarch64_program spectre_program

let train_and_run ?(config = quiet_config) program ~train_state ~state =
  let core = Core.create config in
  for _ = 1 to 5 do
    Core.reset_cache core;
    ignore (run_a64 core program (Machine.copy train_state))
  done;
  Core.reset_cache core;
  let events = run_a64 core program (Machine.copy state) in
  (events, core)

let spectre_states () =
  (* state: x1 >= x4 -> branch taken (skip body); training state takes
     the body. *)
  let s = Machine.create () in
  Machine.set_reg s (x 0) 0x8000_0000L;
  Machine.set_reg s (x 1) 8L;
  Machine.set_reg s (x 4) 4L;
  Machine.set_reg s (x 6) 0x8010_0000L;
  Machine.store s 0x8000_0008L 0x4000L (* the secret *);
  let t = Machine.copy s in
  Machine.set_reg t (x 1) 2L (* x1 < x4: executes the body *);
  (s, t)

let test_core_transient_load_issues () =
  let s, t = spectre_states () in
  let events, core = train_and_run spectre_program ~train_state:t ~state:s in
  let mispredicted =
    List.exists
      (function
        | Core.Commit_branch { taken = true; predicted = false; _ } -> true
        | _ -> false)
      events
  in
  Alcotest.(check bool) "branch mispredicted after training" true mispredicted;
  (* The transient load address is x6 + mem[x0+x1] = 0x80100000 + 0x4000. *)
  Alcotest.(check bool) "transient load issued" true
    (List.exists (function Core.Transient_load 0x8010_4000L -> true | _ -> false) events);
  Alcotest.(check bool) "secret-dependent line cached" true
    (Cache.contains (Core.cache core) 0x8010_4000L)

let test_core_no_speculation_without_training () =
  let s, _ = spectre_states () in
  let core = Core.create quiet_config in
  let events = run_a64 core spectre_program (Machine.copy s) in
  (* Untrained predictor predicts not-taken; actual outcome is taken, so
     there IS a misprediction; but with an untrained predictor both
     predictions are possible — here counters start at weakly-not-taken,
     actual is taken -> mispredict -> transient path is the *body*. *)
  Alcotest.(check bool) "transient load from cold predictor" true
    (List.exists (function Core.Transient_load _ -> true | _ -> false) events)

let test_core_correct_prediction_no_transient () =
  let s, _ = spectre_states () in
  (* Train with the same state so the predictor agrees with the outcome. *)
  let events, _ = train_and_run spectre_program ~train_state:s ~state:s in
  Alcotest.(check bool) "no transient events" true
    (not (List.exists (function Core.Transient_load _ -> true | _ -> false) events))

let test_core_dependent_transient_load_suppressed () =
  (* Template-C shape: both loads inside the branch body; the second
     depends on the first's result and must not issue. *)
  let program =
    [|
      Ast.Cmp (x 1, reg (x 2));
      Ast.B_cond (Ast.Hs, 4);
      Ast.Ldr (x 6, addr (x 5) (reg (x 3)));
      Ast.Ldr (x 8, addr (x 7) (reg (x 6)));
    |]
  in
  let s = Machine.create () in
  Machine.set_reg s (x 1) 8L;
  Machine.set_reg s (x 2) 4L (* taken: skip body *);
  Machine.set_reg s (x 5) 0x8000_0000L;
  Machine.set_reg s (x 7) 0x8010_0000L;
  let t = Machine.copy s in
  Machine.set_reg t (x 1) 1L (* body path, for training *);
  let events, _ = train_and_run program ~train_state:t ~state:s in
  let transient_loads =
    List.filter (function Core.Transient_load _ -> true | _ -> false) events
  in
  let suppressed =
    List.filter (function Core.Transient_suppressed _ -> true | _ -> false) events
  in
  Alcotest.(check Alcotest.int) "only the first load issues" 1
    (List.length transient_loads);
  Alcotest.(check Alcotest.int) "dependent load suppressed" 1 (List.length suppressed)

let test_core_taint_through_alu () =
  (* The dependency is laundered through an ADD: still suppressed. *)
  let program =
    [|
      Ast.Cmp (x 1, reg (x 2));
      Ast.B_cond (Ast.Hs, 5);
      Ast.Ldr (x 6, addr (x 5) (reg (x 3)));
      Ast.Add (x 9, x 6, imm 8L);
      Ast.Ldr (x 8, addr (x 7) (reg (x 9)));
    |]
  in
  let s = Machine.create () in
  Machine.set_reg s (x 1) 8L;
  Machine.set_reg s (x 2) 4L;
  Machine.set_reg s (x 5) 0x8000_0000L;
  let t = Machine.copy s in
  Machine.set_reg t (x 1) 1L;
  let events, _ = train_and_run program ~train_state:t ~state:s in
  Alcotest.(check Alcotest.int) "one issue, one suppression" 1
    (List.length (List.filter (function Core.Transient_load _ -> true | _ -> false) events))

let test_core_independent_loads_need_slow_branch () =
  (* Two independent loads in the body: with a register-only compare the
     branch resolves fast and only one issues; if the compare waits on a
     load, the window extends and both issue. *)
  let body =
    [|
      Ast.Cmp (x 1, reg (x 2));
      Ast.B_cond (Ast.Hs, 4);
      Ast.Ldr (x 6, addr (x 5) (reg (x 3)));
      Ast.Ldr (x 8, addr (x 7) (reg (x 9)));
    |]
  in
  let s = Machine.create () in
  Machine.set_reg s (x 1) 8L;
  Machine.set_reg s (x 2) 4L;
  Machine.set_reg s (x 5) 0x8000_0000L;
  Machine.set_reg s (x 7) 0x8010_0000L;
  let t = Machine.copy s in
  Machine.set_reg t (x 1) 1L;
  let events, _ = train_and_run body ~train_state:t ~state:s in
  Alcotest.(check Alcotest.int) "fast branch: one transient load" 1
    (List.length (List.filter (function Core.Transient_load _ -> true | _ -> false) events));
  (* Same body, but the compare operand is loaded right before. *)
  let slow =
    [|
      Ast.Ldr (x 1, addr (x 10) (imm 0L));
      Ast.Cmp (x 1, reg (x 2));
      Ast.B_cond (Ast.Hs, 5);
      Ast.Ldr (x 6, addr (x 5) (reg (x 3)));
      Ast.Ldr (x 8, addr (x 7) (reg (x 9)));
    |]
  in
  let s2 = Machine.copy s in
  Machine.set_reg s2 (x 10) 0x8000_0100L;
  Machine.store s2 0x8000_0100L 8L (* x1 := 8, same branch direction *);
  let t2 = Machine.copy s2 in
  Machine.store t2 0x8000_0100L 1L;
  ignore t2;
  let t2' = Machine.copy s2 in
  Machine.set_reg t2' (x 2) 100L (* branch the other way for training *);
  let events2, _ = train_and_run slow ~train_state:t2' ~state:s2 in
  Alcotest.(check Alcotest.int) "slow branch: both transient loads" 2
    (List.length
       (List.filter (function Core.Transient_load _ -> true | _ -> false) events2))

let test_core_no_straight_line_speculation () =
  let program = [| Ast.B 2; Ast.Ldr (x 1, addr (x 0) (imm 0L)) |] in
  let m = Machine.create () in
  Machine.set_reg m (x 0) 0x8000_0000L;
  let core = Core.create quiet_config in
  let events = run_a64 core program m in
  Alcotest.(check bool) "no transient load after direct branch" true
    (not (List.exists (function Core.Transient_load _ -> true | _ -> false) events));
  Alcotest.(check bool) "dead line not cached" false
    (Cache.contains (Core.cache core) 0x8000_0000L)

let test_core_transient_stores_have_no_effect () =
  let program =
    [|
      Ast.Cmp (x 1, reg (x 2));
      Ast.B_cond (Ast.Hs, 3);
      Ast.Str (x 5, addr (x 6) (imm 0L));
    |]
  in
  let s = Machine.create () in
  Machine.set_reg s (x 1) 8L;
  Machine.set_reg s (x 2) 4L;
  Machine.set_reg s (x 6) 0x8000_0000L;
  let t = Machine.copy s in
  Machine.set_reg t (x 1) 1L;
  let _, core = train_and_run program ~train_state:t ~state:s in
  Alcotest.(check bool) "transient store does not allocate" false
    (Cache.contains (Core.cache core) 0x8000_0000L)

(* Random registers and a few memory cells over a small value domain. *)
let random_state rng =
  let m = Machine.create () in
  let rng = ref rng in
  List.iter
    (fun r ->
      let v, rng' = Splitmix.next !rng in
      rng := rng';
      Machine.set_reg m r (Int64.logand v 0x3FFL))
    Reg.all;
  for _ = 1 to 6 do
    let a, rng' = Splitmix.next !rng in
    rng := rng';
    let v, rng'' = Splitmix.next !rng in
    rng := rng'';
    Machine.store m (Int64.logand a 0x3FFL) (Int64.logand v 0x3FFL)
  done;
  m

let prop_cache_respects_associativity =
  QCheck.Test.make ~name:"cache sets never exceed the way count" ~count:200
    QCheck.int64 (fun seed ->
      let c = Cache.create platform in
      let rng = ref (Splitmix.of_seed seed) in
      for _ = 1 to 200 do
        let a, rng' = Splitmix.next !rng in
        rng := rng';
        ignore (Cache.access c (Int64.logand a 0xFFFFFL))
      done;
      List.for_all
        (fun (_, lines) -> List.length lines <= platform.Platform.way_count)
        (Cache.snapshot c))

let prop_cache_most_recent_present =
  QCheck.Test.make ~name:"most recent access always cached" ~count:200 QCheck.int64
    (fun seed ->
      let c = Cache.create platform in
      let rng = ref (Splitmix.of_seed seed) in
      let ok = ref true in
      for _ = 1 to 100 do
        let a, rng' = Splitmix.next !rng in
        rng := rng';
        let addr = Int64.logand a 0xFFFFFL in
        ignore (Cache.access c addr);
        if not (Cache.contains c addr) then ok := false
      done;
      !ok)

let prop_run_deterministic_given_seed =
  QCheck.Test.make ~name:"core runs are deterministic per seed" ~count:100
    QCheck.int64 (fun seed ->
      let { Scamv_gen.Templates.program; _ } =
        Scamv_gen.Gen.generate ~seed Scamv_gen.Templates.template_b
      in
      let program = Core.decode program in
      let run () =
        let core = Core.create ~seed Core.cortex_a53 in
        let m = random_state (Splitmix.of_seed seed) in
        let events = Core.run core program m in
        (events, Cache.snapshot (Core.cache core))
      in
      run () = run ())

(* ---- Executor ---- *)

let spectre_pair () =
  let s1, train = spectre_states () in
  let s2 = Machine.copy s1 in
  (* Same architecture-visible behaviour (same committed addresses), but
     a different secret: the transient access differs. *)
  Machine.store s2 0x8000_0008L 0x8000L;
  (s1, s2, train)

let exec_config = { (Executor.default_config ()) with Executor.core = quiet_config }

let test_executor_distinguishes_secret () =
  let s1, s2, train = spectre_pair () in
  let verdict =
    Executor.run exec_config
      { Executor.program = spectre_guest; state1 = s1; state2 = s2; train = [ train ] }
  in
  Alcotest.(check bool) "distinguishable" true (verdict = Executor.Distinguishable)

let test_executor_identical_states_indistinguishable () =
  let s1, _, train = spectre_pair () in
  let verdict =
    Executor.run exec_config
      {
        Executor.program = spectre_guest;
        state1 = s1;
        state2 = Machine.copy s1;
        train = [ train ];
      }
  in
  Alcotest.(check bool) "indistinguishable" true (verdict = Executor.Indistinguishable)

let test_executor_region_view_masks_leak () =
  let s1, s2, train = spectre_pair () in
  (* The transient lines land in low sets; an attacker confined to the
     top sets sees nothing. *)
  let cfg =
    { exec_config with Executor.view = Executor.Region { first_set = 120; last_set = 127 } }
  in
  let verdict =
    Executor.run cfg
      { Executor.program = spectre_guest; state1 = s1; state2 = s2; train = [ train ] }
  in
  Alcotest.(check bool) "masked" true (verdict = Executor.Indistinguishable)

let test_executor_inconclusive_on_flaky_prefetch () =
  (* A stride whose prefetch fires with probability 1/2 yields different
     dumps across the 10 repetitions. *)
  let program =
    [|
      Ast.Ldr (x 1, addr (x 0) (imm 0L));
      Ast.Ldr (x 2, addr (x 0) (imm 64L));
      Ast.Ldr (x 3, addr (x 0) (imm 128L));
    |]
  in
  let s = Machine.create () in
  Machine.set_reg s (x 0) 0x8000_0000L;
  let cfg =
    { exec_config with Executor.core = { quiet_config with Core.prefetch_fire_prob = 0.5 } }
  in
  let verdict =
    Executor.run ~seed:7L cfg
      {
        Executor.program = Scamv_arch.Isa.Aarch64_program program;
        state1 = s;
        state2 = Machine.copy s;
        train = [];
      }
  in
  Alcotest.(check bool) "inconclusive" true (verdict = Executor.Inconclusive)

let test_executor_deterministic_given_seed () =
  let s1, s2, train = spectre_pair () in
  let experiment =
    { Executor.program = spectre_guest; state1 = s1; state2 = s2; train = [ train ] }
  in
  let v1 = Executor.run ~seed:42L exec_config experiment in
  let v2 = Executor.run ~seed:42L exec_config experiment in
  Alcotest.(check bool) "same verdict same seed" true (v1 = v2)

(* ---- Flush+Reload ---- *)

let test_flush_reload_timing () =
  let fr = Flush_reload.create quiet_config in
  ignore (Cache.access (Core.cache (Flush_reload.core fr)) 0x8000_0000L);
  Alcotest.(check bool) "hit is fast" true
    (Flush_reload.reload_time fr 0x8000_0000L = Flush_reload.hit_cycles);
  Flush_reload.flush fr 0x8000_0000L;
  Alcotest.(check bool) "miss after flush" true
    (Flush_reload.reload_time fr 0x8000_0000L = Flush_reload.miss_cycles)

let test_flush_reload_detects_victim_access () =
  let fr = Flush_reload.create quiet_config in
  let m = Machine.create () in
  Machine.set_reg m (x 0) 0x8000_0000L;
  Flush_reload.flush fr 0x8000_0000L;
  ignore (run_a64 (Flush_reload.core fr) [| Ast.Ldr (x 1, addr (x 0) (imm 0L)) |] m);
  Alcotest.(check bool) "victim access detected" true
    (Flush_reload.was_cached fr 0x8000_0000L)

(* ---- Uarch identity pin ----

   Seeded random guest programs for both ISAs over a handful of
   registers: ALU operations, loads and stores around a pool of cache
   lines, forward branches and (RV64) jumps with a live link register.
   Each program runs on four random states in turn on one core per
   configuration, so the predictor trains on one state and mispredicts
   on the next; the window, taint and load-use rules all fire.  The
   digest covers every run's event trace, cycle count and final
   architectural state, so any change to event order, taint, the
   transient window or the timing model moves it. *)

type pin_rng = { mutable g : Splitmix.t }

let pin_int d n =
  let v, g = Splitmix.int d.g n in
  d.g <- g;
  v

let pin_pool_addr d = Int64.add 0x8000_0000L (Int64.of_int (64 * pin_int d 48))
let pin_value d = if pin_int d 2 = 0 then Int64.of_int (pin_int d 8) else pin_pool_addr d

let pin_state d =
  let m = Machine.create () in
  for i = 0 to 7 do
    Machine.set_reg m (x i) (pin_value d)
  done;
  for _ = 1 to 8 do
    Machine.store m (pin_pool_addr d) (pin_value d)
  done;
  m

let pin_length = 20

(* Strided loads off a read-only base register train the prefetcher.
   Compares and branches often read the register loaded last, so the
   load-use rule widens the transient window; ALU operands and load
   addresses often read the register written last, so wrong-path loads
   form dependent (tainted) chains.  Every draw is sequenced with [let]
   so the programs do not depend on argument evaluation order. *)
type pin_gen = {
  d : pin_rng;
  mutable walk : int;
  mutable last_loaded : int;
  mutable last_written : int;
}

let walk_offset gen =
  gen.walk <- gen.walk + 1;
  Int64.of_int (64 * gen.walk)

let written gen k =
  gen.last_written <- k;
  k

let loaded gen k =
  gen.last_loaded <- k;
  written gen k

let either gen last k = if pin_int gen.d 2 = 0 then last else k

(* A forward target in (pc, length]: branching to the end halts. *)
let pin_target d pc = pc + 1 + pin_int d (pin_length - pc)

(* Straight-line draws, interleaved with a bounds-check gadget: a
   compare on a load 1..5 instructions back (either side of the load-use
   window) guards a wrong-path chain load -> ALU -> load whose ALU step
   reads the first load through its second operand. *)
let pin_program d ~single ~gadget =
  let gen = { d; walk = 0; last_loaded = 1; last_written = 1 } in
  let code = ref [] and pc = ref 0 in
  while !pc < pin_length do
    let block =
      if pin_int d 6 = 0 && !pc + 10 <= pin_length then gadget gen !pc else [ single gen !pc ]
    in
    code := List.rev_append block !code;
    pc := !pc + List.length block
  done;
  Array.of_list (List.rev !code)

let a64_conds = Ast.[ Eq; Ne; Hs; Lo; Hi; Ls; Ge; Lt; Gt; Le ]

let pin_a64_program d =
  let r () = x (pin_int d 5) in
  let src gen = x (either gen gen.last_written (pin_int d 5)) in
  let operand gen =
    if pin_int d 3 > 0 then Ast.Reg (src gen) else Ast.Imm (Int64.of_int (pin_int d 72))
  in
  let address gen =
    let base = src gen in
    if pin_int d 3 = 0 then
      let offset = Ast.Reg (r ()) in
      { Ast.base; offset; scale = pin_int d 4 }
    else { Ast.base; offset = Ast.Imm (Int64.of_int (64 * pin_int d 4)); scale = 0 }
  in
  let dst gen = x (written gen (pin_int d 5)) in
  let load gen addr = Ast.Ldr (x (loaded gen (pin_int d 5)), addr) in
  let alu gen mk =
    let a = src gen in
    let op = operand gen in
    mk (dst gen) a op
  in
  let branch pc =
    let c = List.nth a64_conds (pin_int d 10) in
    Ast.B_cond (c, pin_target d pc)
  in
  let single gen pc =
    match pin_int d 20 with
    | 0 ->
      let op = operand gen in
      Ast.Mov (dst gen, op)
    | 1 -> alu gen (fun d a op -> Ast.Add (d, a, op))
    | 2 -> alu gen (fun d a op -> Ast.Sub (d, a, op))
    | 3 -> alu gen (fun d a op -> Ast.And_ (d, a, op))
    | 4 -> alu gen (fun d a op -> Ast.Orr (d, a, op))
    | 5 -> alu gen (fun d a op -> Ast.Eor (d, a, op))
    | 6 -> alu gen (fun d a op -> Ast.Lsl (d, a, op))
    | 7 -> alu gen (fun d a op -> Ast.Lsr (d, a, op))
    | 8 -> alu gen (fun d a op -> Ast.Asr (d, a, op))
    | 9 | 10 | 11 -> load gen (address gen)
    | 12 | 13 -> load gen { Ast.base = x 7; offset = Ast.Imm (walk_offset gen); scale = 0 }
    | 14 ->
      let addr = address gen in
      Ast.Str (r (), addr)
    | 15 | 16 ->
      let a = x (either gen gen.last_loaded (pin_int d 5)) in
      Ast.Cmp (a, operand gen)
    | 17 | 18 -> branch pc
    | _ -> if pin_int d 3 = 0 then Ast.B (pin_target d pc) else Ast.Nop
  in
  let gadget gen pc =
    let guard = load gen (address gen) in
    let pad = List.init (pin_int d 5) (fun _ -> Ast.Nop) in
    let pc = pc + List.length pad in
    let cmp = Ast.Cmp (x gen.last_loaded, Ast.Reg (r ())) in
    let br = branch (pc + 2) in
    let first = load gen (address gen) in
    let a = r () in
    let op = Ast.Reg (x gen.last_loaded) in
    let step = Ast.Add (dst gen, a, op) in
    let chained = load gen { Ast.base = x gen.last_written; offset = Ast.Imm 0L; scale = 0 } in
    (guard :: pad) @ [ cmp; br; first; step; chained ]
  in
  pin_program d ~single ~gadget

let pin_rv_program d =
  let r () = Rv.x (pin_int d 6) in
  let imm () = Int64.of_int (pin_int d 64 - 16) in
  let offset () = Int64.of_int (64 * pin_int d 4) in
  let dst gen = written gen (pin_int d 6) in
  let ld gen = loaded gen (pin_int d 6) in
  let src gen = either gen gen.last_written (pin_int d 6) in
  let cmp gen = either gen gen.last_loaded (pin_int d 6) in
  let rr gen mk =
    let a = src gen in
    let b = r () in
    mk (dst gen) a b
  in
  let ri mk =
    let a = r () in
    let v = imm () in
    mk (r ()) a v
  in
  let shi mk =
    let a = r () in
    let k = pin_int d 64 in
    mk (r ()) a k
  in
  let branch gen pc mk =
    let a = cmp gen in
    let b = r () in
    let a, b = if pin_int d 2 = 0 then (a, b) else (b, a) in
    mk a b (pin_target d pc)
  in
  let load gen base =
    let off = offset () in
    Rv.Ld (ld gen, off, base)
  in
  let single gen pc =
    match pin_int d 28 with
    | 0 -> ri (fun d a v -> Rv.Addi (d, a, v))
    | 1 -> rr gen (fun d a b -> Rv.Add (d, a, b))
    | 2 -> rr gen (fun d a b -> Rv.Sub (d, a, b))
    | 3 -> rr gen (fun d a b -> Rv.And_ (d, a, b))
    | 4 -> rr gen (fun d a b -> Rv.Or_ (d, a, b))
    | 5 -> rr gen (fun d a b -> Rv.Xor (d, a, b))
    | 6 -> ri (fun d a v -> Rv.Andi (d, a, v))
    | 7 -> ri (fun d a v -> Rv.Ori (d, a, v))
    | 8 -> ri (fun d a v -> Rv.Xori (d, a, v))
    | 9 -> shi (fun d a k -> Rv.Slli (d, a, k))
    | 10 -> shi (fun d a k -> Rv.Srli (d, a, k))
    | 11 -> shi (fun d a k -> Rv.Srai (d, a, k))
    | 12 -> rr gen (fun d a b -> Rv.Sll (d, a, b))
    | 13 -> rr gen (fun d a b -> Rv.Srl (d, a, b))
    | 14 -> rr gen (fun d a b -> Rv.Sra (d, a, b))
    | 15 | 16 | 17 -> load gen (src gen)
    | 18 | 19 -> Rv.Ld (ld gen, walk_offset gen, Rv.x 8)
    | 20 ->
      let base = r () in
      let off = offset () in
      Rv.Sd (r (), off, base)
    | 21 -> branch gen pc (fun a b t -> Rv.Beq (a, b, t))
    | 22 -> branch gen pc (fun a b t -> Rv.Bne (a, b, t))
    | 23 -> branch gen pc (fun a b t -> Rv.Blt (a, b, t))
    | 24 -> branch gen pc (fun a b t -> Rv.Bge (a, b, t))
    | 25 -> branch gen pc (fun a b t -> Rv.Bltu (a, b, t))
    | 26 -> branch gen pc (fun a b t -> Rv.Bgeu (a, b, t))
    | _ ->
      if pin_int d 2 = 0 then
        let link = r () in
        Rv.Jal (link, pin_target d pc)
      else Rv.Nop
  in
  let gadget gen pc =
    let guard = load gen (src gen) in
    let pad = List.init (pin_int d 5) (fun _ -> Rv.Nop) in
    let pc = pc + List.length pad in
    let br = branch gen (pc + 1) (fun a b t -> Rv.Bltu (a, b, t)) in
    let first = load gen (src gen) in
    let a = r () in
    let step = Rv.Add (dst gen, a, gen.last_loaded) in
    let base = gen.last_written in
    let chained = Rv.Ld (ld gen, 0L, base) in
    let link = r () in
    let tail = Rv.Jal (link, pin_target d (pc + 5)) in
    (guard :: pad) @ [ br; first; step; chained; tail ]
  in
  pin_program d ~single ~gadget

let pin_configs =
  [ Core.cortex_a53; Core.out_of_order; { Core.cortex_a53 with Core.mispredict_noise = 0.25 } ]

let pin_event buf = function
  | Core.Commit_load a -> Printf.bprintf buf "L%Lx;" a
  | Core.Commit_store a -> Printf.bprintf buf "S%Lx;" a
  | Core.Commit_branch { pc; taken; predicted } ->
    Printf.bprintf buf "B%d:%b:%b;" pc taken predicted
  | Core.Transient_load a -> Printf.bprintf buf "T%Lx;" a
  | Core.Transient_suppressed pc -> Printf.bprintf buf "X%d;" pc
  | Core.Prefetch a -> Printf.bprintf buf "P%Lx;" a

(* Digest of every run plus the lifetime counters summed over all cores. *)
let uarch_pin ~seed ~programs gen =
  let d = { g = Splitmix.of_seed seed } in
  let buf = Buffer.create 4096 in
  let totals = ref [] in
  for _ = 1 to programs do
    let program = Core.decode (gen d) in
    let states = List.init 4 (fun _ -> pin_state d) in
    List.iteri
      (fun i cfg ->
        let core = Core.create ~seed:(Int64.of_int (pin_int d 1_000_000 + i)) cfg in
        List.iter
          (fun st ->
            Core.reset_cache core;
            let m = Machine.copy st in
            List.iter (pin_event buf) (Core.run core program m);
            Printf.bprintf buf "|%d|%s|" (Core.last_run_cycles core)
              (Format.asprintf "%a" Machine.pp m);
            List.iter (fun (a, v) -> Printf.bprintf buf "%Lx=%Lx," a v) (Machine.mem_bindings m);
            Buffer.add_char buf '\n')
          states;
        totals :=
          match !totals with
          | [] -> Core.counters core
          | acc -> List.map2 (fun (k, a) (_, b) -> (k, a + b)) acc (Core.counters core))
      pin_configs
  done;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), !totals)

(* Property: whatever the speculation, prefetching and noise settings,
   the core must compute exactly the architectural result of the
   reference semantics, on random template programs and on the random
   programs of the identity pin (every instruction kind, shift amounts
   beyond 63). *)
let prop_speculation_is_architecturally_transparent =
  QCheck.Test.make ~name:"core = reference semantics architecturally" ~count:3000
    QCheck.(pair int64 (int_bound 9))
    (fun (seed, template_idx) ->
      let program, m1 =
        match
          List.nth_opt
            [
              Scamv_gen.Templates.stride;
              Scamv_gen.Templates.template_a;
              Scamv_gen.Templates.template_b;
              Scamv_gen.Templates.template_c;
              Scamv_gen.Templates.template_d;
            ]
            template_idx
        with
        | Some template -> (
          match (Scamv_gen.Gen.generate ~seed template).Scamv_gen.Templates.program with
          | Scamv_arch.Isa.Aarch64_program p -> (p, random_state (Splitmix.of_seed seed))
          | Scamv_arch.Isa.Riscv_program _ -> assert false)
        | None ->
          let d = { g = Splitmix.of_seed seed } in
          let p = pin_a64_program d in
          (p, pin_state d)
      in
      let m2 = Machine.copy m1 in
      let core = Core.create ~seed { Core.cortex_a53 with Core.mispredict_noise = 0.5 } in
      ignore (run_a64 core program m1);
      ignore (Scamv_isa.Semantics.run program m2);
      Machine.equal_arch m1 m2)

let check_uarch_pin ~seed gen ~digest ~counters () =
  let got_digest, got_counters = uarch_pin ~seed ~programs:2000 gen in
  Alcotest.(check (list (pair string int))) "summed counters" counters got_counters;
  Alcotest.(check string) "trace digest" digest got_digest

let test_uarch_pin_aarch64 =
  check_uarch_pin ~seed:17L
    (fun d -> Scamv_arch.Isa.Aarch64_program (pin_a64_program d))
    ~digest:"731974d250bca266ecf1842605525d1e"
    ~counters:
      [
        ("cache.hits", 32676);
        ("cache.misses", 87942);
        ("tlb.hits", 73909);
        ("tlb.misses", 46709);
        ("predictor.hits", 33327);
        ("predictor.misses", 9774);
        ("prefetches", 1404);
        ("transient_loads", 11298);
        ("transient_suppressed", 5165);
      ]

let test_uarch_pin_riscv =
  check_uarch_pin ~seed:18L
    (fun d -> Scamv_arch.Isa.Riscv_program (pin_rv_program d))
    ~digest:"bf8e8dac4cb05135c38ab98380f54a26"
    ~counters:
      [
        ("cache.hits", 18642);
        ("cache.misses", 67205);
        ("tlb.hits", 49489);
        ("tlb.misses", 36358);
        ("predictor.hits", 37905);
        ("predictor.misses", 13710);
        ("prefetches", 337);
        ("transient_loads", 8627);
        ("transient_suppressed", 2458);
      ]

let () =
  Alcotest.run "scamv_microarch"
    [
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "lru refresh" `Quick test_cache_lru_touch_refreshes;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "snapshot" `Quick test_cache_snapshot;
          Alcotest.test_case "snapshot order-insensitive" `Quick
            test_cache_snapshot_ignores_lru_order;
          QCheck_alcotest.to_alcotest prop_cache_respects_associativity;
          QCheck_alcotest.to_alcotest prop_cache_most_recent_present;
        ] );
      ( "prefetcher",
        [
          Alcotest.test_case "fires after threshold" `Quick test_prefetcher_fires_after_threshold;
          Alcotest.test_case "constant stride required" `Quick test_prefetcher_needs_constant_stride;
          Alcotest.test_case "page boundary" `Quick test_prefetcher_stops_at_page_boundary;
          Alcotest.test_case "large stride" `Quick test_prefetcher_large_stride;
          Alcotest.test_case "probabilistic" `Quick test_prefetcher_probabilistic;
          Alcotest.test_case "reset" `Quick test_prefetcher_reset;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "default not taken" `Quick test_predictor_default_not_taken;
          Alcotest.test_case "training" `Quick test_predictor_training;
          Alcotest.test_case "saturation" `Quick test_predictor_saturation;
          Alcotest.test_case "indexed by pc" `Quick test_predictor_indexed_by_pc;
        ] );
      ( "core",
        [
          Alcotest.test_case "loads fill cache" `Quick test_core_commit_loads_fill_cache;
          Alcotest.test_case "stride prefetch" `Quick test_core_stride_triggers_prefetch;
          Alcotest.test_case "architectural equivalence" `Quick test_core_architectural_equivalence;
          Alcotest.test_case "transient load issues" `Quick test_core_transient_load_issues;
          Alcotest.test_case "cold predictor" `Quick test_core_no_speculation_without_training;
          Alcotest.test_case "correct prediction" `Quick test_core_correct_prediction_no_transient;
          Alcotest.test_case "dependent load suppressed" `Quick
            test_core_dependent_transient_load_suppressed;
          Alcotest.test_case "taint through alu" `Quick test_core_taint_through_alu;
          Alcotest.test_case "slow branch widens window" `Quick
            test_core_independent_loads_need_slow_branch;
          Alcotest.test_case "no straight-line speculation" `Quick
            test_core_no_straight_line_speculation;
          Alcotest.test_case "transient stores inert" `Quick
            test_core_transient_stores_have_no_effect;
          QCheck_alcotest.to_alcotest prop_speculation_is_architecturally_transparent;
          QCheck_alcotest.to_alcotest prop_run_deterministic_given_seed;
        ] );
      ( "uarch pin",
        [
          Alcotest.test_case "aarch64 pin" `Quick test_uarch_pin_aarch64;
          Alcotest.test_case "riscv pin" `Quick test_uarch_pin_riscv;
        ] );
      ( "executor",
        [
          Alcotest.test_case "distinguishes secret" `Quick test_executor_distinguishes_secret;
          Alcotest.test_case "identical indistinguishable" `Quick
            test_executor_identical_states_indistinguishable;
          Alcotest.test_case "region view masks" `Quick test_executor_region_view_masks_leak;
          Alcotest.test_case "flaky prefetch inconclusive" `Quick
            test_executor_inconclusive_on_flaky_prefetch;
          Alcotest.test_case "deterministic" `Quick test_executor_deterministic_given_seed;
        ] );
      ( "flush+reload",
        [
          Alcotest.test_case "timing" `Quick test_flush_reload_timing;
          Alcotest.test_case "detects victim access" `Quick test_flush_reload_detects_victim_access;
        ] );
    ]
