module Ast = Scamv_isa.Ast
module Rv = Scamv_riscv.Ast
module Isa = Scamv_arch.Isa
module Machine = Scamv_isa.Machine
module Semantics = Scamv_isa.Semantics
module Platform = Scamv_isa.Platform
module Reg = Scamv_isa.Reg
module Splitmix = Scamv_util.Splitmix

type config = {
  platform : Platform.t;
  spec_window : int;
  spec_max_loads : int;
  prefetch_threshold : int;
  prefetch_fire_prob : float;
  mispredict_noise : float;
  speculative_forwarding : bool;
  tlb_entries : int;
  fuel : int;
}

let cortex_a53 =
  {
    platform = Platform.cortex_a53;
    spec_window = 8;
    spec_max_loads = 4;
    prefetch_threshold = 3;
    prefetch_fire_prob = 0.97;
    mispredict_noise = 0.001;
    speculative_forwarding = false;
    tlb_entries = 10;
    fuel = 10_000;
  }

let out_of_order =
  {
    cortex_a53 with
    spec_window = 32;
    spec_max_loads = 16;
    speculative_forwarding = true;
  }

type event =
  | Commit_load of int64
  | Commit_store of int64
  | Commit_branch of { pc : int; taken : bool; predicted : bool }
  | Transient_load of int64
  | Transient_suppressed of int
  | Prefetch of int64

(* Hit/miss statistics accumulated over the core's lifetime.  The cache
   and TLB modules report each access outcome to their caller already;
   these counters aggregate those outcomes so the campaign can surface
   them (previously they were computed and dropped). *)
type counters = {
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable predictor_hits : int;
  mutable predictor_misses : int;
  mutable prefetches : int;
  mutable transient_loads : int;
  mutable transient_suppressed : int;
}

type t = {
  cfg : config;
  cache : Cache.t;
  tlb : Tlb.t;
  prefetcher : Prefetcher.t;
  predictor : Predictor.t;
  mutable rng : Splitmix.t;
  mutable cycles : int;
  ctr : counters;
}

let create ?(seed = 0L) cfg =
  {
    cfg;
    cache = Cache.create cfg.platform;
    tlb = Tlb.create ~entries:cfg.tlb_entries cfg.platform;
    prefetcher =
      Prefetcher.create ~threshold:cfg.prefetch_threshold
        ~fire_prob:cfg.prefetch_fire_prob cfg.platform;
    predictor = Predictor.create ();
    rng = Splitmix.of_seed seed;
    cycles = 0;
    ctr =
      {
        cache_hits = 0;
        cache_misses = 0;
        tlb_hits = 0;
        tlb_misses = 0;
        predictor_hits = 0;
        predictor_misses = 0;
        prefetches = 0;
        transient_loads = 0;
        transient_suppressed = 0;
      };
  }

let config t = t.cfg
let cache t = t.cache
let tlb t = t.tlb
let predictor t = t.predictor

let reset_cache t =
  Cache.reset t.cache;
  Tlb.reset t.tlb;
  Prefetcher.reset t.prefetcher

let reset_predictor t = Predictor.reset t.predictor
let last_run_cycles t = t.cycles

(* Flat view of the counters, keyed for the telemetry registry (the
   executor prefixes each key with "uarch."). *)
let counters t =
  let c = t.ctr in
  [
    ("cache.hits", c.cache_hits);
    ("cache.misses", c.cache_misses);
    ("tlb.hits", c.tlb_hits);
    ("tlb.misses", c.tlb_misses);
    ("predictor.hits", c.predictor_hits);
    ("predictor.misses", c.predictor_misses);
    ("prefetches", c.prefetches);
    ("transient_loads", c.transient_loads);
    ("transient_suppressed", c.transient_suppressed);
  ]

let count_tlb t = function
  | `Hit -> t.ctr.tlb_hits <- t.ctr.tlb_hits + 1
  | `Miss -> t.ctr.tlb_misses <- t.ctr.tlb_misses + 1

let count_cache t = function
  | `Hit -> t.ctr.cache_hits <- t.ctr.cache_hits + 1
  | `Miss -> t.ctr.cache_misses <- t.ctr.cache_misses + 1

(* Simple A53-flavoured timing model. *)
let issue_cycles = 1
let l1_hit_cycles = 3
let l1_miss_cycles = 140
let mispredict_penalty = 8
let reseed t seed = t.rng <- Splitmix.of_seed seed

let draw_float t =
  let v, rng = Splitmix.float t.rng in
  t.rng <- rng;
  v

(* A demand access (committed or transient load) goes through the cache
   and feeds the prefetcher, which may trigger an additional fill. *)
let demand_access t events addr =
  count_tlb t (Tlb.access t.tlb addr);
  let outcome = Cache.access t.cache addr in
  count_cache t outcome;
  let rng = ref t.rng in
  (match Prefetcher.observe t.prefetcher ~rng addr with
  | Some target ->
    Cache.fill t.cache target;
    t.ctr.prefetches <- t.ctr.prefetches + 1;
    events := Prefetch target :: !events
  | None -> ());
  t.rng <- !rng;
  outcome

(* ---- the shared operation set ----

   Every guest program is decoded once into one small vocabulary over
   machine register slots, and one committed loop and one transient loop
   run it.  RV64 x[k] (k >= 1) occupies slot k-1 (the
   [Scamv_riscv.Lift] convention); x0 reads as [Const 0L] and an x0
   destination is [None].  The only real ISA difference is the branch
   test: NZCV set by an AArch64 compare, or an RV64 compare-and-branch
   over two sources. *)

type src = Slot of Reg.t | Const of int64

type test =
  | Flags of Ast.cond
  | Regs of src * src * (int64 -> int64 -> bool)

type op =
  | Nop
  | Alu of { dst : Reg.t option; a : src; b : src; f : int64 -> int64 -> int64 }
  | Load of { dst : Reg.t option; base : src; offset : src; scale : int }
  | Store of { src : src; base : src; offset : src; scale : int }
  | Compare of src * src
  | Branch of test * int
  | Jump of { link : Reg.t option; target : int }

type program = op array

let a64_src = function Ast.Reg r -> Slot r | Ast.Imm v -> Const v

let a64_alu op d a b =
  Alu { dst = Some d; a = Slot a; b = a64_src b; f = Semantics.alu_op op }

let decode_a64 = function
  | Ast.Nop -> Nop
  | Ast.Mov (d, op) -> Alu { dst = Some d; a = a64_src op; b = Const 0L; f = (fun v _ -> v) }
  | Ast.Add (d, a, b) -> a64_alu `Add d a b
  | Ast.Sub (d, a, b) -> a64_alu `Sub d a b
  | Ast.And_ (d, a, b) -> a64_alu `And d a b
  | Ast.Orr (d, a, b) -> a64_alu `Orr d a b
  | Ast.Eor (d, a, b) -> a64_alu `Eor d a b
  | Ast.Lsl (d, a, b) -> a64_alu `Lsl d a b
  | Ast.Lsr (d, a, b) -> a64_alu `Lsr d a b
  | Ast.Asr (d, a, b) -> a64_alu `Asr d a b
  | Ast.Ldr (d, { base; offset; scale }) ->
    Load { dst = Some d; base = Slot base; offset = a64_src offset; scale }
  | Ast.Str (s, { base; offset; scale }) ->
    Store { src = Slot s; base = Slot base; offset = a64_src offset; scale }
  | Ast.Cmp (a, b) -> Compare (Slot a, a64_src b)
  | Ast.B_cond (c, target) -> Branch (Flags c, target)
  | Ast.B target -> Jump { link = None; target }

let rv_src r = if r = 0 then Const 0L else Slot (Reg.x (r - 1))
let rv_dst r = if r = 0 then None else Some (Reg.x (r - 1))
let rv_alu f d a b = Alu { dst = rv_dst d; a = rv_src a; b; f }
let rv_rr f d a b = rv_alu f d a (rv_src b)
let rv_ri f d a v = rv_alu f d a (Const v)

(* Shift amounts use the low 6 bits (RV64I masking, not the AArch64
   subset's zero-for-large-amounts rule). *)
let rv_shift shift x k = shift x (Int64.to_int (Int64.logand k 63L))
let rv_branch cmp a b target = Branch (Regs (rv_src a, rv_src b, cmp), target)

let decode_rv = function
  | Rv.Nop -> Nop
  | Rv.Addi (d, a, v) -> rv_ri Int64.add d a v
  | Rv.Add (d, a, b) -> rv_rr Int64.add d a b
  | Rv.Sub (d, a, b) -> rv_rr Int64.sub d a b
  | Rv.And_ (d, a, b) -> rv_rr Int64.logand d a b
  | Rv.Or_ (d, a, b) -> rv_rr Int64.logor d a b
  | Rv.Xor (d, a, b) -> rv_rr Int64.logxor d a b
  | Rv.Andi (d, a, v) -> rv_ri Int64.logand d a v
  | Rv.Ori (d, a, v) -> rv_ri Int64.logor d a v
  | Rv.Xori (d, a, v) -> rv_ri Int64.logxor d a v
  | Rv.Slli (d, a, k) -> rv_ri (rv_shift Int64.shift_left) d a (Int64.of_int k)
  | Rv.Srli (d, a, k) -> rv_ri (rv_shift Int64.shift_right_logical) d a (Int64.of_int k)
  | Rv.Srai (d, a, k) -> rv_ri (rv_shift Int64.shift_right) d a (Int64.of_int k)
  | Rv.Sll (d, a, b) -> rv_rr (rv_shift Int64.shift_left) d a b
  | Rv.Srl (d, a, b) -> rv_rr (rv_shift Int64.shift_right_logical) d a b
  | Rv.Sra (d, a, b) -> rv_rr (rv_shift Int64.shift_right) d a b
  | Rv.Ld (d, imm, b) -> Load { dst = rv_dst d; base = rv_src b; offset = Const imm; scale = 0 }
  | Rv.Sd (s, imm, b) -> Store { src = rv_src s; base = rv_src b; offset = Const imm; scale = 0 }
  | Rv.Beq (a, b, t) -> rv_branch Int64.equal a b t
  | Rv.Bne (a, b, t) -> rv_branch (fun x y -> not (Int64.equal x y)) a b t
  | Rv.Blt (a, b, t) -> rv_branch (fun x y -> Int64.compare x y < 0) a b t
  | Rv.Bge (a, b, t) -> rv_branch (fun x y -> Int64.compare x y >= 0) a b t
  | Rv.Bltu (a, b, t) -> rv_branch (fun x y -> Int64.unsigned_compare x y < 0) a b t
  | Rv.Bgeu (a, b, t) -> rv_branch (fun x y -> Int64.unsigned_compare x y >= 0) a b t
  | Rv.Jal (d, target) -> Jump { link = rv_dst d; target }

let decode = function
  | Isa.Aarch64_program p -> Array.map decode_a64 p
  | Isa.Riscv_program p -> Array.map decode_rv p

let value machine = function Slot r -> Machine.get_reg machine r | Const v -> v
let set machine dst v = match dst with Some r -> Machine.set_reg machine r v | None -> ()

let address machine base offset scale =
  Int64.add (value machine base) (Int64.shift_left (value machine offset) scale)

(* ---- transient (wrong-path) execution ---- *)

(* Shadow register file with taint bits.  Reads fall back to the
   architectural state; writes stay in the shadow. *)
type shadow = {
  machine : Machine.t;  (* architectural state, read-only here *)
  values : (int, int64) Hashtbl.t;
  tainted : (int, unit) Hashtbl.t;
}

let shadow_of machine = { machine; values = Hashtbl.create 8; tainted = Hashtbl.create 8 }

let shadow_value sh = function
  | Slot r -> (
    match Hashtbl.find_opt sh.values (Reg.index r) with
    | Some v -> v
    | None -> Machine.get_reg sh.machine r)
  | Const v -> v

let shadow_tainted sh = function
  | Slot r -> Hashtbl.mem sh.tainted (Reg.index r)
  | Const _ -> false

let shadow_set sh dst v ~taint =
  match dst with
  | None -> ()
  | Some r ->
    Hashtbl.replace sh.values (Reg.index r) v;
    if taint then Hashtbl.replace sh.tainted (Reg.index r) ()
    else Hashtbl.remove sh.tainted (Reg.index r)

(* Execute the wrong path transiently, starting at [pc].  Architectural
   state is never modified; cache and prefetcher are.  [max_loads] is the
   number of transient loads the window admits: 1 when the branch resolves
   quickly, more when its operands were waiting on a memory load (Sec. 6.5:
   "in some circumstances Cortex-A53 can execute more than one transient
   load"). *)
let transient_execute t events program machine ~start_pc ~max_loads =
  let len = Array.length program in
  let sh = shadow_of machine in
  let loads = ref 0 in
  let rec go pc steps =
    if steps >= t.cfg.spec_window || pc < 0 || pc >= len then ()
    else
      match program.(pc) with
      | Branch _ | Jump _ ->
        (* Depth-one speculation: a further branch ends the window. *)
        ()
      | Nop | Compare _ | Store _ ->
        (* Transient flag updates are invisible to the channel and no
           further transient branch consumes them (depth-one window);
           stores do not allocate before commit. *)
        go (pc + 1) (steps + 1)
      | Alu { dst; a; b; f } ->
        let taint = shadow_tainted sh a || shadow_tainted sh b in
        shadow_set sh dst (f (shadow_value sh a) (shadow_value sh b)) ~taint;
        go (pc + 1) (steps + 1)
      | Load { dst; base; offset; scale } ->
        if
          ((not t.cfg.speculative_forwarding)
          && (shadow_tainted sh base || shadow_tainted sh offset))
          || !loads >= max_loads
        then begin
          (* The address depends on a previous transient load result: the
             A53 cannot forward it, so no memory request is issued. *)
          t.ctr.transient_suppressed <- t.ctr.transient_suppressed + 1;
          events := Transient_suppressed pc :: !events;
          shadow_set sh dst 0L ~taint:true
        end
        else begin
          let a =
            Int64.add (shadow_value sh base) (Int64.shift_left (shadow_value sh offset) scale)
          in
          incr loads;
          t.ctr.transient_loads <- t.ctr.transient_loads + 1;
          events := Transient_load a :: !events;
          ignore (demand_access t events a);
          (* On the A53 the loaded value arrives but is unusable
             downstream; a forwarding core taints nothing. *)
          shadow_set sh dst (Machine.load machine a) ~taint:(not t.cfg.speculative_forwarding)
        end;
        go (pc + 1) (steps + 1)
  in
  go start_pc 0

(* ---- committed execution ---- *)

(* How many committed instructions back a register load still delays a
   dependent branch (roughly the L1 load-to-use window). *)
let load_use_window = 4

let run t program machine =
  t.cycles <- 0;
  let charge c = t.cycles <- t.cycles + c in
  let events = ref [] in
  let len = Array.length program in
  (* Committed-instruction index at which each register was last loaded
     from memory; drives the branch-resolution-latency rule. *)
  let loaded_at = Array.make Reg.count (-1) in
  let instr_count = ref 0 in
  let recently = function
    | Slot r ->
      let at = loaded_at.(Reg.index r) in
      at >= 0 && !instr_count - at <= load_use_window
    | Const _ -> false
  in
  (* Whether the flags currently in effect were produced by a compare
     whose operands were waiting on a recent load. *)
  let flags_delayed = ref false in
  let rec go pc fuel =
    if pc < 0 || pc >= len then ()
    else if fuel = 0 then failwith "Core.run: fuel exhausted"
    else begin
      incr instr_count;
      charge issue_cycles;
      let next_pc =
        match program.(pc) with
        | Nop -> pc + 1
        | Alu { dst; a; b; f } ->
          set machine dst (f (value machine a) (value machine b));
          pc + 1
        | Load { dst; base; offset; scale } ->
          let a = address machine base offset scale in
          set machine dst (Machine.load machine a);
          (match dst with Some r -> loaded_at.(Reg.index r) <- !instr_count | None -> ());
          events := Commit_load a :: !events;
          let outcome = demand_access t events a in
          charge (match outcome with `Hit -> l1_hit_cycles | `Miss -> l1_miss_cycles);
          pc + 1
        | Store { src; base; offset; scale } ->
          let a = address machine base offset scale in
          Machine.store machine a (value machine src);
          events := Commit_store a :: !events;
          (* Stores allocate on commit (write-allocate L1). *)
          count_tlb t (Tlb.access t.tlb a);
          count_cache t (Cache.access t.cache a);
          pc + 1
        | Compare (a, b) ->
          (* AArch64 latches the load-use bit when the compare executes. *)
          flags_delayed := recently a || recently b;
          Machine.set_flags machine (Semantics.flags_of_cmp (value machine a) (value machine b));
          pc + 1
        | Branch (test, target) ->
          (* RV64 compare-and-branch computes the same bit from its own
             sources when the branch executes. *)
          let taken =
            match test with
            | Flags c -> Semantics.eval_cond (Machine.get_flags machine) c
            | Regs (a, b, cmp) -> cmp (value machine a) (value machine b)
          in
          let predicted =
            let p = Predictor.predict t.predictor pc in
            if t.cfg.mispredict_noise > 0.0 && draw_float t < t.cfg.mispredict_noise then
              not p
            else p
          in
          Predictor.update t.predictor pc ~taken;
          if predicted = taken then t.ctr.predictor_hits <- t.ctr.predictor_hits + 1
          else t.ctr.predictor_misses <- t.ctr.predictor_misses + 1;
          events := Commit_branch { pc; taken; predicted } :: !events;
          if predicted <> taken then charge mispredict_penalty;
          if predicted <> taken && t.cfg.spec_window > 0 then begin
            let wrong_start = if predicted then min target len else pc + 1 in
            (* A branch whose operands were not delayed by memory resolves
               fast: the window only covers one load issue. *)
            let delayed =
              match test with
              | Flags _ -> !flags_delayed
              | Regs (a, b, _) -> recently a || recently b
            in
            let max_loads =
              if delayed || t.cfg.speculative_forwarding then t.cfg.spec_max_loads else 1
            in
            transient_execute t events program machine ~start_pc:wrong_start ~max_loads
          end;
          if taken then target else pc + 1
        | Jump { link; target } ->
          (* Direct unconditional jump: predicted perfectly, no
             straight-line speculation on the A53.  The link value is an
             instruction index. *)
          set machine link (Int64.of_int (pc + 1));
          target
      in
      go next_pc (fuel - 1)
    end
  in
  go 0 t.cfg.fuel;
  List.rev !events
