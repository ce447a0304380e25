module Rv = Scamv_riscv.Ast
module Rv_sem = Scamv_riscv.Semantics
module Lift = Scamv_riscv.Lift
module Machine = Scamv_isa.Machine
module Reg = Scamv_isa.Reg
module Sm = Scamv_util.Splitmix
module Bir = Scamv_bir.Program
module Vars = Scamv_bir.Vars
module Term = Scamv_smt.Term
module Model = Scamv_smt.Model
module Eval = Scamv_smt.Eval
module Core = Scamv_microarch.Core

(* ---- native semantics ---- *)

let test_rv_x0_hardwired () =
  let s = Rv_sem.create () in
  Rv_sem.set_reg s (Rv.x 0) 99L;
  Alcotest.(check Alcotest.int64) "x0 stays zero" 0L (Rv_sem.get_reg s (Rv.x 0))

let test_rv_branches () =
  let s = Rv_sem.create () in
  Rv_sem.set_reg s (Rv.x 1) (-1L);
  (* blt x1, x0: -1 < 0 signed -> taken; bltu: 0xFF..F < 0 unsigned -> not. *)
  Rv_sem.run [| Rv.Blt (Rv.x 1, Rv.x 0, 2); Rv.Addi (Rv.x 2, Rv.x 0, 1L) |] s;
  Alcotest.(check Alcotest.int64) "signed branch taken" 0L (Rv_sem.get_reg s (Rv.x 2));
  let s = Rv_sem.create () in
  Rv_sem.set_reg s (Rv.x 1) (-1L);
  Rv_sem.run [| Rv.Bltu (Rv.x 1, Rv.x 0, 2); Rv.Addi (Rv.x 2, Rv.x 0, 1L) |] s;
  Alcotest.(check Alcotest.int64) "unsigned branch not taken" 1L (Rv_sem.get_reg s (Rv.x 2))

(* ---- random programs ---- *)

(* Random RV64 programs over the full instruction set: ALU soup
   (including register-amount shifts and x0 idioms), guarded
   loads/stores, forward branches and linking [jal].  Memory addresses
   are confined to a small pool so loads hit stored cells. *)
let random_program rng =
  let rng = ref rng in
  let draw n =
    let v, r = Sm.int !rng n in
    rng := r;
    v
  in
  let draw64 () =
    let v, r = Sm.next !rng in
    rng := r;
    v
  in
  let any_reg () = Rv.x (draw 32) in
  let nonzero_reg () = Rv.x (1 + draw 31) in
  let small_imm () = Int64.of_int (draw 256) in
  let n = 4 + draw 8 in
  let instr i =
    match draw 18 with
    | 0 -> Rv.Addi (any_reg (), any_reg (), small_imm ())
    | 1 -> Rv.Add (any_reg (), any_reg (), any_reg ())
    | 2 -> Rv.Sub (any_reg (), any_reg (), any_reg ())
    | 3 -> Rv.And_ (any_reg (), any_reg (), any_reg ())
    | 4 -> Rv.Or_ (any_reg (), any_reg (), any_reg ())
    | 5 -> Rv.Xor (any_reg (), any_reg (), any_reg ())
    | 6 -> Rv.Andi (any_reg (), any_reg (), small_imm ())
    | 7 -> Rv.Ori (any_reg (), any_reg (), small_imm ())
    | 8 -> Rv.Slli (any_reg (), any_reg (), draw 64)
    | 9 -> Rv.Srli (any_reg (), any_reg (), draw 64)
    | 10 -> Rv.Srai (any_reg (), any_reg (), draw 64)
    | 11 -> Rv.Ld (nonzero_reg (), Int64.of_int (8 * draw 4), nonzero_reg ())
    | 12 -> Rv.Sd (nonzero_reg (), Int64.of_int (8 * draw 4), nonzero_reg ())
    | 14 -> Rv.Sll (any_reg (), any_reg (), any_reg ())
    | 15 -> Rv.Srl (any_reg (), any_reg (), any_reg ())
    | 16 -> Rv.Sra (any_reg (), any_reg (), any_reg ())
    | 17 -> Rv.Jal (any_reg (), i + 1 + draw (n - i))
    | _ ->
      let target = i + 1 + draw (n - i) in
      (match draw 6 with
      | 0 -> Rv.Beq (any_reg (), any_reg (), target)
      | 1 -> Rv.Bne (any_reg (), any_reg (), target)
      | 2 -> Rv.Blt (any_reg (), any_reg (), target)
      | 3 -> Rv.Bge (any_reg (), any_reg (), target)
      | 4 -> Rv.Bltu (any_reg (), any_reg (), target)
      | _ -> Rv.Bgeu (any_reg (), any_reg (), target))
  in
  let program = Array.init n instr in
  (* Random initial state over a small value domain, with repeated and
     negative values so equality, signed and unsigned comparisons all
     split both ways. *)
  let value () =
    match draw 4 with
    | 0 -> List.nth [ -1L; -8L; Int64.min_int; 8L ] (draw 4)
    | 1 -> Int64.of_int (8 * draw 4)
    | _ -> Int64.logand (draw64 ()) 0xFFL
  in
  let state = Rv_sem.create () in
  for r = 1 to 31 do
    Rv_sem.set_reg state (Rv.x r) (value ())
  done;
  for _ = 1 to 6 do
    Rv_sem.store state (Int64.logand (draw64 ()) 0xFFL) (Int64.logand (draw64 ()) 0xFFL)
  done;
  (program, state)

(* ---- native lifting ---- *)

(* x0 idioms, register-amount shifts (6-bit amount masking) and linking
   jal all lift: none of them has an AArch64-subset image. *)
let test_native_lifter_accepts_rv64_idioms () =
  let liftable p =
    match Lift.lift p with
    | (_ : Bir.t) -> true
    | exception Invalid_argument _ -> false
  in
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ ": native lifter accepts") true (liftable p))
    [
      ("sll", [| Rv.Sll (Rv.x 3, Rv.x 1, Rv.x 2) |]);
      ("srl", [| Rv.Srl (Rv.x 3, Rv.x 1, Rv.x 2) |]);
      ("sra", [| Rv.Sra (Rv.x 3, Rv.x 1, Rv.x 2) |]);
      ("linking jal", [| Rv.Jal (Rv.x 1, 1) |]);
      ("load to x0", [| Rv.Ld (Rv.x 0, 0L, Rv.x 1) |]);
      ("store of x0", [| Rv.Sd (Rv.x 0, 0L, Rv.x 1) |]);
      ("x0 base address", [| Rv.Ld (Rv.x 1, 0L, Rv.x 0) |]);
      ("in-place negation", [| Rv.Sub (Rv.x 3, Rv.x 0, Rv.x 3) |]);
    ]

(* Concrete BIR interpretation: walk the blocks from the entry under a
   model, evaluating assignments as they come.  Store chains are a single
   [Store] per Sd, so memory updates reduce to one cell write. *)
let exec_bir bir model0 =
  let model = ref model0 in
  let steps = ref 0 in
  let rec go bid =
    incr steps;
    if !steps > 4096 then Alcotest.fail "exec_bir: cyclic program";
    let b = Bir.block bir bid in
    List.iter
      (function
        | Bir.Assign (v, e) when v = Vars.mem_name -> (
          match e with
          | Term.Store (_, a, value) ->
            let addr = Eval.eval_bv !model a in
            let value = Eval.eval_bv !model value in
            model := Model.add_mem_cell !model Vars.mem_name ~addr ~value
          | _ -> Alcotest.fail "exec_bir: unexpected memory assignment shape")
        | Bir.Assign (v, e) ->
          let value =
            if List.mem v [ Vars.flag_n; Vars.flag_z; Vars.flag_c; Vars.flag_v ]
            then Model.Bool (Eval.eval_bool !model e)
            else Model.Bv (Eval.eval_bv !model e, 64)
          in
          model := Model.add_var !model v value
        | Bir.Observe _ -> ())
      b.Bir.stmts;
    match b.Bir.term with
    | Bir.Halt -> ()
    | Bir.Jmp t -> go t
    | Bir.Cjmp (c, t, f) -> go (if Eval.eval_bool !model c then t else f)
  in
  go (Bir.entry bir);
  !model

let rv_regs = List.init 31 (fun i -> Rv.x (i + 1))

let model_of_rv_state s =
  let model =
    List.fold_left
      (fun m r ->
        Model.add_var m (Lift.reg_var r) (Model.Bv (Rv_sem.get_reg s r, 64)))
      Model.empty rv_regs
  in
  List.fold_left
    (fun m (addr, value) -> Model.add_mem_cell m Vars.mem_name ~addr ~value)
    model (Rv_sem.mem_bindings s)

(* Differential vs the reference interpreter, over the FULL native
   instruction set (register-amount shifts, linking jal, x0 idioms). *)
let prop_native_lift_matches_interpreter =
  QCheck.Test.make ~name:"natively lifted BIR = RV64 interpreter" ~count:500
    QCheck.int64 (fun seed ->
      let program, state = random_program (Sm.of_seed seed) in
      let final = exec_bir (Lift.lift program) (model_of_rv_state state) in
      Rv_sem.run program state;
      List.for_all
        (fun r -> Eval.eval_bv final (Lift.reg_term r) = Rv_sem.get_reg state r)
        rv_regs
      && List.for_all
           (fun (addr, value) ->
             Eval.eval_bv final
               (Term.select Vars.mem_term (Term.bv_const addr 64))
             = value)
           (Rv_sem.mem_bindings state))

(* A Spectre gadget written in RV64 yields counterexamples: the RV64
   pipeline (native lift, flagless concretization, compare-and-branch
   speculation on the simulated core) finds the speculative leak. *)
let test_native_gadget_through_pipeline () =
  let rv =
    [|
      Rv.Ld (Rv.x 3, 0L, Rv.x 1);
      Rv.Bge (Rv.x 3, Rv.x 2, 3);
      Rv.Ld (Rv.x 5, 0L, Rv.x 3);
    |]
  in
  let guest = Scamv_arch.Isa.Riscv_program rv in
  let setup = Scamv_models.Refinement.mct_vs_mspec () in
  let cfg = Scamv.Pipeline.default_config ~isa:Scamv_arch.Isa.Riscv setup in
  let session = Scamv.Pipeline.prepare ~seed:3L cfg guest in
  match Scamv.Pipeline.next_test_case session with
  | Scamv.Pipeline.Exhausted | Scamv.Pipeline.Quarantined _
  | Scamv.Pipeline.Crashed _ ->
    Alcotest.fail "expected a test case from the native gadget"
  | Scamv.Pipeline.Case tc ->
    let verdict =
      Scamv_microarch.Executor.run
        (Scamv_microarch.Executor.default_config ())
        {
          Scamv_microarch.Executor.program = guest;
          state1 = tc.Scamv.Pipeline.state1;
          state2 = tc.Scamv.Pipeline.state2;
          train = tc.Scamv.Pipeline.train;
        }
    in
    Alcotest.(check bool) "speculative leak found" true
      (verdict = Scamv_microarch.Executor.Distinguishable)

(* ---- the simulated core ---- *)

(* The core's committed loop computes its own ALU, load/store and branch
   results, so check them against the reference interpreter: RV64 x[k]
   lives in machine slot k-1, and memory is shared.  Noise makes the
   predictor miss often, so wrong-path execution runs in between. *)
let machine_of_state s =
  let m = Machine.create () in
  for k = 1 to 31 do
    Machine.set_reg m (Reg.x (k - 1)) (Rv_sem.get_reg s (Rv.x k))
  done;
  List.iter (fun (a, v) -> Machine.store m a v) (Rv_sem.mem_bindings s);
  m

let prop_core_matches_interpreter =
  QCheck.Test.make ~name:"Core.run = RV64 reference semantics" ~count:2000 QCheck.int64
    (fun seed ->
      let program, state = random_program (Sm.of_seed seed) in
      let machine = machine_of_state state in
      let cfg = if Int64.rem seed 2L = 0L then Core.cortex_a53 else Core.out_of_order in
      let core = Core.create ~seed { cfg with Core.mispredict_noise = 0.5 } in
      let decoded = Core.decode (Scamv_arch.Isa.Riscv_program program) in
      ignore (Core.run core decoded (Machine.copy machine));
      ignore (Core.run core decoded machine);
      Rv_sem.run program state;
      List.for_all
        (fun k -> Machine.get_reg machine (Reg.x (k - 1)) = Rv_sem.get_reg state (Rv.x k))
        (List.init 31 (fun i -> i + 1))
      && Machine.mem_bindings machine = Rv_sem.mem_bindings state)

let test_core_fuel_exhausted () =
  let core = Core.create Core.cortex_a53 in
  let loop = Core.decode (Scamv_arch.Isa.Riscv_program [| Rv.Jal (Rv.x 0, 0) |]) in
  Alcotest.check_raises "cyclic program" (Failure "Core.run: fuel exhausted") (fun () ->
      ignore (Core.run core loop (Machine.create ())))

let () =
  Alcotest.run "scamv_riscv"
    [
      ( "semantics",
        [
          Alcotest.test_case "x0 hardwired" `Quick test_rv_x0_hardwired;
          Alcotest.test_case "signed/unsigned branches" `Quick test_rv_branches;
        ] );
      ( "native lift",
        [
          Alcotest.test_case "lifts x0 idioms, shifts and jal" `Quick
            test_native_lifter_accepts_rv64_idioms;
          QCheck_alcotest.to_alcotest prop_native_lift_matches_interpreter;
          Alcotest.test_case "native gadget through pipeline" `Quick
            test_native_gadget_through_pipeline;
        ] );
      ( "core on RV64",
        [
          QCheck_alcotest.to_alcotest prop_core_matches_interpreter;
          Alcotest.test_case "fuel exhausted" `Quick test_core_fuel_exhausted;
        ] );
    ]
