module Term = Scamv_smt.Term
module Arch = Scamv_bir.Arch
module Vars = Scamv_bir.Vars

let reg_var r = Ast.reg_name r
let reg_term r = if r = 0 then Term.bv_const 0L 64 else Term.bv_var (reg_var r) 64

(* Writes to x0 are architecturally discarded, which makes every x0 idiom
   liftable: [jal x0] is a plain jump, [ld x0, ...] performs (and
   observes) the access without an assignment, and so on. *)
let assign d e = if d = 0 then [] else [ (reg_var d, e) ]

(* Register-amount shifts use only the low 6 bits of rs2 (RV64I), unlike
   the AArch64 subset, whose shifts yield 0 for amounts >= 64. *)
let shift_amount b = Term.logand (reg_term b) (Term.bv_const 63L 64)

let fall assigns = { Arch.assigns; access = Arch.No_access; control = Arch.Fallthrough }

let cond_jump cond target =
  { Arch.assigns = []; access = Arch.No_access; control = Arch.Cond_jump (cond, target) }

let lift_instr ~pc instr =
  match instr with
  | Ast.Nop -> fall []
  | Ast.Addi (d, a, v) -> fall (assign d (Term.add (reg_term a) (Term.bv_const v 64)))
  | Ast.Add (d, a, b) -> fall (assign d (Term.add (reg_term a) (reg_term b)))
  | Ast.Sub (d, a, b) -> fall (assign d (Term.sub (reg_term a) (reg_term b)))
  | Ast.And_ (d, a, b) -> fall (assign d (Term.logand (reg_term a) (reg_term b)))
  | Ast.Or_ (d, a, b) -> fall (assign d (Term.logor (reg_term a) (reg_term b)))
  | Ast.Xor (d, a, b) -> fall (assign d (Term.logxor (reg_term a) (reg_term b)))
  | Ast.Andi (d, a, v) -> fall (assign d (Term.logand (reg_term a) (Term.bv_const v 64)))
  | Ast.Ori (d, a, v) -> fall (assign d (Term.logor (reg_term a) (Term.bv_const v 64)))
  | Ast.Xori (d, a, v) -> fall (assign d (Term.logxor (reg_term a) (Term.bv_const v 64)))
  | Ast.Slli (d, a, k) ->
    fall (assign d (Term.shl (reg_term a) (Term.bv_const (Int64.of_int k) 64)))
  | Ast.Srli (d, a, k) ->
    fall (assign d (Term.lshr (reg_term a) (Term.bv_const (Int64.of_int k) 64)))
  | Ast.Srai (d, a, k) ->
    fall (assign d (Term.ashr (reg_term a) (Term.bv_const (Int64.of_int k) 64)))
  | Ast.Sll (d, a, b) -> fall (assign d (Term.shl (reg_term a) (shift_amount b)))
  | Ast.Srl (d, a, b) -> fall (assign d (Term.lshr (reg_term a) (shift_amount b)))
  | Ast.Sra (d, a, b) -> fall (assign d (Term.ashr (reg_term a) (shift_amount b)))
  | Ast.Ld (d, imm, b) ->
    let addr = Term.add (reg_term b) (Term.bv_const imm 64) in
    {
      Arch.assigns = assign d (Term.select Vars.mem_term addr);
      access = Arch.Load addr;
      control = Arch.Fallthrough;
    }
  | Ast.Sd (src, imm, b) ->
    let addr = Term.add (reg_term b) (Term.bv_const imm 64) in
    {
      Arch.assigns = [ (Vars.mem_name, Term.store Vars.mem_term addr (reg_term src)) ];
      access = Arch.Store addr;
      control = Arch.Fallthrough;
    }
  | Ast.Beq (a, b, t) -> cond_jump (Term.eq (reg_term a) (reg_term b)) t
  | Ast.Bne (a, b, t) -> cond_jump (Term.neq (reg_term a) (reg_term b)) t
  | Ast.Blt (a, b, t) -> cond_jump (Term.slt (reg_term a) (reg_term b)) t
  | Ast.Bge (a, b, t) -> cond_jump (Term.sle (reg_term b) (reg_term a)) t
  | Ast.Bltu (a, b, t) -> cond_jump (Term.ult (reg_term a) (reg_term b)) t
  | Ast.Bgeu (a, b, t) -> cond_jump (Term.ule (reg_term b) (reg_term a)) t
  | Ast.Jal (d, t) ->
    (* Link value at instruction-index granularity, matching
       [Semantics.run]. *)
    {
      Arch.assigns = assign d (Term.bv_const (Int64.of_int (pc + 1)) 64);
      access = Arch.No_access;
      control = Arch.Jump t;
    }

(* x1..x31 in machine-slot order: RV64 x[k] lives in slot k-1, the same
   convention as the simulated core's decoder ([Scamv_microarch.Core]),
   so concretized machine states run there unchanged. *)
let registers = List.init 31 (fun i -> Ast.reg_name (i + 1))

let arch =
  {
    Arch.name = "riscv";
    registers;
    has_flags = false;
    validate = Ast.validate;
    lift_instr;
    pp_instr = Ast.pp_instr;
  }

let lift ?hooks program = Scamv_bir.Lifter.lift_arch ?hooks arch program
