module Term = Scamv_smt.Term

type hooks = {
  on_fetch : pc:int -> Obs.t list;
  on_load : pc:int -> addr:Term.t -> Obs.t list;
  on_store : pc:int -> addr:Term.t -> Obs.t list;
  on_branch : pc:int -> cond:Term.t -> Obs.t list;
}

let no_hooks =
  {
    on_fetch = (fun ~pc:_ -> []);
    on_load = (fun ~pc:_ ~addr:_ -> []);
    on_store = (fun ~pc:_ ~addr:_ -> []);
    on_branch = (fun ~pc:_ ~cond:_ -> []);
  }

(* Re-exported lowering: the AArch64 pieces moved into [Arch] with the
   descriptor. *)
let cond_term = Arch.cond_term

let lift_validated ~hooks arch program =
  (match arch.Arch.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Lifter.lift: " ^ msg));
  let len = Array.length program in
  let lift_instr pc instr =
    let observes obs = List.map (fun o -> Program.Observe o) obs in
    let { Arch.assigns; access; control } = arch.Arch.lift_instr ~pc instr in
    let assigns = List.map (fun (x, e) -> Program.Assign (x, e)) assigns in
    let fetch_obs = observes (hooks.on_fetch ~pc) in
    let access_obs =
      match access with
      | Arch.No_access -> []
      | Arch.Load addr -> observes (hooks.on_load ~pc ~addr)
      | Arch.Store addr -> observes (hooks.on_store ~pc ~addr)
    in
    match control with
    | Arch.Fallthrough ->
      {
        Program.id = pc;
        stmts = fetch_obs @ access_obs @ assigns;
        term = Program.Jmp (pc + 1);
      }
    | Arch.Jump target ->
      (* A link write (e.g. RV64 [jal]) still assigns on the taken edge. *)
      let stmts =
        fetch_obs @ access_obs @ observes (hooks.on_branch ~pc ~cond:Term.tt) @ assigns
      in
      { Program.id = pc; stmts; term = Program.Jmp (min target len) }
    | Arch.Cond_jump (cond, target) ->
      let stmts = fetch_obs @ access_obs @ observes (hooks.on_branch ~pc ~cond) @ assigns in
      { Program.id = pc; stmts; term = Program.Cjmp (cond, min target len, pc + 1) }
  in
  let body = Array.to_list (Array.mapi lift_instr program) in
  let halt_block = { Program.id = len; stmts = []; term = Program.Halt } in
  Program.make ~entry:0 (body @ [ halt_block ])

let lift_arch ?(hooks = no_hooks) arch program =
  Scamv_telemetry.Collector.span "lift" (fun () -> lift_validated ~hooks arch program)

let lift ?hooks program = lift_arch ?hooks Arch.aarch64 program
