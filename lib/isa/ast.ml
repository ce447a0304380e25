type operand = Reg of Reg.t | Imm of int64
type addressing = { base : Reg.t; offset : operand; scale : int }

type cond = Eq | Ne | Hs | Lo | Hi | Ls | Ge | Lt | Gt | Le

type instr =
  | Mov of Reg.t * operand
  | Add of Reg.t * Reg.t * operand
  | Sub of Reg.t * Reg.t * operand
  | And_ of Reg.t * Reg.t * operand
  | Orr of Reg.t * Reg.t * operand
  | Eor of Reg.t * Reg.t * operand
  | Lsl of Reg.t * Reg.t * operand
  | Lsr of Reg.t * Reg.t * operand
  | Asr of Reg.t * Reg.t * operand
  | Ldr of Reg.t * addressing
  | Str of Reg.t * addressing
  | Cmp of Reg.t * operand
  | B_cond of cond * int
  | B of int
  | Nop

type program = instr array

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Hs -> Lo
  | Lo -> Hs
  | Hi -> Ls
  | Ls -> Hi
  | Ge -> Lt
  | Lt -> Ge
  | Gt -> Le
  | Le -> Gt

let is_load = function Ldr _ -> true | _ -> false

let successors program i =
  let len = Array.length program in
  let clip t = min t len in
  match program.(i) with
  | B target -> [ clip target ]
  | B_cond (_, target) -> [ clip (i + 1); clip target ]
  | _ -> [ clip (i + 1) ]

let validate program =
  let len = Array.length program in
  let problem = ref None in
  Array.iteri
    (fun i instr ->
      if !problem = None then
        match instr with
        | B target | B_cond (_, target) ->
          if target < 0 || target > len then
            problem :=
              Some (Printf.sprintf "instruction %d: branch target %d out of range" i target)
        | Ldr (_, { scale; _ }) | Str (_, { scale; _ }) ->
          if scale < 0 || scale > 4 then
            problem := Some (Printf.sprintf "instruction %d: bad scale %d" i scale)
        | _ -> ())
    program;
  match !problem with None -> Ok () | Some msg -> Error msg

let pp_cond ppf c =
  Format.pp_print_string ppf
    (match c with
    | Eq -> "eq"
    | Ne -> "ne"
    | Hs -> "hs"
    | Lo -> "lo"
    | Hi -> "hi"
    | Ls -> "ls"
    | Ge -> "ge"
    | Lt -> "lt"
    | Gt -> "gt"
    | Le -> "le")

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm v -> Format.fprintf ppf "#%Ld" v

let pp_addressing ppf { base; offset; scale } =
  match (offset, scale) with
  | Imm 0L, _ -> Format.fprintf ppf "[%a]" Reg.pp base
  | _, 0 -> Format.fprintf ppf "[%a, %a]" Reg.pp base pp_operand offset
  | _ -> Format.fprintf ppf "[%a, %a, lsl #%d]" Reg.pp base pp_operand offset scale

let pp_instr ppf = function
  | Mov (d, op) -> Format.fprintf ppf "mov %a, %a" Reg.pp d pp_operand op
  | Add (d, a, op) -> Format.fprintf ppf "add %a, %a, %a" Reg.pp d Reg.pp a pp_operand op
  | Sub (d, a, op) -> Format.fprintf ppf "sub %a, %a, %a" Reg.pp d Reg.pp a pp_operand op
  | And_ (d, a, op) -> Format.fprintf ppf "and %a, %a, %a" Reg.pp d Reg.pp a pp_operand op
  | Orr (d, a, op) -> Format.fprintf ppf "orr %a, %a, %a" Reg.pp d Reg.pp a pp_operand op
  | Eor (d, a, op) -> Format.fprintf ppf "eor %a, %a, %a" Reg.pp d Reg.pp a pp_operand op
  | Lsl (d, a, op) -> Format.fprintf ppf "lsl %a, %a, %a" Reg.pp d Reg.pp a pp_operand op
  | Lsr (d, a, op) -> Format.fprintf ppf "lsr %a, %a, %a" Reg.pp d Reg.pp a pp_operand op
  | Asr (d, a, op) -> Format.fprintf ppf "asr %a, %a, %a" Reg.pp d Reg.pp a pp_operand op
  | Ldr (d, addr) -> Format.fprintf ppf "ldr %a, %a" Reg.pp d pp_addressing addr
  | Str (s, addr) -> Format.fprintf ppf "str %a, %a" Reg.pp s pp_addressing addr
  | Cmp (a, op) -> Format.fprintf ppf "cmp %a, %a" Reg.pp a pp_operand op
  | B_cond (c, target) -> Format.fprintf ppf "b.%a L%d" pp_cond c target
  | B target -> Format.fprintf ppf "b L%d" target
  | Nop -> Format.pp_print_string ppf "nop"

let pp_program ppf program =
  let targets =
    Array.to_list program
    |> List.filter_map (function B t | B_cond (_, t) -> Some t | _ -> None)
  in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i instr ->
      if List.mem i targets then Format.fprintf ppf "L%d:@," i;
      Format.fprintf ppf "  %a@," pp_instr instr)
    program;
  if List.mem (Array.length program) targets then
    Format.fprintf ppf "L%d:@," (Array.length program);
  Format.fprintf ppf "@]"

let to_string program = Format.asprintf "%a" pp_program program
