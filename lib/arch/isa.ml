type t = Aarch64 | Riscv

let equal = ( = )
let to_string = function Aarch64 -> "aarch64" | Riscv -> "riscv"

let of_string = function
  | "aarch64" -> Ok Aarch64
  | "riscv" -> Ok Riscv
  | other ->
    Error (Printf.sprintf "unknown isa %s (expected one of: aarch64, riscv)" other)

let pp ppf t = Format.pp_print_string ppf (to_string t)

type program =
  | Aarch64_program of Scamv_isa.Ast.program
  | Riscv_program of Scamv_riscv.Ast.program

let of_program = function Aarch64_program _ -> Aarch64 | Riscv_program _ -> Riscv

let validate_program = function
  | Aarch64_program p -> Scamv_isa.Ast.validate p
  | Riscv_program p -> Scamv_riscv.Ast.validate p

let pp_program ppf = function
  | Aarch64_program p -> Scamv_isa.Ast.pp_program ppf p
  | Riscv_program p -> Scamv_riscv.Ast.pp_program ppf p

let program_to_string p = Format.asprintf "%a" pp_program p
