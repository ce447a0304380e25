module Term = Scamv_smt.Term
module Sort = Scamv_smt.Sort
module Reg = Scamv_isa.Reg

let reg r = Reg.name r
let reg_term r = Term.bv_var (reg r) 64
let mem_name = "mem"
let mem_term = Term.mem_var mem_name
let flag_n = "nf"
let flag_z = "zf"
let flag_c = "cf"
let flag_v = "vf"
let flag_term name = Term.bool_var name

let shadow_suffix = "_sh"

let is_shadow name =
  let n = String.length name and k = String.length shadow_suffix in
  n >= k && String.sub name (n - k) k = shadow_suffix

let shadow name = if is_shadow name then name else name ^ shadow_suffix

let all_program_vars =
  List.map (fun r -> (reg r, Sort.Bv 64)) Reg.all
  @ [
      (mem_name, Sort.Mem);
      (flag_n, Sort.Bool);
      (flag_z, Sort.Bool);
      (flag_c, Sort.Bool);
      (flag_v, Sort.Bool);
    ]

