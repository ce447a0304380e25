module String_map = Map.Make (String)
module Int64_map = Map.Make (Int64)

type value = Bool of bool | Bv of int64 * int

type t = {
  vars : value String_map.t;
  mems : int64 Int64_map.t String_map.t;
}

let empty = { vars = String_map.empty; mems = String_map.empty }
let add_var t x v = { t with vars = String_map.add x v t.vars }

let add_mem_cell t m ~addr ~value =
  let cells =
    match String_map.find_opt m t.mems with
    | None -> Int64_map.empty
    | Some c -> c
  in
  { t with mems = String_map.add m (Int64_map.add addr value cells) t.mems }

let find_var t x = String_map.find_opt x t.vars

let bv_exn t x =
  match find_var t x with
  | Some (Bv (v, _)) -> v
  | Some (Bool _) -> invalid_arg ("Model.bv_exn: boolean variable " ^ x)
  | None -> 0L

let bool_exn t x =
  match find_var t x with
  | Some (Bool b) -> b
  | Some (Bv _) -> invalid_arg ("Model.bool_exn: bitvector variable " ^ x)
  | None -> false

let mem_cells t m =
  match String_map.find_opt m t.mems with
  | None -> []
  | Some cells -> Int64_map.bindings cells

let mem_lookup t m addr =
  match String_map.find_opt m t.mems with
  | None -> 0L
  | Some cells -> ( match Int64_map.find_opt addr cells with None -> 0L | Some v -> v)

let vars t = String_map.bindings t.vars
let mems t = List.map fst (String_map.bindings t.mems)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (x, v) ->
      match v with
      | Bool b -> Format.fprintf ppf "%s = %b@," x b
      | Bv (v, w) -> Format.fprintf ppf "%s = 0x%Lx:%d@," x v w)
    (vars t);
  List.iter
    (fun m ->
      List.iter
        (fun (a, v) -> Format.fprintf ppf "%s[0x%Lx] = 0x%Lx@," m a v)
        (mem_cells t m))
    (mems t);
  Format.fprintf ppf "@]"
