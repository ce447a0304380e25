module Term = Scamv_smt.Term
module Int_map = Map.Make (Int)

type stmt = Assign of string * Term.t | Observe of Obs.t
type terminator = Jmp of int | Cjmp of Term.t * int * int | Halt
type block = { id : int; stmts : stmt list; term : terminator }
type t = { entry : int; blocks : block Int_map.t }

let successors b =
  match b.term with Jmp id -> [ id ] | Cjmp (_, a, b) -> [ a; b ] | Halt -> []

let make ~entry block_list =
  let blocks =
    List.fold_left
      (fun acc b ->
        if Int_map.mem b.id acc then
          invalid_arg (Printf.sprintf "Program.make: duplicate block id %d" b.id)
        else Int_map.add b.id b acc)
      Int_map.empty block_list
  in
  if not (Int_map.mem entry blocks) then
    invalid_arg "Program.make: entry block missing";
  Int_map.iter
    (fun _ b ->
      List.iter
        (fun s ->
          if not (Int_map.mem s blocks) then
            invalid_arg
              (Printf.sprintf "Program.make: block %d jumps to unknown block %d" b.id s))
        (successors b))
    blocks;
  { entry; blocks }

let entry t = t.entry

let block t id =
  match Int_map.find_opt id t.blocks with Some b -> b | None -> raise Not_found

let blocks t = List.map snd (Int_map.bindings t.blocks)

let fresh_id t =
  match Int_map.max_binding_opt t.blocks with None -> 0 | Some (id, _) -> id + 1

let map_blocks f t =
  let blocks =
    Int_map.map
      (fun b ->
        let b' = f b in
        if b'.id <> b.id then invalid_arg "Program.map_blocks: id changed";
        b')
      t.blocks
  in
  { t with blocks }

let add_blocks new_blocks t =
  make ~entry:t.entry (List.map snd (Int_map.bindings t.blocks) @ new_blocks)

let pp_stmt ppf = function
  | Assign (x, e) -> Format.fprintf ppf "%s := %a" x Term.pp e
  | Observe o -> Obs.pp ppf o

let pp_terminator ppf = function
  | Jmp id -> Format.fprintf ppf "jmp B%d" id
  | Cjmp (c, a, b) -> Format.fprintf ppf "cjmp %a B%d B%d" Term.pp c a b
  | Halt -> Format.pp_print_string ppf "halt"

let pp ppf t =
  Format.fprintf ppf "@[<v>entry B%d@," t.entry;
  Int_map.iter
    (fun _ b ->
      Format.fprintf ppf "B%d:@," b.id;
      List.iter (fun s -> Format.fprintf ppf "  %a@," pp_stmt s) b.stmts;
      Format.fprintf ppf "  %a@," pp_terminator b.term)
    t.blocks;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
