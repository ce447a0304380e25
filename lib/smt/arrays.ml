type read = { mem_name : string; addr : Term.t; var_name : string }

type result = {
  formulas : Term.t list;
  side_conditions : Term.t list;
  reads : read list;
}

module Term_map = Map.Make (Term)

type state = {
  mutable table : string Term_map.t;  (* rewritten select term -> read var *)
  mutable reads_rev : read list;
  mutable counter : int;
}

let fresh_read st mem_name addr =
  let key = Term.select (Term.mem_var mem_name) addr in
  match Term_map.find_opt key st.table with
  | Some name -> Term.bv_var name 64
  | None ->
    let name = Printf.sprintf "%s!read%d" mem_name st.counter in
    st.counter <- st.counter + 1;
    st.table <- Term_map.add key name st.table;
    st.reads_rev <- { mem_name; addr; var_name = name } :: st.reads_rev;
    Term.bv_var name 64

(* Rewrite bottom-up so nested selects (addresses that are themselves
   loaded) resolve inner reads first. *)
let rec rewrite st (t : Term.t) : Term.t =
  let r = rewrite st in
  match t with
  | Term.True | Term.False | Term.Var _ | Term.Bv_const _ -> t
  | Term.Not a -> Term.not_ (r a)
  | Term.And (a, b) -> Term.and_ (r a) (r b)
  | Term.Or (a, b) -> Term.or_ (r a) (r b)
  | Term.Implies (a, b) -> Term.implies (r a) (r b)
  | Term.Iff (a, b) -> Term.iff (r a) (r b)
  | Term.Eq (a, b) -> Term.eq (r a) (r b)
  | Term.Ult (a, b) -> Term.ult (r a) (r b)
  | Term.Ule (a, b) -> Term.ule (r a) (r b)
  | Term.Slt (a, b) -> Term.slt (r a) (r b)
  | Term.Sle (a, b) -> Term.sle (r a) (r b)
  | Term.Bv_unop (Term.Neg, a) -> Term.neg (r a)
  | Term.Bv_unop (Term.Lognot, a) -> Term.lognot (r a)
  | Term.Bv_binop (op, a, b) -> rewrite_binop op (r a) (r b)
  | Term.Extract (hi, lo, a) -> Term.extract ~hi ~lo (r a)
  | Term.Concat (a, b) -> Term.concat (r a) (r b)
  | Term.Zero_extend (k, a) -> Term.zero_extend k (r a)
  | Term.Sign_extend (k, a) -> Term.sign_extend k (r a)
  | Term.Ite (c, a, b) -> (
    match Term.sort_of a with
    | Sort.Mem ->
      (* Memory-sorted ites are handled when selected from. *)
      invalid_arg "Arrays.eliminate: memory-sorted ite outside select"
    | _ -> Term.ite (r c) (r a) (r b))
  | Term.Select (m, a) -> rewrite_select st m (r a)
  | Term.Store _ -> invalid_arg "Arrays.eliminate: store outside select"

and rewrite_binop op a b =
  match op with
  | Term.Add -> Term.add a b
  | Term.Sub -> Term.sub a b
  | Term.Mul -> Term.mul a b
  | Term.Logand -> Term.logand a b
  | Term.Logor -> Term.logor a b
  | Term.Logxor -> Term.logxor a b
  | Term.Shl -> Term.shl a b
  | Term.Lshr -> Term.lshr a b
  | Term.Ashr -> Term.ashr a b

(* [addr] is already rewritten (array-free); [m] may be a memory variable,
   a store chain, or an ite over memories. *)
and rewrite_select st (m : Term.t) (addr : Term.t) : Term.t =
  match m with
  | Term.Var (name, Sort.Mem) -> fresh_read st name addr
  | Term.Store (m', a', v') ->
    let a' = rewrite st a' and v' = rewrite st v' in
    Term.ite (Term.eq addr a') v' (rewrite_select st m' addr)
  | Term.Ite (c, m1, m2) ->
    Term.ite (rewrite st c) (rewrite_select st m1 addr) (rewrite_select st m2 addr)
  | _ -> invalid_arg "Arrays.eliminate: ill-formed memory term"

let new_state () = { table = Term_map.empty; reads_rev = []; counter = 0 }

(* Rewrite a further batch of formulas against an existing elimination
   state: read naming continues where the previous batch stopped, and the
   returned side conditions are exactly the functional-consistency pairs
   involving at least one {e new} read (pairs among the old reads were
   already returned by the earlier batches).  [result.reads] lists all
   reads so far, so an incremental session can replace its read list
   wholesale. *)
let eliminate_into st fs =
  let old_count = List.length st.reads_rev in
  let formulas = List.map (rewrite st) fs in
  let reads = Array.of_list (List.rev st.reads_rev) in
  let n = Array.length reads in
  (* Functional consistency per memory variable.  Traversal order (outer
     index ascending, inner ascending, each condition prepended) matches
     the non-incremental order on a fresh state, keeping assertion order —
     and with it enumeration determinism — unchanged. *)
  let side_conditions = ref [] in
  for i = 0 to n - 1 do
    for j = max (i + 1) old_count to n - 1 do
      let r = reads.(i) and r' = reads.(j) in
      if String.equal r.mem_name r'.mem_name then begin
        let antecedent = Term.eq r.addr r'.addr in
        let consequent =
          Term.eq (Term.bv_var r.var_name 64) (Term.bv_var r'.var_name 64)
        in
        match Term.implies antecedent consequent with
        | Term.True -> ()
        | c -> side_conditions := c :: !side_conditions
      end
    done
  done;
  { formulas; side_conditions = !side_conditions; reads = Array.to_list reads }

let recover_memories model reads =
  let with_cells =
    List.fold_left
      (fun m { mem_name; addr; var_name } ->
        let addr_val = Eval.eval_bv m addr in
        let value = Model.bv_exn m var_name in
        Model.add_mem_cell m mem_name ~addr:addr_val ~value)
      model reads
  in
  (* Drop internal read variables from the reported model. *)
  List.fold_left
    (fun acc (x, v) ->
      if String.contains x '!' then acc else Model.add_var acc x v)
    (List.fold_left
       (fun acc m ->
         List.fold_left
           (fun acc (a, v) -> Model.add_mem_cell acc m ~addr:a ~value:v)
           acc
           (Model.mem_cells with_cells m))
       Model.empty (Model.mems with_cells))
    (Model.vars with_cells)
