module Bits = Scamv_util.Bits

(* Term-keyed caches use Term's monomorphic equal/hash instead of the
   polymorphic defaults; lookups here are the hottest path of blasting. *)
module Term_tbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

(* The blaster is split in two layers:

   - a {e gate graph}: a hash-consed and-inverter-style circuit (AND, XOR,
     ITE nodes plus input bits and the constant TRUE) built from terms.
     The graph owns the structural-hashing caches — term-to-node and
     gate-to-node — and is the unit of {e cross-session} reuse: every
     enumeration session of the same program shares one graph, so a
     sub-term already blasted for one candidate relation resolves to an
     existing node instead of being re-folded.

   - a {e session} ([t] below): a SAT instance plus a node-to-literal
     emission map.  Tseitin clauses are emitted per session, on demand, by
     a structural walk over the graph, so each session's CNF contains
     exactly the cone of its own assertions and the clause/variable
     numbering depends only on the order of its assertions — not on what
     other sessions did to the shared graph.

   Node references ("nrefs") are ints [2*id + sign]; node 0 is the
   constant TRUE, so nref 0 is TRUE and nref 1 is FALSE. *)

type node =
  | N_true
  | N_input of string * Sort.t * int  (* bit [i] of input [name] *)
  | N_and of int * int
  | N_xor of int * int  (* operands stored positive (sign-normalized) *)
  | N_ite of int * int * int

type gate_key = K_and of int * int | K_xor of int * int | K_ite of int * int * int

(* Gate and boolean cache entries pack (nref, session stamp) into one
   immediate int — [(stamp lsl packed_shift) lor nref] — so the hot-path
   lookups return an unboxed value instead of allocating a tuple per
   miss and chasing a pointer per hit.  40 bits of nref is ~5*10^11
   graph nodes; 23 bits of stamp is ~8*10^6 sessions per graph — both
   far beyond anything a campaign builds. *)
let packed_shift = 40
let packed_mask = (1 lsl packed_shift) - 1

type graph = {
  mutable nodes : node array;
  mutable n_nodes : int;
  gates : (gate_key, int) Hashtbl.t;  (* key -> packed (output nref, stamp) *)
  bool_cache : int Term_tbl.t;  (* term -> packed (nref, stamp) *)
  bv_cache : (int array * int) Term_tbl.t;
  g_inputs : (string, Sort.t * int array) Hashtbl.t;  (* name -> positive nrefs *)
  mutable session_ctr : int;  (* stamp distinguishing same- vs cross-session hits *)
  (* Emission scratch, owned by the graph and shared by all its sessions:
     a slot [id] holds the literal emitted for node [id] by the session
     whose stamp is in [e_sid.(id)] — any other session sees the slot as
     empty.  Compared to a per-session node-to-literal array this saves
     an O(n_nodes) allocation per session, which on shared graphs of
     hundreds of thousands of nodes used to cost more than the structural
     reuse won back. *)
  mutable e_lit : Sat.lit array;
  mutable e_sid : int array;
}

let new_graph () =
  {
    nodes = Array.make 1024 N_true;
    n_nodes = 1;
    gates = Hashtbl.create 1024;
    bool_cache = Term_tbl.create 256;
    bv_cache = Term_tbl.create 256;
    g_inputs = Hashtbl.create 64;
    session_ctr = 0;
    e_lit = Array.make 1024 0;
    e_sid = Array.make 1024 0;
  }

let ensure_scratch g =
  if Array.length g.e_lit < g.n_nodes then begin
    let n = max (2 * Array.length g.e_lit) g.n_nodes in
    let el = Array.make n 0 and es = Array.make n 0 in
    Array.blit g.e_lit 0 el 0 (Array.length g.e_lit);
    Array.blit g.e_sid 0 es 0 (Array.length g.e_sid);
    g.e_lit <- el;
    g.e_sid <- es
  end

let add_node g node =
  if g.n_nodes = Array.length g.nodes then begin
    let grown = Array.make (2 * g.n_nodes) N_true in
    Array.blit g.nodes 0 grown 0 g.n_nodes;
    g.nodes <- grown
  end;
  let id = g.n_nodes in
  g.nodes.(id) <- node;
  g.n_nodes <- id + 1;
  id

let nref_true = 0
let nref_false = 1
let n_neg r = r lxor 1
let n_is_pos r = r land 1 = 0

type t = {
  sat : Sat.t;
  true_lit : Sat.lit;
  g : graph;
  sid : int;  (* this session's stamp in the shared graph *)
  inputs : (string, Sort.t * Sat.lit array) Hashtbl.t;  (* emitted this session *)
  (* Structural-hashing effectiveness counters (gate + term caches),
     read by the solver session and flushed to telemetry.  [cross_hits]
     counts the subset of hits that resolved to a node created by an
     earlier session on the same graph. *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cross_hits : int;
}

let create ?seed ?default_phase ?restart_base ?graph () =
  let g = match graph with Some g -> g | None -> new_graph () in
  g.session_ctr <- g.session_ctr + 1;
  let sat = Sat.create ?seed ?default_phase ?restart_base () in
  let v = Sat.new_var sat in
  Sat.add_clause sat [ Sat.pos v ];
  ensure_scratch g;
  let sid = g.session_ctr in
  g.e_lit.(0) <- Sat.pos v;
  g.e_sid.(0) <- sid;
  {
    sat;
    true_lit = Sat.pos v;
    g;
    sid;
    inputs = Hashtbl.create 64;
    cache_hits = 0;
    cache_misses = 0;
    cross_hits = 0;
  }

let solver t = t.sat
let cache_stats t = (t.cache_hits, t.cache_misses)
let cross_stats t = t.cross_hits

let hit t sid0 =
  t.cache_hits <- t.cache_hits + 1;
  if sid0 <> t.sid then t.cross_hits <- t.cross_hits + 1

let miss t = t.cache_misses <- t.cache_misses + 1

(* ---- gates with structural hashing and constant folding ---- *)

let gate t key node =
  match Hashtbl.find_opt t.g.gates key with
  | Some packed ->
    hit t (packed lsr packed_shift);
    packed land packed_mask
  | None ->
    miss t;
    let o = 2 * add_node t.g node in
    Hashtbl.add t.g.gates key ((t.sid lsl packed_shift) lor o);
    o

let g_and t a b =
  if a = nref_false || b = nref_false then nref_false
  else if a = nref_true then b
  else if b = nref_true then a
  else if a = b then a
  else if a = n_neg b then nref_false
  else begin
    let a, b = if a < b then (a, b) else (b, a) in
    gate t (K_and (a, b)) (N_and (a, b))
  end

let g_or t a b = n_neg (g_and t (n_neg a) (n_neg b))

let g_xor t a b =
  if a = nref_false then b
  else if b = nref_false then a
  else if a = nref_true then n_neg b
  else if b = nref_true then n_neg a
  else if a = b then nref_false
  else if a = n_neg b then nref_true
  else begin
    (* Normalize: positive operands, ordered; track output polarity. *)
    let flip = ref false in
    let norm r =
      if n_is_pos r then r
      else begin
        flip := not !flip;
        n_neg r
      end
    in
    let a = norm a and b = norm b in
    let a, b = if a < b then (a, b) else (b, a) in
    let o = gate t (K_xor (a, b)) (N_xor (a, b)) in
    if !flip then n_neg o else o
  end

let g_iff t a b = n_neg (g_xor t a b)

let g_ite t c a b =
  if c = nref_true then a
  else if c = nref_false then b
  else if a = b then a
  else if a = nref_true && b = nref_false then c
  else if a = nref_false && b = nref_true then n_neg c
  else gate t (K_ite (c, a, b)) (N_ite (c, a, b))

let g_implies t a b = g_or t (n_neg a) b

(* ---- vectors (little-endian: index 0 = LSB) ---- *)

let vec_const (_ : t) v w =
  Array.init w (fun i -> if Bits.bit v i then nref_true else nref_false)

let vec_eq t a b =
  let acc = ref nref_true in
  Array.iteri (fun i ai -> acc := g_and t !acc (g_iff t ai b.(i))) a;
  !acc

(* a + b + carry_in; returns sum vector (drops final carry). *)
let vec_add ?(carry_in = `Zero) t a b =
  let w = Array.length a in
  let sum = Array.make w nref_false in
  let carry = ref (match carry_in with `Zero -> nref_false | `One -> nref_true) in
  for i = 0 to w - 1 do
    let x = a.(i) and y = b.(i) and c = !carry in
    let xy = g_xor t x y in
    sum.(i) <- g_xor t xy c;
    carry := g_or t (g_and t x y) (g_and t xy c)
  done;
  sum

let vec_not (_ : t) a = Array.map n_neg a
let vec_neg t a = vec_add ~carry_in:`One t (vec_not t a) (vec_const t 0L (Array.length a))
let vec_sub t a b = vec_add ~carry_in:`One t a (vec_not t b)

(* Unsigned a < b via MSB-first comparison chain. *)
let vec_ult t a b =
  let w = Array.length a in
  let lt = ref nref_false in
  let eq_so_far = ref nref_true in
  for i = w - 1 downto 0 do
    let bit_lt = g_and t (n_neg a.(i)) b.(i) in
    lt := g_or t !lt (g_and t !eq_so_far bit_lt);
    eq_so_far := g_and t !eq_so_far (g_iff t a.(i) b.(i))
  done;
  !lt

let vec_ule t a b = g_or t (vec_ult t a b) (vec_eq t a b)

let vec_slt t a b =
  let w = Array.length a in
  let a' = Array.copy a and b' = Array.copy b in
  a'.(w - 1) <- n_neg a.(w - 1);
  b'.(w - 1) <- n_neg b.(w - 1);
  vec_ult t a' b'

let vec_sle t a b = g_or t (vec_slt t a b) (vec_eq t a b)

let vec_ite t c a b = Array.init (Array.length a) (fun i -> g_ite t c a.(i) b.(i))

let vec_binary_pointwise t f a b = Array.init (Array.length a) (fun i -> f t a.(i) b.(i))

(* Barrel shifter.  [shift_one dir fill k v] shifts [v] by [2^stage]
   positions.  Amounts >= width produce all-[fill]. *)
let vec_shift t ~dir ~fill a amount =
  let w = Array.length a in
  let fill_ref = match fill with `Zero -> nref_false | `Sign -> a.(w - 1) in
  let stages = 6 (* 2^6 = 64 >= any supported width *) in
  let shift_by_const v k =
    Array.init w (fun i ->
        match dir with
        | `Left -> if i - k >= 0 then v.(i - k) else nref_false
        | `Right -> if i + k < w then v.(i + k) else fill_ref)
  in
  let result = ref a in
  for s = 0 to stages - 1 do
    let k = 1 lsl s in
    let sel = if s < Array.length amount then amount.(s) else nref_false in
    let shifted = if k >= w then Array.make w fill_ref else shift_by_const !result k in
    result := vec_ite t sel shifted !result
  done;
  (* Amount bits beyond 2^6 positions: any set high bit zeroes (or
     sign-fills) the result. *)
  let high = ref nref_false in
  Array.iteri (fun i l -> if i >= stages then high := g_or t !high l) amount;
  vec_ite t !high (Array.make w fill_ref) !result

let vec_mul t a b =
  let w = Array.length a in
  let acc = ref (vec_const t 0L w) in
  for i = 0 to w - 1 do
    let partial =
      Array.init w (fun j -> if j < i then nref_false else g_and t b.(i) a.(j - i))
    in
    acc := vec_add t !acc partial
  done;
  !acc

(* ---- inputs (graph nodes; literal allocation happens at emission) ---- *)

let graph_input t (name, sort) =
  match Hashtbl.find_opt t.g.g_inputs name with
  | Some (s, nrefs) ->
    if not (Sort.equal s sort) then
      raise (Term.Sort_error (Printf.sprintf "variable %s used at two sorts" name));
    nrefs
  | None ->
    let n = match sort with Sort.Bool -> 1 | Sort.Bv w -> w | Sort.Mem -> 0 in
    if n = 0 then invalid_arg "Blaster: memory variable reached the blaster";
    let nrefs = Array.init n (fun i -> 2 * add_node t.g (N_input (name, sort, i))) in
    Hashtbl.add t.g.g_inputs name (sort, nrefs);
    nrefs

(* ---- term translation (graph construction) ---- *)

let rec blast_bool t (term : Term.t) : int =
  match Term_tbl.find_opt t.g.bool_cache term with
  | Some packed ->
    hit t (packed lsr packed_shift);
    packed land packed_mask
  | None ->
    miss t;
    let r =
      match term with
      | Term.True -> nref_true
      | Term.False -> nref_false
      | Term.Var (x, Sort.Bool) -> (graph_input t (x, Sort.Bool)).(0)
      | Term.Var (x, s) ->
        raise
          (Term.Sort_error
             (Printf.sprintf "boolean context, variable %s : %s" x (Sort.to_string s)))
      | Term.Not a -> n_neg (blast_bool t a)
      | Term.And (a, b) -> g_and t (blast_bool t a) (blast_bool t b)
      | Term.Or (a, b) -> g_or t (blast_bool t a) (blast_bool t b)
      | Term.Implies (a, b) -> g_implies t (blast_bool t a) (blast_bool t b)
      | Term.Iff (a, b) -> g_iff t (blast_bool t a) (blast_bool t b)
      | Term.Eq (a, b) -> (
        match Term.sort_of a with
        | Sort.Bool -> g_iff t (blast_bool t a) (blast_bool t b)
        | Sort.Bv _ -> vec_eq t (blast_bv t a) (blast_bv t b)
        | Sort.Mem -> raise (Term.Sort_error "memory equality in blaster"))
      | Term.Ult (a, b) -> vec_ult t (blast_bv t a) (blast_bv t b)
      | Term.Ule (a, b) -> vec_ule t (blast_bv t a) (blast_bv t b)
      | Term.Slt (a, b) -> vec_slt t (blast_bv t a) (blast_bv t b)
      | Term.Sle (a, b) -> vec_sle t (blast_bv t a) (blast_bv t b)
      | Term.Ite (c, a, b) -> g_ite t (blast_bool t c) (blast_bool t a) (blast_bool t b)
      | Term.Bv_const _ | Term.Bv_unop _ | Term.Bv_binop _ | Term.Extract _
      | Term.Concat _ | Term.Zero_extend _ | Term.Sign_extend _ ->
        raise (Term.Sort_error "bitvector term in boolean context")
      | Term.Select _ | Term.Store _ ->
        invalid_arg "Blaster: memory operation reached the blaster"
    in
    Term_tbl.add t.g.bool_cache term ((t.sid lsl packed_shift) lor r);
    r

and blast_bv t (term : Term.t) : int array =
  match Term_tbl.find_opt t.g.bv_cache term with
  | Some (v, sid0) ->
    hit t sid0;
    v
  | None ->
    miss t;
    let v =
      match term with
      | Term.Var (x, (Sort.Bv _ as s)) -> graph_input t (x, s)
      | Term.Bv_const (v, w) -> vec_const t v w
      | Term.Bv_unop (Term.Neg, a) -> vec_neg t (blast_bv t a)
      | Term.Bv_unop (Term.Lognot, a) -> vec_not t (blast_bv t a)
      | Term.Bv_binop (op, a, b) -> blast_binop t op (blast_bv t a) (blast_bv t b)
      | Term.Extract (hi, lo, a) ->
        let va = blast_bv t a in
        Array.sub va lo (hi - lo + 1)
      | Term.Concat (a, b) ->
        let va = blast_bv t a and vb = blast_bv t b in
        Array.append vb va
      | Term.Zero_extend (k, a) ->
        let va = blast_bv t a in
        Array.append va (Array.make k nref_false)
      | Term.Sign_extend (k, a) ->
        let va = blast_bv t a in
        Array.append va (Array.make k va.(Array.length va - 1))
      | Term.Ite (c, a, b) -> vec_ite t (blast_bool t c) (blast_bv t a) (blast_bv t b)
      | Term.Select _ | Term.Store _ ->
        invalid_arg "Blaster: memory operation reached the blaster"
      | Term.True | Term.False | Term.Not _ | Term.And _ | Term.Or _
      | Term.Implies _ | Term.Iff _ | Term.Eq _ | Term.Ult _ | Term.Ule _
      | Term.Slt _ | Term.Sle _ | Term.Var _ ->
        raise (Term.Sort_error "boolean term in bitvector context")
    in
    Term_tbl.add t.g.bv_cache term (v, t.sid);
    v

and blast_binop t op a b =
  match op with
  | Term.Add -> vec_add t a b
  | Term.Sub -> vec_sub t a b
  | Term.Mul -> vec_mul t a b
  | Term.Logand -> vec_binary_pointwise t g_and a b
  | Term.Logor -> vec_binary_pointwise t g_or a b
  | Term.Logxor -> vec_binary_pointwise t g_xor a b
  | Term.Shl -> vec_shift t ~dir:`Left ~fill:`Zero a b
  | Term.Lshr -> vec_shift t ~dir:`Right ~fill:`Zero a b
  | Term.Ashr -> vec_shift t ~dir:`Right ~fill:`Sign a b

(* ---- per-session clause emission ----

   Emission reads and writes the graph's scratch ([e_lit]/[e_sid]): a
   slot belongs to this session iff its stamp matches [t.sid].  When
   sessions on one graph interleave their blasting, a node both of them
   use may be re-emitted (a second, equivalent literal with its own
   Tseitin clauses) after the other session steals the slot — sound, and
   deterministic because the interleaving itself is (each program's
   sessions run on one domain in a fixed order).  Inputs never
   re-emit: their literals are also kept in the session's own [inputs]
   table so the model-visible variables stay unique. *)

let fresh t = Sat.pos (Sat.new_var t.sat)

(* All bits of an input are emitted together, in bit order, so the SAT
   variable layout of an input word does not depend on which bits the
   assertions happen to mention first. *)
let rec emit_input t name sort =
  match Hashtbl.find_opt t.inputs name with
  | Some (s, lits) ->
    if not (Sort.equal s sort) then
      raise (Term.Sort_error (Printf.sprintf "variable %s used at two sorts" name));
    lits
  | None ->
    let nrefs = graph_input t (name, sort) in
    let lits = Array.init (Array.length nrefs) (fun _ -> fresh t) in
    (* Bias branching towards deciding high bits first, so conflict-driven
       flips during model enumeration land on low bits: enumerated models
       then differ by small amounts, like Z3's default models. *)
    Array.iteri
      (fun i l -> Sat.nudge_activity t.sat (Sat.var_of l) (1e-3 *. float_of_int (i + 1)))
      lits;
    Hashtbl.add t.inputs name (sort, lits);
    ensure_scratch t.g;
    Array.iteri
      (fun i nr ->
        t.g.e_lit.(nr lsr 1) <- lits.(i);
        t.g.e_sid.(nr lsr 1) <- t.sid)
      nrefs;
    lits

and lit_of_node t id =
  if t.g.e_sid.(id) = t.sid then t.g.e_lit.(id)
  else begin
    let l =
      match t.g.nodes.(id) with
      | N_true -> t.true_lit (* pre-set at creation; reached only if another
                                session stole scratch slot 0 since *)
      | N_input (name, sort, bit) -> (emit_input t name sort).(bit)
      | N_and (a, b) ->
        let la = lit_of_ref t a in
        let lb = lit_of_ref t b in
        let o = fresh t in
        Sat.add_clause2 t.sat (Sat.negate o) la;
        Sat.add_clause2 t.sat (Sat.negate o) lb;
        Sat.add_clause3 t.sat o (Sat.negate la) (Sat.negate lb);
        o
      | N_xor (a, b) ->
        let la = lit_of_ref t a in
        let lb = lit_of_ref t b in
        let o = fresh t in
        Sat.add_clause3 t.sat (Sat.negate o) la lb;
        Sat.add_clause3 t.sat (Sat.negate o) (Sat.negate la) (Sat.negate lb);
        Sat.add_clause3 t.sat o (Sat.negate la) lb;
        Sat.add_clause3 t.sat o la (Sat.negate lb);
        o
      | N_ite (c, a, b) ->
        let lc = lit_of_ref t c in
        let la = lit_of_ref t a in
        let lb = lit_of_ref t b in
        let o = fresh t in
        Sat.add_clause3 t.sat (Sat.negate lc) (Sat.negate la) o;
        Sat.add_clause3 t.sat (Sat.negate lc) la (Sat.negate o);
        Sat.add_clause3 t.sat lc (Sat.negate lb) o;
        Sat.add_clause3 t.sat lc lb (Sat.negate o);
        o
    in
    t.g.e_lit.(id) <- l;
    t.g.e_sid.(id) <- t.sid;
    l
  end

and lit_of_ref t r =
  let l = lit_of_node t (r lsr 1) in
  if r land 1 = 1 then Sat.negate l else l

let assert_term t term =
  (match Term.sort_of term with
  | Sort.Bool -> ()
  | s -> raise (Term.Sort_error ("assertion of sort " ^ Sort.to_string s)));
  (* Cooperative-cancellation poll: blasting a large assertion is the one
     long-running phase between SAT queries, so an expired ambient
     deadline stops here instead of after the whole graph is built. *)
  Scamv_util.Deadline.poll ();
  let r = blast_bool t term in
  ensure_scratch t.g;
  let l = lit_of_ref t r in
  Sat.add_clause t.sat [ l ]

let bool_literal t term =
  (match Term.sort_of term with
  | Sort.Bool -> ()
  | s -> raise (Term.Sort_error ("assumption of sort " ^ Sort.to_string s)));
  Scamv_util.Deadline.poll ();
  let r = blast_bool t term in
  ensure_scratch t.g;
  lit_of_ref t r

let input_literals t (name, sort) = emit_input t name sort

let lit_model_value t l =
  let v = Sat.value t.sat (Sat.var_of l) in
  if Sat.is_pos l then v else not v

let read_model t =
  Hashtbl.fold
    (fun name (sort, lits) acc ->
      match sort with
      | Sort.Bool -> Model.add_var acc name (Model.Bool (lit_model_value t lits.(0)))
      | Sort.Bv w ->
        let v = ref 0L in
        Array.iteri (fun i l -> if lit_model_value t l then v := Bits.set_bit !v i true) lits;
        Model.add_var acc name (Model.Bv (!v, w))
      | Sort.Mem -> acc)
    t.inputs Model.empty

let inputs t =
  Hashtbl.fold (fun name (sort, lits) acc -> (name, sort, lits) :: acc) t.inputs []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let block_assignment t vars =
  let clause =
    List.concat_map
      (fun key ->
        let lits = input_literals t key in
        Array.to_list
          (Array.map
             (fun l -> if lit_model_value t l then Sat.negate l else l)
             lits))
      vars
  in
  Sat.add_clause t.sat clause

let block_values t vars model =
  (* Like {!block_assignment}, but against an explicit valuation instead
     of the solver's current assignment — used to replay another
     session's blocking clauses into this one (portfolio rescue).
     Variables the model does not bind default to false/zero, matching
     what [read_model] reports for never-decided inputs. *)
  let clause =
    List.concat_map
      (fun ((name, sort) as key) ->
        let lits = input_literals t key in
        match sort with
        | Sort.Bool ->
          [ (if Model.bool_exn model name then Sat.negate lits.(0) else lits.(0)) ]
        | Sort.Bv _ ->
          let v = Model.bv_exn model name in
          Array.to_list
            (Array.mapi (fun i l -> if Bits.bit v i then Sat.negate l else l) lits)
        | Sort.Mem -> [])
      vars
  in
  Sat.add_clause t.sat clause
