(* CDCL in the MiniSat tradition.  Data layout: variables are integers
   starting at 1; literal l of variable v is 2*v (positive) or 2*v+1
   (negative).

   Clauses live in a single growable int arena (MiniSat's ClauseAllocator):
   a clause reference [cref] is the offset of its header word.  Layout:

     ca.(c)              header: size lsl 2 | learned lsl 1 | deleted
     ca.(c+1)            LBD            (learned clauses only)
     ca.(c+2)            activity       (learned clauses only)
     ca.(c+k)...         literals       (k = 3 learned, 1 problem)

   The first two literals of every clause are watched.  Watch lists are
   flat int vectors of (cref, blocker) pairs: the blocker is the other
   watched literal at attach time, so the satisfied-clause fast path
   touches only the watch vector, never the clause (MiniSat's blocker
   optimisation).  Propagation compacts the vector in place — no list
   allocation on the hot path.

   Deleted clauses are only marked (header bit 0); their watchers are
   dropped lazily by propagation and their arena words leak until the
   instance dies, which is bounded by the clause-DB reduction keeping the
   learned set small.  The trail records assignments in order; [reason]
   links each implied variable to its asserting cref for conflict
   analysis. *)

type lit = int

let pos v = 2 * v
let neg_of_var v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0

type cref = int

let cr_null : cref = -1

(* Assignment: 0 = unassigned, 1 = true, -1 = false (per variable). *)
type t = {
  mutable nvars : int;
  mutable assign : int array;  (* var -> -1/0/1 *)
  mutable level : int array;  (* var -> decision level *)
  mutable reason : int array;  (* var -> implying cref, or cr_null *)
  mutable phase : bool array;  (* var -> saved phase *)
  mutable activity : float array;  (* var -> VSIDS activity *)
  (* Clause arena. *)
  mutable ca : int array;
  mutable ca_size : int;
  (* Watch lists: per literal, interleaved (cref, blocker) pairs. *)
  mutable w_data : int array array;
  mutable w_size : int array;
  mutable trail : int array;  (* literal trail *)
  mutable trail_size : int;
  mutable trail_lim : int array;  (* trail sizes at decision points *)
  mutable trail_lim_size : int;
  mutable qhead : int;  (* propagation pointer *)
  (* Clause index vectors (crefs); deleted entries are swept lazily. *)
  mutable clauses : int array;  (* problem clauses *)
  mutable n_clauses : int;
  mutable learnts : int array;  (* learned clauses *)
  mutable n_learnts : int;
  mutable unsat : bool;  (* empty/contradictory clause seen *)
  mutable var_inc : float;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned_total : int;  (* clauses learned over the instance's life *)
  mutable deleted_total : int;  (* clauses deleted by reduce/simplify *)
  mutable next_reduce : int;  (* conflict count triggering the next reduce *)
  mutable reduce_count : int;
  mutable simp_trail : int;  (* level-0 trail size at the last simplify *)
  (* Scope selectors: clauses added inside [push]/[pop] are guarded by the
     innermost selector literal; [solve] assumes every open selector, and
     [pop] retires one with a permanent unit. *)
  mutable scope_lits : int array;
  mutable n_scopes : int;
  (* Effective-assumption scratch (selectors ++ caller assumptions) and a
     copy of the previous query's sequence, enabling assumption-trail
     reuse: the longest shared prefix of decision levels survives between
     consecutive solves instead of being rebuilt. *)
  mutable eff : int array;
  mutable prev_assum : int array;
  mutable n_prev : int;
  restart_base : int;  (* conflicts per Luby restart unit *)
  mutable rng : Scamv_util.Splitmix.t;
  mutable random_branch_freq : float;
  mutable rnd_countdown : int;
      (* deterministic decisions left until the next random-branch trial:
         sampled geometrically from [random_branch_freq], so the RNG is
         touched once per ~1/freq decisions instead of on every decision *)
  default_phase : bool;
  (* Order heap: binary heap on (activity desc, id asc).  [heap_act] is
     the key of each slot, kept beside [heap] so sifting compares adjacent
     floats instead of chasing [activity.(heap.(i))]. *)
  mutable heap : int array;
  mutable heap_act : float array;  (* slot -> activity of heap.(slot) *)
  mutable heap_size : int;
  mutable heap_pos : int array;  (* var -> index in heap, -1 if absent *)
  mutable next_zero : int;
      (* ascending-id decision cursor over zero-activity variables: every
         unassigned zero-activity variable has id >= next_zero *)
  mutable lits_buf : int array;  (* clause-intake scratch *)
  mutable seen : bool array;  (* scratch for conflict analysis *)
  mutable level_stamp : int array;  (* scratch for LBD computation *)
  mutable stamp : int;
  (* LBD histogram (clamped at [lbd_buckets - 1]) with a flush watermark,
     so [solve] can report per-query deltas to telemetry. *)
  lbd_hist : int array;
  lbd_flushed : int array;
}

let lbd_buckets = 33

(* Root-level simplification is worth a full watch rebuild only once a
   meaningful batch of new level-0 facts has accumulated; rebuilding on
   every learnt unit costs more than the propagation it saves. *)
let simplify_threshold = 32

let create ?seed ?(default_phase = false) ?(restart_base = 100) () =
  let cap = 16 in
  {
    nvars = 0;
    assign = Array.make cap 0;
    level = Array.make cap 0;
    reason = Array.make cap cr_null;
    phase = Array.make cap default_phase;
    activity = Array.make cap 0.0;
    ca = Array.make 1024 0;
    ca_size = 0;
    w_data = Array.make (2 * cap) [||];
    w_size = Array.make (2 * cap) 0;
    trail = Array.make cap 0;
    trail_size = 0;
    trail_lim = Array.make cap 0;
    trail_lim_size = 0;
    qhead = 0;
    clauses = Array.make 64 0;
    n_clauses = 0;
    learnts = Array.make 64 0;
    n_learnts = 0;
    unsat = false;
    var_inc = 1.0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learned_total = 0;
    deleted_total = 0;
    next_reduce = 2000;
    reduce_count = 0;
    simp_trail = 0;
    scope_lits = Array.make 4 0;
    n_scopes = 0;
    eff = Array.make 16 0;
    prev_assum = Array.make 16 0;
    n_prev = 0;
    restart_base;
    rng = Scamv_util.Splitmix.of_seed (Option.value seed ~default:0L);
    random_branch_freq = (match seed with None -> 0.0 | Some _ -> 0.02);
    rnd_countdown = 0;
    default_phase;
    heap = Array.make cap 0;
    heap_act = Array.make cap 0.0;
    heap_size = 0;
    heap_pos = Array.make cap (-1);
    next_zero = 1;
    lits_buf = Array.make 16 0;
    seen = Array.make cap false;
    level_stamp = Array.make cap 0;
    stamp = 0;
    lbd_hist = Array.make lbd_buckets 0;
    lbd_flushed = Array.make lbd_buckets 0;
  }

let num_vars t = t.nvars
let stats_conflicts t = t.conflicts
let stats_decisions t = t.decisions
let stats_propagations t = t.propagations

(* ---- clause arena accessors ---- *)

let cl_size t c = t.ca.(c) lsr 2
let cl_learned t c = t.ca.(c) land 2 <> 0
let cl_deleted t c = t.ca.(c) land 1 <> 0
let cl_delete t c = t.ca.(c) <- t.ca.(c) lor 1
let cl_base t c = c + 1 + (t.ca.(c) land 2)  (* +2 extra header words iff learned *)
let cl_lbd t c = t.ca.(c + 1)
let cl_set_lbd t c lbd = t.ca.(c + 1) <- lbd
let cl_act t c = t.ca.(c + 2)
let cl_set_act t c a = t.ca.(c + 2) <- a
let cl_set_size t c n = t.ca.(c) <- (n lsl 2) lor (t.ca.(c) land 3)

(* ---- dynamic growth ---- *)

let grow_arr a n fill =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* Every per-variable array is created with the same capacity and grown
   here by the same doubling rule, so one length check covers them all:
   [new_var] stores a field (a write barrier each) only when it grows. *)
let ensure_var_cap t n =
  if Array.length t.assign <= n then begin
    t.assign <- grow_arr t.assign (n + 1) 0;
    t.level <- grow_arr t.level (n + 1) 0;
    t.reason <- grow_arr t.reason (n + 1) cr_null;
    t.phase <- grow_arr t.phase (n + 1) t.default_phase;
    t.activity <- grow_arr t.activity (n + 1) 0.0;
    t.w_data <- grow_arr t.w_data (2 * (n + 1)) [||];
    t.w_size <- grow_arr t.w_size (2 * (n + 1)) 0;
    t.trail <- grow_arr t.trail (n + 1) 0;
    t.trail_lim <- grow_arr t.trail_lim (n + 1) 0;
    t.heap <- grow_arr t.heap (n + 1) 0;
    t.heap_act <- grow_arr t.heap_act (n + 1) 0.0;
    t.heap_pos <- grow_arr t.heap_pos (n + 1) (-1);
    t.seen <- grow_arr t.seen (n + 1) false
  end;
  if Array.length t.level_stamp <= n + 1 then
    t.level_stamp <- grow_arr t.level_stamp (n + 2) 0

(* ---- order heap ---- *)

(* Key order: higher activity first, equal activities by lower variable
   id.  Variables are created in circuit topological order by the
   blaster, and branching low-id-first on untouched variables
   approximates the old per-solve heap refill (which re-inserted
   variables in creation order) without its O(nvars) cost per query.

   The key is a strict total order, so the array layout after every
   operation is a function of the operation sequence alone.  That
   matters: seeded random branching reads [heap.(i)] by index, so the
   layout is part of the search.  Comparisons read the slot keys in
   [heap_act] (mirroring [activity] for every occupied slot), never
   [activity] through the slot's variable.

   The sifts index [heap], [heap_act] and [heap_pos] unchecked: every
   slot index is < [heap_size] <= [nvars], every variable id is
   <= [nvars], and [ensure_var_cap] keeps all three arrays longer than
   [nvars].  Stale pops (variables already assigned by propagation) make
   these loops the hottest code of an enumeration-heavy workload. *)

(* Place [v] at the hole [i] and move it up past every worse parent. *)
let heap_sift_up t i v =
  let heap = t.heap and heap_act = t.heap_act and heap_pos = t.heap_pos in
  let act = t.activity.(v) in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pv = Array.unsafe_get heap p in
    let pa = Array.unsafe_get heap_act p in
    if act > pa || (act = pa && v < pv) then begin
      Array.unsafe_set heap !i pv;
      Array.unsafe_set heap_act !i pa;
      Array.unsafe_set heap_pos pv !i;
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set heap_act !i act;
  Array.unsafe_set heap_pos v !i

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    let i = t.heap_size in
    t.heap_size <- i + 1;
    heap_sift_up t i v
  end

(* Bottom-up (Floyd) pop: walk the root hole down the better-child path
   to a leaf — one key comparison per level instead of two — then sift
   the displaced last element up from there.  Along that path the keys
   only get worse, so it comes to rest exactly where a top-down sift
   would have stopped it. *)
let heap_pop t =
  let heap = t.heap and heap_act = t.heap_act and heap_pos = t.heap_pos in
  let top = heap.(0) in
  Array.unsafe_set heap_pos top (-1);
  let n = t.heap_size - 1 in
  t.heap_size <- n;
  if n > 0 then begin
    let i = ref 0 in
    let c = ref 1 in
    while !c < n do
      let l = !c in
      let r = l + 1 in
      let best =
        if r < n then begin
          let la = Array.unsafe_get heap_act l and ra = Array.unsafe_get heap_act r in
          if ra > la || (ra = la && Array.unsafe_get heap r < Array.unsafe_get heap l)
          then r
          else l
        end
        else l
      in
      let bv = Array.unsafe_get heap best in
      Array.unsafe_set heap !i bv;
      Array.unsafe_set heap_act !i (Array.unsafe_get heap_act best);
      Array.unsafe_set heap_pos bv !i;
      i := best;
      c := (2 * best) + 1
    done;
    heap_sift_up t !i (Array.unsafe_get heap n)
  end;
  top

(* Re-key [v] after its activity grew (activities only ever increase
   between rescales, so it can only move up). *)
let heap_update t v = if t.heap_pos.(v) >= 0 then heap_sift_up t t.heap_pos.(v) v

(* ---- variables ---- *)

let new_var t =
  let v = t.nvars + 1 in
  t.nvars <- v;
  ensure_var_cap t v;
  t.assign.(v) <- 0;
  t.activity.(v) <- 0.0;
  (* Zero-activity variables are served by the decision cursor, not the
     heap (see [pick_branch_var]); the heap only ever holds variables
     whose activity has become positive. *)
  t.heap_pos.(v) <- -1;
  v

(* Value of a literal under [assign]: 1 true, -1 false, 0 unassigned. *)
let[@inline] lit_value_in assign l =
  let a = assign.(l lsr 1) in
  if l land 1 = 0 then a else -a

let lit_value t l = lit_value_in t.assign l

let decision_level t = t.trail_lim_size

let value t v = t.assign.(v) = 1

let root_value t v =
  if t.assign.(v) <> 0 && t.level.(v) = 0 then t.assign.(v) else 0

(* ---- activity ---- *)

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 1 to t.nvars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    for i = 0 to t.heap_size - 1 do
      t.heap_act.(i) <- t.activity.(t.heap.(i))
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  (* Conflict analysis only bumps assigned variables, so a variable that
     just became positive-activity need not enter the heap here: it is
     inserted when [cancel_until] unassigns it. *)
  heap_update t v

let var_decay t = t.var_inc <- t.var_inc /. 0.95

(* ---- assignment / trail ---- *)

let enqueue t l reason =
  t.propagations <- t.propagations + 1;
  let v = var_of l in
  t.assign.(v) <- (if is_pos l then 1 else -1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.phase.(v) <- is_pos l;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    (* trail_lim.(k) is the trail size at the moment level k+1 started. *)
    let sz = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto sz do
      let v = var_of t.trail.(i) in
      t.assign.(v) <- 0;
      t.reason.(v) <- cr_null;
      (* Freed positive-activity variables go back on the heap; freed
         zero-activity variables only need the decision cursor rewound so
         it can see them again. *)
      if t.activity.(v) > 0.0 then heap_insert t v
      else if v < t.next_zero then t.next_zero <- v
    done;
    t.trail_size <- sz;
    t.qhead <- sz;
    t.trail_lim_size <- lvl
  end

(* ---- watches ---- *)

let push_watch t l cref blocker =
  let data = t.w_data.(l) in
  let sz = t.w_size.(l) in
  let data =
    if sz + 2 > Array.length data then begin
      let data' = Array.make (max 4 (2 * Array.length data)) 0 in
      Array.blit data 0 data' 0 sz;
      t.w_data.(l) <- data';
      data'
    end
    else data
  in
  data.(sz) <- cref;
  data.(sz + 1) <- blocker;
  t.w_size.(l) <- sz + 2

let attach_clause t c =
  let base = cl_base t c in
  let l0 = t.ca.(base) and l1 = t.ca.(base + 1) in
  push_watch t (negate l0) c l1;
  push_watch t (negate l1) c l0

(* ---- clause allocation ---- *)

let ca_alloc t words =
  if t.ca_size + words > Array.length t.ca then begin
    let cap = max (t.ca_size + words) (2 * Array.length t.ca) in
    let ca' = Array.make cap 0 in
    Array.blit t.ca 0 ca' 0 t.ca_size;
    t.ca <- ca'
  end;
  let c = t.ca_size in
  t.ca_size <- t.ca_size + words;
  c

let push_cref arr n c =
  let arr = grow_arr arr (n + 1) 0 in
  arr.(n) <- c;
  arr

(* Allocate a clause from the first [n] entries of [lits]; attaches
   nothing. *)
let alloc_clause t ~learned lits n =
  let extra = if learned then 2 else 0 in
  let c = ca_alloc t (1 + extra + n) in
  t.ca.(c) <- (n lsl 2) lor (if learned then 2 else 0);
  if learned then begin
    t.ca.(c + 1) <- 0;
    t.ca.(c + 2) <- 0
  end;
  let base = c + 1 + extra in
  Array.blit lits 0 t.ca base n;
  c

(* ---- propagation ---- *)

(* Propagate all pending assignments; returns the conflicting cref or
   [cr_null].  The watch vector of the triggering literal is compacted in
   place: no allocation per visited clause.  [assign] and [ca] are read
   through locals: propagation neither creates variables nor allocates
   clauses, so neither array is replaced while it runs. *)
let propagate t : cref =
  let assign = t.assign and ca = t.ca in
  let conflict = ref cr_null in
  while !conflict = cr_null && t.qhead < t.trail_size do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    (* l became true; visit clauses watching ~l, stored under index l. *)
    let false_lit = negate l in
    let data = t.w_data.(l) in
    let n = t.w_size.(l) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = data.(!i) in
      let blocker = data.(!i + 1) in
      (* Blocker fast path: if the cached other literal is already true
         the clause needs no work at all. *)
      if lit_value_in assign blocker = 1 then begin
        data.(!j) <- c;
        data.(!j + 1) <- blocker;
        j := !j + 2;
        i := !i + 2
      end
      else if ca.(c) land 1 <> 0 then
        (* Lazily drop watchers of deleted clauses. *)
        i := !i + 2
      else begin
        let base = c + 1 + (ca.(c) land 2) in
        (* Ensure the false literal is at position 1. *)
        if ca.(base) = false_lit then begin
          ca.(base) <- ca.(base + 1);
          ca.(base + 1) <- false_lit
        end;
        let first = ca.(base) in
        if first <> blocker && lit_value_in assign first = 1 then begin
          (* Satisfied by the other watched literal: keep, refresh blocker. *)
          data.(!j) <- c;
          data.(!j + 1) <- first;
          j := !j + 2;
          i := !i + 2
        end
        else begin
          (* Look for a new literal to watch. *)
          let size = ca.(c) lsr 2 in
          let k = ref 2 in
          while !k < size && lit_value_in assign ca.(base + !k) = -1 do
            incr k
          done;
          if !k < size then begin
            (* Move the watch: this watcher leaves l's list. *)
            ca.(base + 1) <- ca.(base + !k);
            ca.(base + !k) <- false_lit;
            push_watch t (negate ca.(base + 1)) c first;
            i := !i + 2
          end
          else if lit_value_in assign first = -1 then begin
            (* Conflict: keep this watcher and the unvisited suffix. *)
            data.(!j) <- c;
            data.(!j + 1) <- blocker;
            j := !j + 2;
            i := !i + 2;
            while !i < n do
              data.(!j) <- data.(!i);
              j := !j + 1;
              i := !i + 1
            done;
            conflict := c
          end
          else begin
            (* Unit: keep the watcher and propagate [first]. *)
            data.(!j) <- c;
            data.(!j + 1) <- first;
            j := !j + 2;
            i := !i + 2;
            enqueue t first c
          end
        end
      end
    done;
    t.w_size.(l) <- !j
  done;
  !conflict

(* ---- clause intake ---- *)

(* Every clause enters through [t.lits_buf]: the entry points below write
   their literals there and [add_buffered] normalizes them in place, so
   Tseitin-sized clauses cost no allocation. *)

(* Write the innermost scope's guard (see [add_clause]) at the head of
   the buffer; returns the number of literals written. *)
let put_guard t =
  if t.n_scopes = 0 then 0
  else begin
    t.lits_buf.(0) <- negate t.scope_lits.(t.n_scopes - 1);
    1
  end

(* Ascending sort of [buf.(0..n-1)]: insertion sort for clause-sized
   prefixes, the library heap sort on a copy for long (blocking) ones. *)
let sort_prefix buf n =
  if n <= 16 then
    for i = 1 to n - 1 do
      let x = buf.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && buf.(!j) > x do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done
  else begin
    let a = Array.sub buf 0 n in
    Array.sort Int.compare a;
    Array.blit a 0 buf 0 n
  end

let root_lit t l =
  let a = root_value t (l lsr 1) in
  if l land 1 = 0 then a else -a

(* Add the clause held in [t.lits_buf.(0..n-1)].  Normalize against root
   (level-0) assignments only, so clauses can be added at any decision
   level: a model-blocking clause asserted between enumeration draws
   rewinds the trail just past its two deepest falsified literals instead
   of to the root, and the next solve resumes the search descent instead
   of rebuilding it. *)
let add_buffered t n =
  if not t.unsat then begin
    let buf = t.lits_buf in
    sort_prefix buf n;
    (* Deduplicate.  After sorting, the two literals of one variable are
       adjacent, so a tautology shows up as a kept pair (2v, 2v+1). *)
    let m = ref 0 in
    let tautology = ref false in
    for i = 0 to n - 1 do
      let l = buf.(i) in
      if !m = 0 || buf.(!m - 1) <> l then begin
        if !m > 0 && buf.(!m - 1) = l - 1 && l land 1 = 1 then tautology := true;
        if root_lit t l = 1 then tautology := true;
        buf.(!m) <- l;
        incr m
      end
    done;
    if not !tautology then begin
      (* Strip root-false literals. *)
      let n = ref 0 in
      for i = 0 to !m - 1 do
        let l = buf.(i) in
        if root_lit t l <> -1 then begin
          buf.(!n) <- l;
          incr n
        end
      done;
      let n = !n in
      if n = 0 then t.unsat <- true
      else if n = 1 then begin
        (* Units must enter the root trail: rewind and propagate. *)
        let l = buf.(0) in
        cancel_until t 0;
        ignore (propagate t);
        match lit_value t l with
        | 1 -> ()
        | -1 -> t.unsat <- true
        | _ ->
          enqueue t l cr_null;
          if propagate t <> cr_null then t.unsat <- true
      end
      else begin
        (* The watch invariant needs two non-falsified literals: if the
           current assignment leaves fewer, rewind past the deepest
           falsifying levels (their literals survived the root filter, so
           those levels are >= 1 and the target stays >= 0). *)
        let non_false = ref 0 in
        for i = 0 to n - 1 do
          if lit_value t buf.(i) <> -1 then incr non_false
        done;
        if !non_false < 2 then begin
          let l1 = ref 0 and l2 = ref 0 in
          for i = 0 to n - 1 do
            if lit_value t buf.(i) = -1 then begin
              let lv = t.level.(buf.(i) lsr 1) in
              if lv > !l1 then begin
                l2 := !l1;
                l1 := lv
              end
              else if lv > !l2 then l2 := lv
            end
          done;
          cancel_until t ((if !non_false = 1 then !l1 else !l2) - 1)
        end;
        (* Watch two non-falsified literals. *)
        let w = ref 0 in
        let i = ref 0 in
        while !w < 2 && !i < n do
          if lit_value t buf.(!i) <> -1 then begin
            let tmp = buf.(!w) in
            buf.(!w) <- buf.(!i);
            buf.(!i) <- tmp;
            incr w
          end;
          incr i
        done;
        let c = alloc_clause t ~learned:false buf n in
        attach_clause t c;
        t.clauses <- push_cref t.clauses t.n_clauses c;
        t.n_clauses <- t.n_clauses + 1
      end
    end
  end

(* Clauses added under an open scope carry the innermost selector's
   negation as a guard: they only bite while [solve] assumes the selector,
   and [pop]'s permanent unit satisfies them all at once. *)
let add_clause t lits =
  let n = List.length lits + 1 in
  if Array.length t.lits_buf < n then t.lits_buf <- grow_arr t.lits_buf n 0;
  let k = put_guard t in
  let n = List.fold_left (fun i l -> t.lits_buf.(i) <- l; i + 1) k lits in
  add_buffered t n

(* [lits_buf] starts at 16 entries and never shrinks, so the fixed-arity
   entry points (guard included) always fit. *)
let add_clause2 t a b =
  let k = put_guard t in
  t.lits_buf.(k) <- a;
  t.lits_buf.(k + 1) <- b;
  add_buffered t (k + 2)

let add_clause3 t a b c =
  let k = put_guard t in
  t.lits_buf.(k) <- a;
  t.lits_buf.(k + 1) <- b;
  t.lits_buf.(k + 2) <- c;
  add_buffered t (k + 3)

let push t =
  let s = pos (new_var t) in
  t.scope_lits <- grow_arr t.scope_lits (t.n_scopes + 1) 0;
  t.scope_lits.(t.n_scopes) <- s;
  t.n_scopes <- t.n_scopes + 1;
  Scamv_telemetry.Collector.incr "sat.pushes"

let pop t =
  if t.n_scopes = 0 then invalid_arg "Sat.pop: no open scope";
  let s = t.scope_lits.(t.n_scopes - 1) in
  t.n_scopes <- t.n_scopes - 1;
  (* Retire the scope with a permanent (unguarded) unit: every clause
     guarded by [s] is satisfied from here on and stripped by the next
     root-level simplification; learnt clauses mentioning [negate s] stay
     sound because the unit subsumes that literal. *)
  t.lits_buf.(0) <- negate s;
  add_buffered t 1;
  Scamv_telemetry.Collector.incr "sat.pops"

let num_scopes t = t.n_scopes

(* ---- conflict analysis (first UIP) ---- *)

let analyze t confl =
  let learnt = ref [] in
  let seen = t.seen in
  let touched = ref [] in
  let counter = ref 0 in
  let p = ref 0 in
  (* 0 encodes "undefined" before the first iteration *)
  let idx = ref (t.trail_size - 1) in
  let btlevel = ref 0 in
  let confl = ref confl in
  let first = ref true in
  let continue_loop = ref true in
  while !continue_loop do
    if !confl <> cr_null then begin
      let c = !confl in
      (* Recency counts as clause activity: bump every learned clause that
         participates in an analysis, so reduction keeps the useful ones. *)
      if cl_learned t c then cl_set_act t c (cl_act t c + 1);
      let base = cl_base t c in
      let size = cl_size t c in
      let start = if !first then 0 else 1 in
      for i = start to size - 1 do
        let q = t.ca.(base + i) in
        let v = var_of q in
        if (not seen.(v)) && t.level.(v) > 0 then begin
          seen.(v) <- true;
          touched := v :: !touched;
          var_bump t v;
          if t.level.(v) >= decision_level t then incr counter
          else begin
            learnt := q :: !learnt;
            if t.level.(v) > !btlevel then btlevel := t.level.(v)
          end
        end
      done
    end;
    first := false;
    (* Select next literal to look at (walk trail backwards). *)
    let rec next_seen i = if seen.(var_of t.trail.(i)) then i else next_seen (i - 1) in
    idx := next_seen !idx;
    p := t.trail.(!idx);
    let v = var_of !p in
    confl := t.reason.(v);
    seen.(v) <- false;
    idx := !idx - 1;
    decr counter;
    if !counter = 0 then continue_loop := false
  done;
  List.iter (fun v -> seen.(v) <- false) !touched;
  (negate !p :: !learnt, !btlevel)

(* Literal-blocks-distance: number of distinct decision levels among the
   literals of a learnt clause (Audemard & Simon).  Low-LBD ("glue")
   clauses are the ones clause-DB reduction must keep. *)
let compute_lbd t lits =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let lbd = ref 0 in
  Array.iter
    (fun l ->
      let lvl = t.level.(var_of l) in
      if lvl > 0 && t.level_stamp.(lvl) <> stamp then begin
        t.level_stamp.(lvl) <- stamp;
        incr lbd
      end)
    lits;
  !lbd

(* ---- clause DB reduction ---- *)

let locked t c =
  let l0 = t.ca.(cl_base t c) in
  lit_value t l0 = 1 && t.reason.(var_of l0) = c

(* Keep glue clauses (LBD <= 2) and locked clauses; of the rest, delete
   the worse half — higher LBD first, then lower activity, then older. *)
let reduce_db t =
  let cands = ref [] in
  let kept = ref [] in
  for i = t.n_learnts - 1 downto 0 do
    let c = t.learnts.(i) in
    if not (cl_deleted t c) then
      if cl_lbd t c <= 2 || locked t c then kept := c :: !kept
      else cands := c :: !cands
  done;
  let cands =
    List.sort
      (fun a b ->
        let la = cl_lbd t a and lb = cl_lbd t b in
        if la <> lb then compare la lb
        else
          let aa = cl_act t a and ab = cl_act t b in
          if aa <> ab then compare ab aa else compare b a)
      !cands
  in
  let n_keep = (List.length cands + 1) / 2 in
  let survivors = ref (List.rev !kept) in
  List.iteri
    (fun i c ->
      if i < n_keep then survivors := c :: !survivors
      else begin
        cl_delete t c;
        t.deleted_total <- t.deleted_total + 1
      end)
    cands;
  (* Rebuild the learnt vector (order is irrelevant for search; keep it
     deterministic) and decay activities so recency keeps mattering. *)
  t.n_learnts <- 0;
  List.iter
    (fun c ->
      cl_set_act t c (cl_act t c / 2);
      t.learnts <- push_cref t.learnts t.n_learnts c;
      t.n_learnts <- t.n_learnts + 1)
    (List.rev !survivors)

(* ---- root-level simplification ---- *)

(* At decision level 0, once the root trail has grown since the last call
   (blocking clauses and learnt units accumulate between enumeration
   solves): delete clauses satisfied at level 0, strip false literals from
   the rest, and rebuild the watch lists.  Precondition: decision level 0
   and propagation complete without conflict. *)
let simplify t =
  let new_units = ref [] in
  (* Root assignments are permanent; their reasons are never dereferenced
     (analysis stops at level 0), so drop the crefs before deleting the
     clauses they might point at. *)
  for i = 0 to t.trail_size - 1 do
    t.reason.(var_of t.trail.(i)) <- cr_null
  done;
  let sweep_vec arr n =
    for i = 0 to n - 1 do
      let c = arr.(i) in
      if not (cl_deleted t c) then begin
        let base = cl_base t c in
        let size = cl_size t c in
        let satisfied = ref false in
        let k = ref 0 in
        while (not !satisfied) && !k < size do
          if lit_value t t.ca.(base + !k) = 1 then satisfied := true;
          incr k
        done;
        if !satisfied then begin
          cl_delete t c;
          t.deleted_total <- t.deleted_total + 1
        end
        else begin
          (* Strip false literals in place. *)
          let j = ref 0 in
          for k = 0 to size - 1 do
            let l = t.ca.(base + k) in
            if lit_value t l = 0 then begin
              t.ca.(base + !j) <- l;
              incr j
            end
          done;
          if !j < size then begin
            cl_set_size t c !j;
            if !j = 1 then begin
              new_units := t.ca.(base) :: !new_units;
              cl_delete t c;
              t.deleted_total <- t.deleted_total + 1
            end
            else if !j = 0 then t.unsat <- true
          end
        end
      end
    done
  in
  sweep_vec t.clauses t.n_clauses;
  sweep_vec t.learnts t.n_learnts;
  (* Compact the clause vectors. *)
  let compact arr n =
    let j = ref 0 in
    for i = 0 to n - 1 do
      if not (cl_deleted t arr.(i)) then begin
        arr.(!j) <- arr.(i);
        incr j
      end
    done;
    !j
  in
  t.n_clauses <- compact t.clauses t.n_clauses;
  t.n_learnts <- compact t.learnts t.n_learnts;
  (* Rebuild every watch list from the surviving clauses. *)
  Array.fill t.w_size 0 (Array.length t.w_size) 0;
  for i = 0 to t.n_clauses - 1 do
    attach_clause t t.clauses.(i)
  done;
  for i = 0 to t.n_learnts - 1 do
    attach_clause t t.learnts.(i)
  done;
  (* Enqueue literals of clauses that shrank to units, then settle. *)
  List.iter
    (fun l ->
      match lit_value t l with
      | 0 -> enqueue t l cr_null
      | -1 -> t.unsat <- true
      | _ -> ())
    !new_units;
  if (not t.unsat) && propagate t <> cr_null then t.unsat <- true;
  t.simp_trail <- t.trail_size

(* ---- search ---- *)

(* Branching rule: highest activity first, ties broken by lowest variable
   id.  The heap holds exactly the positive-activity variables (a small
   minority: nudged input bits plus conflict-bumped variables), so any
   unassigned heap variable outranks every zero-activity one.  The
   zero-activity majority — Tseitin internals, in circuit topological
   order by construction — is served by [next_zero], an ascending-id
   cursor that only [cancel_until] moves back, and never further than the
   lowest zero-activity variable it frees.  This keeps a decision O(1)
   amortised instead of heap pops through thousands of
   propagation-assigned variables, which dominated solve time in the
   enumeration workload.  Every step below is a top-level function over
   solver state, so a decision allocates nothing (only the occasional
   random-branch draw allocates its RNG result). *)
let random_pick t =
  if t.heap_size = 0 then -1
  else begin
    let i, rng = Scamv_util.Splitmix.int t.rng t.heap_size in
    t.rng <- rng;
    let v = t.heap.(i) in
    if t.assign.(v) = 0 then v else -1
  end

(* Geometric random-branch schedule: -1 on a deterministic decision. *)
let random_branch t =
  if t.random_branch_freq > 0.0 then
    if t.rnd_countdown > 0 then begin
      t.rnd_countdown <- t.rnd_countdown - 1;
      -1
    end
    else begin
      (* Sample the gap to the next random branch geometrically: one
         RNG draw covers ~1/freq deterministic decisions. *)
      let u, rng = Scamv_util.Splitmix.float t.rng in
      t.rng <- rng;
      let gap =
        int_of_float (log (max u 1e-12) /. log (1.0 -. t.random_branch_freq))
      in
      t.rnd_countdown <- gap;
      random_pick t
    end
  else -1

let rec pop_unassigned t =
  if t.heap_size = 0 then -1
  else begin
    let v = heap_pop t in
    if t.assign.(v) = 0 then v else pop_unassigned t
  end

let rec scan_zero t z =
  if z > t.nvars then begin
    t.next_zero <- z;
    -1
  end
  else if t.assign.(z) = 0 && t.activity.(z) = 0.0 then begin
    t.next_zero <- z + 1;
    z
  end
  else scan_zero t (z + 1)

let pick_branch_var t =
  let v = random_branch t in
  if v > 0 then v
  else begin
    let v = pop_unassigned t in
    if v > 0 then v else scan_zero t t.next_zero
  end

(* Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let rec order k = if (1 lsl k) - 1 >= i then k else order (k + 1) in
  let k = order 1 in
  if i = (1 lsl k) - 1 then 1 lsl (k - 1) else luby (i - (1 lsl (k - 1)) + 1)

let push_level t =
  t.trail_lim.(t.trail_lim_size) <- t.trail_size;
  t.trail_lim_size <- t.trail_lim_size + 1

type outcome = Sat | Unsat | Unknown

let solve ?(assumptions = [||]) ?n_assumptions ?max_conflicts t =
  let n_assumptions =
    match n_assumptions with
    | None -> Array.length assumptions
    | Some n -> min n (Array.length assumptions)
  in
  if t.unsat then Unsat
  else begin
    (* Telemetry is flushed once per query as counter deltas — never from
       the inner search loop — so instrumentation stays off the hot path
       and is a no-op when no collector is installed. *)
    let c0 = t.conflicts
    and d0 = t.decisions
    and p0 = t.propagations
    and r0 = t.restarts
    and learned0 = t.learned_total
    and deleted0 = t.deleted_total in
    let finish ?(interrupted = false) outcome =
      let dc = t.conflicts - c0 in
      Scamv_telemetry.Collector.add "sat.conflicts" dc;
      Scamv_telemetry.Collector.add "sat.decisions" (t.decisions - d0);
      Scamv_telemetry.Collector.add "sat.propagations" (t.propagations - p0);
      Scamv_telemetry.Collector.add "sat.restarts" (t.restarts - r0);
      Scamv_telemetry.Collector.add "sat.learned" (t.learned_total - learned0);
      Scamv_telemetry.Collector.add "sat.deleted" (t.deleted_total - deleted0);
      Scamv_telemetry.Collector.incr "sat.queries";
      (if interrupted then
         Scamv_telemetry.Collector.incr "sat.deadline_interrupts"
       else if outcome = Unknown then
         Scamv_telemetry.Collector.incr "sat.budget_exhausted");
      Scamv_telemetry.Collector.observe "sat.conflicts_per_query"
        (float_of_int dc);
      (* LBD histogram of the clauses learned by this query. *)
      for b = 0 to lbd_buckets - 1 do
        let d = t.lbd_hist.(b) - t.lbd_flushed.(b) in
        if d > 0 then begin
          Scamv_telemetry.Collector.observe_n "sat.lbd" (float_of_int b) d;
          t.lbd_flushed.(b) <- t.lbd_hist.(b)
        end
      done;
      outcome
    in
    (* The cap is per call: it bounds the conflicts spent by this
       [solve], not the cumulative counter of the solver's life. *)
    let conflict_limit =
      match max_conflicts with None -> max_int | Some n -> t.conflicts + n
    in
    (* Cooperative cancellation: capture the ambient deadline token once
       per query, charge it one unit per conflict, and check it after the
       conflict cap at the loop head.  Expiry exits the search like an
       out-of-budget stop (trail rewound, telemetry flushed) and then
       raises, so the solver object stays reusable. *)
    let deadline = Scamv_util.Deadline.current () in
    let deadline_hit = ref false in
    let deadline_expired () =
      match deadline with
      | None -> false
      | Some d -> Scamv_util.Deadline.expired d
    in
    (* Effective assumption sequence: open scope selectors (push order)
       then the caller's assumptions, materialized into solver-owned
       scratch so repeated queries allocate nothing. *)
    let total = t.n_scopes + n_assumptions in
    t.eff <- grow_arr t.eff total 0;
    Array.blit t.scope_lits 0 t.eff 0 t.n_scopes;
    Array.blit assumptions 0 t.eff t.n_scopes n_assumptions;
    if total > 0 then Scamv_telemetry.Collector.incr "sat.assumption_solves";
    (* Assumption-trail reuse: the previous query left one decision level
       per assumption (levels 0..n_prev-1, empty when already implied),
       fully propagated.  Keep the longest prefix that this query assumes
       again and rewind only past it — consecutive minimizer pin queries
       differ in their last assumption only, so re-propagation becomes
       O(1) instead of O(pins).  Any [add_clause] in between rewinds
       itself just far enough for its watch invariant, which bounds
       [keep] soundly via [decision_level].  When every assumption of
       this query was already decided in the kept prefix, the deeper
       levels — search decisions of the previous query, or stale
       assumptions it no longer makes — are kept too: they act as plain
       decisions that conflict analysis pops on demand, so enumeration
       resumes next to the model it just blocked instead of re-descending
       from the root. *)
    let keep =
      let lim = min (min (decision_level t) total) t.n_prev in
      let k = ref 0 in
      while !k < lim && t.prev_assum.(!k) = t.eff.(!k) do
        incr k
      done;
      if !k = total then decision_level t else !k
    in
    cancel_until t keep;
    t.prev_assum <- grow_arr t.prev_assum total 0;
    Array.blit t.eff 0 t.prev_assum 0 total;
    t.n_prev <- total;
    (* Decision order state needs no per-query rewind:
       positive-activity variables stay on the heap across queries, and
       the zero-activity cursor keeps its invariant (every unassigned
       zero-activity variable has id >= [next_zero]) across queries
       because [new_var] only appends ids and [cancel_until] — the only
       place a variable becomes unassigned, including the rewind just
       above — pulls the cursor back to every zero-activity variable it
       frees. *)
    (* Root propagation and simplification only apply from a clean trail;
       with a kept assumption prefix the trail is already settled (nothing
       was added since, or [keep] would be 0) and the search loop handles
       any conflict at its own level. *)
    if decision_level t = 0 && propagate t <> cr_null then begin
      t.unsat <- true;
      finish Unsat
    end
    else begin
      (* Between enumeration solves the root trail only grows (blocking
         clauses, learnt units): strip the clause DB against it once. *)
      if decision_level t = 0 && t.trail_size > t.simp_trail + simplify_threshold
      then simplify t;
      if t.unsat then finish Unsat
      else begin
        let restart_num = ref 0 in
        let result = ref None in
        while !result = None do
          incr restart_num;
          let restart_budget = t.restart_base * luby !restart_num in
          let local_conflicts = ref 0 in
          let restart = ref false in
          while !result = None && not !restart do
            if t.conflicts > conflict_limit then result := Some Unknown
            else if deadline_expired () then begin
              deadline_hit := true;
              result := Some Unknown
            end
            else begin
              let confl = propagate t in
              if confl <> cr_null then begin
                t.conflicts <- t.conflicts + 1;
                (match deadline with
                | Some d -> Scamv_util.Deadline.tick d 1
                | None -> ());
                incr local_conflicts;
                if decision_level t = 0 then begin
                  t.unsat <- true;
                  result := Some Unsat
                end
                else begin
                  let learnt, btlevel = analyze t confl in
                  cancel_until t btlevel;
                  (match learnt with
                  | [] -> t.unsat <- true
                  | [ l ] -> enqueue t l cr_null
                  | l :: _ ->
                    let lits = Array.of_list learnt in
                    (* Watch the asserting literal and a literal from the
                       backtrack level, so the watches are the last
                       literals to be unassigned on further backtracks. *)
                    let best = ref 1 in
                    for k = 2 to Array.length lits - 1 do
                      if t.level.(var_of lits.(k)) > t.level.(var_of lits.(!best))
                      then best := k
                    done;
                    let tmp = lits.(1) in
                    lits.(1) <- lits.(!best);
                    lits.(!best) <- tmp;
                    let lbd = compute_lbd t lits in
                    let c = alloc_clause t ~learned:true lits (Array.length lits) in
                    cl_set_lbd t c lbd;
                    attach_clause t c;
                    t.learnts <- push_cref t.learnts t.n_learnts c;
                    t.n_learnts <- t.n_learnts + 1;
                    t.learned_total <- t.learned_total + 1;
                    t.lbd_hist.(min lbd (lbd_buckets - 1)) <-
                      t.lbd_hist.(min lbd (lbd_buckets - 1)) + 1;
                    enqueue t l c);
                  var_decay t;
                  if !local_conflicts >= restart_budget then restart := true
                end
              end
              else if decision_level t < total then begin
                (* Assert the next assumption as a decision.  A falsified
                   assumption means unsatisfiable *under these assumptions*
                   only; the clause set itself stays usable. *)
                let a = t.eff.(decision_level t) in
                match lit_value t a with
                | -1 -> result := Some Unsat
                | 1 -> push_level t (* already implied: empty level *)
                | _ ->
                  push_level t;
                  enqueue t a cr_null
              end
              else begin
                let v = pick_branch_var t in
                if v < 0 then result := Some Sat
                else begin
                  t.decisions <- t.decisions + 1;
                  push_level t;
                  let l = if t.phase.(v) then pos v else neg_of_var v in
                  enqueue t l cr_null
                end
              end
            end
          done;
          if !restart then begin
            t.restarts <- t.restarts + 1;
            cancel_until t 0;
            (* Periodic clause-DB reduction, scheduled on conflicts and
               applied at restart boundaries (trail is clean). *)
            if t.conflicts >= t.next_reduce then begin
              reduce_db t;
              t.reduce_count <- t.reduce_count + 1;
              t.next_reduce <- t.conflicts + 2000 + (300 * t.reduce_count)
            end
          end
        done;
        (* An out-of-budget stop leaves a partial trail; rewind it so the
           solver is immediately reusable (e.g. with a larger budget). *)
        if !result = Some Unknown then cancel_until t 0;
        if !deadline_hit then begin
          ignore (finish ~interrupted:true Unknown : outcome);
          match deadline with
          | Some d -> raise (Scamv_util.Deadline.Expired (Scamv_util.Deadline.describe d))
          | None -> assert false
        end
        else finish (Option.get !result)
      end
    end
  end

let nudge_activity t v amount =
  t.activity.(v) <- t.activity.(v) +. amount;
  (* The variable just became positive-activity: it now belongs on the
     heap (the zero-activity cursor will skip it from here on); an
     assigned one enters it when [cancel_until] frees it. *)
  if t.heap_pos.(v) >= 0 then heap_update t v
  else if t.assign.(v) = 0 then heap_insert t v

let reset_phases t = Array.fill t.phase 0 (Array.length t.phase) t.default_phase

let randomize_phases t seed =
  let rng = ref (Scamv_util.Splitmix.of_seed seed) in
  for v = 1 to t.nvars do
    let b, r = Scamv_util.Splitmix.bool !rng in
    rng := r;
    t.phase.(v) <- b
  done
