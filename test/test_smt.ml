module T = Scamv_smt.Term
module Sort = Scamv_smt.Sort
module Sat = Scamv_smt.Sat
module Solver = Scamv_smt.Solver
module Model = Scamv_smt.Model
module Eval = Scamv_smt.Eval
module Blaster = Scamv_smt.Blaster

(* ------------------------------------------------------------------ *)
(* Term construction and folding                                       *)
(* ------------------------------------------------------------------ *)

let term = Alcotest.testable (fun ppf t -> T.pp ppf t) T.equal

let test_const_folding_arith () =
  Alcotest.check term "add" (T.bv_const 5L 8) (T.add (T.bv_const 2L 8) (T.bv_const 3L 8));
  Alcotest.check term "overflow wraps" (T.bv_const 0L 8)
    (T.add (T.bv_const 255L 8) (T.bv_const 1L 8));
  Alcotest.check term "sub" (T.bv_const 255L 8) (T.sub (T.bv_const 1L 8) (T.bv_const 2L 8));
  Alcotest.check term "mul" (T.bv_const 6L 8) (T.mul (T.bv_const 2L 8) (T.bv_const 3L 8))

let test_const_folding_compare () =
  Alcotest.check term "ult true" T.tt (T.ult (T.bv_const 1L 8) (T.bv_const 2L 8));
  Alcotest.check term "ult false" T.ff (T.ult (T.bv_const 2L 8) (T.bv_const 1L 8));
  Alcotest.check term "slt wraps" T.tt (T.slt (T.bv_const 0x80L 8) (T.bv_const 0L 8));
  Alcotest.check term "eq refl on vars" T.tt (T.eq (T.bv_var "x" 8) (T.bv_var "x" 8));
  Alcotest.check term "ule refl on vars" T.tt (T.ule (T.bv_var "x" 8) (T.bv_var "x" 8));
  Alcotest.check term "ult irrefl on vars" T.ff (T.ult (T.bv_var "x" 8) (T.bv_var "x" 8))

let test_bool_simplifications () =
  let x = T.bool_var "p" in
  Alcotest.check term "and true" x (T.and_ T.tt x);
  Alcotest.check term "and false" T.ff (T.and_ x T.ff);
  Alcotest.check term "or true" T.tt (T.or_ x T.tt);
  Alcotest.check term "not not" x (T.not_ (T.not_ x));
  Alcotest.check term "implies false" T.tt (T.implies T.ff x);
  Alcotest.check term "implies to self" T.tt (T.implies x x)

let test_unit_laws () =
  let x = T.bv_var "x" 16 in
  Alcotest.check term "x + 0" x (T.add x (T.bv_zero 16));
  Alcotest.check term "0 + x" x (T.add (T.bv_zero 16) x);
  Alcotest.check term "x - 0" x (T.sub x (T.bv_zero 16));
  Alcotest.check term "x * 1" x (T.mul x (T.bv_one 16));
  Alcotest.check term "x * 0" (T.bv_zero 16) (T.mul x (T.bv_zero 16));
  Alcotest.check term "x & 0" (T.bv_zero 16) (T.logand x (T.bv_zero 16));
  Alcotest.check term "x & ones" x (T.logand x (T.bv_const (-1L) 16))

let test_extract_concat () =
  Alcotest.check term "extract of const" (T.bv_const 0x3L 4)
    (T.extract ~hi:7 ~lo:4 (T.bv_const 0x34L 8));
  Alcotest.check term "full extract is id" (T.bv_var "x" 8)
    (T.extract ~hi:7 ~lo:0 (T.bv_var "x" 8));
  Alcotest.check term "concat consts" (T.bv_const 0xABCDL 16)
    (T.concat (T.bv_const 0xABL 8) (T.bv_const 0xCDL 8));
  (match T.extract ~hi:3 ~lo:2 (T.extract ~hi:7 ~lo:4 (T.bv_var "x" 16)) with
  | T.Extract (7, 6, T.Var ("x", _)) -> ()
  | t -> Alcotest.failf "nested extract not fused: %s" (T.to_string t))

let test_sort_errors () =
  let raises f = try ignore (f ()); false with T.Sort_error _ -> true in
  Alcotest.(check bool) "width mismatch add" true
    (raises (fun () -> T.add (T.bv_var "x" 8) (T.bv_var "y" 16)));
  Alcotest.(check bool) "bool in arith" true
    (raises (fun () -> T.add (T.bool_var "p") (T.bool_var "q")));
  Alcotest.(check bool) "mem equality rejected" true
    (raises (fun () -> T.eq (T.mem_var "m") (T.mem_var "m")));
  Alcotest.(check bool) "bad extract" true
    (raises (fun () -> T.extract ~hi:8 ~lo:0 (T.bv_var "x" 8)));
  Alcotest.(check bool) "bad width" true (raises (fun () -> T.bv_var "x" 65))

let test_select_over_store () =
  let m = T.mem_var "m" in
  let a = T.bv_var "a" 64 and v = T.bv_var "v" 64 in
  Alcotest.check term "read own write" v (T.select (T.store m a v) a);
  let b = T.bv_var "b" 64 in
  (match T.select (T.store m a v) b with
  | T.Ite (_, _, _) -> ()
  | t -> Alcotest.failf "expected ite, got %s" (T.to_string t));
  Alcotest.check term "read around distinct const write"
    (T.select m (T.bv_const 8L 64))
    (T.select (T.store m (T.bv_const 0L 64) v) (T.bv_const 8L 64))

let test_rename_and_free_vars () =
  let t = T.and_ (T.eq (T.bv_var "x" 8) (T.bv_var "y" 8)) (T.bool_var "p") in
  let t' = T.rename (fun s -> s ^ "_1") t in
  let names = List.map fst (T.free_vars t') in
  Alcotest.(check (list string)) "renamed vars" [ "p_1"; "x_1"; "y_1" ]
    (List.sort compare names)

let test_ite_folding () =
  let a = T.bv_var "a" 8 and b = T.bv_var "b" 8 in
  Alcotest.check term "ite true" a (T.ite T.tt a b);
  Alcotest.check term "ite false" b (T.ite T.ff a b);
  Alcotest.check term "ite same" a (T.ite (T.bool_var "c") a a)

(* ------------------------------------------------------------------ *)
(* SAT solver                                                          *)
(* ------------------------------------------------------------------ *)

let test_sat_trivial () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  Sat.add_clause s [ Sat.pos v ];
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "v true" true (Sat.value s v)

let test_sat_unsat_unit_conflict () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  Sat.add_clause s [ Sat.pos v ];
  Sat.add_clause s [ Sat.neg_of_var v ];
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_empty_clause () =
  let s = Sat.create () in
  ignore (Sat.new_var s);
  Sat.add_clause s [];
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_implication_chain () =
  let s = Sat.create () in
  let vars = Array.init 50 (fun _ -> Sat.new_var s) in
  for i = 0 to 48 do
    Sat.add_clause s [ Sat.neg_of_var vars.(i); Sat.pos vars.(i + 1) ]
  done;
  Sat.add_clause s [ Sat.pos vars.(0) ];
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "last implied" true (Sat.value s vars.(49))

let test_sat_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: unsat. p_{i,h} = pigeon i in hole h. *)
  let s = Sat.create () in
  let p = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Sat.new_var s)) in
  for i = 0 to 2 do
    Sat.add_clause s [ Sat.pos p.(i).(0); Sat.pos p.(i).(1) ]
  done;
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Sat.add_clause s [ Sat.neg_of_var p.(i).(h); Sat.neg_of_var p.(j).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_pigeonhole_4_3 () =
  let s = Sat.create () in
  let n = 4 and holes = 3 in
  let p = Array.init n (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for i = 0 to n - 1 do
    Sat.add_clause s (Array.to_list (Array.map Sat.pos p.(i)))
  done;
  for h = 0 to holes - 1 do
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        Sat.add_clause s [ Sat.neg_of_var p.(i).(h); Sat.neg_of_var p.(j).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_incremental_blocking () =
  (* 2 free variables: exactly 4 assignments; block each in turn. *)
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a; Sat.neg_of_var a ] (* tautology keeps vars alive *);
  let count = ref 0 in
  let rec loop () =
    if Sat.solve s = Sat.Sat then begin
      incr count;
      let lit v = if Sat.value s v then Sat.neg_of_var v else Sat.pos v in
      Sat.add_clause s [ lit a; lit b ];
      if !count < 10 then loop ()
    end
  in
  loop ();
  Alcotest.(check Alcotest.int) "four models" 4 !count

let test_sat_conflict_cap_unknown () =
  (* Pigeonhole 6/5 takes well over one conflict; a one-conflict budget
     must come back Unknown, and an unbounded re-solve of the same solver
     must still decide Unsat (the learnt clauses survive the cutoff). *)
  let s = Sat.create () in
  let n = 6 and holes = 5 in
  let p = Array.init n (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for i = 0 to n - 1 do
    Sat.add_clause s (Array.to_list (Array.map Sat.pos p.(i)))
  done;
  for h = 0 to holes - 1 do
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        Sat.add_clause s [ Sat.neg_of_var p.(i).(h); Sat.neg_of_var p.(j).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "unknown under tight budget" true
    (Sat.solve ~max_conflicts:1 s = Sat.Unknown);
  Alcotest.(check bool) "still decidable afterwards" true (Sat.solve s = Sat.Unsat)

let test_sat_generous_cap_is_exact () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  Sat.add_clause s [ Sat.pos v ];
  Alcotest.(check bool) "sat within budget" true
    (Sat.solve ~max_conflicts:1000 s = Sat.Sat)

let test_solver_budget_exceeded_surfaces () =
  (* A multiplication relation is hard for the bit-blasted CDCL core; a
     one-conflict session budget must surface Budget_exceeded rather than
     hang or crash. *)
  let x = T.bv_var "x" 32 and y = T.bv_var "y" 32 in
  let f = T.eq (T.mul x y) (T.bv_const 0x12345677L 32) in
  let s =
    Solver.make_session ~max_conflicts:1 [ f; T.ugt x (T.bv_one 32) ]
  in
  match Solver.next_model s with
  | Solver.Budget_exceeded -> ()
  | Solver.Model _ -> Alcotest.fail "expected the budget to bite"
  | Solver.Exhausted -> Alcotest.fail "expected Budget_exceeded, got Exhausted"

(* Random 3-CNF cross-checked against brute force. *)
let brute_force_sat nvars clauses =
  let rec go assignment v =
    if v > nvars then
      List.for_all
        (List.exists (fun l ->
             let value = assignment.(Sat.var_of l) in
             if Sat.is_pos l then value else not value))
        clauses
    else begin
      assignment.(v) <- false;
      go assignment (v + 1)
      ||
      (assignment.(v) <- true;
       go assignment (v + 1))
    end
  in
  go (Array.make (nvars + 1) false) 1

let prop_sat_matches_brute_force =
  QCheck.Test.make ~name:"CDCL agrees with brute force on random 3-CNF" ~count:300
    QCheck.(pair (int_bound 1000000) (int_range 8 30))
    (fun (seed, nclauses) ->
      let module Sm = Scamv_util.Splitmix in
      let rng = ref (Sm.of_seed (Int64.of_int seed)) in
      let nvars = 8 in
      let s = Sat.create () in
      let vars = Array.init nvars (fun _ -> Sat.new_var s) in
      let clauses = ref [] in
      for _ = 1 to nclauses do
        let clause =
          List.init 3 (fun _ ->
              let v, r = Sm.int !rng nvars in
              rng := r;
              let negated, r = Sm.bool !rng in
              rng := r;
              if negated then Sat.neg_of_var vars.(v) else Sat.pos vars.(v))
        in
        clauses := clause :: !clauses
      done;
      List.iter (Sat.add_clause s) !clauses;
      let expected = brute_force_sat nvars !clauses in
      let got = Sat.solve s = Sat.Sat in
      (* If SAT, the reported assignment must satisfy all clauses. *)
      let model_ok =
        (not got)
        || List.for_all
             (List.exists (fun l ->
                  let value = Sat.value s (Sat.var_of l) in
                  if Sat.is_pos l then value else not value))
             !clauses
      in
      Bool.equal expected got && model_ok)

let prop_sat_matches_brute_force_wide =
  (* Same cross-check with up to 12 variables and mixed clause widths
     (1..4 literals): unit clauses exercise root-level simplification and
     binary clauses the blocker fast path, which fixed-width 3-CNF never
     hits at the root. *)
  QCheck.Test.make ~name:"CDCL agrees with brute force on mixed-width CNF"
    ~count:200
    QCheck.(triple (int_bound 1000000) (int_range 2 12) (int_range 4 40))
    (fun (seed, nvars, nclauses) ->
      let module Sm = Scamv_util.Splitmix in
      let rng = ref (Sm.of_seed (Int64.of_int seed)) in
      let next n =
        let v, r = Sm.int !rng n in
        rng := r;
        v
      in
      let s = Sat.create () in
      let vars = Array.init nvars (fun _ -> Sat.new_var s) in
      let clauses = ref [] in
      for _ = 1 to nclauses do
        let width = 1 + next 4 in
        let clause =
          List.init width (fun _ ->
              let v = next nvars in
              if next 2 = 1 then Sat.neg_of_var vars.(v) else Sat.pos vars.(v))
        in
        clauses := clause :: !clauses
      done;
      List.iter (Sat.add_clause s) !clauses;
      let expected = brute_force_sat nvars !clauses in
      let got = Sat.solve s = Sat.Sat in
      let model_ok =
        (not got)
        || List.for_all
             (List.exists (fun l ->
                  let value = Sat.value s (Sat.var_of l) in
                  if Sat.is_pos l then value else not value))
             !clauses
      in
      Bool.equal expected got && model_ok)

(* Push/pop scopes: enumerating every model of a random CNF inside a
   pushed scope — clauses and blocking clauses alike retracted by the
   matching pop — must find exactly the brute-force model set, and a
   second push/re-assert/enumerate round over the same solver (now
   carrying learnt clauses, activities and saved phases from round one)
   must find it again.  This is the soundness contract behind reusing one
   live SAT state across an enumeration session's whole life. *)
let prop_push_pop_matches_brute_force =
  QCheck.Test.make
    ~name:"push/pop enumeration matches brute force on mixed-width CNF"
    ~count:60
    QCheck.(triple (int_bound 1000000) (int_range 2 8) (int_range 4 30))
    (fun (seed, nvars, nclauses) ->
      let module Sm = Scamv_util.Splitmix in
      let rng = ref (Sm.of_seed (Int64.of_int seed)) in
      let next n =
        let v, r = Sm.int !rng n in
        rng := r;
        v
      in
      let s = Sat.create () in
      let vars = Array.init nvars (fun _ -> Sat.new_var s) in
      let gen_clause () =
        List.init
          (1 + next 4)
          (fun _ ->
            let v = next nvars in
            if next 2 = 1 then Sat.neg_of_var vars.(v) else Sat.pos vars.(v))
      in
      let base = List.init (nclauses / 2) (fun _ -> gen_clause ()) in
      let scoped =
        List.init (nclauses - (nclauses / 2)) (fun _ -> gen_clause ())
      in
      (* Brute-force reference: the satisfying assignments of the whole
         CNF, as bit strings over the session variables. *)
      let expected = ref [] in
      for bits = 0 to (1 lsl nvars) - 1 do
        let value v = bits land (1 lsl (v - 1)) <> 0 in
        let sat_clause =
          List.exists (fun l ->
              if Sat.is_pos l then value (Sat.var_of l)
              else not (value (Sat.var_of l)))
        in
        if List.for_all sat_clause (base @ scoped) then
          expected :=
            String.init nvars (fun i ->
                if value vars.(i) then '1' else '0')
            :: !expected
      done;
      let expected = List.sort compare !expected in
      List.iter (Sat.add_clause s) base;
      let enumerate_scoped () =
        Sat.push s;
        List.iter (Sat.add_clause s) scoped;
        let found = ref [] in
        let overrun = ref false in
        let continue = ref true in
        while !continue do
          if List.length !found > 1 lsl nvars then begin
            overrun := true;
            continue := false
          end
          else
            match Sat.solve s with
            | Sat.Sat ->
              found :=
                String.init nvars (fun i ->
                    if Sat.value s vars.(i) then '1' else '0')
                :: !found;
              Sat.add_clause s
                (Array.to_list
                   (Array.map
                      (fun v ->
                        if Sat.value s v then Sat.neg_of_var v else Sat.pos v)
                      vars))
            | Sat.Unsat -> continue := false
            | Sat.Unknown -> continue := false
        done;
        Sat.pop s;
        if !overrun then None else Some (List.sort compare !found)
      in
      enumerate_scoped () = Some expected
      && enumerate_scoped () = Some expected)

let test_propagation_allocation () =
  (* Regression microbench for the watch-splice fix: re-propagating a long
     implication chain with warm watch vectors must update them in place —
     no per-visited-clause allocation (the old list-based splice allocated
     a cons per clause per visit, and re-splicing was quadratic). *)
  let n = 50_000 in
  let s = Sat.create () in
  let vars = Array.init n (fun _ -> Sat.new_var s) in
  for i = 0 to n - 2 do
    Sat.add_clause s [ Sat.neg_of_var vars.(i); Sat.pos vars.(i + 1) ]
  done;
  let assumptions = [| Sat.pos vars.(0) |] in
  let solve () =
    match Sat.solve ~assumptions ~n_assumptions:1 s with
    | Sat.Sat -> ()
    | Sat.Unsat | Sat.Unknown -> Alcotest.fail "implication chain should be sat"
  in
  solve ();
  (* Second solve re-propagates the whole chain with all arrays sized. *)
  let w0 = Gc.minor_words () in
  solve ();
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words to re-propagate %d clauses (limit %d)"
       delta n n)
    true
    (delta < float_of_int n)

(* Clause intake: the list entry point and the fixed-arity ones share one
   normalization (sort, dedupe, tautology and root-true drop, root-false
   strip, unit path, watch choice), so twin solvers fed the same clauses
   through either must walk the same search.  The fixed-arity ones skip
   the normalization when every literal is unassigned and no two share a
   variable (the fresh-clause path), so the first batch arrives at level
   0 before any unit, where every clause over distinct variables takes
   that path.  Literals come from a variable pool small enough that
   duplicates and complementary pairs are common, unit clauses then fix
   some variables at the root, and the last batch arrives after a solve
   (decision level > 0, possibly inside a scope).  [intake_fresh] counts
   the first batch's fresh clauses over a run of the property. *)
let intake_fresh = ref 0

let prop_clause_intake_twins =
  QCheck.Test.make ~name:"add_clause2/3 match add_clause on twin solvers"
    ~count:300
    QCheck.(triple (int_bound 1000000) (int_range 2 16) (int_range 2 40))
    (fun (seed, nvars, nclauses) ->
      let module Sm = Scamv_util.Splitmix in
      let rng = ref (Sm.of_seed (Int64.of_int seed)) in
      let next n =
        let v, r = Sm.int !rng n in
        rng := r;
        v
      in
      let a = Sat.create () and b = Sat.create () in
      let vars = Array.init nvars (fun _ -> ignore (Sat.new_var b); Sat.new_var a) in
      let lit () =
        let v = vars.(next nvars) in
        if next 2 = 1 then Sat.neg_of_var v else Sat.pos v
      in
      let units = List.init (next 3) (fun _ -> [ lit () ]) in
      let gen () = List.init (2 + next 2) (fun _ -> lit ()) in
      let fresh = List.init (nclauses / 3) (fun _ -> gen ()) in
      let first = List.init (nclauses / 3) (fun _ -> gen ()) in
      let second = List.init (nclauses - (2 * (nclauses / 3))) (fun _ -> gen ()) in
      let distinct_vars c =
        let vs = List.map Sat.var_of c in
        List.length (List.sort_uniq Int.compare vs) = List.length vs
      in
      intake_fresh := !intake_fresh + List.length (List.filter distinct_vars fresh);
      let scoped = next 2 = 1 in
      let add_b = function
        | [ x ] -> Sat.add_clause b [ x ]
        | [ x; y ] -> Sat.add_clause2 b x y
        | [ x; y; z ] -> Sat.add_clause3 b x y z
        | _ -> assert false
      in
      let stats s =
        ( Sat.stats_conflicts s,
          Sat.stats_decisions s,
          Sat.stats_propagations s,
          Array.map (Sat.value s) vars )
      in
      let round clauses =
        List.iter (Sat.add_clause a) clauses;
        List.iter add_b clauses;
        let ra = Sat.solve a and rb = Sat.solve b in
        ra = rb && stats a = stats b
      in
      let twins_agree =
        round fresh
        && round (units @ first)
        && begin
             if scoped then begin
               Sat.push a;
               Sat.push b
             end;
             round second
           end
      in
      let all = fresh @ units @ first @ second in
      let expected = brute_force_sat nvars all in
      twins_agree && Bool.equal expected (Sat.solve a = Sat.Sat))

(* Long clauses (blocking clauses) are sorted in place before
   normalization, so a clause given shuffled and with repeated literals
   must become exactly the clause given sorted and deduplicated.  Twin
   solvers enumerate the models of a random 3-CNF over 17-24 variables,
   blocking each model with a clause over every variable: one solver gets
   each blocking clause sorted, the other shuffled with repeats.  Both
   must walk the same search, through up to 40 models. *)
let prop_long_clause_sort =
  QCheck.Test.make ~name:"long clauses normalize like their sorted form" ~count:100
    QCheck.(triple (int_bound 1000000) (int_range 17 24) (int_range 20 90))
    (fun (seed, nvars, nclauses) ->
      let module Sm = Scamv_util.Splitmix in
      let rng = ref (Sm.of_seed (Int64.of_int seed)) in
      let next n =
        let v, r = Sm.int !rng n in
        rng := r;
        v
      in
      let a = Sat.create ~seed:5L () and b = Sat.create ~seed:5L () in
      let vars = Array.init nvars (fun _ -> ignore (Sat.new_var b); Sat.new_var a) in
      let lit () =
        let v = vars.(next nvars) in
        if next 2 = 1 then Sat.neg_of_var v else Sat.pos v
      in
      for _ = 1 to nclauses do
        let c = List.init 3 (fun _ -> lit ()) in
        Sat.add_clause a c;
        Sat.add_clause b c
      done;
      let stats s =
        ( Sat.stats_conflicts s,
          Sat.stats_decisions s,
          Sat.stats_propagations s,
          Array.map (Sat.value s) vars )
      in
      let rec enumerate k =
        let ra = Sat.solve a and rb = Sat.solve b in
        if ra <> rb || stats a <> stats b then false
        else if ra <> Sat.Sat || k = 40 then true
        else begin
          let block =
            Array.to_list
              (Array.map (fun v -> if Sat.value a v then Sat.neg_of_var v else Sat.pos v) vars)
          in
          let repeated = block @ List.filteri (fun i _ -> i mod 3 = 0) block in
          Sat.add_clause a (List.sort Int.compare block);
          Sat.add_clause b (fst (Sm.shuffle (Sm.of_seed (Int64.of_int (next 1000))) repeated));
          enumerate (k + 1)
        end
      in
      enumerate 0)

let test_clause_intake_twins () =
  intake_fresh := 0;
  QCheck.Test.check_exn ~rand:(QCheck_base_runner.random_state ()) prop_clause_intake_twins;
  Alcotest.(check bool)
    (Printf.sprintf "%d clauses over distinct unassigned variables" !intake_fresh)
    true (!intake_fresh > 0)

let test_intake_allocation () =
  (* Tseitin-shaped 3-literal intake on a warmed solver: every clause is
     normalized in the solver's scratch buffer and copied into the arena,
     so the only allocation left is growth of the arena and index vectors
     (major-heap blocks at this size) — no minor words per clause. *)
  let module Sm = Scamv_util.Splitmix in
  let nvars = 30 and n = 4000 and measured = 400 in
  let s = Sat.create () in
  let vars = Array.init nvars (fun _ -> Sat.new_var s) in
  let rng = ref (Sm.of_seed 11L) in
  let lits =
    Array.init (3 * (n + measured)) (fun _ ->
        let v, r = Sm.int !rng nvars in
        let neg, r = Sm.bool r in
        rng := r;
        if neg then Sat.neg_of_var vars.(v) else Sat.pos vars.(v))
  in
  let add k = Sat.add_clause3 s lits.(3 * k) lits.((3 * k) + 1) lits.((3 * k) + 2) in
  for k = 0 to n - 1 do
    add k
  done;
  let w0 = Gc.minor_words () in
  for k = n to n + measured - 1 do
    add k
  done;
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d three-literal clauses" delta measured)
    true (delta < 16.)

(* Minor and major words allocated by [f ()]. *)
let alloc_words f =
  let mi0, _, ma0 = Gc.counters () in
  f ();
  let mi1, _, ma1 = Gc.counters () in
  (mi1 -. mi0, ma1 -. ma0)

let test_phase_draw_allocation () =
  (* A diversified draw refills every saved phase from the session seed:
     the generator state stays unboxed in the fill loop, so the draw
     allocates nothing per variable. *)
  let s = Sat.create () in
  for _ = 1 to 10_000 do
    ignore (Sat.new_var s)
  done;
  Sat.randomize_phases s 7L;
  let minor, major = alloc_words (fun () -> Sat.randomize_phases s 2021L) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 10000 phases" minor)
    true (minor < 16.);
  Alcotest.(check (float 0.)) "major words" 0. major

let test_long_clause_allocation () =
  (* A blocking-clause-sized clause is sorted in place in the intake
     buffer and copied into the arena by a typed loop, so once the arena,
     the clause index and the two watch vectors have room it allocates
     nothing.  Warm-up: eight clauses over other variables grow the arena
     (1024 words at creation) past what twelve 600-literal clauses need,
     and three copies of the measured clause grow the watch vectors of
     its two smallest literals to room for four watchers. *)
  let s = Sat.create () in
  let vars = Array.init 1200 (fun _ -> Sat.new_var s) in
  let clause off = List.init 600 (fun i -> Sat.neg_of_var vars.(off + ((i * 7) mod 600))) in
  for _ = 1 to 8 do
    Sat.add_clause s (clause 600)
  done;
  let c = clause 0 in
  for _ = 1 to 3 do
    Sat.add_clause s c
  done;
  let minor, major = alloc_words (fun () -> Sat.add_clause s c) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for a 600-literal clause" minor)
    true (minor < 16.);
  Alcotest.(check (float 0.)) "major words" 0. major

let test_growth_allocation () =
  (* Growing a solver from 16 to 100k variables doubles every
     per-variable array 13 times, each doubling one allocation and one
     copy.  A doubling series allocates less than twice its final size:
     2^17 slots for each of the 12 per-variable arrays, 2^18 for the two
     per-literal ones; the bound allows 5% over that for block headers
     and promoted small arrays.  Presizing, or a temporary copy of any
     array at each growth, exceeds it. *)
  let n = 100_000 in
  let _, major =
    alloc_words (fun () ->
        let s = Sat.create () in
        for _ = 1 to n do
          ignore (Sat.new_var s)
        done)
  in
  let bound = 2.1 *. float_of_int ((12 * (1 lsl 17)) + (2 * (1 lsl 18))) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words to grow to %d variables (bound %.0f)" major n bound)
    true (major < bound)

let test_decision_allocation () =
  (* A conflict-free solve allocates nothing per decision: branching
     (heap pops, the zero-activity cursor), assignment and backtracking
     all work on preallocated solver arrays.  Each clause (x2k | x2k+1)
     costs one decision and one propagation; every other decision comes
     off the activity heap, the rest from the zero-activity cursor. *)
  let n = 20_000 in
  let s = Sat.create () in
  let sel = Sat.new_var s in
  let vars = Array.init n (fun _ -> Sat.new_var s) in
  Array.iteri
    (fun i v -> if i mod 4 = 0 then Sat.nudge_activity s v (1e-3 *. float_of_int (i + 1)))
    vars;
  for k = 0 to (n / 2) - 1 do
    Sat.add_clause2 s (Sat.pos vars.(2 * k)) (Sat.pos vars.((2 * k) + 1))
  done;
  (* Alternating the assumption on [sel] rewinds the whole trail, so
     every query re-decides every variable. *)
  let solve l =
    match Sat.solve ~assumptions:[| l |] s with
    | Sat.Sat -> ()
    | Sat.Unsat | Sat.Unknown -> Alcotest.fail "chain should be sat"
  in
  solve (Sat.pos sel);
  solve (Sat.neg_of_var sel);
  let assumptions = [| Sat.pos sel |] in
  let d0 = Sat.stats_decisions s and c0 = Sat.stats_conflicts s in
  let w0 = Gc.minor_words () in
  (match Sat.solve ~assumptions s with
  | Sat.Sat -> ()
  | Sat.Unsat | Sat.Unknown -> Alcotest.fail "chain should be sat");
  let delta = Gc.minor_words () -. w0 in
  let decisions = Sat.stats_decisions s - d0 in
  Alcotest.(check int) "conflict-free" 0 (Sat.stats_conflicts s - c0);
  Alcotest.(check bool)
    (Printf.sprintf "%d decisions" decisions)
    true (decisions >= n / 2);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d decisions" delta decisions)
    true (delta < 256.)

(* Search-identity pins: the exact SAT work totals of two fixed
   workloads.  Any change to the solver's data structures that alters
   one decision, propagation or conflict (heap layout under seeded random
   branching, decision-cursor position, clause literal order and hence
   watch choice) moves these numbers; a change that only makes each step
   cheaper leaves them exactly as they are. *)
let sat_work f =
  let module Collector = Scamv_telemetry.Collector in
  let c = Collector.create () in
  Collector.with_current c f;
  let metrics = (Collector.report c).Collector.metrics in
  List.map
    (fun k -> (k, Scamv_telemetry.Metrics.counter metrics k))
    [ "sat.conflicts"; "sat.decisions"; "sat.propagations"; "sat.queries" ]

let test_search_identity_session () =
  (* Seeded (random branching on) but not diversified (the per-bit
     lexicographic minimizer runs after every draw). *)
  let x = T.bv_var "x" 16 and y = T.bv_var "y" 16 in
  let fs =
    [
      T.eq (T.mul x y) (T.bv_const 0x2f1dL 16);
      T.ult x y;
      T.ugt x (T.bv_const 3L 16);
    ]
  in
  let work =
    sat_work (fun () ->
        let s = Solver.make_session ~seed:2021L fs in
        for _ = 1 to 8 do
          ignore (Solver.next_model s : Solver.model_result)
        done)
  in
  Alcotest.(check (list (pair string int)))
    "seeded session work totals"
    [ ("sat.conflicts", 64); ("sat.decisions", 216); ("sat.propagations", 24666); ("sat.queries", 171) ]
    work

let test_search_identity_pipeline () =
  (* RV64 template C, unguided Mct: the benchmark's SAT-bound workload. *)
  let module Workload = Scamv_service.Workload in
  let isa = Scamv_arch.Isa.Riscv in
  let ok = function Ok v -> v | Error m -> Alcotest.fail m in
  let template = ok (Workload.lookup_template ~isa "C") in
  let setup = ok (Workload.lookup_setup "mct-unguided") in
  let { Scamv_gen.Templates.program; _ }, _ =
    Scamv_gen.Gen.run template (Scamv_util.Splitmix.of_seed 2021L)
  in
  let cfg = Scamv.Pipeline.default_config ~isa setup in
  let work =
    sat_work (fun () ->
        let session = Scamv.Pipeline.prepare ~seed:2021L cfg program in
        for _ = 1 to 12 do
          ignore (Scamv.Pipeline.next_test_case session : Scamv.Pipeline.progress)
        done)
  in
  Alcotest.(check (list (pair string int)))
    "RV64 template C mct-unguided work totals"
    [
      ("sat.conflicts", 124);
      ("sat.decisions", 48645);
      ("sat.propagations", 506921);
      ("sat.queries", 945);
    ]
    work

let test_search_identity_diversified () =
  (* AArch64 template A, Mct vs Mspec: a refined setup, so every model is
     drawn diversified — [Sat.randomize_phases] reseeds the saved phases
     before each draw and no minimizer runs.  The only pin whose search
     depends on the phase draw. *)
  let module Workload = Scamv_service.Workload in
  let isa = Scamv_arch.Isa.Aarch64 in
  let ok = function Ok v -> v | Error m -> Alcotest.fail m in
  let template = ok (Workload.lookup_template ~isa "A") in
  let setup = ok (Workload.lookup_setup "mct-vs-mspec") in
  let { Scamv_gen.Templates.program; _ }, _ =
    Scamv_gen.Gen.run template (Scamv_util.Splitmix.of_seed 2021L)
  in
  let cfg = Scamv.Pipeline.default_config ~isa setup in
  Alcotest.(check bool) "refined setup draws diversified models" true
    cfg.Scamv.Pipeline.diversify;
  let work =
    sat_work (fun () ->
        let session = Scamv.Pipeline.prepare ~seed:2021L cfg program in
        for _ = 1 to 12 do
          ignore (Scamv.Pipeline.next_test_case session : Scamv.Pipeline.progress)
        done)
  in
  Alcotest.(check (list (pair string int)))
    "AArch64 template A mct-vs-mspec work totals"
    [
      ("sat.conflicts", 113);
      ("sat.decisions", 5176);
      ("sat.propagations", 30471);
      ("sat.queries", 23);
    ]
    work

(* ------------------------------------------------------------------ *)
(* Solver end-to-end on terms                                          *)
(* ------------------------------------------------------------------ *)

let solve_sat fs =
  match Solver.solve fs with
  | Solver.Sat m -> m
  | Solver.Unsat -> Alcotest.fail "expected sat"

let solve_unsat fs =
  match Solver.solve fs with
  | Solver.Sat m -> Alcotest.failf "expected unsat, got model:@ %s" (Format.asprintf "%a" Model.pp m)
  | Solver.Unsat -> ()

let test_solver_eq_const () =
  let x = T.bv_var "x" 64 in
  let m = solve_sat [ T.eq x (T.bv_const 0xDEADL 64) ] in
  Alcotest.check Alcotest.int64 "x" 0xDEADL (Model.bv_exn m "x")

let test_solver_add_relation () =
  let x = T.bv_var "x" 16 and y = T.bv_var "y" 16 in
  let m = solve_sat [ T.eq (T.add x y) (T.bv_const 100L 16); T.eq x (T.bv_const 30L 16) ] in
  Alcotest.check Alcotest.int64 "y" 70L (Model.bv_exn m "y")

let test_solver_unsat_arith () =
  let x = T.bv_var "x" 8 in
  solve_unsat [ T.ult x (T.bv_const 4L 8); T.ugt x (T.bv_const 10L 8) ]

let test_solver_signed_vs_unsigned () =
  (* x > 0x7F unsigned but x < 0 signed at width 8: satisfiable. *)
  let x = T.bv_var "x" 8 in
  let m = solve_sat [ T.ugt x (T.bv_const 0x7FL 8); T.slt x (T.bv_zero 8) ] in
  let v = Model.bv_exn m "x" in
  Alcotest.(check bool) "msb set" true (Scamv_util.Bits.bit v 7)

let test_solver_shift () =
  let x = T.bv_var "x" 64 in
  let m = solve_sat [ T.eq (T.shl x (T.bv_const 6L 64)) (T.bv_const 0x1000L 64);
                      T.ult x (T.bv_const 0x100L 64) ] in
  Alcotest.check Alcotest.int64 "x = 0x40" 0x40L (Model.bv_exn m "x")

let test_solver_mul () =
  let x = T.bv_var "x" 16 in
  let m = solve_sat [ T.eq (T.mul x (T.bv_const 3L 16)) (T.bv_const 21L 16);
                      T.ult x (T.bv_const 10L 16) ] in
  Alcotest.check Alcotest.int64 "x = 7" 7L (Model.bv_exn m "x")

let test_solver_memory_basic () =
  let mem = T.mem_var "mem" in
  let a = T.bv_var "a" 64 in
  let m =
    solve_sat
      [ T.eq (T.select mem a) (T.bv_const 55L 64); T.eq a (T.bv_const 0x100L 64) ]
  in
  Alcotest.check Alcotest.int64 "mem[0x100]" 55L (Model.mem_lookup m "mem" 0x100L)

let test_solver_memory_consistency () =
  (* Same address must read the same value: a = b and mem[a] <> mem[b] is unsat. *)
  let mem = T.mem_var "mem" in
  let a = T.bv_var "a" 64 and b = T.bv_var "b" 64 in
  solve_unsat [ T.eq a b; T.neq (T.select mem a) (T.select mem b) ]

let test_solver_memory_distinct_addresses () =
  let mem = T.mem_var "mem" in
  let a = T.bv_var "a" 64 and b = T.bv_var "b" 64 in
  let m =
    solve_sat
      [
        T.neq (T.select mem a) (T.select mem b);
        T.eq a (T.bv_const 0L 64);
        T.eq b (T.bv_const 8L 64);
      ]
  in
  Alcotest.(check bool) "cells differ" true
    (not (Int64.equal (Model.mem_lookup m "mem" 0L) (Model.mem_lookup m "mem" 8L)))

let test_solver_nested_select () =
  (* mem[mem[0]] = 7 with mem[0] = 0x40 pins mem[0x40]. *)
  let mem = T.mem_var "mem" in
  let inner = T.select mem (T.bv_zero 64) in
  let m =
    solve_sat
      [ T.eq inner (T.bv_const 0x40L 64); T.eq (T.select mem inner) (T.bv_const 7L 64) ]
  in
  Alcotest.check Alcotest.int64 "mem[0]" 0x40L (Model.mem_lookup m "mem" 0L);
  Alcotest.check Alcotest.int64 "mem[0x40]" 7L (Model.mem_lookup m "mem" 0x40L)

let test_solver_store () =
  let mem = T.mem_var "mem" in
  let stored = T.store mem (T.bv_const 0x10L 64) (T.bv_const 99L 64) in
  let a = T.bv_var "a" 64 in
  let m =
    solve_sat
      [ T.eq (T.select stored a) (T.bv_const 99L 64); T.neq a (T.bv_const 0x10L 64) ]
  in
  (* The model must make mem[a] = 99 on its own since a <> 0x10. *)
  let av = Model.bv_exn m "a" in
  Alcotest.check Alcotest.int64 "mem[a]" 99L (Model.mem_lookup m "mem" av)

let test_solver_model_satisfies () =
  (* Any model returned must satisfy the formula per the evaluator. *)
  let x = T.bv_var "x" 64 and y = T.bv_var "y" 64 in
  let mem = T.mem_var "mem" in
  let f =
    T.and_l
      [
        T.ult x y;
        T.eq (T.select mem x) y;
        T.neq (T.select mem y) (T.bv_zero 64);
        T.eq (T.logand x (T.bv_const 0x3FL 64)) (T.bv_zero 64);
      ]
  in
  let m = solve_sat [ f ] in
  Alcotest.(check bool) "model satisfies" true (Eval.eval_bool m f)

let test_enumeration_count () =
  (* x : bv2 unconstrained -> exactly 4 models. *)
  let x = T.bv_var "x" 2 in
  let s = Solver.make_session [ T.eq x x ] ~track:[ ("x", Sort.Bv 2) ] in
  let rec drain acc =
    match Solver.next_model s with
    | Solver.Exhausted | Solver.Budget_exceeded -> acc
    | Solver.Model m -> drain (Model.bv_exn m "x" :: acc)
  in
  let models = drain [] in
  Alcotest.(check (list Alcotest.int64)) "all four values" [ 0L; 1L; 2L; 3L ]
    (List.sort compare models)

let test_enumeration_distinct () =
  let x = T.bv_var "x" 8 in
  let s = Solver.make_session [ T.ult x (T.bv_const 100L 8) ] in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 20 do
    match Solver.next_model s with
    | Solver.Exhausted | Solver.Budget_exceeded -> Alcotest.fail "exhausted too early"
    | Solver.Model m ->
      let v = Model.bv_exn m "x" in
      Alcotest.(check bool) "fresh model" false (Hashtbl.mem seen v);
      Hashtbl.add seen v ()
  done

let test_enumeration_diversify_valid () =
  let x = T.bv_var "x" 16 and y = T.bv_var "y" 16 in
  let f = T.eq (T.add x y) (T.bv_const 500L 16) in
  let s = Solver.make_session ~seed:77L [ f ] in
  for _ = 1 to 10 do
    match Solver.next_model ~diversify:true s with
    | Solver.Exhausted | Solver.Budget_exceeded -> Alcotest.fail "exhausted too early"
    | Solver.Model m -> Alcotest.(check bool) "satisfies" true (Eval.eval_bool m f)
  done

(* Determinism: enumeration is a pure function of (formulas, seed). *)
let model_sequence ?graph ~seed ~diversify n assertions =
  let s = Solver.make_session ~seed ?graph assertions in
  List.init n (fun _ ->
      match Solver.next_model ~diversify s with
      | Solver.Model m -> Format.asprintf "%a" Model.pp m
      | Solver.Exhausted -> "<exhausted>"
      | Solver.Budget_exceeded -> "<budget>")

let enumeration_test_formulas () =
  let x = T.bv_var "x" 16 and y = T.bv_var "y" 16 in
  let mem = T.mem_var "mem" in
  [
    T.eq (T.add x y) (T.bv_const 500L 16);
    T.ult x (T.bv_const 400L 16);
    T.neq (T.select mem (T.bv_zero 64)) (T.bv_zero 64);
  ]

let test_enumeration_deterministic () =
  let fs = enumeration_test_formulas () in
  let run () = model_sequence ~seed:42L ~diversify:true 12 fs in
  Alcotest.(check (list string))
    "two fresh sessions, same seed, same model sequence" (run ()) (run ())

let test_enumeration_deterministic_shared_graph () =
  (* Sessions drawing from a shared blast graph must enumerate exactly the
     same models as each other: emission is per session, so the CNF a
     session solves is a function of its own assertions alone, warm cache
     or cold. *)
  let fs = enumeration_test_formulas () in
  let graph = Blaster.new_graph () in
  let cold = model_sequence ~graph ~seed:42L ~diversify:true 12 fs in
  let warm = model_sequence ~graph ~seed:42L ~diversify:true 12 fs in
  Alcotest.(check (list string)) "cold and warm cache sessions agree" cold warm

(* ---- incremental sessions ---- *)

let test_solver_extend_matches_oneshot () =
  (* Staged assertion (candidate first, refinement via extend on the same
     live session) must enumerate exactly the one-shot session's models:
     non-diversified draws are canonical (each is the lexicographically
     minimal unblocked model, a property of the formula alone). *)
  let fs = enumeration_test_formulas () in
  let staged_session =
    Solver.extend (Solver.make_session ~seed:42L [ List.hd fs ]) (List.tl fs)
  in
  let staged =
    List.init 8 (fun _ ->
        match Solver.next_model staged_session with
        | Solver.Model m -> Format.asprintf "%a" Model.pp m
        | Solver.Exhausted -> "<exhausted>"
        | Solver.Budget_exceeded -> "<budget>")
  in
  let fresh = model_sequence ~seed:42L ~diversify:false 8 fs in
  Alcotest.(check (list string)) "staged session = one-shot session" fresh staged

let test_solve_assuming () =
  let x = T.bv_var "x" 8 in
  let s = Solver.make_session ~seed:1L [ T.ult x (T.bv_const 10L 8) ] in
  (match Solver.solve_assuming s [ T.eq x (T.bv_const 5L 8) ] with
  | Solver.Model m -> Alcotest.(check int64) "x pinned" 5L (Model.bv_exn m "x")
  | Solver.Exhausted | Solver.Budget_exceeded ->
    Alcotest.fail "expected a model under a consistent assumption");
  (match Solver.solve_assuming s [ T.eq x (T.bv_const 20L 8) ] with
  | Solver.Exhausted -> ()
  | Solver.Model _ | Solver.Budget_exceeded ->
    Alcotest.fail "expected Exhausted under a contradictory assumption");
  (* An Unsat assumption query must not mark the session exhausted. *)
  match Solver.next_model s with
  | Solver.Model _ -> ()
  | Solver.Exhausted | Solver.Budget_exceeded ->
    Alcotest.fail "session no longer enumerable after assumption Unsat"

let test_session_push_pop_rewinds_blocking () =
  (* Blocking clauses asserted inside a pushed scope are retracted by the
     pop, so enumeration resumes from the first model blocked inside the
     scope (canonical order makes the re-draw deterministic). *)
  let fs = enumeration_test_formulas () in
  let s = Solver.make_session ~seed:42L fs in
  let take () =
    match Solver.next_model s with
    | Solver.Model m -> Format.asprintf "%a" Model.pp m
    | Solver.Exhausted | Solver.Budget_exceeded ->
      Alcotest.fail "expected a model"
  in
  let _m1 = take () in
  Solver.push s;
  let m2 = take () in
  let _m3 = take () in
  Solver.pop s;
  Alcotest.(check string) "pop retracts the scope's blocking clauses" m2
    (take ())

let test_block_model_replay () =
  (* blocked_models / block_model: replaying one session's frontier into a
     fresh session over the same assertions continues the enumeration
     exactly where the first session stood — the portfolio handoff. *)
  let fs = enumeration_test_formulas () in
  let take s =
    match Solver.next_model s with
    | Solver.Model m -> m
    | Solver.Exhausted | Solver.Budget_exceeded ->
      Alcotest.fail "expected a model"
  in
  let a = Solver.make_session ~seed:42L fs in
  for _ = 1 to 3 do
    ignore (take a)
  done;
  let frontier = Solver.blocked_models a in
  Alcotest.(check int) "three models blocked" 3 (List.length frontier);
  let b = Solver.make_session ~seed:42L fs in
  List.iter (Solver.block_model b) frontier;
  Alcotest.(check int) "handed-over models count as found" 3
    (Solver.models_found b);
  Alcotest.(check string) "challenger continues the sequence"
    (Format.asprintf "%a" Model.pp (take a))
    (Format.asprintf "%a" Model.pp (take b))

let test_blast_cache_cross_session_hits () =
  (* The second session over the same graph rebuilds nothing: every term it
     blasts is already a circuit node stamped by the first session, which
     the cache reports as cross-session hits.  Memory-free formulas only:
     array elimination happens above the blaster, in the solver. *)
  let x = T.bv_var "x" 16 and y = T.bv_var "y" 16 in
  let fs =
    [
      T.eq (T.add x y) (T.bv_const 500L 16);
      T.ult (T.mul x (T.bv_const 3L 16)) (T.bv_const 400L 16);
    ]
  in
  let graph = Blaster.new_graph () in
  let blast_all () =
    let b = Blaster.create ~graph () in
    List.iter (Blaster.assert_term b) fs;
    b
  in
  let b1 = blast_all () in
  Alcotest.(check int) "first session has no cross-session hits" 0
    (Blaster.cross_stats b1);
  let b2 = blast_all () in
  Alcotest.(check bool) "second session reuses the first's nodes" true
    (Blaster.cross_stats b2 > 0);
  let hits, _ = Blaster.cache_stats b2 in
  Alcotest.(check bool) "cross-session hits are a subset of hits" true
    (Blaster.cross_stats b2 <= hits)

let test_default_phase_gives_zeros () =
  (* With the default phase, an unconstrained variable should come out 0,
     mimicking Z3-style minimal models (important for the unguided-search
     behaviour of the reproduction). *)
  let x = T.bv_var "x" 64 and y = T.bv_var "y" 64 in
  let m = solve_sat [ T.eq x x; T.eq y y ] in
  Alcotest.check Alcotest.int64 "x defaults to 0" 0L (Model.bv_exn m "x")

(* Random-term differential test: blaster vs evaluator. *)
let gen_term_and_model seed =
  let module Sm = Scamv_util.Splitmix in
  let rng = ref (Sm.of_seed seed) in
  let next_int n =
    let v, r = Sm.int !rng n in
    rng := r;
    v
  in
  let next64 () =
    let v, r = Sm.next !rng in
    rng := r;
    v
  in
  let w = 1 + next_int 16 in
  let vars = [| ("a", next64 ()); ("b", next64 ()); ("c", next64 ()) |] in
  let rec gen_bv depth : T.t =
    if depth = 0 then
      match next_int 2 with
      | 0 ->
        let name, _ = vars.(next_int 3) in
        T.bv_var name w
      | _ -> T.bv_const (next64 ()) w
    else
      let a = gen_bv (depth - 1) and b = gen_bv (depth - 1) in
      match next_int 11 with
      | 0 -> T.add a b
      | 1 -> T.sub a b
      | 2 -> T.logand a b
      | 3 -> T.logor a b
      | 4 -> T.logxor a b
      | 5 -> T.neg a
      | 6 -> T.lognot a
      | 7 -> T.shl a (T.bv_const (Int64.of_int (next_int (w + 2))) w)
      | 8 -> T.lshr a (T.bv_const (Int64.of_int (next_int (w + 2))) w)
      | 9 -> T.ashr a (T.bv_const (Int64.of_int (next_int (w + 2))) w)
      | _ -> T.ite (gen_bool 0) a b
  and gen_bool depth : T.t =
    let a = gen_bv depth and b = gen_bv depth in
    match next_int 5 with
    | 0 -> T.eq a b
    | 1 -> T.ult a b
    | 2 -> T.ule a b
    | 3 -> T.slt a b
    | _ -> T.sle a b
  in
  let t = gen_bool 2 in
  let model =
    Array.fold_left
      (fun m (name, v) -> Model.add_var m name (Model.Bv (Scamv_util.Bits.truncate w v, w)))
      Model.empty vars
  in
  (t, model, w, vars)

let prop_blaster_agrees_with_eval =
  QCheck.Test.make ~name:"solver agrees with evaluator on random pinned terms"
    ~count:250 QCheck.int64 (fun seed ->
      let t, model, w, vars = gen_term_and_model seed in
      (* Pin the variables to the model's values and ask the solver whether
         the term can take the evaluator's value. *)
      let expected = Eval.eval_bool model t in
      let pins =
        Array.to_list vars
        |> List.map (fun (name, v) ->
               T.eq (T.bv_var name w) (T.bv_const v w))
      in
      let goal = if expected then t else T.not_ t in
      match Solver.solve (goal :: pins) with
      | Solver.Sat _ -> true
      | Solver.Unsat -> false)

let prop_solver_models_satisfy =
  QCheck.Test.make ~name:"returned models satisfy random formulas" ~count:150
    QCheck.int64 (fun seed ->
      let t, _, _, _ = gen_term_and_model seed in
      match Solver.solve [ t ] with
      | Solver.Sat m -> Eval.eval_bool m t
      | Solver.Unsat -> (
        (* Cross-check with the negation: both unsat would be a bug
           (the term is a pure predicate over free vars). *)
        match Solver.solve [ T.not_ t ] with Solver.Sat _ -> true | Solver.Unsat -> false))

(* ------------------------------------------------------------------ *)
(* Algebraic identities proved by UNSAT                                *)
(* ------------------------------------------------------------------ *)

(* The solver decides validity of an identity by refuting its negation:
   a disequality that comes back Unsat is a proof over all 2^128
   assignments — a strong end-to-end check of blaster + CDCL. *)
let prove_identity name lhs rhs =
  Alcotest.test_case name `Quick (fun () ->
      match Solver.solve [ T.neq lhs rhs ] with
      | Solver.Unsat -> ()
      | Solver.Sat m ->
        Alcotest.failf "identity refuted by:@ %s" (Format.asprintf "%a" Model.pp m))

let identity_cases =
  let w = 16 in
  let a = T.bv_var "a" w and b = T.bv_var "b" w in
  [
    prove_identity "(a + b) - b = a" (T.sub (T.add a b) b) a;
    prove_identity "a ^ a = 0" (T.logxor a a) (T.bv_zero w);
    prove_identity "a + a = a << 1" (T.add a a) (T.shl a (T.bv_one w));
    prove_identity "de morgan" (T.lognot (T.logand a b)) (T.logor (T.lognot a) (T.lognot b));
    prove_identity "neg a = ~a + 1" (T.neg a) (T.add (T.lognot a) (T.bv_one w));
    prove_identity "a * 3 = a + a + a"
      (T.mul a (T.bv_const 3L w))
      (T.add (T.add a a) a);
    prove_identity "(a & b) | (a & ~b) = a"
      (T.logor (T.logand a b) (T.logand a (T.lognot b)))
      a;
    prove_identity "lsr then shl masks low bits"
      (T.shl (T.lshr a (T.bv_const 4L w)) (T.bv_const 4L w))
      (T.logand a (T.bv_const 0xFFF0L w));
  ]

let bool_identity_cases =
  let a = T.bv_var "a" 16 and b = T.bv_var "b" 16 in
  let prove name prop =
    Alcotest.test_case name `Quick (fun () ->
        match Solver.solve [ T.not_ prop ] with
        | Solver.Unsat -> ()
        | Solver.Sat _ -> Alcotest.fail "proposition refuted")
  in
  [
    prove "ult trichotomy" (T.or_l [ T.ult a b; T.ult b a; T.eq a b ]);
    prove "ule antisymmetry" (T.implies (T.and_ (T.ule a b) (T.ule b a)) (T.eq a b));
    prove "slt vs sle" (T.iff (T.slt a b) (T.and_ (T.sle a b) (T.neq a b)));
    prove "unsigned overflow wraps"
      (T.implies
         (T.eq a (T.bv_const 0xFFFFL 16))
         (T.eq (T.add a (T.bv_one 16)) (T.bv_zero 16)));
  ]

(* Sort ordering: the solver's default tracked-variable order sorts keys
   with the monomorphic [Sort.compare]; its order — in particular where
   [Sort.Mem] lands — is part of the enumeration-determinism contract
   (blocking order, and with it the model sequence, depends on it), so
   this pins the exact order down. *)
let test_sort_compare_stable () =
  let sorts =
    [ Sort.Mem; Sort.Bv 64; Sort.Bool; Sort.Bv 1; Sort.Mem; Sort.Bv 8; Sort.Bool ]
  in
  let sort_testable = Alcotest.testable Sort.pp Sort.equal in
  Alcotest.(check (list sort_testable))
    "Bool < Bv (by width) < Mem"
    [ Sort.Bool; Sort.Bool; Sort.Bv 1; Sort.Bv 8; Sort.Bv 64; Sort.Mem; Sort.Mem ]
    (List.sort Sort.compare sorts);
  (* A total order: antisymmetric, with equality exactly on equal sorts. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int)
            (Format.asprintf "compare %a %a antisymmetric" Sort.pp a Sort.pp b)
            (Stdlib.compare (Sort.compare a b) 0)
            (- Stdlib.compare (Sort.compare b a) 0);
          Alcotest.(check bool)
            (Format.asprintf "compare %a %a consistent with equal" Sort.pp a Sort.pp b)
            (Sort.equal a b)
            (Sort.compare a b = 0))
        sorts)
    sorts

let () =
  Alcotest.run "scamv_smt"
    [
      ( "term",
        [
          Alcotest.test_case "const folding arith" `Quick test_const_folding_arith;
          Alcotest.test_case "const folding compare" `Quick test_const_folding_compare;
          Alcotest.test_case "bool simplification" `Quick test_bool_simplifications;
          Alcotest.test_case "unit laws" `Quick test_unit_laws;
          Alcotest.test_case "extract/concat" `Quick test_extract_concat;
          Alcotest.test_case "sort errors" `Quick test_sort_errors;
          Alcotest.test_case "select over store" `Quick test_select_over_store;
          Alcotest.test_case "rename / free vars" `Quick test_rename_and_free_vars;
          Alcotest.test_case "ite folding" `Quick test_ite_folding;
          Alcotest.test_case "sort ordering stable" `Quick test_sort_compare_stable;
        ] );
      ( "sat",
        [
          Alcotest.test_case "trivial sat" `Quick test_sat_trivial;
          Alcotest.test_case "unit conflict" `Quick test_sat_unsat_unit_conflict;
          Alcotest.test_case "empty clause" `Quick test_sat_empty_clause;
          Alcotest.test_case "implication chain" `Quick test_sat_implication_chain;
          Alcotest.test_case "pigeonhole 3/2" `Quick test_sat_pigeonhole_3_2;
          Alcotest.test_case "pigeonhole 4/3" `Quick test_sat_pigeonhole_4_3;
          Alcotest.test_case "incremental blocking" `Quick test_sat_incremental_blocking;
          Alcotest.test_case "budget unknown" `Quick test_sat_conflict_cap_unknown;
          Alcotest.test_case "budget generous" `Quick test_sat_generous_cap_is_exact;
          QCheck_alcotest.to_alcotest prop_sat_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_sat_matches_brute_force_wide;
          QCheck_alcotest.to_alcotest prop_push_pop_matches_brute_force;
          Alcotest.test_case "propagation allocation bounded" `Quick
            test_propagation_allocation;
          Alcotest.test_case "add_clause2/3 match add_clause on twin solvers" `Quick
            test_clause_intake_twins;
          QCheck_alcotest.to_alcotest prop_long_clause_sort;
          Alcotest.test_case "clause intake allocation-free" `Quick
            test_intake_allocation;
          Alcotest.test_case "decisions allocation-free" `Quick
            test_decision_allocation;
          Alcotest.test_case "phase draw allocation-free" `Quick
            test_phase_draw_allocation;
          Alcotest.test_case "long clause allocation-free" `Quick
            test_long_clause_allocation;
          Alcotest.test_case "variable growth allocation" `Quick
            test_growth_allocation;
        ] );
      ( "solver",
        [
          Alcotest.test_case "eq const" `Quick test_solver_eq_const;
          Alcotest.test_case "add relation" `Quick test_solver_add_relation;
          Alcotest.test_case "unsat arith" `Quick test_solver_unsat_arith;
          Alcotest.test_case "signed vs unsigned" `Quick test_solver_signed_vs_unsigned;
          Alcotest.test_case "shift" `Quick test_solver_shift;
          Alcotest.test_case "mul" `Quick test_solver_mul;
          Alcotest.test_case "memory basic" `Quick test_solver_memory_basic;
          Alcotest.test_case "memory consistency" `Quick test_solver_memory_consistency;
          Alcotest.test_case "memory distinct" `Quick test_solver_memory_distinct_addresses;
          Alcotest.test_case "nested select" `Quick test_solver_nested_select;
          Alcotest.test_case "store" `Quick test_solver_store;
          Alcotest.test_case "model satisfies" `Quick test_solver_model_satisfies;
          Alcotest.test_case "default phase zeros" `Quick test_default_phase_gives_zeros;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "count bv2" `Quick test_enumeration_count;
          Alcotest.test_case "distinct" `Quick test_enumeration_distinct;
          Alcotest.test_case "diversify valid" `Quick test_enumeration_diversify_valid;
          Alcotest.test_case "budget exceeded surfaces" `Quick
            test_solver_budget_exceeded_surfaces;
          Alcotest.test_case "deterministic across sessions" `Quick
            test_enumeration_deterministic;
          Alcotest.test_case "deterministic with shared graph" `Quick
            test_enumeration_deterministic_shared_graph;
          Alcotest.test_case "blast cache cross-session hits" `Quick
            test_blast_cache_cross_session_hits;
        ] );
      ( "incremental sessions",
        [
          Alcotest.test_case "extend matches one-shot" `Quick
            test_solver_extend_matches_oneshot;
          Alcotest.test_case "solve_assuming" `Quick test_solve_assuming;
          Alcotest.test_case "push/pop rewinds blocking" `Quick
            test_session_push_pop_rewinds_blocking;
          Alcotest.test_case "block_model replay" `Quick test_block_model_replay;
        ] );
      ( "search identity",
        [
          Alcotest.test_case "seeded session" `Quick test_search_identity_session;
          Alcotest.test_case "RV64 template C pipeline" `Quick
            test_search_identity_pipeline;
          Alcotest.test_case "AArch64 template A diversified" `Quick
            test_search_identity_diversified;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_blaster_agrees_with_eval;
          QCheck_alcotest.to_alcotest prop_solver_models_satisfy;
        ] );
      ("identities", identity_cases @ bool_identity_cases);
    ]
