(* Splitmix64, after Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators" (OOPSLA 2014).  The gamma of a split stream is
   derived from the parent stream, which gives statistical independence
   good enough for test-case generation. *)

type t = { seed : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Inlined so that [fill_bools] keeps its loop unboxed. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let mix_gamma z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L) in
  let z = Int64.logor z 1L in
  (* Ensure enough bit flips between consecutive gammas. *)
  let n =
    Int64.logxor z (Int64.shift_right_logical z 1)
    |> fun v ->
    let rec popcount acc v =
      if Int64.equal v 0L then acc
      else popcount (acc + 1) Int64.(logand v (sub v 1L))
    in
    popcount 0 v
  in
  if n < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let of_seed seed = { seed; gamma = golden_gamma }

let next g =
  let seed = Int64.add g.seed g.gamma in
  (mix64 seed, { g with seed })

let split g =
  let seed = Int64.add g.seed g.gamma in
  let seed' = Int64.add seed g.gamma in
  let child = { seed = mix64 seed; gamma = mix_gamma seed' } in
  (child, { g with seed = seed' })

let int g bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  let v, g = next g in
  (* Keep 62 bits so the value fits in a non-negative native int. *)
  let v = Int64.to_int (Int64.shift_right_logical v 2) in
  (v mod bound, g)

let int_in g lo hi =
  if hi < lo then invalid_arg "Splitmix.int_in: empty range";
  let v, g = int g (hi - lo + 1) in
  (lo + v, g)

let bool g =
  let v, g = next g in
  (Int64.compare (Int64.logand v 1L) 0L <> 0, g)

(* [bool] iterated, with the state held in an unboxed local: no
   allocation per element. *)
let fill_bools g a pos len =
  if pos < 0 || len < 0 || pos > Array.length a - len then
    invalid_arg "Splitmix.fill_bools: range out of bounds";
  let gamma = g.gamma in
  let seed = ref g.seed in
  for i = pos to pos + len - 1 do
    seed := Int64.add !seed gamma;
    Array.unsafe_set a i (Int64.logand (mix64 !seed) 1L <> 0L)
  done;
  { g with seed = !seed }

let float g =
  let v, g = next g in
  let v53 = Int64.to_float (Int64.shift_right_logical v 11) in
  (v53 /. 9007199254740992.0, g)

let choose g = function
  | [] -> invalid_arg "Splitmix.choose: empty list"
  | xs ->
    let i, g = int g (List.length xs) in
    (List.nth xs i, g)

let shuffle g xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let g = ref g in
  for i = n - 1 downto 1 do
    let j, g' = int !g (i + 1) in
    g := g';
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  (Array.to_list a, !g)
