module Bits = Scamv_util.Bits

type t =
  | True
  | False
  | Var of string * Sort.t
  | Bv_const of int64 * int
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t
  | Eq of t * t
  | Ult of t * t
  | Ule of t * t
  | Slt of t * t
  | Sle of t * t
  | Bv_unop of bv_unop * t
  | Bv_binop of bv_binop * t * t
  | Extract of int * int * t
  | Concat of t * t
  | Zero_extend of int * t
  | Sign_extend of int * t
  | Ite of t * t * t
  | Select of t * t
  | Store of t * t * t

and bv_unop = Neg | Lognot

and bv_binop =
  | Add
  | Sub
  | Mul
  | Logand
  | Logor
  | Logxor
  | Shl
  | Lshr
  | Ashr

exception Sort_error of string

let sort_error fmt = Format.kasprintf (fun s -> raise (Sort_error s)) fmt

let rec sort_of = function
  | True | False | Not _ | And _ | Or _ | Implies _ | Iff _ | Eq _ | Ult _
  | Ule _ | Slt _ | Sle _ ->
    Sort.Bool
  | Var (_, s) -> s
  | Bv_const (_, w) -> Sort.Bv w
  | Bv_unop (_, a) -> sort_of a
  | Bv_binop (_, a, _) -> sort_of a
  | Extract (hi, lo, _) -> Sort.Bv (hi - lo + 1)
  | Concat (a, b) -> (
    match (sort_of a, sort_of b) with
    | Sort.Bv wa, Sort.Bv wb -> Sort.Bv (wa + wb)
    | _ -> sort_error "concat of non-bitvectors")
  | Zero_extend (k, a) | Sign_extend (k, a) -> (
    match sort_of a with
    | Sort.Bv w -> Sort.Bv (w + k)
    | _ -> sort_error "extend of non-bitvector")
  | Ite (_, a, _) -> sort_of a
  | Select (_, _) -> Sort.Bv 64
  | Store (_, _, _) -> Sort.Mem

(* Monomorphic structural equality with a physical-equality fast path.
   Cache lookups in the bit-blaster compare a term against previously
   blasted terms whose subtrees are usually physically shared (smart
   constructors reuse argument terms), so [==] cuts most deep comparisons
   short; the polymorphic [Stdlib.compare] this replaces always walked
   both trees and paid the generic-comparison dispatch per node. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | True, True | False, False -> true
  | Var (x, s), Var (y, s') -> String.equal x y && Sort.equal s s'
  | Bv_const (v, w), Bv_const (v', w') -> Int64.equal v v' && w = w'
  | Not a, Not b -> equal a b
  | And (a1, a2), And (b1, b2)
  | Or (a1, a2), Or (b1, b2)
  | Implies (a1, a2), Implies (b1, b2)
  | Iff (a1, a2), Iff (b1, b2)
  | Eq (a1, a2), Eq (b1, b2)
  | Ult (a1, a2), Ult (b1, b2)
  | Ule (a1, a2), Ule (b1, b2)
  | Slt (a1, a2), Slt (b1, b2)
  | Sle (a1, a2), Sle (b1, b2)
  | Concat (a1, a2), Concat (b1, b2)
  | Select (a1, a2), Select (b1, b2) ->
    equal a1 b1 && equal a2 b2
  | Bv_unop (o, a), Bv_unop (o', b) -> o = o' && equal a b
  | Bv_binop (o, a1, a2), Bv_binop (o', b1, b2) ->
    o = o' && equal a1 b1 && equal a2 b2
  | Extract (hi, lo, a), Extract (hi', lo', b) ->
    hi = hi' && lo = lo' && equal a b
  | Zero_extend (k, a), Zero_extend (k', b) | Sign_extend (k, a), Sign_extend (k', b)
    ->
    k = k' && equal a b
  | Ite (a1, a2, a3), Ite (b1, b2, b3) | Store (a1, a2, a3), Store (b1, b2, b3) ->
    equal a1 b1 && equal a2 b2 && equal a3 b3
  | _ -> false

let compare = Stdlib.compare

(* Specialized hash: a bounded preorder walk mixing constructor tags and
   leaf payloads.  Like [Hashtbl.hash] it touches O(1) nodes on deep ASTs,
   but without the polymorphic traversal machinery; the node budget keeps
   hashing cheap while the preorder prefix is discriminating enough for
   the blaster caches.  Equal terms walk the same prefix, so the hash is
   compatible with [equal]. *)
let hash t =
  let fuel = ref 48 in
  let h = ref 0 in
  let mix k = h := (!h * 0x01000193) lxor (k land 0x3FFFFFFF) in
  let rec go t =
    if !fuel > 0 then begin
      decr fuel;
      match t with
      | True -> mix 1
      | False -> mix 2
      | Var (x, s) ->
        mix 3;
        mix (Hashtbl.hash x);
        mix (match s with Sort.Bool -> 0 | Sort.Bv w -> w + 1 | Sort.Mem -> 65)
      | Bv_const (v, w) ->
        mix 4;
        mix (Int64.to_int v);
        mix (Int64.to_int (Int64.shift_right_logical v 32));
        mix w
      | Not a ->
        mix 5;
        go a
      | And (a, b) -> mix2 6 a b
      | Or (a, b) -> mix2 7 a b
      | Implies (a, b) -> mix2 8 a b
      | Iff (a, b) -> mix2 9 a b
      | Eq (a, b) -> mix2 10 a b
      | Ult (a, b) -> mix2 11 a b
      | Ule (a, b) -> mix2 12 a b
      | Slt (a, b) -> mix2 13 a b
      | Sle (a, b) -> mix2 14 a b
      | Bv_unop (o, a) ->
        mix (match o with Neg -> 15 | Lognot -> 16);
        go a
      | Bv_binop (o, a, b) ->
        mix2
          (match o with
          | Add -> 17
          | Sub -> 18
          | Mul -> 19
          | Logand -> 20
          | Logor -> 21
          | Logxor -> 22
          | Shl -> 23
          | Lshr -> 24
          | Ashr -> 25)
          a b
      | Extract (hi, lo, a) ->
        mix 26;
        mix hi;
        mix lo;
        go a
      | Concat (a, b) -> mix2 27 a b
      | Zero_extend (k, a) ->
        mix 28;
        mix k;
        go a
      | Sign_extend (k, a) ->
        mix 29;
        mix k;
        go a
      | Ite (c, a, b) ->
        mix 30;
        go c;
        go a;
        go b
      | Select (m, a) -> mix2 31 m a
      | Store (m, a, v) ->
        mix 32;
        go m;
        go a;
        go v
    end
  and mix2 tag a b =
    mix tag;
    go a;
    go b
  in
  go t;
  !h land max_int

let width_of t =
  match sort_of t with
  | Sort.Bv w -> w
  | s -> sort_error "expected bitvector, got %s" (Sort.to_string s)

let check_bool t =
  match sort_of t with
  | Sort.Bool -> ()
  | s -> sort_error "expected Bool, got %s" (Sort.to_string s)

let check_mem t =
  match sort_of t with
  | Sort.Mem -> ()
  | s -> sort_error "expected memory, got %s" (Sort.to_string s)

let check_same_width a b =
  let wa = width_of a and wb = width_of b in
  if wa <> wb then sort_error "width mismatch: %d vs %d" wa wb;
  wa

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let tt = True
let ff = False
let bool_const b = if b then True else False
let bool_var name = Var (name, Sort.Bool)

let bv_var name w =
  if w < 1 || w > 64 then sort_error "bv_var: bad width %d" w;
  Var (name, Sort.Bv w)

let mem_var name = Var (name, Sort.Mem)

let bv_const v w =
  if w < 1 || w > 64 then sort_error "bv_const: bad width %d" w;
  Bv_const (Bits.truncate w v, w)

let bv_zero w = bv_const 0L w
let bv_one w = bv_const 1L w

let not_ = function
  | True -> False
  | False -> True
  | Not a -> a
  | a ->
    check_bool a;
    Not a

let and_ a b =
  check_bool a;
  check_bool b;
  match (a, b) with
  | False, _ | _, False -> False
  | True, x | x, True -> x
  | _ -> if equal a b then a else And (a, b)

let or_ a b =
  check_bool a;
  check_bool b;
  match (a, b) with
  | True, _ | _, True -> True
  | False, x | x, False -> x
  | _ -> if equal a b then a else Or (a, b)

let and_l = function [] -> True | x :: xs -> List.fold_left and_ x xs
let or_l = function [] -> False | x :: xs -> List.fold_left or_ x xs

let implies a b =
  check_bool a;
  check_bool b;
  match (a, b) with
  | False, _ -> True
  | True, x -> x
  | _, True -> True
  | x, False -> not_ x
  | _ -> if equal a b then True else Implies (a, b)

let iff a b =
  check_bool a;
  check_bool b;
  match (a, b) with
  | True, x | x, True -> x
  | False, x | x, False -> not_ x
  | _ -> if equal a b then True else Iff (a, b)

let eq a b =
  match (sort_of a, sort_of b) with
  | Sort.Bool, Sort.Bool -> iff a b
  | Sort.Bv wa, Sort.Bv wb ->
    if wa <> wb then sort_error "eq: width mismatch %d vs %d" wa wb;
    if equal a b then True
    else (
      match (a, b) with
      | Bv_const (x, _), Bv_const (y, _) -> bool_const (Int64.equal x y)
      | _ -> Eq (a, b))
  | Sort.Mem, Sort.Mem -> sort_error "eq: memory equality is not supported"
  | sa, sb ->
    sort_error "eq: sort mismatch %s vs %s" (Sort.to_string sa) (Sort.to_string sb)

let neq a b = not_ (eq a b)

let cmp_op ~fold ~refl ctor a b =
  let w = check_same_width a b in
  if equal a b then bool_const refl
  else
    match (a, b) with
    | Bv_const (x, _), Bv_const (y, _) -> bool_const (fold w x y)
    | _ -> ctor (a, b)

let ult a b =
  cmp_op ~fold:(fun _ x y -> Bits.ult x y) ~refl:false (fun (a, b) -> Ult (a, b)) a b

let ule a b =
  cmp_op ~fold:(fun _ x y -> Bits.ule x y) ~refl:true (fun (a, b) -> Ule (a, b)) a b

let slt a b =
  cmp_op
    ~fold:(fun w x y -> Bits.slt ~width:w x y)
    ~refl:false
    (fun (a, b) -> Slt (a, b))
    a b

let sle a b =
  cmp_op
    ~fold:(fun w x y -> not (Bits.slt ~width:w y x))
    ~refl:true
    (fun (a, b) -> Sle (a, b))
    a b

let ugt a b = ult b a

let binop_fold op w x y =
  match op with
  | Add -> Bits.truncate w (Int64.add x y)
  | Sub -> Bits.truncate w (Int64.sub x y)
  | Mul -> Bits.truncate w (Int64.mul x y)
  | Logand -> Int64.logand x y
  | Logor -> Int64.logor x y
  | Logxor -> Int64.logxor x y
  | Shl ->
    if Bits.ult y (Int64.of_int 64) && Int64.to_int y < w then
      Bits.truncate w (Int64.shift_left x (Int64.to_int y))
    else 0L
  | Lshr ->
    if Bits.ult y (Int64.of_int 64) && Int64.to_int y < w then
      Int64.shift_right_logical x (Int64.to_int y)
    else 0L
  | Ashr ->
    let x_ext = Bits.sign_extend w x in
    if Bits.ult y (Int64.of_int 64) && Int64.to_int y < w then
      Bits.truncate w (Int64.shift_right x_ext (Int64.to_int y))
    else Bits.truncate w (Int64.shift_right x_ext 63)

let bv_binop op a b =
  let w = check_same_width a b in
  match (a, b) with
  | Bv_const (x, _), Bv_const (y, _) -> bv_const (binop_fold op w x y) w
  | _ -> (
    (* Unit laws that keep blaster input small. *)
    match (op, a, b) with
    | (Add | Logor | Logxor), Bv_const (0L, _), x -> x
    | (Add | Sub | Logor | Logxor | Shl | Lshr | Ashr), x, Bv_const (0L, _) -> x
    | Mul, Bv_const (1L, _), x | Mul, x, Bv_const (1L, _) -> x
    | Mul, (Bv_const (0L, _) as z), _ | Mul, _, (Bv_const (0L, _) as z) -> z
    | Logand, (Bv_const (0L, _) as z), _ | Logand, _, (Bv_const (0L, _) as z) -> z
    | Logand, Bv_const (m, _), x when Int64.equal m (Bits.mask w) -> x
    | Logand, x, Bv_const (m, _) when Int64.equal m (Bits.mask w) -> x
    | _ -> Bv_binop (op, a, b))

let add = bv_binop Add
let sub = bv_binop Sub
let mul = bv_binop Mul
let logand = bv_binop Logand
let logor = bv_binop Logor
let logxor = bv_binop Logxor
let shl = bv_binop Shl
let lshr = bv_binop Lshr
let ashr = bv_binop Ashr

let neg = function
  | Bv_const (x, w) -> bv_const (Int64.neg x) w
  | a ->
    ignore (width_of a);
    Bv_unop (Neg, a)

let lognot = function
  | Bv_const (x, w) -> bv_const (Int64.lognot x) w
  | a ->
    ignore (width_of a);
    Bv_unop (Lognot, a)

let extract ~hi ~lo t =
  let w = width_of t in
  if lo < 0 || hi < lo || hi >= w then
    sort_error "extract: bad range [%d..%d] on width %d" hi lo w;
  if lo = 0 && hi = w - 1 then t
  else
    match t with
    | Bv_const (x, _) -> bv_const (Bits.extract ~hi ~lo x) (hi - lo + 1)
    | Extract (_, lo', a) -> Extract (hi + lo', lo + lo', a)
    | _ -> Extract (hi, lo, t)

let concat a b =
  let wa = width_of a and wb = width_of b in
  if wa + wb > 64 then sort_error "concat: combined width %d > 64" (wa + wb);
  match (a, b) with
  | Bv_const (x, _), Bv_const (y, _) ->
    bv_const (Int64.logor (Int64.shift_left x wb) y) (wa + wb)
  | _ -> Concat (a, b)

let zero_extend k t =
  let w = width_of t in
  if k < 0 || w + k > 64 then sort_error "zero_extend: bad amount %d" k;
  if k = 0 then t
  else match t with Bv_const (x, _) -> bv_const x (w + k) | _ -> Zero_extend (k, t)

let sign_extend k t =
  let w = width_of t in
  if k < 0 || w + k > 64 then sort_error "sign_extend: bad amount %d" k;
  if k = 0 then t
  else
    match t with
    | Bv_const (x, _) -> bv_const (Bits.sign_extend w x) (w + k)
    | _ -> Sign_extend (k, t)

let ite c a b =
  check_bool c;
  ignore (check_same_width a b);
  match c with
  | True -> a
  | False -> b
  | _ -> if equal a b then a else Ite (c, a, b)

let rec select m addr =
  check_mem m;
  if width_of addr <> 64 then sort_error "select: address must be 64-bit";
  match m with
  | Store (m', a', v') -> (
    (* Read-over-write: resolve syntactically when possible, otherwise
       produce an ite so the array solver only sees base selects. *)
    match eq addr a' with
    | True -> v'
    | False -> select m' addr
    | c -> ite c v' (select m' addr))
  | _ -> Select (m, addr)

let store m addr v =
  check_mem m;
  if width_of addr <> 64 then sort_error "store: address must be 64-bit";
  if width_of v <> 64 then sort_error "store: value must be 64-bit";
  Store (m, addr, v)

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let rec rename f t =
  let r = rename f in
  match t with
  | True | False | Bv_const _ -> t
  | Var (x, s) -> Var (f x, s)
  | Not a -> not_ (r a)
  | And (a, b) -> and_ (r a) (r b)
  | Or (a, b) -> or_ (r a) (r b)
  | Implies (a, b) -> implies (r a) (r b)
  | Iff (a, b) -> iff (r a) (r b)
  | Eq (a, b) -> eq (r a) (r b)
  | Ult (a, b) -> ult (r a) (r b)
  | Ule (a, b) -> ule (r a) (r b)
  | Slt (a, b) -> slt (r a) (r b)
  | Sle (a, b) -> sle (r a) (r b)
  | Bv_unop (Neg, a) -> neg (r a)
  | Bv_unop (Lognot, a) -> lognot (r a)
  | Bv_binop (op, a, b) -> bv_binop op (r a) (r b)
  | Extract (hi, lo, a) -> extract ~hi ~lo (r a)
  | Concat (a, b) -> concat (r a) (r b)
  | Zero_extend (k, a) -> zero_extend k (r a)
  | Sign_extend (k, a) -> sign_extend k (r a)
  | Ite (c, a, b) -> ite (r c) (r a) (r b)
  | Select (m, a) -> select (r m) (r a)
  | Store (m, a, v) -> store (r m) (r a) (r v)

let rec subst f t =
  let r = subst f in
  match t with
  | True | False | Bv_const _ -> t
  | Var (x, s) -> (
    match f x s with
    | None -> t
    | Some t' ->
      if not (Sort.equal (sort_of t') s) then
        sort_error "subst: %s replaced at wrong sort" x;
      t')
  | Not a -> not_ (r a)
  | And (a, b) -> and_ (r a) (r b)
  | Or (a, b) -> or_ (r a) (r b)
  | Implies (a, b) -> implies (r a) (r b)
  | Iff (a, b) -> iff (r a) (r b)
  | Eq (a, b) -> eq (r a) (r b)
  | Ult (a, b) -> ult (r a) (r b)
  | Ule (a, b) -> ule (r a) (r b)
  | Slt (a, b) -> slt (r a) (r b)
  | Sle (a, b) -> sle (r a) (r b)
  | Bv_unop (Neg, a) -> neg (r a)
  | Bv_unop (Lognot, a) -> lognot (r a)
  | Bv_binop (op, a, b) -> bv_binop op (r a) (r b)
  | Extract (hi, lo, a) -> extract ~hi ~lo (r a)
  | Concat (a, b) -> concat (r a) (r b)
  | Zero_extend (k, a) -> zero_extend k (r a)
  | Sign_extend (k, a) -> sign_extend k (r a)
  | Ite (c, a, b) -> ite (r c) (r a) (r b)
  | Select (m, a) -> select (r m) (r a)
  | Store (m, a, v) -> store (r m) (r a) (r v)

module Var_set = Set.Make (struct
  type nonrec t = string * Sort.t

  let compare = Stdlib.compare
end)

let free_vars t =
  let rec go acc = function
    | True | False | Bv_const _ -> acc
    | Var (x, s) -> Var_set.add (x, s) acc
    | Not a | Bv_unop (_, a) | Extract (_, _, a) | Zero_extend (_, a)
    | Sign_extend (_, a) ->
      go acc a
    | And (a, b)
    | Or (a, b)
    | Implies (a, b)
    | Iff (a, b)
    | Eq (a, b)
    | Ult (a, b)
    | Ule (a, b)
    | Slt (a, b)
    | Sle (a, b)
    | Bv_binop (_, a, b)
    | Concat (a, b)
    | Select (a, b) ->
      go (go acc a) b
    | Ite (a, b, c) | Store (a, b, c) -> go (go (go acc a) b) c
  in
  Var_set.elements (go Var_set.empty t)

let binop_name = function
  | Add -> "bvadd"
  | Sub -> "bvsub"
  | Mul -> "bvmul"
  | Logand -> "bvand"
  | Logor -> "bvor"
  | Logxor -> "bvxor"
  | Shl -> "bvshl"
  | Lshr -> "bvlshr"
  | Ashr -> "bvashr"

let rec pp ppf t =
  let two name a b = Format.fprintf ppf "(%s %a %a)" name pp a pp b in
  match t with
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Var (x, _) -> Format.pp_print_string ppf x
  | Bv_const (v, w) -> Format.fprintf ppf "(_ bv%Lu %d)" v w
  | Not a -> Format.fprintf ppf "(not %a)" pp a
  | And (a, b) -> two "and" a b
  | Or (a, b) -> two "or" a b
  | Implies (a, b) -> two "=>" a b
  | Iff (a, b) -> two "=" a b
  | Eq (a, b) -> two "=" a b
  | Ult (a, b) -> two "bvult" a b
  | Ule (a, b) -> two "bvule" a b
  | Slt (a, b) -> two "bvslt" a b
  | Sle (a, b) -> two "bvsle" a b
  | Bv_unop (Neg, a) -> Format.fprintf ppf "(bvneg %a)" pp a
  | Bv_unop (Lognot, a) -> Format.fprintf ppf "(bvnot %a)" pp a
  | Bv_binop (op, a, b) -> two (binop_name op) a b
  | Extract (hi, lo, a) -> Format.fprintf ppf "((_ extract %d %d) %a)" hi lo pp a
  | Concat (a, b) -> two "concat" a b
  | Zero_extend (k, a) -> Format.fprintf ppf "((_ zero_extend %d) %a)" k pp a
  | Sign_extend (k, a) -> Format.fprintf ppf "((_ sign_extend %d) %a)" k pp a
  | Ite (c, a, b) -> Format.fprintf ppf "(ite %a %a %a)" pp c pp a pp b
  | Select (m, a) -> two "select" m a
  | Store (m, a, v) -> Format.fprintf ppf "(store %a %a %a)" pp m pp a pp v

let to_string t = Format.asprintf "%a" pp t
