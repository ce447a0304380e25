module Splitmix = Scamv_util.Splitmix
module Reg = Scamv_isa.Reg

type 'a t = Splitmix.t -> 'a * Splitmix.t

let run g rng = g rng
let generate ~seed g = fst (g (Splitmix.of_seed seed))
let return x rng = (x, rng)

let map f g rng =
  let x, rng = g rng in
  (f x, rng)

let bind g f rng =
  let x, rng = g rng in
  f x rng

let both a b = bind a (fun x -> map (fun y -> (x, y)) b)

let list n g rng =
  let rec go n acc rng =
    if n = 0 then (List.rev acc, rng)
    else
      let x, rng = g rng in
      go (n - 1) (x :: acc) rng
  in
  go n [] rng

let int_in lo hi rng = Splitmix.int_in rng lo hi
let bool rng = Splitmix.bool rng
let choose xs rng = Splitmix.choose rng xs

let opt p g rng =
  let v, rng = Splitmix.float rng in
  if v < p then map (fun x -> Some x) g rng else (None, rng)

let frequency weighted =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 weighted in
  if total <= 0 then invalid_arg "Gen.frequency: weights must be positive";
  bind (int_in 0 (total - 1)) (fun k ->
      let rec pick k = function
        | [] -> invalid_arg "Gen.frequency: empty"
        | (w, g) :: rest -> if k < w then g else pick (k - w) rest
      in
      pick k weighted)

let reg = map Reg.x (int_in 0 (Reg.count - 1))

let reg_avoiding avoid =
  let candidates = List.filter (fun r -> not (List.exists (Reg.equal r) avoid)) Reg.all in
  if candidates = [] then invalid_arg "Gen.reg_avoiding: all registers excluded";
  choose candidates

let distinct_regs ?(avoid = []) n =
  let rec go n picked =
    if n = 0 then return (List.rev picked)
    else
      bind (reg_avoiding (avoid @ picked)) (fun r -> go (n - 1) (r :: picked))
  in
  go n []

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) g f = map f g
  let ( and+ ) = both
end
