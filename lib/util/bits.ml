let mask w =
  if w < 0 || w > 64 then invalid_arg "Bits.mask"
  else if w = 64 then -1L
  else Int64.sub (Int64.shift_left 1L w) 1L

let truncate w v = Int64.logand v (mask w)

let bit v i = Int64.compare (Int64.logand (Int64.shift_right_logical v i) 1L) 0L <> 0

let set_bit v i b =
  if b then Int64.logor v (Int64.shift_left 1L i)
  else Int64.logand v (Int64.lognot (Int64.shift_left 1L i))

let sign_extend w v =
  if w <= 0 || w > 64 then invalid_arg "Bits.sign_extend"
  else if w = 64 then v
  else if bit v (w - 1) then Int64.logor v (Int64.lognot (mask w))
  else truncate w v

let extract ~hi ~lo v =
  if hi < lo || lo < 0 || hi > 63 then invalid_arg "Bits.extract";
  truncate (hi - lo + 1) (Int64.shift_right_logical v lo)

let ucompare a b = Int64.unsigned_compare a b
let ult a b = ucompare a b < 0
let ule a b = ucompare a b <= 0

let slt ~width a b =
  let a = sign_extend width (truncate width a)
  and b = sign_extend width (truncate width b) in
  Int64.compare a b < 0

let popcount v =
  let rec go acc v =
    if Int64.equal v 0L then acc else go (acc + 1) Int64.(logand v (sub v 1L))
  in
  go 0 v
