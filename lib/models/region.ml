module Term = Scamv_smt.Term
module Platform = Scamv_isa.Platform

type t = { first_set : int; last_set : int }

let make ~first_set ~last_set =
  if first_set < 0 || last_set < first_set then
    invalid_arg "Region.make: empty or negative range";
  { first_set; last_set }

let paper_unaligned (p : Platform.t) =
  make ~first_set:(p.set_count - 67) ~last_set:(p.set_count - 1)

let paper_page_aligned (p : Platform.t) =
  make ~first_set:(p.set_count - 64) ~last_set:(p.set_count - 1)

let set_index_term (p : Platform.t) addr =
  let bits = Platform.set_index_bits p in
  Term.extract ~hi:(p.line_shift + bits - 1) ~lo:p.line_shift addr

let contains_term p { first_set; last_set } addr =
  let bits = Platform.set_index_bits p in
  let line = set_index_term p addr in
  Term.and_
    (Term.ule (Term.bv_const (Int64.of_int first_set) bits) line)
    (Term.ule line (Term.bv_const (Int64.of_int last_set) bits))

let contains p { first_set; last_set } addr =
  let s = Platform.set_index p addr in
  first_set <= s && s <= last_set
