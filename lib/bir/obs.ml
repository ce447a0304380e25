module Term = Scamv_smt.Term

type tag = Base | Refined | Coverage | Platform
type t = { tag : tag; kind : string; cond : Term.t; values : Term.t list }

let make ?(tag = Base) ?(cond = Term.tt) ~kind values = { tag; kind; cond; values }
let is_base o = o.tag = Base
let is_refined o = o.tag = Refined

let map_terms f o = { o with cond = f o.cond; values = List.map f o.values }

let pp ppf { tag; kind; cond; values } =
  Format.fprintf ppf "@[<h>observe[%s,%s]"
    (match tag with
    | Base -> "base"
    | Refined -> "refined"
    | Coverage -> "coverage"
    | Platform -> "platform")
    kind;
  (match cond with
  | Term.True -> ()
  | c -> Format.fprintf ppf " when %a" Term.pp c);
  List.iter (fun v -> Format.fprintf ppf " %a" Term.pp v) values;
  Format.fprintf ppf "@]"
