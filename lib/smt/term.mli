(** Terms of the QF_ABV-style language.

    Terms are plain immutable trees; the constructors exported here are
    smart constructors that check well-sortedness and perform constant
    folding plus light algebraic simplification, so the bit-blaster only
    ever sees normalized terms.  Structural equality is semantic-free but
    adequate for caching. *)

type t = private
  | True
  | False
  | Var of string * Sort.t
  | Bv_const of int64 * int  (** value (truncated), width *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t
  | Eq of t * t  (** on Bool or Bv operands *)
  | Ult of t * t
  | Ule of t * t
  | Slt of t * t
  | Sle of t * t
  | Bv_unop of bv_unop * t
  | Bv_binop of bv_binop * t * t
  | Extract of int * int * t  (** hi, lo *)
  | Concat of t * t
  | Zero_extend of int * t  (** number of extra bits *)
  | Sign_extend of int * t
  | Ite of t * t * t  (** condition is Bool; branches share a Bv sort *)
  | Select of t * t  (** memory, address *)
  | Store of t * t * t  (** memory, address, value *)

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
(** Raised by smart constructors on ill-sorted arguments. *)

val sort_of : t -> Sort.t
(** Sort of a term (terms built through this interface are well-sorted). *)

val equal : t -> t -> bool
(** Monomorphic structural equality with a physical-equality fast path;
    much cheaper than polymorphic comparison on the deep, heavily shared
    ASTs the bit-blaster caches (see {!Scamv_smt.Blaster}). *)

val compare : t -> t -> int

val hash : t -> int
(** Specialized structural hash (bounded preorder walk), compatible with
    [equal]: equal terms hash equal. *)

(** {1 Smart constructors} *)

val tt : t
val ff : t
val bool_var : string -> t
val bv_var : string -> int -> t
val mem_var : string -> t
val bv_const : int64 -> int -> t
val bv_zero : int -> t
val bv_one : int -> t

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val and_l : t list -> t
val or_l : t list -> t
val implies : t -> t -> t
val iff : t -> t -> t
val eq : t -> t -> t
val neq : t -> t -> t

val ult : t -> t -> t
val ule : t -> t -> t
val ugt : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t

val extract : hi:int -> lo:int -> t -> t
val concat : t -> t -> t
val zero_extend : int -> t -> t
val sign_extend : int -> t -> t
val ite : t -> t -> t -> t
val select : t -> t -> t
val store : t -> t -> t -> t

(** {1 Traversals} *)

val rename : (string -> string) -> t -> t
(** [rename f t] renames every variable [x] to [f x], keeping sorts. *)

val subst : (string -> Sort.t -> t option) -> t -> t
(** [subst f t] replaces every variable [x] with [f x sort] when it returns
    [Some]; replacements must have the variable's sort.  Substitution is
    simultaneous (replacement terms are not re-visited). *)

val free_vars : t -> (string * Sort.t) list
(** Free variables in deterministic (sorted by name) order, no duplicates. *)

val size : t -> int
(** Number of nodes, for diagnostics. *)

val pp : Format.formatter -> t -> unit
(** SMT-LIB-flavoured s-expression rendering. *)

val to_string : t -> string
