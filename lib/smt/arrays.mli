(** Memory (array) elimination by Ackermann expansion.

    The {!Term} smart constructors already push [select] through [store]
    chains, so every select reaching this module reads a memory variable
    directly.  Each distinct read [select m a] becomes a fresh bit-vector
    variable; functional consistency is enforced by the side conditions
    [a_i = a_j => r_i = r_j] for every pair of reads on the same memory. *)

type read = {
  mem_name : string;  (** which memory variable is read *)
  addr : Term.t;  (** the (rewritten, array-free) address term *)
  var_name : string;  (** the fresh 64-bit variable holding the value *)
}

type result = {
  formulas : Term.t list;  (** array-free rewrites of the input formulas *)
  side_conditions : Term.t list;  (** Ackermann consistency constraints *)
  reads : read list;  (** read table for model reconstruction *)
}

type state
(** Mutable elimination state: the read table and naming counter.  Holding
    on to it lets an incremental solver session eliminate further formula
    batches with consistent read naming and exactly the missing
    cross-batch consistency conditions. *)

val new_state : unit -> state

val eliminate_into : state -> Term.t list -> result
(** [eliminate_into st fs] rewrites one more batch of formulas against
    [st].  Reads introduced by earlier batches are reused (same variable
    names); [result.side_conditions] contains only the consistency pairs
    involving at least one read that is new in this batch, and
    [result.reads] lists {e all} reads accumulated so far.  On a fresh
    state it removes all memory operations from [fs].
    @raise Term.Sort_error if a formula compares memories for equality. *)

val recover_memories : Model.t -> read list -> Model.t
(** [recover_memories m reads] evaluates every read address under [m] and
    installs the corresponding cells into the model's memories, then drops
    the internal read variables. *)
