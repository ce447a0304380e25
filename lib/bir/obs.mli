(** Tagged observations (Sec. 5.1 of the paper).

    An observational model annotates the program with observation
    statements.  Under refinement, one instrumented program carries the
    observations of both the model under validation ([Base]) and the
    refined model ([Refined]); the projection function of the paper is
    realized by filtering on the tag. *)

type tag =
  | Base  (** observation of the model under validation (M1) *)
  | Refined  (** observation exclusive to the refined model (M2) *)
  | Coverage
      (** observation of a supporting model (Sec. 4.1): not constrained by
          the relation, but tracked so successive test cases come from
          different equivalence classes *)
  | Platform
      (** well-formedness marker: an address that must fall inside the
          evaluation platform's cacheable experiment region (the page
          tables set up by the TrustZone module, Sec. 6.1) *)

type t = {
  tag : tag;
  kind : string;
      (** what is observed, e.g. ["pc"], ["load_addr"], ["branch_cond"],
          ["cache_line"], ["spec_load_addr"]; used for diagnostics and by
          coverage tracking *)
  cond : Scamv_smt.Term.t;
      (** the observation fires only when this holds (e.g. the
          attacker-region predicate of the cache-partitioning model);
          [Term.tt] for unconditional observations *)
  values : Scamv_smt.Term.t list;  (** the observed expressions *)
}

val make :
  ?tag:tag -> ?cond:Scamv_smt.Term.t -> kind:string -> Scamv_smt.Term.t list -> t

val is_base : t -> bool
val is_refined : t -> bool

val map_terms : (Scamv_smt.Term.t -> Scamv_smt.Term.t) -> t -> t
(** Apply a function to the condition and all observed values (used by
    symbolic execution to substitute the current environment). *)

val pp : Format.formatter -> t -> unit
