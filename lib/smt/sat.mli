(** CDCL SAT solver (two-watched literals with blocker literals, 1UIP
    clause learning, VSIDS activities, Luby restarts, phase saving,
    LBD-guided clause-database reduction, root-level simplification).

    This is the decision core under the bit-blaster; it replaces the Z3
    backend of the original Scam-V pipeline.  The solver is incremental in
    the sense needed for model enumeration: clauses (e.g. blocking
    clauses) can be added between [solve] calls, and learnt knowledge
    persists across calls.

    Internals (see DESIGN.md "Solver internals and performance"): clauses
    live in a single growable int arena and are referenced by offset;
    watch lists are flat int vectors of (clause, blocker) pairs compacted
    in place by propagation, so the hot path performs no list allocation.
    Branching is VSIDS over a binary heap keyed on (activity desc, id
    asc), with each slot's key held in a float array beside the slot
    array; sifts move a hole and pop is bottom-up (Floyd).  The key is a
    strict total order, so the heap layout is a function of the
    operation sequence — and it is part of the seeded search, because
    random branching picks a heap slot by index.  Variables that never
    gained activity are decided by an ascending-id cursor that persists
    across queries: every unassigned zero-activity variable has an id at
    or above it, an invariant [new_var] and backtracking maintain.
    Clause intake normalizes in a solver-owned scratch buffer, so
    {!add_clause2} and {!add_clause3} allocate nothing per clause.
    Learnt clauses carry an LBD score (Audemard & Simon) and a recency
    activity; every ~2000 conflicts the learnt database is reduced,
    keeping glue clauses (LBD <= 2) and locked clauses and deleting the
    worse half of the rest.  Between enumeration solves, once the level-0
    trail has grown, the clause set is simplified against it (satisfied
    clauses deleted, false literals stripped).

    Thread-safety: a solver instance is mutable and {e domain-confined} —
    it must only ever be used from the domain that created it.  Parallel
    campaigns create one solver per enumeration session inside each
    worker.  This module holds {e no} cross-domain state: work counters
    live per instance, and every [solve] call additionally flushes its
    deltas ([sat.conflicts], [sat.decisions], [sat.propagations],
    [sat.restarts], [sat.learned], [sat.deleted], [sat.queries],
    [sat.assumption_solves], [sat.budget_exhausted], the
    [sat.conflicts_per_query] histogram and the [sat.lbd] histogram of
    freshly learnt clauses) to the domain's current
    {!Scamv_telemetry.Collector}, where the campaign merges them in
    program order.  {!push}/{!pop} additionally count [sat.pushes] and
    [sat.pops]. *)

type t

type lit = int
(** Literal encoding: variable [v >= 1] yields positive literal [2*v] and
    negative literal [2*v + 1]. *)

val pos : int -> lit
(** Positive literal of a variable. *)

val neg_of_var : int -> lit
(** Negative literal of a variable. *)

val negate : lit -> lit
val var_of : lit -> int
val is_pos : lit -> bool

val create : ?seed:int64 -> ?default_phase:bool -> ?restart_base:int -> unit -> t
(** [create ()] makes an empty solver.  [default_phase] is the polarity
    tried first for unassigned variables (default [false], which yields
    zeros-first models similar to Z3 default models).  [seed] enables a
    small random component in branching to diversify enumerated models.
    [restart_base] (default [100]) scales the Luby restart series —
    conflicts allowed before the [n]th restart are
    [restart_base * luby n]; portfolio configurations vary it to
    diversify search trajectories. *)

val new_var : t -> int
(** Allocate a fresh variable. *)

val num_vars : t -> int

val add_clause : t -> lit list -> unit
(** Add a clause over existing variables.  Adding the empty clause (or a
    clause falsified at level 0) makes the instance permanently UNSAT.
    Inside an open {!push} scope the clause is guarded by the innermost
    scope's selector literal, so {!pop} retracts it. *)

val add_clause2 : t -> lit -> lit -> unit
val add_clause3 : t -> lit -> lit -> lit -> unit
(** [add_clause2 t a b] and [add_clause3 t a b c] are [add_clause t [a; b]]
    and [add_clause t [a; b; c]] without building the list: the same
    normalization, the same watched literals, no allocation.  The
    bit-blaster's Tseitin encodings go through them. *)

val push : t -> unit
(** Open a retractable scope: clauses added until the matching {!pop} are
    guarded by a fresh selector variable that every subsequent [solve]
    assumes.  Scopes nest.  Trail, activities, saved phases and learnt
    clauses are shared with the enclosing state — nothing is copied. *)

val pop : t -> unit
(** Close the innermost scope: its clauses are permanently satisfied by a
    selector unit (and physically removed by the next root-level
    simplification).  Learnt clauses derived under the scope mention the
    selector's negation, so they remain sound and are simplified away
    rather than unlearned — knowledge from sibling scopes persists.
    Raises [Invalid_argument] with no open scope. *)

val num_scopes : t -> int
(** Number of currently open {!push} scopes. *)

type outcome = Sat | Unsat | Unknown
(** Three-valued solve result.  [Unknown] means the conflict cap was
    reached before the search finished: the instance is neither proved
    satisfiable nor unsatisfiable, and the solver remains usable. *)

val solve :
  ?assumptions:lit array -> ?n_assumptions:int -> ?max_conflicts:int -> t -> outcome
(** [solve t] returns [Sat] iff the clause set is satisfiable; when
    [Sat], {!value} reads the satisfying assignment.

    [assumptions] are literals asserted as the first decisions: an [Unsat]
    result under assumptions means "unsatisfiable together with the
    assumptions" and leaves the solver usable (only a conflict at decision
    level zero marks the instance permanently UNSAT).  Used by the
    lexicographic model minimizer.  [n_assumptions] restricts the call to
    the first [n] entries of [assumptions], so an incremental caller can
    keep one growable prefix array and extend it in place between calls
    instead of rebuilding an array per query.  Open {!push} scopes
    contribute their selector literals ahead of the caller's assumptions.

    Assumption-trail reuse: consecutive calls keep the longest shared
    prefix of assumption decision levels on the trail instead of
    rewinding to level 0, so a caller that only extends (or replaces the
    tail of) its assumption sequence pays for re-propagating the changed
    suffix alone.  Adding a clause between calls invalidates the kept
    prefix automatically.

    [max_conflicts] caps the conflicts this call may spend: once it has
    spent more than that many, the call stops with [Unknown], the trail
    is rewound, and the solver (including all learnt clauses) stays
    usable — a later call with a larger cap resumes from the accumulated
    knowledge.  The cap is checked at the loop head, before the deadline.

    Cooperative cancellation: the search charges the ambient
    {!Scamv_util.Deadline} token (when one is installed) one unit per
    conflict and checks it at the loop head.  Expiry rewinds the trail and
    flushes telemetry exactly like an out-of-budget stop, then raises
    {!Scamv_util.Deadline.Expired} — the solver object stays reusable. *)

val value : t -> int -> bool
(** Value of a variable in the last satisfying assignment.
    Only meaningful after [solve] returned [true]. *)

val root_value : t -> int -> int
(** [root_value t v] is [1] ([-1]) if [v] is forced true (false) at
    decision level 0 — i.e. in every model — and [0] otherwise.  Lets the
    model minimizer skip bits whose value is no longer free. *)

val randomize_phases : t -> int64 -> unit
(** Re-seed saved phases randomly; used by diversified enumeration. *)

val reset_phases : t -> unit
(** Forget saved phases, restoring the default polarity.  Model
    enumeration calls this before every non-diversified solve so each
    model is re-derived near-minimal (like Z3 default models) instead of
    drifting with the previous assignment. *)

val nudge_activity : t -> int -> float -> unit
(** Add a small initial activity to a variable (before solving), biasing
    the branching order.  The bit-blaster gives the high bits of input
    words slightly more activity than the low bits, so enumeration flips
    low bits first and produces small-difference models like Z3's default
    model completion. *)

val stats_conflicts : t -> int
(** Total conflicts so far. *)

val stats_decisions : t -> int
val stats_propagations : t -> int
