(** Per-search event recorder: every solver event — a rule call or
    conflict, a bound evaluation, a realization, a search node or
    decision, the work-stealing kernel's claim, steal, donate and
    reclaim — is one call here. The recorder keeps the tallies
    {!Opp_solver.stats} and {!Parallel_solver.report} render, builds
    the matching {!Trace.kind} and hands it to {!Trace.emit} when its
    trace is enabled (reclaims, conflicts and leaves are tallied only),
    and is the one writer of the [fpga_solver_*], [fpga_bounds_*] and
    [fpga_parallel_*] metric families.

    A family is registered by the layer that owns it ([register_*]), so
    a run exposes the families of the stages it reached. Events only
    update tallies; the registry is written in {!flush} alone, with
    what changed since the previous flush, and every owner flushes
    when it finishes. With the trace and the registry off, events
    touch neither and allocate nothing. A recorder is single-writer:
    one per search, engine or parallel worker; {!absorb} sums recorders
    into one. *)

type t

(** A recorder with zero tallies, writing to [trace] (default
    {!Trace.null}) and to the process default metrics registry at the
    time of the call. *)
val create : ?trace:Trace.t -> unit -> t

(** A recorder that writes to no trace and no registry: the tallies of
    a search run inside a bound ({!Opp_solver.root_check}), whose work
    counts as that bound's time only. *)
val detached : unit -> t

(** Whether the trace or the registry is live. *)
val enabled : t -> bool

(** Starts the clock of the next timed event: a bound call or a
    realization ({!rule_start} for rule calls). Timed events do not
    nest. *)
val start : t -> unit

(** {1 Packing rules} *)

(** The packing rules, and the only list of them: one table gives each
    its metric label and trace [rule_fire] name (the constructor in
    lower case) and, for the timed rules, the prefix of its
    [--stats json] calls and seconds. *)
type rule = C2 | C3 | C4 | Capacity | Symmetry | Implications

(** Whether {!Packing_state.rules} may switch a rule off: the timed
    rules (C2, C4, capacity, implications) can, C3 and symmetry
    cannot. *)
val switchable : rule -> bool

(** Why a packing rule closed a branch: the typed witness of a
    conflict. It is built only when a branch fails, and turned into
    text only by {!conflict_to_string}. *)
type conflict =
  | Pair of { dim : int; edge : Order.Oriented_graph.conflict }
      (** The edge-state store of dimension [dim] refused a write or
          found a D1/D2 conflict on [edge.pair]. *)
  | Overlap of { u : int; v : int }
      (** C3: the pair overlaps in every dimension. *)
  | Chain of { dim : int; u : int; v : int; weight : int; cap : int }
      (** C2: a chain of pairwise-comparable boxes through [(u, v)]
          needs extent [weight > cap] along [dim]. *)
  | Cross_section of { dim : int; u : int; v : int; weight : int; cap : int }
      (** Capacity: boxes pairwise overlapping [(u, v)] in [dim] need
          cross-section [weight > cap]. *)
  | Induced_c4 of { dim : int; a : int; b : int; c : int; d : int }
      (** C1: component edges of [dim] form the 4-cycle
          [a - b - c - d - a], and both diagonals [{a,c}], [{b,d}] are
          comparable, so the cycle is induced. *)

(** The one printer of conflicts: the text is the trace's [rule_fire]
    detail, e.g. ["C3: pair (0,1) overlaps in every dimension"]. *)
val conflict_to_string : conflict -> string

val register_rules : t -> unit

(** [rule_start t rule] starts the clock of the next call of [rule] when
    that call is sampled: one call in 32 per rule reads the clock. *)
val rule_start : t -> rule -> unit

(** [rule_call t rule r] records a call of [rule], started by
    {!rule_start}, that returned [r], then {!rule_conflict}. Call counts
    are exact; a sampled call adds 32 times its duration to the rule's
    seconds, which are therefore an estimate. *)
val rule_call :
  t -> rule -> (unit, conflict) result -> (unit, conflict) result

(** [rule_conflict t rule r] records an [Error] as a conflict of [rule]
    (the trace gets its text only when it is live); returns [r]. *)
val rule_conflict :
  t -> rule -> (unit, conflict) result -> (unit, conflict) result

(** Per-rule calls and estimated seconds, indexed like the rule table
    (read them through {!counts_json}), plus the realization attempts
    and seconds: one attempt per fully decided leaf the search reaches.
    A parallel solve reports the sum over workers. *)
type counts = {
  calls : int array;
  time_s : float array;
  realize_attempts : int;
  realize_time_s : float;
}

(** A snapshot of [t]'s counts. *)
val counts : t -> counts

(** All zero: what a solve settled before the search reports. *)
val no_counts : counts

(** The [--stats json] [rules] object: [<key>_calls] and
    [<key>_time_s] of each timed rule in table order, then
    [realize_attempts] and [realize_time_s]. *)
val counts_json : counts -> Telemetry.json

(** {1 Bounds} *)

type bound

(** The tally of bound [name], registered on first use in [t]. *)
val register_bound : t -> string -> bound

(** One evaluation, started by {!start}; [Bv_infeasible] prunes. *)
val bound_call : t -> bound -> Trace.bound_verdict -> unit

(** Per-bound calls, seconds and prunes, in registration order. *)
val bounds : t -> Telemetry.bound_counters

(** The bound work since the previous take, idle bounds left out;
    flushes, then resets it. *)
val take_bounds : t -> Telemetry.bound_counters

(** {1 Search} *)

(** Registers the search series; the search starts at decision depth
    [depth_offset]. Tallies keep counting across the searches a
    recorder serves. *)
val start_search : t -> depth_offset:int -> unit

(** Counts a node. *)
val node_enter : t -> depth:int -> unit

val node_close : t -> depth:int -> conflicts:int -> unit
val decision : t -> depth:int -> dim:int -> u:int -> v:int -> unit

(** A refuted node or branch, or a root that fails propagation. *)
val conflict : t -> unit

val leaf : t -> unit
val realize : t -> success:bool -> unit
val nodes : t -> int
val conflicts : t -> int
val leaves : t -> int
val max_depth : t -> int

(** {1 Work-stealing kernel} *)

(** Registers the kernel and search series of a parallel worker;
    [worker] labels its node count. *)
val register_kernel : t -> worker:int -> unit

val claim : t -> index:int -> unit
val steal : t -> victim:int -> depth:int -> unit
val donate : t -> depth:int -> unit
val reclaim : t -> unit

val steal_counters : t -> Telemetry.steal_counters

(** {1 Flush and merge} *)

(** Writes every tally's change since the previous flush to the
    registry: the only place a recorder writes it. *)
val flush : t -> unit

(** [absorb ~into t] flushes [t], then adds its tallies to [into]'s:
    counts and seconds add, bounds by name (new names appended in
    [t]'s order), the maximum depth takes the larger. [into]'s flush
    marks advance by what [t] flushed, so a later flush of [into]
    writes none of [t]'s events again. *)
val absorb : into:t -> t -> unit
