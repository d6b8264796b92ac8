(** The exact orthogonal packing decision procedure (OPP) with optional
    temporal precedence constraints — stage 3 of the paper's framework,
    preceded by bounds (stage 1) and a construction heuristic (stage 2).

    The branch-and-bound search enumerates packing classes: it
    repeatedly picks an undecided (pair, dimension), branches on
    {e component} (projections overlap) versus {e comparability}
    (projections disjoint), and propagates the packing-class conditions
    plus the D1/D2 orientation implications after every decision. A leaf
    is accepted only if an actual placement can be reconstructed
    ({!Reconstruct.of_state}) and passes geometric validation, so a
    [Feasible] answer always carries a checked witness; the search
    realizes nowhere else. [Infeasible] is exact, by exhaustion of the
    packing class space. *)

type outcome =
  | Feasible of Geometry.Placement.t
  | Infeasible
  | Timeout
      (** a budget expired: the node limit or the wall-clock deadline,
          or a {!Parallel_solver} sibling raised the stop flag of
          {!solve_state} *)

(** One branching decision of the search: pair [(u, v)] in dimension
    [dim], [overlap] choosing component (projections overlap) versus
    comparability (projections disjoint). A sequence of decisions from
    the root is a compact subtree descriptor: replaying it on a fresh
    state reaches the same node ({!Parallel_solver.replay}). *)
type decision = {
  dim : int;
  u : int;
  v : int;
  overlap : bool;
}

(** Work-sharing hooks for the {!Parallel_solver} stealing kernel,
    called at branch points of the search ([None] everywhere else —
    the sequential path pays nothing).

    At every binary branch point the search first calls
    [offer ~path ~len ~alt]: [path] is the decision stack of this
    search (only the first [len] slots are meaningful — the decisions
    from the search root to the current node, outermost first; the
    array is reused across calls and must be copied if retained) and
    [alt] is the branch the search will explore {e second}. The hook
    either declines ([None], e.g. when the local deque already holds
    enough work) or queues the descriptor and returns a token.

    After the first branch returns, the search calls [reclaim token]:
    [true] means the descriptor was still in the local deque (nobody
    stole it) and has been removed — the search then runs the second
    branch in place on the live state, preserving the exact sequential
    DFS order; [false] means a thief owns that subtree and the node is
    done. Both hooks run on the search's own domain. *)
type share = {
  offer : path:decision array -> len:int -> alt:decision -> int option;
  reclaim : int -> bool;
}

type stats = {
  nodes : int; (** branch-and-bound nodes visited *)
  conflicts : int; (** propagation failures (pruned branches) *)
  leaves : int; (** fully decided states reached *)
  max_depth : int; (** deepest decision stack reached *)
  elapsed : float; (** wall-clock seconds spent in the solve *)
  by_bounds : bool; (** settled by stage-1 bounds *)
  by_heuristic : bool; (** settled by the stage-2 heuristic *)
  rules : Recorder.counts;
      (** where propagation time went: per-rule call/time counters plus
          the realization attempt count, one per leaf check *)
  bounds : Telemetry.bound_counters;
      (** per-bound call/time/prune counters from the {!Bound_engine}:
          the stage-1 root check plus the throttled in-search
          energetic checks (see {!options.node_bounds}) *)
}

(** When the search runs the in-search bound check
    ({!options.node_bounds}). The bounds emit exact certificates, so
    every policy returns the same verdict; the policy only trades
    pruning against per-node overhead. *)
type realize_policy =
  | Realize_always  (** check at every node *)
  | Realize_never  (** never check at search nodes *)
  | Realize_adaptive
      (** check only once 15% of the (pair, dimension) slots are
          decided, only after the propagation trail moved 12 entries
          since the last check, and after a node cooldown that doubles
          with each consecutive miss (capped at 256 nodes): early,
          sparse or unchanged states almost never refute *)

type options = {
  rules : Packing_state.rules; (** propagation toggles (ablations) *)
  use_bounds : bool; (** stage 1 *)
  use_heuristic : bool;
      (** stage 2. The construction heuristic only runs when
          {!Heuristic.supports} accepts the instance (3-dimensional,
          objective on the last axis, no spatial orders); anything else
          — strip packing, [d <> 3], per-axis order constraints — skips
          straight to the stage-3 search, whose verdict is exact either
          way. *)
  node_limit : int option;
      (** give up after this many nodes, counted on the search's
          recorder ({!Parallel_solver}: per worker) *)
  deadline : Clock.deadline option;
      (** a {!Clock.after} deadline on the monotonic clock; the search
          returns [Timeout] soon after it passes. Polled every few
          dozen nodes, so the overshoot is bounded by the cost of that
          many propagation steps. *)
  progress_interval_s : float;
      (** seconds between [on_heartbeat] firings (default 1.0),
          checked at the node-poll granularity (every ~32 nodes),
          so the rate does not depend on node throughput. Values
          [<= 0.0] fire at every poll tick — useful in tests,
          pathological in production. *)
  on_heartbeat : (Telemetry.progress -> unit) option;
      (** periodic callback with a {!Telemetry.progress} snapshot
          (nodes, nodes/s, max depth, decided fraction, trail length)
          of this search. The search blocks while it runs, so keep it
          cheap; in a parallel solve it may be called concurrently from
          several domains, each reporting its own worker. The
          optimization drivers ({!Problems}) wrap it to inject the
          current bracket and gap. *)
  trace : Trace.t;
      (** structured event trace ({!Trace.null} = off). A solve records
          every event — rule calls and conflicts, bound calls, nodes,
          decisions, realizations — once, on one {!Recorder}; the
          recorder keeps the tallies these stats render, appends to
          this trace and updates the process {!Metrics} registry, so
          the three views agree event for event. The search
          explores the component (overlap) branch first, or the
          comparable branch first when the boxes' total volume equals
          the container's (a tiling). *)
  node_bounds : realize_policy;
      (** throttle for the in-search
          {!Bound_engine.energetic_at_node} check on the committed
          time-axis arcs of the current node (precedence plus branching
          decisions). An [Infeasible] verdict refutes the whole subtree
          — these are exact certificates, so any policy returns the
          same final verdict; the policy only trades extra pruning
          against per-node overhead. Defaults to [Realize_adaptive]. *)
}

val default_options : options

(** [solve ?options ?schedule instance container] decides whether the
    tasks fit into the container while respecting the precedence order.
    When [schedule] gives a fixed start time per task, the time
    dimension is pre-determined and only the spatial dimensions are
    searched — the paper's FixedS problems. The witness placement then
    uses equivalent (possibly compressed) start times with the same
    overlap structure; callers wanting the original start times can
    substitute them, spatial feasibility is preserved. *)
val solve :
  ?options:options ->
  ?schedule:int array ->
  Instance.t ->
  Geometry.Container.t ->
  outcome * stats

(** [pipeline ?options ?schedule instance container ~settled ~stage3]
    runs stages 1-2 and the root propagation of {!solve}, for both
    solvers. An instance they settle goes to [settled] with its outcome
    and stats; otherwise [stage3 ~t0 root] searches the propagated root,
    whose recorder holds the stage-1 bound work ([t0]: the solve's
    start). Each stage is one trace [phase] event, and a heuristic hit
    an [incumbent]. {!Parallel_solver.solve} supplies its own [stage3]. *)
val pipeline :
  ?options:options ->
  ?schedule:int array ->
  Instance.t ->
  Geometry.Container.t ->
  settled:(outcome -> stats -> 'a) ->
  stage3:(t0:Clock.t -> Packing_state.t -> 'a) ->
  'a

(** [root_check engine instance container] is the stage-1 check of
    {!pipeline}: {!Bound_engine.check}, then, unless that refuted the
    instance, {!Bound_engine.time_slice} with {!slice_refuter}. Every
    evaluation is recorded on [engine]'s recorder; the slice
    sub-solves' nodes are the time-slice bound's time and reach no
    search tally, metric or trace. *)
val root_check :
  Bound_engine.t -> Instance.t -> Geometry.Container.t -> Bound_engine.verdict

(** [slice_refuter ()] is a fresh [refute] for {!Bound_engine.time_slice}:
    it answers [true] when the stage-1 bounds or the search prove a
    slice unpackable. All its calls share one fixed budget of 2,000
    search nodes; an exhausted budget or an open search answers
    [false]. *)
val slice_refuter : unit -> Instance.t -> Geometry.Container.t -> bool

(** [solve_state ?options ?depth_offset ?share ~stop state] runs the stage-3
    search alone, from an already-initialized (and possibly partially
    decided) {!Packing_state.t}. Stages 1 and 2 are skipped regardless
    of [options]; [depth_offset] credits decisions replayed into
    [state] before the call so [stats.max_depth] reflects the true
    depth. The state is consumed by the search (a [Feasible] exit does
    not unwind its trail); create a fresh one per call. The search
    records on the state's {!Packing_state.recorder}, which should
    carry [options.trace], and its stats are that recorder's tallies:
    a recorder that served earlier searches keeps counting, and
    [node_limit] applies to its count. [share] attaches the
    work-stealing hooks (see {!share}). The search polls [stop]
    alongside the deadline and returns [Timeout] once it is set. This
    is the worker entry point of {!Parallel_solver}, whose workers
    share one [stop] flag to halt their siblings once the answer is
    known. *)
val solve_state :
  ?options:options ->
  ?depth_offset:int ->
  ?share:share ->
  stop:bool Atomic.t ->
  Packing_state.t ->
  outcome * stats

(** ["feasible" | "infeasible" | "timeout"]: the one name of each
    outcome in reports, traces and [--stats json]. *)
val outcome_name : outcome -> string

val pp_outcome : Format.formatter -> outcome -> unit
val pp_stats : Format.formatter -> stats -> unit

(** Stats as a {!Telemetry.json} value, for embedding into larger
    reports ({!Parallel_solver.report_to_json}). *)
val stats_json : stats -> Telemetry.json

(** One-line JSON rendering of a stats record (for [--stats json]). *)
val stats_to_json : stats -> string

(** [recorded r ~elapsed] is the stats of a search recorded on [r]:
    its tallies, neither stage flag set. {!Parallel_solver} reads its
    worker and merged reports this way. *)
val recorded : Recorder.t -> elapsed:float -> stats
