(** The paper's optimization problems, built on the exact OPP decision
    procedure by monotone search — as an {e anytime} driver:

    - {b MinT&FindS} (strip packing, SPP): minimize the makespan on a
      chip of fixed size — {!minimize_time};
    - {b MinA&FindS} (base minimization, BMP): minimize a quadratic chip
      for a fixed time budget — {!minimize_base};
    - {b FeasAT&FindS}: the plain decision problem is not a driver here:
      it is one solver call, {!Opp_solver.solve} or
      {!Parallel_solver.solve};
    - {b FeasA&FixedS} / {b MinA&FixedS}: start times given, only space
      is searched — {!feasible_fixed_schedule},
      {!minimize_base_fixed_schedule};
    - the area/time trade-off curve of Fig. 7 — {!pareto_front}.

    {b Anytime semantics.} Every entry point returns a typed status and
    {e never raises} when a budget expires. The [node_limit] and
    [deadline] of the [options] argument are one {e global} budget for
    the whole optimization: each probe of the monotone search receives
    whatever remains (nodes spent by earlier probes are subtracted; the
    deadline is shared as-is), a timed-out probe is treated
    conservatively — "not proven infeasible" — and the bracket search
    keeps working on the side that can still improve the incumbent.
    When the budget dies the driver reports the best feasible placement
    found so far together with the strongest {e proven} lower bound
    instead of throwing the work away.

    {b Parallel probes.} With [jobs > 1] every probe is routed through
    {!Parallel_solver.solve} on that many domains. The verdict is
    unaffected (both solvers are exact); only wall-clock time changes.
    Note that {!Parallel_solver} enforces node limits per worker, so a
    node-budgeted parallel minimization may explore up to [jobs] times
    more nodes than a sequential one before giving up. [jobs] goes
    through {!Parallel_solver.check_jobs} before any probe.

    {b Telemetry.} [on_probe] fires after every completed probe with
    the container tried, the verdict, and the node/time cost;
    {!probe_json} renders one probe for [--stats json] traces.

    {b Bound engine.} When the caller's options enable stage-1 bounds,
    every driver shares one {!Bound_engine} across its probes: probes
    the engine refutes are answered for free (no budget charge, no
    probe event), the doubling/bisection brackets start from the
    engine's proven lower bounds — tightening [Unknown] and
    [Feasible_incumbent] gaps — and the solve inside each probe skips
    its own stage-1 re-check. Ablation runs with [use_bounds = false]
    keep the closed-form bounds and probe every size. *)

(** Witness-carrying optimum: the optimal value and a feasible placement
    attaining it. *)
type 'a optimum = {
  value : 'a;
  placement : Geometry.Placement.t;
}

(** Status-typed result of an anytime minimization. The lower bounds are
    {e proven}: every strictly better value has been refuted by the
    stage-1 bounds or by an exhaustive (non-timeout) probe. For scalar
    problems the bound lives on the value itself; for
    {!minimize_area_rect} it bounds the area [w * h]. *)
type 'a anytime =
  | Optimal of 'a optimum  (** proven optimal (the pre-budget answer) *)
  | Feasible_incumbent of {
      incumbent : 'a optimum;  (** best feasible solution found *)
      lower_bound : int;  (** proven bound on the objective *)
      gap : int;  (** objective of [incumbent] minus [lower_bound] *)
    }
      (** the budget died with a feasible incumbent whose optimality is
          not proven *)
  | Infeasible  (** proven: no solution exists at any objective value *)
  | Unknown of { lower_bound : int }
      (** the budget (or the doubling guard of the base search) died
          before any feasible solution was found, and infeasibility is
          not proven either *)

(** ["optimal" | "feasible" | "infeasible" | "unknown"] — stable tags
    for logs and [--stats json]. *)
val status_string : 'a anytime -> string

(** Outcome of one decision-procedure call made by the driver. *)
type probe = {
  target : Geometry.Container.t;  (** container tried *)
  verdict : [ `Feasible | `Infeasible | `Timeout ];
  nodes : int;  (** branch-and-bound nodes spent on this probe *)
  elapsed_s : float;  (** wall-clock seconds spent on this probe *)
  bounds : Telemetry.bound_counters;
      (** per-bound engine counters of the solve behind this probe *)
}

(** One probe as a JSON object:
    [{"container":[w,h,t],"outcome":"...","nodes":n,"elapsed_s":s,
    "bounds":{...}}]. *)
val probe_json : probe -> Telemetry.json

(** Three-valued decision answer: a witness, a proof of infeasibility,
    or an exhausted budget. {!Opp_solver.outcome} under other names:
    no driver returns it, and the benchmark's serve ledger still
    matches on it. *)
type feasibility =
  | Sat of Geometry.Placement.t
  | Unsat
  | Undecided  (** budget exhausted before the decision was reached *)

(** [minimize_extent ?options ?jobs ?on_probe instance ~axis ~base] is
    the smallest extent [e] along [axis] such that the tasks
    fit the container [base] with its [axis] extent replaced by [e]
    (the extent [base] carries on [axis] is ignored). This is the
    axis-generic optimization problem: with a 2-dimensional instance
    and [axis = 1] it is open-ended strip packing (with per-axis order
    constraints when the instance carries them); with a 3-dimensional
    instance and [axis] the objective axis it is exactly
    {!minimize_time}.

    [Infeasible] iff a task — or a chain of an axis's order — overflows
    [base] on some axis other than [axis], or (for supported
    3-dimensional instances) the stage-2 heuristic proves spatial
    misfit. The search is an anytime binary
    search between the strongest lower bound — per-axis critical path,
    volume over the base cross-section, largest single extent, and a
    serialization clique of tasks pairwise too large to coexist in the
    cross-section; the {!Bound_engine} certificate is added when [axis]
    is the instance's objective axis — and an incumbent: the heuristic
    makespan when {!Heuristic.supports} accepts the instance and [axis]
    is its objective axis, otherwise a doubling search for a feasible
    upper end (whose exhaustion yields [Unknown], never a false
    [Infeasible]). *)
val minimize_extent :
  ?options:Opp_solver.options ->
  ?jobs:int ->
  ?on_probe:(probe -> unit) ->
  Instance.t ->
  axis:int ->
  base:Geometry.Container.t ->
  int anytime

(** [minimize_time ?options ?jobs ?on_probe instance ~w ~h] is the
    smallest makespan [t] such that the tasks fit a [w x h x t]
    container — {!minimize_extent} on the objective axis of a
    3-dimensional instance over the base [w x h].
    [Infeasible] iff a task overflows the chip spatially.
    The search is an anytime binary search between the strongest lower
    bound (critical path, volume, exclusion cliques) and the heuristic
    makespan as the incumbent. *)
val minimize_time :
  ?options:Opp_solver.options ->
  ?jobs:int ->
  ?on_probe:(probe -> unit) ->
  Instance.t ->
  w:int ->
  h:int ->
  int anytime

(** [minimize_base ?options ?jobs ?on_probe instance ~t_max] is the
    smallest [s] such that the tasks fit a [s x s x t_max] container
    (quadratic base, as in the paper's Table 1). [Infeasible] iff the
    critical path exceeds [t_max] — that is a proof. When the doubling
    search for a feasible upper end exhausts its guard or the budget,
    the answer is [Unknown] (with the sizes refuted so far as the
    bound), {e not} [Infeasible]. *)
val minimize_base :
  ?options:Opp_solver.options ->
  ?jobs:int ->
  ?on_probe:(probe -> unit) ->
  Instance.t ->
  t_max:int ->
  int anytime

(** [minimize_area_rect ?options instance ~t_max] generalizes
    {!minimize_base} to rectangular chips: the minimum of [w * h] over
    all chips [w x h] fitting the tasks within [t_max] (module
    orientation stays fixed, so [w] and [h] are not interchangeable). Implemented by sweeping [w] with a per-[w]
    anytime binary search on [h], pruned by the best area found so far;
    the square optimum (or incumbent) seeds the area incumbent. The
    reported [lower_bound] is on the area. *)
val minimize_area_rect :
  ?options:Opp_solver.options ->
  Instance.t ->
  t_max:int ->
  (int * int) anytime

(** [feasible_fixed_schedule instance ~w ~h ~t_max ~schedule] —
    FeasA&FixedS: can the tasks be placed on a [w x h] chip when every
    start time is already fixed? It runs with the default options and
    no budget, so it always decides: [Some] placement carries the given
    start times, [None] means no placement realizes the schedule.
    Schedules that violate the time window or the precedence order are
    [None] without any search. *)
val feasible_fixed_schedule :
  Instance.t ->
  w:int ->
  h:int ->
  t_max:int ->
  schedule:int array ->
  Geometry.Placement.t option

(** [minimize_base_fixed_schedule ?options instance ~t_max ~schedule] —
    MinA&FixedS: the smallest quadratic chip for a given schedule.
    [Infeasible] iff the schedule itself is invalid (window or
    precedence violation). *)
val minimize_base_fixed_schedule :
  ?options:Opp_solver.options ->
  Instance.t ->
  t_max:int ->
  schedule:int array ->
  int anytime

(** A Pareto front, possibly truncated by the budget. [complete] is
    [true] only when every chip size in range was either proven
    spatially infeasible or minimized to proven optimality (or skipped
    because the makespan had already reached the critical-path floor);
    an incumbent point contributed by a budget-limited width, or a
    width never probed because the budget died first, clears it. *)
type front = {
  points : (int * int) list;
  complete : bool;
}

(** [pareto_front ?options ?jobs ?on_probe instance ~h_min ~h_max]
    computes the minimal points of the (chip size, makespan) trade-off
    for quadratic chips [h x h] with [h_min <= h <= h_max]: all pairs
    [(h, t)] such that no chip in range is simultaneously no larger and
    strictly faster. Chips below the first feasible size are skipped.
    Each width is warm-started with the previous Pareto point's
    placement as the upper bracket (its witness stays feasible on the
    larger chip), so only makespans that would strictly improve the
    front are ever probed. *)
val pareto_front :
  ?options:Opp_solver.options ->
  ?jobs:int ->
  ?on_probe:(probe -> unit) ->
  Instance.t ->
  h_min:int ->
  h_max:int ->
  front

(** [pareto_front_axes ?options ?jobs ?on_probe instance ~sweep
    ~minimize ~lo ~hi ~base] generalizes {!pareto_front} to an
    arbitrary pair of container axes in any dimension: for each extent
    [s] of the [sweep] axis with [lo <= s <= hi] (every other axis
    fixed by [base]), the [minimize] axis extent is minimized with
    {!minimize_extent}, and the minimal points [(s, e)] of the
    trade-off are returned. Each sweep step is warm-started with the
    previous point's witness (feasibility is monotone in the sweep
    extent); the sweep stops early once the minimized extent reaches
    its container-independent floor (per-axis critical path / largest
    task). [sweep] and [minimize] must be distinct axes of the
    instance's dimension. *)
val pareto_front_axes :
  ?options:Opp_solver.options ->
  ?jobs:int ->
  ?on_probe:(probe -> unit) ->
  Instance.t ->
  sweep:int ->
  minimize:int ->
  lo:int ->
  hi:int ->
  base:Geometry.Container.t ->
  front
