(** Parallel OPP solving on OCaml 5 domains: a work-stealing search
    kernel over {!Opp_solver}.

    Each of the [jobs] domains owns a deque of {e subtree descriptors}
    — compact prefixes of branching decisions from the root, never
    copied states. Worker 0 starts with the root descriptor; while a
    worker descends its subtree it {e donates} the not-yet-taken
    alternative branch of a node to its own deque whenever that deque
    runs low (dynamic regeneration — there is no up-front split), pops
    donations back LIFO and runs them in place on the live state when
    nobody stole them, and when completely dry {e steals} FIFO from the
    victim with the fullest deque (heartbeat load data breaks ties).
    Thieves replay a stolen prefix on a fresh state ({!replay}) and
    search the subtree with the same donation hooks, so work keeps
    subdividing for as long as any worker is hungry.

    Because a reclaimed donation executes in place, worker 0's
    execution order is {e exactly} the sequential DFS order — thieves
    only remove subtrees the sequential search would have visited
    later. A parallel run therefore cannot be starved behind work the
    sequential solver would never have reached first: the static-split
    pathologies (one subproblem holding nearly the whole tree) are
    gone by construction.

    The global incumbent (first witness found) and cancellation are
    shared through atomics polled cooperatively at node boundaries;
    subtree refutations are implicit — a descriptor finishing
    [Infeasible] (or failing prefix replay) retires its subtree for
    every worker, and a global pending-descriptor count detects
    exhaustion of the whole tree.

    {b Determinism.} Both solvers are exact, so the feasibility verdict
    is independent of [jobs] and of scheduling: [Feasible]/[Infeasible]
    answers agree with {!Opp_solver.solve} on every instance (the
    witness placement may differ between runs; it is always validated).
    Only when a budget ([node_limit], [deadline]) expires can the result
    degrade — and then it degrades to [Timeout], never to a wrong
    verdict. Node limits are enforced {e per worker} across all the
    descriptors that worker executes, so a parallel run with the same
    [node_limit] explores up to [jobs] times more nodes than a
    sequential one; the first worker to exhaust its budget cancels the
    solve (the proof cannot complete without its subtrees).

    {b Domains.} [solve] spawns [jobs] fresh domains ({e none} when
    [jobs = 1] — the sequential solver runs on the calling domain) and
    joins all of them before returning, including on cancellation and
    deadline paths — no domain outlives the call. Nested use from
    inside another domain is safe but multiplies the domain count. *)

(** One branching decision of a descriptor prefix (re-exported from
    {!Opp_solver.decision}): pair [(u, v)] in dimension [dim],
    [overlap] choosing component (overlap) versus comparability
    (disjointness). *)
type decision = Opp_solver.decision = {
  dim : int;
  u : int;
  v : int;
  overlap : bool;
}

(** The per-worker deque. Owner operations ([push], [pop], [pop_if])
    act on the newest end; [steal] takes the oldest element. All
    operations are linearizable under concurrent use from any number
    of domains; [size] is a lock-free approximation (exact when no
    operation is in flight). Exposed for the qcheck stress tests. *)
module Deque : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit

  (** Remove and return the newest element. *)
  val pop : 'a t -> 'a option

  (** Remove and return the newest element only if it satisfies the
      predicate (the owner's reclaim-by-identity check); [None] when
      the deque is empty or the newest element does not match. The
      predicate must not raise. *)
  val pop_if : 'a t -> ('a -> bool) -> 'a option

  (** Remove and return the oldest element. *)
  val steal : 'a t -> 'a option

  val size : 'a t -> int
end

(** Per-worker telemetry: the work-stealing counters (descriptors
    executed / stolen / donated / reclaimed), the worker's wall-clock
    lifetime, and its merged search stats. *)
type worker_report = {
  worker : int;
  work : Telemetry.steal_counters;
  elapsed_s : float;
  stats : Opp_solver.stats;
}

type report = {
  outcome : Opp_solver.outcome;
  stats : Opp_solver.stats; (** merged over workers, wall-clock elapsed *)
  workers : worker_report list;
  tasks : int;
      (** descriptors executed across all workers (0 when the instance
          settled before the search stage, or when [jobs = 1]) *)
  steals : int; (** successful steals across all workers *)
  jobs : int;
}

(** [replay ?options ?schedule instance container prefix] rebuilds a
    fresh root state and re-applies a descriptor prefix. [Error] means
    the prefix fails propagation — for a stolen descriptor this is the
    donated alternative branch being refuted, the same pruned branch
    the sequential search would count as a conflict. *)
val replay :
  ?options:Opp_solver.options ->
  ?schedule:int array ->
  Instance.t ->
  Geometry.Container.t ->
  decision list ->
  (Packing_state.t, Packing_state.conflict) result

(** [solve ?options ?schedule ?jobs instance container] decides the
    instance in parallel. Stages 1 and 2 and the root propagation are
    {!Opp_solver}'s ({!Opp_solver.pipeline}), run once on the calling
    domain before any domain is spawned, with the same stats and trace
    events as a sequential solve; only the stage-3 search is
    work-stolen, and its root descriptor searches the propagated root
    state itself. [jobs] defaults to 2 and is clamped to at
    least 1; [jobs = 1] short-circuits to {!Opp_solver.solve} with
    zero domain overhead and unchanged stats. All
    {!Opp_solver.options} budgets apply: [deadline] is shared by every
    worker, [node_limit] is per worker, [on_heartbeat] may be called
    concurrently from several domains. *)
val solve :
  ?options:Opp_solver.options ->
  ?schedule:int array ->
  ?jobs:int ->
  Instance.t ->
  Geometry.Container.t ->
  report

val pp_report : Format.formatter -> report -> unit

(** One-line JSON rendering of a report (for [--stats json]). *)
val report_to_json : report -> string
