(** Composable bounding/pruning engine.

    One registry of bound functions serves every layer that prunes: the
    stage-1 root check of {!Opp_solver}, probe skipping and proven
    lower bounds in {!Problems}, and the pre-check of {!Knapsack}. The
    geometric baseline ([Baseline.Geometric_bb]) does not call it: it
    judges the search independently. The search's node check is
    energetic reasoning alone ({!energetic_at_node}).

    Every registered bound takes a (sub)instance plus a container and
    returns a typed {!verdict}:

    - [Infeasible c] — no packing exists; [c] is a serializable
      certificate naming the bound and the witnessing structure.
    - [Lower_bound t] — every packing into a container with the same
      spatial extents needs time extent at least [t] (with [t] no larger
      than the queried container's time extent — larger values are
      reported as [Infeasible]).
    - [Inconclusive] — the bound is silent.

    The bound families follow Fekete & Schepers: plain volume, per-axis
    serialization cliques (pairs that overflow the container in every
    axis but one must be disjoint along that one), dual-feasible-function
    (DFF) transformed volume with the [f_eps] and [u^(k)] families, and
    precedence-aware longest-path and energetic-reasoning time bounds.
    Every registered bound is a function of the instance and the
    container, its order the instance's precedence.

    Of these, only energetic reasoning also runs at search nodes, on
    the committed time-axis arcs (precedence plus branching decisions).
    The critical-path and time-clique bounds would re-check what the
    packing-class conditions already have: under the default rules the
    time orientation at a node is transitively closed, so a chain of
    committed arcs is a clique of comparable pairs that C2 held to the
    time extent, and a pair that overflows every spatial axis is
    forced comparable in time by C3, so the exclusion clique plus the
    committed arcs is again a C2 clique. Energetic windows are not a
    clique argument.

    The {e time-slice} bound ({!time_slice}) runs at the root only. The
    precedence order and the time extent give each task a start window
    [[est, lst]]; a task whose window is narrower than its duration
    runs during its {e compulsory} part [[lst, est + d)] whatever its
    start. The tasks whose compulsory parts share a time point run
    together in every schedule, and a packing of all the boxes induces
    a packing of each of its cross-sections (Fekete & Schepers'
    characterization, Theorem 1 of the source paper). So the spatial
    boxes of such a set, with their spatial orders, must pack the
    chip's spatial extents: a (d-1)-dimensional instance that a
    caller-supplied solver tries to refute. This bound cannot search
    itself; {!Opp_solver.root_check} supplies the search.

    Every evaluation is recorded on the engine's {!Recorder}: its own
    for {!create}, a search's for {!attach}, so one solve tallies its
    root and node bounds together. The tallies reach the metrics
    registry when that recorder is flushed, by whoever owns the
    engine. Engines are not thread-safe. *)

module Container = Geometry.Container
module Digraph = Graphlib.Digraph

(** A serializable infeasibility certificate: the name of the bound that
    fired and a human-readable witness description. *)
type certificate = { bound : string; detail : string }

type verdict =
  | Infeasible of certificate
  | Lower_bound of int
      (** proven lower bound on the time-axis extent, given the
          container's spatial extents *)
  | Inconclusive

val certificate_json : certificate -> Telemetry.json
val verdict_json : verdict -> Telemetry.json
val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Engine} *)

type t

(** Names of all registered bounds, in evaluation order (cheapest
    first): ["misfit"; "volume"; "critical-path"; "clique-time";
    "clique-space"; "dff-volume"; "dff-time"; "energetic";
    "time-slice"]. ["clique-space"] covers every spatial axis; its
    certificate names the axis that fired. {!check} runs all but
    ["time-slice"], which only {!time_slice} evaluates. *)
val default_names : string list

(** [create ()] builds an engine with every bound of {!default_names}
    registered, in that order, on a fresh recorder of its own. [?trace]
    records one {!Trace} bound-call event per evaluation, carrying the
    same measured duration the counters accumulate. *)
val create : ?trace:Trace.t -> unit -> t

(** [attach recorder] is {!create} recording into an existing recorder,
    shared with whatever else records there. *)
val attach : Recorder.t -> t

val recorder : t -> Recorder.t

(** Snapshot of the per-bound call/time/prune counters of the engine's
    recorder. A prune is an [Infeasible] verdict. *)
val counters : t -> Telemetry.bound_counters

(** [check t inst container] runs every registered bound in order
    and returns the first [Infeasible] certificate, otherwise the
    strongest [Lower_bound], otherwise [Inconclusive].
    @raise Invalid_argument on a dimension mismatch. *)
val check : t -> Instance.t -> Container.t -> verdict

(** [energetic_at_node t inst container ~sequencing] is the
    ["energetic"] bound with [sequencing] supplying the committed
    time-axis arcs (precedence plus branching decisions) in place of
    the precedence. Sound at any search node: every arc of
    [sequencing] holds in every completion of the node, so an
    [Infeasible] verdict refutes the whole subtree. One call on the
    ["energetic"] tally.
    @raise Invalid_argument on a dimension mismatch. *)
val energetic_at_node :
  t -> Instance.t -> Container.t -> sequencing:Digraph.t -> verdict

(** [time_lower_bound t inst container] is the strongest proven lower
    bound on the time extent needed to pack [inst] into a container with
    [container]'s spatial extents (the time extent of [container] is
    ignored). Always at least 1.

    It equals {!check} at the serialized horizon [H], the total
    duration (at least 1): [H + 1] on [Infeasible], [max 1 l] on
    [Lower_bound l], 1 on [Inconclusive]. At [H], once every task fits,
    running the tasks one after another at the origin packs every
    constraint that ["clique-space"], ["dff-volume"] and ["energetic"]
    see (none reads a spatial order), and none of the three returns a
    [Lower_bound], so it skips them: their call counts do not move.
    ["misfit"], ["volume"], ["critical-path"], ["clique-time"] and
    ["dff-time"] run as in {!check}. *)
val time_lower_bound : t -> Instance.t -> Container.t -> int

(** [time_slice t ~refute inst container] is the time-slice bound.
    For each subset-maximal set of at least two tasks that run together
    in every schedule ({!time_slices}), in time order, it asks
    [refute sub chip] whether the set's spatial boxes [sub] cannot pack
    [chip], the container's spatial extents; the first [true] is an
    [Infeasible] certificate naming the set's tasks, its time point and
    the chip. [refute] must answer [true] only on a proof. Silent below
    three axes, where a slice is a set of intervals that the capacity
    rule already decides, and where {!misfit} or an empty start window
    (["energetic"]) holds the certificate. One call on the
    ["time-slice"] tally, whose time includes [refute]'s.
    @raise Invalid_argument on a dimension mismatch. *)
val time_slice :
  t ->
  refute:(Instance.t -> Container.t -> bool) ->
  Instance.t ->
  Container.t ->
  verdict

(** [time_slices inst container] is the list of [(t, tasks)] pairs:
    the distinct subset-maximal sets [tasks] (ascending, at least two)
    of tasks whose compulsory parts, under the precedence windows and
    [container]'s time extent, all contain time [t], ascending in [t].
    Empty when some task has no start window. *)
val time_slices : Instance.t -> Container.t -> (int * int list) list

(** [run_all t ~refute inst container] evaluates every registered bound
    without short-circuiting and reports each verdict, ["time-slice"]
    last through {!time_slice} — the CLI [bounds] subcommand surface. A
    task that overflows the container is reported by [misfit]; the DFF
    and time-slice bounds stay silent on it.
    @raise Invalid_argument on a dimension mismatch. *)
val run_all :
  t ->
  refute:(Instance.t -> Container.t -> bool) ->
  Instance.t ->
  Container.t ->
  (string * verdict) list

(** {1 Primitive bound families}

    Exposed for tests and for callers that want one family without an
    engine. *)

val misfit : Instance.t -> Container.t -> int option

(** [exclusion_extent ?also instance container ~axis] is the largest
    total [axis] extent of a clique of tasks that pairwise overflow the
    container in every other axis, a lower bound on the [axis] extent;
    [also i j] adds pairs disjoint along [axis] for another reason. *)
val exclusion_extent :
  ?also:(int -> int -> bool) -> Instance.t -> Container.t -> axis:int -> int

(** [dff_volume inst container] is the ["dff-volume"] bound: the
    first combination of per-axis DFFs, in enumeration order, whose
    composed transformed volume exceeds the composed container, as an
    [Infeasible] certificate naming each axis's DFF. Silent on a
    misfit container. *)
val dff_volume : Instance.t -> Container.t -> verdict

(** [dff_time inst container] is the ["dff-time"] bound: the best time
    lower bound over the combinations of spatial-axis DFFs, as
    {!check} would report it. Silent on a misfit container and on
    instances with no spatial axis. *)
val dff_time : Instance.t -> Container.t -> verdict

(** [f_eps ~eps ~w_max w] is the threshold DFF. Requires
    [0 < eps <= w_max / 2] and [0 <= w <= w_max]. *)
val f_eps : eps:int -> w_max:int -> int -> int

(** [u_k ~k ~w_max w] is the multiplicative rounding DFF scaled to the
    transformed container extent [k * w_max]. Requires [k >= 1] and
    [0 <= w <= w_max]. *)
val u_k : k:int -> w_max:int -> int -> int
