(** The packing-class search state: one oriented edge-state store per
    dimension, kept consistent by cross-dimension propagation.

    The state couples the per-dimension D1/D2 implication closure
    ({!Order.Oriented_graph}) with the paper's packing-class rules:

    - {b width rule} (initialization): two boxes whose extents overflow
      the container in some axis can never be disjoint there — the pair
      is a component edge in that dimension;
    - {b C3}: a pair overlapping in all dimensions is a conflict;
      overlapping in all but one forces a comparability edge in the
      last;
    - {b C2}: a clique of pairwise-comparable boxes in one dimension is
      a chain of the eventual interval order; its total extent must fit
      the container;
    - {b C1 / chordless 4-cycles}: an induced [C4] in a component graph
      is forbidden; when a 4-cycle of component edges has one
      comparability diagonal, the other diagonal is forced to be a
      component edge;
    - {b order seeds} (initialization): every arc [u -> v] of each
      axis's (transitively closed) order fixes the pair as a
      comparability edge of that axis's dimension oriented [u -> v] —
      the precedence order seeds the objective dimension, and any other
      ordered axis seeds its own.

    All mutations are undoable via {!mark} / {!undo_to}, which is what
    the branch-and-bound search uses for backtracking. *)

type t

(** Toggles for the propagation families — used by the ablation
    benchmarks; production code uses {!default_rules} (all on). *)
type rules = {
  c2_cliques : bool;
  c4_cycles : bool;
  implications : bool; (** D1/D2 orientation propagation *)
  component_cliques : bool;
      (** Helly cross-section rule: tasks pairwise overlapping in one
          dimension coexist at a common coordinate there, so their
          cross-sections must fit the remaining container volume (for
          the time axis: concurrent tasks cannot exceed the chip's cell
          count). *)
}

val default_rules : rules

(** Why a branch closed: the typed witness of the rule that failed
    ({!Recorder.conflict}). The search only branches on [Error]; the
    text form, {!Recorder.conflict_to_string}, is built only for a live
    trace or for a caller that asks. *)
type conflict = Recorder.conflict

(** [create ?rules ?schedule instance container] initializes the state:
    applies the width rule to every pair, seeds every axis's order arcs
    in that axis's dimension, and runs propagation to a fixpoint. When
    [schedule] (a start time per task) is given, the objective
    dimension is fully determined from it — the FixedS problems of the
    paper, which collapse to the remaining axes — and no pair is
    treated as interchangeable, since the starts already tell the
    tasks apart. [Error c] means the
    instance is infeasible at the root, with [c] the first conflict.
    Every rule call and conflict (C2/C3/C4, capacity, symmetry
    breaking, implication closure) is recorded on [recorder] (default:
    a fresh one), which also carries the search that runs on this
    state. *)
val create :
  ?rules:rules ->
  ?schedule:int array ->
  ?recorder:Recorder.t ->
  Instance.t ->
  Geometry.Container.t ->
  (t, conflict) result

(** [symmetric_pairs inst] marks, at index [u * n + v] for [u < v],
    the pairs of interchangeable tasks: equal boxes, incomparable in
    every axis's order, and related identically to every other task
    there. When the search makes such a pair comparable in the
    objective dimension, {!create}'s state orients it [u -> v]
    (unless a fixed schedule was given). Each
    task's rows are built once, when a pair of equal boxes first asks,
    and two rows are compared up to the first difference. *)
val symmetric_pairs : Instance.t -> bool array

val instance : t -> Instance.t
val container : t -> Geometry.Container.t

(** The per-dimension store (shared, do not mutate directly unless you
    re-run {!stabilize}). *)
val dimension : t -> int -> Order.Oriented_graph.t

(** [time_sequencing t] is the committed arcs of the instance's
    objective axis (historically the time axis) at the current node,
    as a fresh digraph: the orientation of that dimension's
    comparability edges — order seeds plus every branching decision so
    far. Every arc holds in all completions of the node, which is what
    makes it a sound sequencing argument for
    {!Bound_engine.energetic_at_node}. O(n^2) per call; callers
    throttle. *)
val time_sequencing : t -> Graphlib.Digraph.t

(** [mark t] pushes a level onto the state's mark stack — the trail
    mark of every dimension — and returns its index. Allocation-free
    (the stack is preallocated and grows by doubling). *)
val mark : t -> int

(** [undo_to t l] rolls every dimension back to level [l] and pops [l]
    and every level above it, so marks are undone last-in first-out.
    Raises [Invalid_argument] if [l] is not on the stack. *)
val undo_to : t -> int -> unit

(** [assign_component t ~dim u v] fixes the pair as overlapping in
    [dim] and propagates to a fixpoint. *)
val assign_component : t -> dim:int -> int -> int -> (unit, conflict) result

(** [assign_comparable t ~dim u v] fixes the pair as disjoint in [dim]
    and propagates to a fixpoint. *)
val assign_comparable : t -> dim:int -> int -> int -> (unit, conflict) result

(** Re-run all propagation to a fixpoint (after external mutations). *)
val stabilize : t -> (unit, conflict) result

(** Pick the next branching variable [(dim, u, v)]: an undecided pair
    maximizing the combined extent relative to the container — the most
    constrained decision. [None] at a leaf. *)
val choose_unknown : t -> (int * int * int) option

(** Fraction of (pair, dimension) slots already decided (component,
    comparable, or oriented), in [0, 1]. Maintained incrementally from
    the trail; O(1). Drives the solver's adaptive node-bound
    throttle. *)
val decided_fraction : t -> float

(** Total trail length summed over dimensions — a monotone (within one
    branch) measure of how much state changed since any earlier point;
    O(dimensions). The solver's throttle uses deltas of this to decide
    whether enough has happened to justify another node-bound
    check. *)
val total_trail : t -> int

(** The recorder given to {!create}, or to the last {!set_recorder}. *)
val recorder : t -> Recorder.t

(** [set_recorder t r] records [t]'s events on [r] from now on and
    registers its rule series: the state changes owner, as the
    propagated root does when parallel worker 0 searches it. *)
val set_recorder : t -> Recorder.t -> unit
