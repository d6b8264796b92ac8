(** Per-dimension edge-state store with Gallai/Fekete–Köhler–Teich
    implication closure and trail-based undo.

    During the packing-class search, every pair of boxes is, in each
    dimension, in one of three basic states (paper, Sec. 4.3): a
    {e component} edge (the projections overlap), a {e comparability}
    edge (the projections are disjoint), or {e unassigned}. A
    comparability edge additionally carries one of three orientation
    states: unoriented, or one of the two directions ("left of" /
    "right of" on the axis).

    This module stores those states for one dimension and maintains the
    closure under the paper's two implication families:

    - {b D1 (path implications)}: comparability edges [{u,v}], [{v,w}]
      with [{u,w}] a component edge — any orientation of one forces the
      matching orientation of the other (both must point "the same way"
      past the overlapping pair).
    - {b D2 (transitivity implications)}: oriented [u -> v] and
      [v -> w] force [{u,w}] to be a comparability edge oriented
      [u -> w]; if [{u,w}] is already a component edge this is a
      {e transitivity conflict}, if it is oriented [w -> u] this is a
      {e path conflict} (a directed cycle).

    All mutations are recorded on a trail so the branch-and-bound search
    can undo to a mark in O(#changes). Mutations queue pairs for
    propagation; {!propagate} drains the queue and either reaches a
    fixpoint or reports a conflict. By Theorem 2 of the paper, absence
    of conflicts under this closure characterizes extendability of the
    forced suborder to a transitive orientation. *)

type t

type kind =
  | Unknown
  | Component
  | Comparable

(** A conflict detected during a mutation or during propagation. *)
type conflict = {
  pair : int * int;
  reason : string;
}

val create : int -> t

(** Number of vertices. *)
val order : t -> int

(** Current kind of the pair [{u,v}], [u <> v]. *)
val kind : t -> int -> int -> kind

(** [unknown_at t idx] is [kind t u v = Unknown] for the packed pair
    index [idx = u * order t + v], [u < v], without validating the
    pair: for scans over precomputed pair indices. *)
val unknown_at : t -> int -> bool

(** Trail mark for later {!undo_to}. *)
val mark : t -> int

(** [undo_to t m] rolls all state back to mark [m] and clears the
    propagation queue. *)
val undo_to : t -> int -> unit

(** [iter_changed_pairs t ~since f] calls [f u v] once per distinct
    pair whose state changed after mark [since], in trail (oldest
    first) order. Allocation-free: the iteration touches only the
    [mark t - since] trail entries of the window and deduplicates with
    a stamp array. The window is captured on entry, so state changes
    made by [f] itself are not re-visited (they belong to the next
    window). *)
val iter_changed_pairs : t -> since:int -> (int -> int -> unit) -> unit

(** [iter_trail_window ?until t ~since f] replays the raw trail entries
    of the window [\[since, until)] (default [until = mark t]) in
    order: [f u v ~prev ~cur] receives the packed state before and
    after each write. Unlike {!iter_changed_pairs} this does {e not}
    deduplicate — a pair that changed twice appears twice. Used by
    callers mirroring the edge states into derived structures (degree
    counts, adjacency bitsets) that must be updated transition by
    transition; [until] lets an undo path revert exactly the prefix it
    had previously applied. *)
val iter_trail_window :
  ?until:int ->
  t ->
  since:int ->
  (int -> int -> prev:int -> cur:int -> unit) ->
  unit

(** [set_component t u v] fixes [{u,v}] as a component edge. Fails if
    the pair is already comparable. Queues implications. *)
val set_component : t -> int -> int -> (unit, conflict) result

(** [set_comparable t u v] fixes [{u,v}] as an (unoriented)
    comparability edge. Fails if the pair is already a component edge. *)
val set_comparable : t -> int -> int -> (unit, conflict) result

(** [force_arc t u v] fixes [{u,v}] as a comparability edge oriented
    [u -> v]. Fails on component pairs and on opposite orientations. *)
val force_arc : t -> int -> int -> (unit, conflict) result

(** Drain the propagation queue, applying D1 and D2 exhaustively.
    Returns the first conflict encountered, if any. On success the state
    is closed under both implication families. Pairs are scanned in the
    order they were written (FIFO), which fixes the order of the forced
    writes on the trail; only a conflict allocates. *)
val propagate : t -> (unit, conflict) result

(** Pairs currently [Unknown], with [u < v]. *)
val unknown_pairs : t -> (int * int) list

(** Comparable pairs that are not yet oriented, with [u < v]. *)
val unoriented_pairs : t -> (int * int) list

(** The digraph of all oriented comparability edges. *)
val orientation : t -> Graphlib.Digraph.t
