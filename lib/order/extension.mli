(** Extending a forced suborder to a full transitive orientation.

    At a leaf of the packing-class search all pairs are decided
    (component or comparable) and some comparability edges carry forced
    orientations (from precedence arcs and from D1/D2 propagation). By
    Theorem 2 (Fekete–Köhler–Teich), the forced suborder extends to a
    transitive orientation of the comparability graph iff all
    implications can be carried out without path or transitivity
    conflicts. This module performs that completion: it repeatedly
    orients an arbitrary remaining comparability edge, re-propagates,
    and backtracks on conflicts; the final orientation is verified
    (transitive, acyclic, covers every comparability edge) before it is
    returned, so a [Some] result is always sound. *)

(** [complete og] extends the orientations in [og] to all comparability
    edges. Returns the verified orientation digraph, or [None] when no
    extension exists. [og] must contain no [Unknown] pairs and is
    restored to its incoming state before returning. *)
val complete : Oriented_graph.t -> Graphlib.Digraph.t option

(** [coordinates d ~weight] places every vertex of a transitive acyclic
    orientation at its weighted-longest-path coordinate: the packing
    position along one axis (Theorem 1, constructive direction). *)
val coordinates : Graphlib.Digraph.t -> weight:(int -> int) -> int array
