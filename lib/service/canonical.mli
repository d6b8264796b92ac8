(** Instance canonicalization: one cache key per isomorphism class.

    Two requests describe the same optimization problem whenever their
    instances differ only by a relabeling of the tasks — the boxes are
    the same multiset, the objective axis agrees, and {e every}
    per-axis order DAG corresponds under the relabeling
    ("Higher-Dimensional Packing with Order Constraints" makes this the
    natural equivalence of our instances). For an exact solver serving
    many clients, mapping every member of such a class to a single key
    is what turns a result memo from an exact-duplicate filter into a
    real cache.

    [of_instance] computes a canonical relabeling by color refinement
    over all per-axis order closures (initial colors from the box
    extents, then iterated splitting by per-axis predecessor/successor
    color multisets) followed, when symmetric task groups survive
    refinement, by an individualize-and-refine search that keeps the
    lexicographically smallest certificate. Candidates whose exact
    predecessor and successor sets coincide in every axis are
    interchangeable by an automorphism, so only one per group is
    explored — the fully symmetric cases (identical independent tasks)
    collapse to a single branch instead of a factorial one.

    The certificate records the dimension, the objective axis, the box
    extents in canonical order, and one tagged section of sorted
    closure arcs per axis that carries any — so instances differing
    only in a spatial-axis order (or in which axis is the objective)
    never collide.

    {b Soundness vs completeness.} The key is the full canonical
    serialization, so equal keys always mean isomorphic instances — a
    collision can never return the answer of a different problem.
    Completeness (isomorphic instances always sharing a key) holds
    whenever the tie-break search finishes within its leaf budget;
    a truncated search (flagged by [complete = false]) only costs cache
    hits, never correctness. *)

type t = {
  instance : Packing.Instance.t;
      (** the canonical representative: same boxes, objective axis and
          per-axis orders as the input, tasks relabeled into canonical
          order, default labels *)
  key : string;
      (** full canonical serialization (dimension, objective axis,
          boxes in order, per-axis closure arcs) — the cache key;
          equality implies isomorphism *)
  digest : string;  (** 64-bit FNV-1a of [key], hex — for logs/metrics *)
  perm : int array;
      (** [perm.(i)] is the canonical position of original task [i] *)
  complete : bool;
      (** [false] when the tie-break search hit its leaf budget and fell
          back to the first ordering found (sound, possibly missing
          hits) *)
}

(** [of_instance inst] canonicalizes [inst]. The tie-break search
    materializes at most 4096 leaf orderings; symmetric-group pruning
    makes typical instances use exactly one. *)
val of_instance : Packing.Instance.t -> t

(** [restore_placement c ~original p] maps a placement of the canonical
    instance back to [original]'s task indexing: task [i] of the
    original gets the origin of canonical task [perm.(i)]. Feasibility
    is preserved exactly (boxes are equal, the order corresponds). *)
val restore_placement :
  t -> original:Packing.Instance.t -> Geometry.Placement.t -> Geometry.Placement.t
