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

    [of_instance] computes a canonical relabeling by colour refinement
    over all per-axis order closures, followed, when symmetric task
    groups survive refinement, by an individualize-and-refine search
    that keeps the first leaf with the lexicographically smallest
    certificate.

    {b Refinement} runs in integers. Initial colours are the dense ranks
    of the box extents. Each round gives every task one int signature:
    its colour, then per axis its sorted successor colours, [-1], its
    sorted predecessor colours, [-1]; tasks are re-ranked by comparing
    signatures lexicographically, until the class count stops growing.

    {b The search} individualizes each candidate of the first
    non-singleton cell in ascending task order and refines again. It
    explores only subtrees that no automorphism maps onto an earlier
    one, as nauty does: tasks with identical predecessor and successor
    sets in every axis form one candidate; a leaf whose certificate
    equals the best one yields an automorphism, and a node skips every
    candidate in the orbit of an explored sibling under the
    automorphisms found so far that fix its individualized prefix; that
    leaf also ends the search of the subtree below its last common node
    with the best leaf. None of this can skip the first minimal leaf,
    so the result is the one the unpruned search gives. Identical
    independent tasks collapse to one branch, and a 63-task FIR adder
    tree, with 2{^31} automorphisms, needs 16 leaves.

    The certificate records the dimension, the objective axis, the box
    extents in canonical order, and one tagged section of sorted
    closure arcs per axis that carries any — so instances differing
    only in a spatial-axis order (or in which axis is the objective)
    never collide.

    {b Soundness vs completeness.} The key is the full canonical
    serialization, so equal keys always mean isomorphic instances — a
    collision can never return the answer of a different problem.
    Completeness (isomorphic instances always sharing a key) holds
    whenever canonicalization finishes within its work budget of 4M
    steps: signature entries written, sort comparisons and certificate
    entries, counted the same way on every host. FIR filters up to 32
    taps (about 2M steps), butterflies up to 4 stages, and chains and
    independent sets of 64 tasks finish; FIR-64 and 5- or 6-stage
    butterflies do not. When the budget runs out, refinement stops
    between two rounds, the search explores no further sibling and
    individualizes the smallest task of each remaining cell down to one
    leaf, keeps the best leaf so far and reports [complete = false].
    That only costs cache hits, never correctness, and bounds the time
    a request spends here (butterfly-6, 576 tasks: about 60 ms on a
    2-core x86-64 host instead of 2.7 s). *)

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
      (** [false] when refinement or the tie-break search ran out of
          the work budget and kept the best ordering found so far
          (sound, possibly missing hits) *)
}

(** [of_instance inst] canonicalizes [inst] within the work budget;
    the instances of the benchmarks use one to a few dozen leaves. *)
val of_instance : Packing.Instance.t -> t

(** [restore_placement c ~original p] maps a placement of the canonical
    instance back to [original]'s task indexing: task [i] of the
    original gets the origin of canonical task [perm.(i)]. Feasibility
    is preserved exactly (boxes are equal, the order corresponds). *)
val restore_placement :
  t -> original:Packing.Instance.t -> Geometry.Placement.t -> Geometry.Placement.t
