(** The baseline the paper argues against: exact packing by direct
    geometric enumeration ("using a purely geometric enumeration scheme
    for this step ... is easily seen to be immensely time-consuming",
    Sec. 3.1).

    Tasks are placed one by one, each anchored at a {e normal position}:
    along every axis, a coordinate that is a sum of a subset of the
    other boxes' extents (the classical normalization argument — any
    feasible packing can be pushed axis-wise down until every box rests
    against the container wall or another box — pushing stops at box
    ends, which are subset sums too, so the argument survives per-axis
    order constraints; searching normal positions only is exhaustive).
    The solver works in any dimension and honours every per-axis order
    of the instance: placement order follows a topological order of the
    objective-axis precedence DAG, each task's anchor is floored along
    every axis by its already-placed predecessors in that axis's order,
    and leaves are validated with
    {!Packing.Instance.placement_feasible}. This makes it the reference
    oracle for differential tests of the packing-class search on
    [d <> 3] and spatially-ordered instances. It calls none of the
    solver code it judges (no bound engine, heuristic or propagation):
    only the instance accessors and the placement check.

    This solver is {e exact} but exponentially slower than the
    packing-class search — which is precisely what the ablation
    benchmark demonstrates. *)

type outcome =
  | Feasible of Geometry.Placement.t
  | Infeasible
  | Timeout

type stats = {
  nodes : int; (** partial placements explored *)
  positions_tried : int;
}

(** [solve ?node_limit instance container] decides feasibility by
    geometric enumeration. The limit counts explored partial placements
    {e plus} tried anchor positions (positions dominate the cost on
    large containers). The witness is validated before being returned. *)
val solve :
  ?node_limit:int ->
  Packing.Instance.t ->
  Geometry.Container.t ->
  outcome * stats
