(** Problem instances: a set of tasks (boxes) plus order constraints
    along any subset of the axes.

    Tasks are [d]-dimensional boxes. One axis — the {e objective axis},
    by default the last — carries the optimization objective (execution
    time in the FPGA case: [d = 3] with axes [x; y; t]). Every axis may
    carry a partial order: an arc [u -> v] on axis [k] means box [v]
    must start past the end of box [u] along [k]. The legacy
    {!precedence} order is exactly the order on the objective axis. All
    orders are stored transitively closed (the paper's first
    preprocessing step); "Higher-Dimensional Packing with Order
    Constraints" (Fekete–Köhler–Teich) is the reference for the
    generalized model. *)

type t

(** [make ~boxes ()] builds an instance.
    @param name      used in logs and reports (default ["instance"]).
    @param labels    per-task display names (default ["t0"], ["t1"], ...).
    @param precedence arcs between task indices on the {e objective}
    axis; closed transitively.
    @param orders    per-axis arc lists [(axis, arcs)]; entries for the
    objective axis merge with [precedence].
    @param objective_axis the axis whose extent the optimization drivers
    minimize (default: the last axis).
    @raise Invalid_argument if boxes are empty, have differing
    dimensions, labels have the wrong arity, the objective axis or an
    order axis is out of range, or any axis's arcs contain a cycle. *)
val make :
  ?name:string ->
  ?labels:string array ->
  ?precedence:(int * int) list ->
  ?orders:(int * (int * int) list) list ->
  ?objective_axis:int ->
  boxes:Geometry.Box.t array ->
  unit ->
  t

(** [relabel t ~name perm] renumbers the tasks of [t]: task [i] becomes
    task [perm.(i)], with its box and its arcs on every axis. The result
    is called [name] and carries the default labels. It equals, field
    for field, the {!make} of the renumbered boxes and arcs, without
    re-checking or re-closing the orders. [perm] must be a permutation
    of [0 .. count t - 1]. *)
val relabel : t -> name:string -> int array -> t

val name : t -> string

(** Number of tasks. *)
val count : t -> int

(** Dimension of the boxes (3 for space-time instances). *)
val dim : t -> int

(** The axis whose extent is the optimization objective; defaults to
    [dim - 1]. *)
val objective_axis : t -> int

val box : t -> int -> Geometry.Box.t
val boxes : t -> Geometry.Box.t array
val label : t -> int -> string

(** [extent i task axis] is the size of [task] along [axis]. *)
val extent : t -> int -> int -> int

(** Execution time of a task (extent along the objective axis). *)
val duration : t -> int -> int

(** The (transitively closed) order on one axis. *)
val order : t -> int -> Order.Partial_order.t

(** All per-axis orders, indexed by axis. *)
val orders : t -> Order.Partial_order.t array

(** The order on the objective axis — the legacy precedence order. *)
val precedence : t -> Order.Partial_order.t

(** [precedes i u v] is [true] iff [u] must finish before [v] starts
    (objective axis). *)
val precedes : t -> int -> int -> bool

(** Axes carrying a non-empty order, ascending. *)
val ordered_axes : t -> int list

(** [without_precedence i] forgets the orders on {e all} axes (used for
    the dashed curve of Fig. 7). *)
val without_precedence : t -> t

(** Total box volume. *)
val total_volume : t -> int

(** Critical-path length along the objective axis: total duration of
    the heaviest precedence chain — a lower bound on any feasible
    makespan. *)
val critical_path : t -> int

(** [critical_path_axis i k] is the heaviest chain of axis [k]'s order,
    weighted by the extents along [k] — a lower bound on the container
    extent needed along [k]. *)
val critical_path_axis : t -> int -> int

(** Sum of all durations — the fully serialized makespan. *)
val total_duration : t -> int

(** [placement_feasible i ~container p] checks [p] completely against
    this instance: containment, pairwise disjointness, and every
    per-axis order arc realized along its own axis. Unlike
    {!Geometry.Placement.is_feasible}, which checks precedence on the
    last axis only, this validates orders on arbitrary axes. *)
val placement_feasible : t -> container:Geometry.Container.t -> Geometry.Placement.t -> bool

val pp : Format.formatter -> t -> unit
