(** Stage 2 of the paper's framework: fast construction of feasible
    packings.

    A serial schedule-generation scheme. Tasks are taken in a
    precedence-respecting priority order, built by repeatedly picking
    the ready task of highest priority (criticality — the longest
    remaining precedence chain — times 4, plus spatial area). Each task
    starts at the earliest time, its predecessors' finish or a later
    finish of a placed task, at which some bottom-left corner of the
    chip stays free for its whole duration, and takes the lowest such
    corner. Unlike a non-delay scheduler, a task may wait while the
    chip has room, which some optimal schedules need.
    The result is validated geometrically before being returned, so a
    [Some] answer is always a feasible packing.

    One call allocates its working arrays once and reuses them for
    every schedule it builds ([makespan]'s restarts included), copying
    origins only when a restart improves on the best schedule; the
    scheduler compares ints and floats without polymorphic compare.
    Its schedules are identical, origin by origin, to those of the
    reference copy of the earlier version kept in
    [test/heuristic_reference.ml]. *)

(** [supports instance] says whether the scheduler applies:
    3-dimensional boxes with the objective on the last axis and no
    order constraints on the spatial axes. The solvers route their
    stage-2 attempt through this check and degrade cleanly when it
    fails — higher-dimensional, strip-packing, or spatially-ordered
    instances simply skip the construction stage and go straight to the
    branch-and-bound search (stage 3), whose verdict is unaffected. *)
val supports : Instance.t -> bool

(** [pack instance container] builds one schedule, in the base
    priority order, inside [container].
    @raise Invalid_argument when [supports instance] is [false]. *)
val pack : Instance.t -> Geometry.Container.t -> Geometry.Placement.t option

(** [makespan ?target ?deadline instance ~base] schedules on an
    unbounded time horizon over the spatial base [base] (a container
    whose time extent is ignored) and returns the achieved makespan
    together with the placement — an upper bound for the SPP. The first
    schedule uses the base priorities. While the best makespan is above
    [target] (a proven lower bound; the critical path and the volume
    bound are always applied), up to 200 restarts scale each priority
    by a factor drawn uniformly from 0.5 to 1.5 with a fixed seed, so
    equal inputs give equal answers. A restart keeps its schedule only
    if it beats the best one, so it stops at the first task that cannot
    finish before the best makespan; the answer is the one a restart
    run to the end would give. Once [deadline] has expired no further
    restart starts, and the best schedule so far is returned: still a
    validated upper bound, but not always the one an unhurried call
    gives. [None] if some task does not fit spatially, and only then. *)
val makespan :
  ?target:int ->
  ?deadline:Clock.deadline ->
  Instance.t ->
  base:Geometry.Container.t ->
  (int * Geometry.Placement.t) option
