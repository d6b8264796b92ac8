(** Online placement of dynamically arriving tasks — the run-time
    scenario the paper contrasts itself against (its refs [3,4], Diessel
    & ElGhindy's run-time compaction).

    Tasks arrive over time; each must be placed on free cells when (or
    after) it arrives and then occupies its footprint for its duration.
    Placement runs against a {!Free_space} manager of maximal empty
    rectangles (policies {!First_fit}, {!Best_fit}, {!Worst_fit}).
    {!First_fit} places where a bottom-left scan over the corners of the
    running modules would: the lowest feasible (y, x) position is the
    bottom-left corner of some maximal empty rectangle. An optional
    cost-aware {e compaction} pass re-packs the currently running tasks
    toward the origin when an arrival cannot be placed — but only
    commits when the modeled benefit (wait time saved for blocked,
    now-placeable tasks) exceeds the modeled cost ({!Reconfig.load_time}
    plus [move_delay] per moved module), and never without enabling the
    pending placement.

    Two entry points: {!run_stream} takes a plain task array with
    explicit predecessor lists and scales to 10^4–10^5 tasks;
    {!run} is the historical {!Packing.Instance}-based wrapper (the
    instance's dense precedence matrix bounds it to small task counts).

    Comparing either against the exact offline optimum from
    {!Packing.Problems} is the quantitative version of the paper's
    argument for compile-time optimization. *)

(** One task of an arrival stream: a [w * h] footprint occupied for
    [duration] time units, available from [arrival] on ([max_int]
    means the task never arrives and is reported as such), startable
    only after every predecessor in [preds] has finished. *)
type task = {
  w : int;
  h : int;
  duration : int;
  arrival : int;
  preds : int list;  (** indices into the stream, each <> own index *)
}

(** Placement discipline: the {!Free_space} fit policy. All three
    agree on {e whether} a footprint fits; they differ in where it
    lands. *)
type policy = Free_space.policy = First_fit | Best_fit | Worst_fit

type event =
  | Placed of { task : int; x : int; y : int; time : int }
  | Deferred of { task : int; until : int }
      (** no space at the attempted time; retried at the next event.
          Emitted once per task (first deferral only). *)
  | Compacted of {
      moved : int list;
      time : int;
      cost : int;  (** total cycles charged: sum of load time + move delay *)
      enabled : int;  (** blocked tasks the new layout can host (>= 1) *)
    }
  | Rejected of { task : int }
      (** can never fit, or a (transitive) predecessor was rejected *)

(** Wall-clock latency of the successful placement operations
    (including any committed compaction work on their critical path),
    in microseconds. A sample starts before the fit query of an attempt
    that places, or before the compaction check that commits. Attempts
    that fail read no clock: the fit is refused by
    {!Free_space.fits} in O(1), and a compaction check reads it only
    when it builds a proposal or the proposal hosts the task. A
    proposal built while a pass measures what it hosts (see
    {!run_stream}) is outside every sample. Samples are kept in whole
    nanoseconds; [p50_us] and [p99_us] are nearest-rank percentiles as
    in {!Packing.Telemetry.percentile}, and [max_us] is 0.0 without
    samples. *)
type latency = {
  samples : int;
  p50_us : float;
  p99_us : float;
  max_us : float;
}

type report = {
  events : event list;  (** chronological *)
  makespan : int;  (** completion of the last placed task *)
  placed : int;
  rejected : int;
  never_arrived : int;
      (** tasks absent from the arrival stream: never eligible, never
          placed. [placed + rejected + never_arrived] equals the task
          count. *)
  deferrals : int;  (** distinct tasks that waited for space at least once *)
  compactions : int;  (** committed compactions only *)
  moved_tasks : int;  (** modules moved across all committed compactions *)
  move_cycles : int;  (** total reconfiguration cycles charged for moves *)
  utilization : float;
      (** time-averaged occupied fraction of the chip over
          [first arrival .. makespan], in [0,1] *)
  latency : latency;
  placement : Geometry.Placement.t option;
      (** the realized space-time placement when {e all} tasks were
          placed and no compaction moved a running task mid-execution
          (a moved task has no single space-time box); [None] otherwise.
          Only {!run} reconstructs it (it needs the instance boxes);
          {!run_stream} always reports [None]. *)
}

(** [to_json report] is the [--stats json] payload of a run: the task
    count and the report's counters, utilization to four decimals and
    latencies to two. *)
val to_json : report -> Packing.Telemetry.json

(** [run_stream tasks ~chip ~compaction ~move_delay] simulates the
    stream. Event-driven: the clock jumps between arrivals and
    finishes; per step, eligible tasks are attempted largest-area
    first, ties by index. The pending eligible tasks are kept in one
    bucket per area, ids ascending, so a pass walks the areas downward
    and sorts nothing; promotion, placement and rejection each touch
    one bucket.

    A pass on a non-empty chip attempts only the tasks that can act.
    It counts the pending eligible tasks per footprint and measures the
    largest pending area the layout fits ({!Free_space.cap}) and, with
    compaction on, the largest the current compaction proposal hosts
    while that proposal is not declined at this layout and clock. When
    a bucket is done, or its area exceeds both measures, the pass jumps
    to the largest non-empty area at or below the larger measure. This
    is exact: both tests are monotone in the footprint, so a task of
    larger area than both neither fits nor is hosted, and its attempt
    would change nothing; and both measures are areas of pending
    footprints, so the jump lands on tasks that can act. The measures
    are taken again after each placement or committed compaction. The
    proposal measure is taken only when a task the layout does not fit
    asks for it, so until then the pass moves to the next bucket, and
    the proposal is built just when that task's attempt would build it.
    The pass stops once nothing can act. A pass that must reject
    (doomed tasks, or an empty chip) attempts every task; doomed tasks
    join the buckets when that pass starts, and the greedy fill that
    weighs a compaction skips them.

    [reconfig] (default [Constant 0]) prices the configuration
    reload of a moved module; [move_delay] is the extra per-moved-task
    delay on top of it. [policy] defaults to [First_fit]; compaction
    proposals are re-packed first fit whatever the policy. A proposal
    packs the running modules largest-area first, ids ascending. A
    rebuild resumes from the longest prefix of that order it shares
    with the last build, whose layout after each step it keeps
    ({!Free_space.copy} is O(1)), so each running set is packed once.
    [trace]
    (default {!Packing.Trace.null}) receives one [Online_op] event per
    place/defer/compact/reject/retire.
    @raise Invalid_argument on non-positive extents or durations,
    out-of-range predecessor indices, or negative [move_delay]. *)
val run_stream :
  ?policy:policy ->
  ?reconfig:Reconfig.model ->
  ?trace:Packing.Trace.t ->
  task array ->
  chip:Chip.t ->
  compaction:bool ->
  move_delay:int ->
  report

type arrival = {
  task : int;  (** index into the instance *)
  arrival_time : int;
}

(** [run instance arrivals ~chip ~compaction ~move_delay] adapts
    {!run_stream} to a {!Packing.Instance}: extents and durations come
    from the instance boxes, predecessor lists from the transitive
    reduction of its precedence order, arrival times from [arrivals]
    (tasks not mentioned never arrive). [arrivals] must mention each
    task at most once. *)
val run :
  ?policy:policy ->
  ?reconfig:Reconfig.model ->
  ?trace:Packing.Trace.t ->
  Packing.Instance.t ->
  arrival list ->
  chip:Chip.t ->
  compaction:bool ->
  move_delay:int ->
  report
