(** Per-search event recorder: every solver event — a rule call or
    conflict, a bound evaluation, a realization, a search node or
    decision, the work-stealing kernel's claim, steal, donate and
    reclaim — is one call here. The recorder keeps the tallies
    {!Opp_solver.stats} and {!Parallel_solver.report} render, appends
    the event to its {!Trace}, and feeds the [fpga_solver_*],
    [fpga_bounds_*] and [fpga_parallel_*] metric families, which only
    this module names.

    A family is registered by the layer that owns it ([register_*]), so
    a run exposes the families of the stages it reached. Node-class
    tallies reach the registry through {!flush}, at every search
    heartbeat and when the search ends; all other events reach it as
    they happen. With the trace and the registry off, events touch
    neither. A recorder is single-writer: one per search or worker. *)

type t

(** A recorder with zero tallies, writing to [trace] (default
    {!Trace.null}) and to the current {!Metrics.default} registry. *)
val create : ?trace:Trace.t -> unit -> t

(** Whether the trace or the registry is live. *)
val enabled : t -> bool

(** Starts the clock of the next timed event: a rule call, a bound call
    or a realization. Timed events do not nest. *)
val start : t -> unit

(** {1 Packing rules} *)

type rule = C2 | C3 | C4 | Capacity | Symmetry | Implications

val register_rules : t -> unit

(** [rule_call t rule r] records a call of [rule], started by {!start},
    that returned [r], then {!rule_conflict}. *)
val rule_call : t -> rule -> (unit, string) result -> (unit, string) result

(** [rule_conflict t rule r] records an [Error] as a conflict of [rule];
    returns [r]. *)
val rule_conflict : t -> rule -> (unit, string) result -> (unit, string) result

(** Calls and seconds of the timed rules (C2, C4, capacity,
    implications), plus the realization attempts. *)
val rule_counters : t -> Telemetry.rule_counters

(** {1 Bounds} *)

type bound

(** The tally of bound [name], registered on first use in [t]. *)
val register_bound : t -> string -> bound

(** One evaluation, started by {!start}; [Bv_infeasible] prunes. *)
val bound_call : t -> bound -> Trace.bound_verdict -> unit

(** Per-bound calls, seconds and prunes, in registration order. *)
val bounds : t -> Telemetry.bound_counters

(** The bound work since the previous take, idle bounds left out; resets
    it. *)
val take_bounds : t -> Telemetry.bound_counters

(** {1 Search} *)

(** Registers the search series; the search starts at decision depth
    [depth_offset]. *)
val start_search : t -> depth_offset:int -> unit

(** Counts a node; returns the trace's sampling token for the matching
    {!node_close} and {!decision}. *)
val node_enter : t -> depth:int -> bool

val node_close : t -> recorded:bool -> depth:int -> conflicts:int -> unit
val decision :
  t -> recorded:bool -> depth:int -> dim:int -> u:int -> v:int -> unit

(** A refuted node or branch. *)
val conflict : t -> unit

val leaf : t -> unit
val realize : t -> success:bool -> unit
val nodes : t -> int
val conflicts : t -> int
val leaves : t -> int
val max_depth : t -> int

(** Push the search tallies gathered since the last flush. *)
val flush : t -> unit

(** {1 Work-stealing kernel} *)

(** Registers the kernel series, [worker] labelling the node count. *)
val register_kernel : t -> worker:int -> unit

val claim : t -> index:int -> unit
val steal : t -> victim:int -> depth:int -> unit
val donate : t -> depth:int -> unit
val reclaim : t -> unit

(** A descriptor's search finished after [nodes] nodes. *)
val task_done : t -> nodes:int -> unit

val steal_counters : t -> Telemetry.steal_counters
