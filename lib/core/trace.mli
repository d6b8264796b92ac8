(** Ring-buffered structured search tracing.

    A {!t} handle is threaded through the solver stack
    ({!Opp_solver}, {!Parallel_solver}, {!Problems}, and the {!Recorder}
    that carries every counted solver event); each layer emits typed
    events — node enter/close, branching decisions, rule firings, bound
    calls with verdicts, realization attempts, incumbent updates,
    optimization probes, and parallel claim/steal/donate/cancel
    lifecycle — into per-domain ring buffers with monotonic (per-stream
    non-decreasing) timestamps.

    {!null} is a first-class "tracing off" handle: every emit function
    returns immediately without reading the clock, so threading a
    trace argument through hot loops costs nothing when disabled.

    Streams are strictly single-writer (one per domain); export
    functions ({!write_jsonl}, {!write_chrome}, {!Summary}) must only
    be called after the solving domains have been joined. *)

(** Sampling gate for the node-class events ({!node_enter},
    {!node_close}, {!decision}): [Sample n] records every [n]-th node
    visited by each stream. All other event classes (bounds, probes,
    incumbents, phases, parallel lifecycle, progress) are always
    recorded — they are rare and individually meaningful. *)
type sampling = Full | Sample of int

(** Outcome of one bound evaluation, mirrored from the
    {!Bound_engine} verdict. *)
type bound_verdict =
  | Bv_infeasible of string  (** pruned, with the certificate detail *)
  | Bv_lower_bound of int
  | Bv_inconclusive

type kind =
  | Node_enter of { node : int; depth : int }
  | Node_close of { depth : int; conflicts : int }
  | Decision of { depth : int; dim : int; u : int; v : int }
  | Rule_fire of { rule : string; detail : string }
  | Bound_call of { bound : string; verdict : bound_verdict; dur_s : float }
  | Realize of { success : bool; dur_s : float }
  | Incumbent of { objective : int }
  | Probe of {
      extents : int array;
      verdict : string;
      nodes : int;
      dur_s : float;
      budget_nodes_left : int option;
      budget_s_left : float option;
      bracket : (int * int) option;
    }
  | Claim of { index : int }
      (** the emitting worker started executing descriptor [index] *)
  | Steal of { victim : int; depth : int }
      (** the emitting worker took a descriptor of prefix length
          [depth] from worker [victim]'s deque *)
  | Donate of { depth : int }
      (** the emitting worker published the alternative branch of the
          node at decision depth [depth] to its own deque *)
  | Cancel of { reason : string }
  | Phase of { phase : string; dur_s : float }
  | Progress of Telemetry.progress
  | Online_op of { op : string; task : int; sim_time : int; dur_s : float }
      (** one online-placement operation ("place", "defer", "compact",
          "reject", "retire") on [task] at simulated clock [sim_time];
          [dur_s] is the wall-clock cost of the operation (0 when not
          measured) *)

type event = { ts : float; kind : kind }
type t

(** The disabled trace: all emit functions are no-ops. *)
val null : t

(** [create ()] makes an active trace. [capacity] bounds each
    per-domain stream (default 2^18 events); when a stream wraps, the
    oldest events are overwritten and counted in {!dropped}. *)
val create : ?capacity:int -> ?sampling:sampling -> unit -> t

val enabled : t -> bool

(** {1 Emit points}

    Each function records one event on the calling domain's stream.
    [node_enter] returns whether the node passed the sampling gate;
    pass that token back to [node_close]/[decision] so a sampled node
    keeps its matching close and decision events. *)

val node_enter : t -> node:int -> depth:int -> bool
val node_close : t -> recorded:bool -> depth:int -> conflicts:int -> unit
val decision : t -> recorded:bool -> depth:int -> dim:int -> u:int -> v:int -> unit
val rule_fire : t -> rule:string -> detail:string -> unit
val bound_call : t -> bound:string -> verdict:bound_verdict -> dur_s:float -> unit
val realize : t -> success:bool -> dur_s:float -> unit
val incumbent : t -> objective:int -> unit

val probe :
  t ->
  extents:int array ->
  verdict:string ->
  nodes:int ->
  dur_s:float ->
  budget_nodes_left:int option ->
  budget_s_left:float option ->
  bracket:(int * int) option ->
  unit

val claim : t -> index:int -> unit
val steal : t -> victim:int -> depth:int -> unit
val donate : t -> depth:int -> unit
val cancel : t -> reason:string -> unit
val phase : t -> phase:string -> dur_s:float -> unit
val progress : t -> Telemetry.progress -> unit
val online_op : t -> op:string -> task:int -> sim_time:int -> dur_s:float -> unit

(** {1 Reading back} *)

(** Events overwritten by ring wrap-around, across all streams. *)
val dropped : t -> int

(** All surviving events as [(worker, event)], sorted by timestamp. *)
val events : t -> (int * event) list

(** {1 Sinks} *)

(** [iter_jsonl t f] calls [f] once per JSONL line: a
    [{"ev":"trace_start",...}] header carrying event and drop counts,
    then one object per event with fields ["ev"], ["ts"] (seconds),
    ["w"] (domain id) plus the event-specific payload. *)
val iter_jsonl : t -> (string -> unit) -> unit

val write_jsonl : t -> out_channel -> unit

(** [write_chrome t oc] writes Chrome trace-event JSON
    ([{"traceEvents": [...]}]), loadable in [chrome://tracing] and
    Perfetto. Each worker stream becomes a thread track; nodes at
    depth ≤ [node_depth_limit] (default 16), bound calls, probes,
    realization attempts and phases render as complete ("X") spans,
    incumbents and parallel lifecycle as instants, progress snapshots
    as counter tracks. *)
val write_chrome : ?node_depth_limit:int -> t -> out_channel -> unit

(** Offline aggregation of a JSONL trace (the [trace-summary]
    subcommand). *)
module Summary : sig
  type per_worker = {
    events : int;
    nodes : int;
    max_depth : int;
    first_ts : float;
    last_ts : float;
    bound_time_s : float;
    claims : int;  (** descriptors this worker started executing *)
    steals : int;  (** descriptors it took from other workers' deques *)
  }

  type t = {
    events : int;
    dropped : int;
    workers : (int * per_worker) list;
    bounds : Telemetry.bound_counters;
        (** per-bound calls/time/prunes re-derived from the trace;
            matches the solver's [--stats json] bound counters up to
            rounding of the per-call durations *)
    phases : (string * float) list;
    rules_fired : (string * int) list;
    online_ops : (string * (int * float)) list;
        (** per-op (count, total dur_s) of online-placement events
            (place / defer / compact / reject / retire), sorted by op name *)
    incumbents : (float * int) list;  (** (ts, objective) in trace order *)
    probes : int;
    probe_time_s : float;
    realize_time_s : float;
    nodes : int;
    max_depth : int;
    span_s : float;
  }

  val of_lines : string list -> (t, string) result
  val of_channel : in_channel -> (t, string) result
  val pp : Format.formatter -> t -> unit
end
