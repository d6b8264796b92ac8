(** Ring-buffered structured search tracing.

    A {!t} handle is threaded through the solver stack
    ({!Opp_solver}, {!Parallel_solver}, {!Problems}, the {!Recorder}
    that carries every counted solver event, and the online placer);
    each layer builds one typed {!kind} — node enter/close, branching
    decisions, rule firings, bound calls with verdicts, realization
    attempts, incumbent updates, optimization probes, parallel
    claim/steal/donate/cancel lifecycle, online operations — and hands
    it to {!emit}, which appends it to a per-domain ring buffer with
    monotonic (per-stream non-decreasing) timestamps.

    {!null} is a first-class "tracing off" handle: {!emit} returns
    immediately without reading the clock, and the per-node emit points
    test {!enabled} before building the event, so threading a trace
    argument through hot loops costs nothing when disabled.

    Streams are strictly single-writer (one per domain); export
    functions ({!write_jsonl}, {!write_chrome}, {!Summary}) must only
    be called after the solving domains have been joined. *)

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

(** The disabled trace: {!emit} is a no-op. *)
val null : t

(** [create ()] makes an active trace that records every event. Each
    per-domain stream is registered on its domain's first event and
    holds 2^18 events; when a stream wraps, the oldest events are
    overwritten and counted in {!dropped}. *)
val create : unit -> t

val enabled : t -> bool

(** {1 Emitting} *)

(** [emit t kind] records [kind] on the calling domain's stream, stamped
    with the time since {!create}; on {!null} it returns at once. The
    event is built before the call, so a caller that emits once per
    search node, bound call or online event tests {!enabled} first and
    builds nothing when tracing is off. *)
val emit : t -> kind -> unit

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
    Perfetto. Each worker stream becomes a thread track. An event's
    args are its JSONL fields (see {!iter_jsonl}) less [dur_s], null
    fields and the field its name already carries ([rule], [bound],
    [phase], [op]; a probe's name carries its container, and its
    budgets are left out). Kinds with a duration (bound calls,
    realization attempts, probes, phases, online ops with
    [dur_s > 0]) render as complete ("X") spans ending at the event,
    the others as instants. Nodes at depth ≤ 16 render as spans from
    enter to close, deeper decisions not at all, and progress
    snapshots as counter tracks. *)
val write_chrome : t -> out_channel -> unit

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
