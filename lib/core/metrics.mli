(** Process-wide metrics registry: named counters, gauges, and
    histograms, plus Prometheus text-format and JSON exposition.

    - [null] costs nothing. A handle minted against {!null} is a
      no-op variant; every operation matches on it first and returns
      without touching shared memory.
    - Every write is per flush, per request or per run: the solver
      core keeps its tallies in {!Recorder} and writes them here only
      in {!Recorder.flush}, at heartbeats and when a search or run
      ends. So each series is one cell under its own mutex, counters
      and histograms like gauges, and a {!snapshot} reads exact
      values: once the recorders have flushed, it equals their
      tallies. *)

type t
(** A registry handle: either {!null} or a live registry. *)

val null : t
(** The disabled registry. Handles minted from it are no-ops. *)

val create : unit -> t
(** A fresh, empty, enabled registry. *)

val enabled : t -> bool

(** {1 Process default}

    Instrumented modules pull their handles from a process-wide
    default so callers don't thread a registry through every API.
    It starts as {!null}; surfaces that want metrics (the serve loop,
    the bench harness, tests) install a live registry first. *)

val default : unit -> t
val set_default : t -> unit

(** {1 Instruments}

    [counter]/[gauge]/[histogram] register (or re-open) the series
    [name]+[labels]; registering the same series twice returns handles
    that accumulate into the same cells. Names must match
    [[a-zA-Z_:][a-zA-Z0-9_:]*] and label names
    [[a-zA-Z_][a-zA-Z0-9_]*].
    @raise Invalid_argument on a malformed name, duplicate label keys,
    or when [name] is already registered with a different kind. *)

type counter
type gauge
type histogram

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> counter

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

(** [histogram] observations land in fixed buckets: [buckets] is the
    array of upper bounds ([le]), strictly increasing and finite; an
    implicit [+Inf] bucket is always appended. [buckets] is consulted
    only by the registration that creates the family — later
    registrations of the same name reuse the existing bucket ladder.
    Defaults to 24 latency buckets, 10 microseconds to ~84 seconds,
    factor 2. *)
val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string ->
  histogram

val incr : counter -> unit

(** [add c n] adds [n >= 0] to the counter (not checked — counters are
    monotone by convention, as in Prometheus). *)
val add : counter -> int -> unit

val addf : counter -> float -> unit
val set : gauge -> float -> unit

(** [shift g d] adds [d] (possibly negative) to the gauge — in-flight
    style accounting. *)
val shift : gauge -> float -> unit

val observe : histogram -> float -> unit

(** {1 Bucket ladders} *)

(** 1 to ~4.2M search nodes, factor 4 (12 buckets). *)
val node_buckets : float array

(** {1 Snapshots}

    A snapshot is a pure, immutable merged view: families sorted by
    name, series sorted by their canonical label encoding, histogram
    buckets already cumulative. Rendering a given snapshot is
    byte-deterministic. *)

type kind = Counter | Gauge | Histogram

type value =
  | Sample of float  (** counter or gauge level *)
  | Buckets of {
      le : float array;  (** upper bounds, ending in [infinity] *)
      cumulative : int array;  (** same length; last equals [count] *)
      sum : float;
      count : int;
    }

type sample = { labels : (string * string) list; value : value }
type family = { name : string; kind : kind; help : string; samples : sample list }
type snapshot = family list

val snapshot : t -> snapshot

(** {1 Rendering and parsing} *)

(** Prometheus text exposition: [# HELP]/[# TYPE] lines, one sample
    per line, histogram [_bucket{le=...}] samples cumulative and ending
    in [+Inf], then [_sum] and [_count]. *)
val to_prometheus : snapshot -> string

(** JSON form (for the [metrics] request op and snapshot files):
    [{"families":[...]}]. *)
val to_json : snapshot -> Telemetry.json

val of_json : Telemetry.json -> (snapshot, string) result

(** Parse an exposition back into a snapshot. Strict: every sample
    must be preceded by a matching [# TYPE] line, histogram bucket
    counts must be non-decreasing and end in [+Inf] — so this doubles
    as the well-formedness check used by the tests and CI. *)
val of_prometheus : string -> (snapshot, string) result

(** Human-readable table (the [metrics-summary] CLI rendering):
    histograms show count, sum, and bucket-resolution p50/p99. *)
val pp_table : Format.formatter -> snapshot -> unit
