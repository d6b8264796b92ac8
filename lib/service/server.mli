(** Placement-as-a-service: a long-running JSONL solve server.

    {b Protocol.} One request per line on the input stream, one JSON
    object per line on the output stream. A request:

    {v
    {"id": "r1", "op": "solve" | "min-time" | "min-area",
     "instance": "<Instance_io text, \n-separated>",
     "chip": [w, h],          // optional when the instance text has a chip line
     "time": t_max,           // optional when the instance text has a time line
     "node_limit": n,         // optional per-request budget
     "time_limit_s": s,       // optional per-request budget
     "jobs": j}               // optional solver domains for this request
    v}

    Responses carry the echoed [id], the [op], a typed [status]
    ([feasible] / [infeasible] / [undecided] for [solve]; [optimal] /
    [feasible] / [infeasible] / [unknown] for the minimizations), the
    objective [value] with [lower_bound]/[gap] when applicable, and the
    witness [placement] in the request's own task labels. Malformed or
    invalid requests get [{"id":..., "error":{"code":..., "message":...}}]
    with code [parse], [bad-request] or [internal]; the loop always
    survives. When heartbeats are enabled, progress and incumbent event
    lines ([{"id":..., "ev":"heartbeat"|"incumbent", ...}]) are
    interleaved with responses; every line is emitted through one
    {!Writer}, so concurrent workers never splice lines.

    {b Caching.} Every request is canonicalized ({!Canonical}) and
    solved {e in canonical space}; the witness is mapped back through
    the request's own relabeling. Identical and isomorphic requests
    therefore share one cache key, and — because rendering is a pure
    function of the canonical result — a cache hit returns byte-wise
    the same response a cold solve would have produced. Only definitive
    results (optimal / infeasible / sat / unsat) are cached; truncated
    incumbents depend on the requester's budget and are recomputed. *)

type config = {
  jobs : int;  (** worker domains draining the request stream (>= 1) *)
  cache_capacity : int;
      (** result-cache entries; 0 (or less) holds no cache, and every
          request reaches the solver *)
  max_nodes : int option;
      (** server-side cap: request node budgets are clamped to this *)
  max_time_s : float option;
      (** server-side cap on per-request wall-clock budgets; also the
          default when a request names no budget *)
  heartbeat_s : float option;
      (** stream heartbeat/incumbent event lines on this cadence *)
  solver_jobs : int;
      (** default solver domains per request (requests may lower it) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t

(** Per-request accounting, exposed for tests and metrics. *)
type meta = {
  cache_hit : bool;
  nodes : int;  (** solver nodes this request cost (0 on the hit path) *)
  elapsed_s : float;
  digest : string;  (** canonical digest ("" for requests that never
                        reached canonicalization) *)
}

(** [handle_request t events req] processes one parsed request and
    returns the response document plus its accounting. [events]
    receives heartbeat/incumbent lines when the config enables them.
    Never raises. *)
val handle_request : t -> Writer.t -> Packing.Telemetry.json -> Packing.Telemetry.json * meta

(** [handle_line t w line] parses [line], processes it, and writes the
    response (and any events) through [w]. Never raises; blank lines
    and [#] comments are ignored. *)
val handle_line : t -> Writer.t -> string -> unit

(** [serve_channel t w ic] runs the request loop over [ic] until EOF:
    with [config.jobs = 1] requests are handled inline in arrival
    order; otherwise a pool of worker domains drains them concurrently
    and responses appear in completion order (match them by [id]). The
    reader queues at most four lines per worker and stops reading
    while the queue is full, so slow handlers push back on [ic]. All
    workers are joined before returning. *)
val serve_channel : t -> Writer.t -> in_channel -> unit

(** [serve_tcp t ~port] binds [127.0.0.1:port] and serves connections
    one at a time, each with the same protocol (and the same cache) as
    {!serve_channel}. Runs until the process is killed. *)
val serve_tcp : t -> port:int -> unit

(** {1 Metrics exposition}

    {!create} registers the [fpga_cache_*] and [fpga_server_*] series in
    the default registry (see {!Packing.Metrics}). Each request is
    written there once, when it finishes, with the change in the cache's
    counters; only the in-flight gauge also moves when it starts. A
    request line [{"op":"metrics"}] is answered with
    [{"id":..., "op":"metrics", "metrics":"<exposition>"}], the
    {!metrics_text} of that moment as a JSON string, without touching
    the solver pipeline. The exposition is the one format a snapshot
    leaves the process in; [of_prometheus] in {!Packing.Metrics} reads
    it back. *)

(** One Prometheus text exposition of the default registry. *)
val metrics_text : unit -> string

(** [serve_metrics ~port] binds [127.0.0.1:port] (raising on a clash,
    synchronously) and spawns a domain that answers every connection
    with one {!metrics_text} exposition and closes it — a minimal
    Prometheus scrape target. The domain never terminates. *)
val serve_metrics : port:int -> unit

(** [start_metrics_dump ~path ~interval_s] opens [path] and spawns a
    domain appending one [{"ev":"metrics", "ts":..., "metrics":"..."}]
    line every [interval_s] seconds through a {!Writer}; [metrics] is
    the {!metrics_text} exposition as a JSON string. Returns the
    stop function, which joins the dumper, writes one final snapshot,
    and closes the file. *)
val start_metrics_dump : path:string -> interval_s:float -> unit -> unit

val cache_counters : t -> Packing.Telemetry.cache_counters

(** Cumulative server statistics as one JSON event line:
    [{"ev":"stats", "requests":..., "errors":..., "nodes":...,
    "latency":{"samples":..., "p50_s":..., "p99_s":...},
    "ops":{"<op>":count, ...}, "cache":{...}}]. Latency percentiles are
    nearest-rank over every request handled so far
    ({!Packing.Telemetry.percentile}); [ops] counts requests by op name
    ([invalid] for lines that never parsed to a known op). *)
val stats_json : t -> Packing.Telemetry.json
