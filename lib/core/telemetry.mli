(** Shared solver telemetry: per-rule time/call counters and the one
    JSON emitter used by every [--stats json] surface.

    {!Opp_solver} and {!Parallel_solver} both render their reports
    through {!to_string} so the two outputs cannot drift apart, and
    both carry a {!rule_counters} record measuring where propagation
    time actually goes (C2 chain cliques, C1/C4 cycle rules, the Helly
    capacity rule, D1/D2 implication closure, and the realizations:
    one attempt per fully decided leaf the search reaches). *)

(** Cumulative per-rule call counts and time, kept by {!Recorder}; a
    parallel solve reports the sum over workers. *)
type rule_counters = {
  c2_calls : int;
  c2_time_s : float;
  c4_calls : int;
  c4_time_s : float;
  capacity_calls : int;
  capacity_time_s : float;
  implication_calls : int;
  implication_time_s : float;
  realize_attempts : int;
  realize_time_s : float;
}

val zero_rules : rule_counters

(** Cumulative per-bound counters from the {!Bound_engine}: how often a
    registered bound ran, how long it took, and how many times its
    verdict pruned work (an [Infeasible] certificate, or a lower bound
    that closed a node). *)
type bound_counter = { calls : int; time_s : float; prunes : int }

val zero_bound : bound_counter

(** Association list keyed by bound name, in registry order. *)
type bound_counters = (string * bound_counter) list

(** Pointwise merge keyed by name; names only the right operand saw are
    appended, so merging parallel workers is stable. *)
val add_bound_counters : bound_counters -> bound_counters -> bound_counters

(** Counters of a bounded result cache ({!Service.Result_cache}): how
    many lookups hit, missed, how many entries were evicted to respect
    the bound, and the current fill level. *)
type cache_counters = {
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;
  cache_capacity : int;
}

(** Per-worker counters of the {!Parallel_solver} work-stealing kernel:
    how many subtree descriptors this worker executed ([tasks]), how
    many of those it took from another worker's deque ([steals]), how
    many alternative branches it published to its own deque while
    descending ([donated]), and how many of those it took back and ran
    in place because nobody had stolen them ([reclaimed]). An idle-free
    run satisfies [donated = reclaimed + sum of everyone's steals from
    this worker + descriptors abandoned on cancellation]. *)
type steal_counters = {
  tasks : int;
  steals : int;
  donated : int;
  reclaimed : int;
}

(** A periodic search-progress snapshot, produced by the wall-clock
    heartbeat of {!Opp_solver} (see [options.progress_interval_s]) and
    carried by {!Trace} progress events. [bracket] and [gap] are filled
    only when an optimization driver ({!Problems}) is running the search
    — they describe the current proven-bound/incumbent bracket of the
    monotone search. *)
type progress = {
  elapsed_s : float;  (** wall-clock seconds since the solve started *)
  nodes : int;  (** nodes visited so far *)
  nodes_per_s : float;  (** average node throughput so far *)
  max_depth : int;  (** deepest decision stack reached so far *)
  decided_fraction : float;
      (** fraction of (pair, dimension) slots already decided, in [0,1] *)
  trail_length : int;  (** current propagation trail length *)
  bracket : (int * int) option;
      (** (proven lower bound, incumbent value) of the enclosing
          optimization, when one is running *)
  gap : int option;  (** incumbent minus proven bound, when bracketed *)
}

(** Minimal JSON document model — enough for stats reports, with exact
    control over number formatting (hand-rolled emitters used
    [%.6f] for seconds; {!seconds} preserves that). *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Raw of string  (** preformatted literal, emitted verbatim *)
  | List of json list
  | Obj of (string * json) list

(** Strings (and object keys) are JSON-escaped: quotes, backslashes,
    and control characters survive hostile bound names and certificate
    details; non-finite floats render as [null]. The output of
    [to_string] always satisfies [of_string (to_string j) = Ok _]. *)
val to_string : json -> string

(** Seconds rendered as a fixed-precision (6 decimal places) number. *)
val seconds : float -> json

(** [percentile samples ~p] is the nearest-rank [p]-th percentile
    ([p] in [0,1]) of the samples; 0.0 when empty. The input array is
    not modified. *)
val percentile : float array -> p:float -> float

val rules_to_json : rule_counters -> json
val bounds_to_json : bound_counters -> json
val steals_to_json : steal_counters -> json
val cache_to_json : cache_counters -> json
val progress_to_json : progress -> json

(** [of_string s] parses one JSON document (the inverse of
    {!to_string}, used by [trace-summary] and the tests). Numbers
    without a fraction or exponent come back as [Int], others as
    [Float]; [Raw] is never produced. *)
val of_string : string -> (json, string) result

(** [member key json] is the field [key] of an [Obj], if any. *)
val member : string -> json -> json option

val to_float_opt : json -> float option
val to_int_opt : json -> int option
val to_string_opt : json -> string option
