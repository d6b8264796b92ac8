(** A bounded, mutex-guarded memo of solve results keyed by canonical
    request key.

    The cache is the reason most requests never reach the search tree:
    a request whose canonical key was answered before is served from
    memory, at zero solver nodes. Entries are evicted least recently
    used once [capacity] is reached; every operation is safe to call
    concurrently from the server's worker domains.

    The values stored are the {e typed} results of the drivers —
    placements and proven bounds, not rendered responses — so a hit can
    be re-rendered into any isomorphic request's own labeling. Callers
    should cache only {e definitive} results (optimal / infeasible /
    sat / unsat): those are independent of the requester's budget,
    whereas a budget-truncated incumbent from one request could
    understate what a richer budget would have proven.

    The cache writes no metric: its {!counters} are its only tally, and
    the server writes their change to the metrics registry. *)

type 'a t

(** [create ?capacity ()] — an empty cache holding at most [capacity]
    entries (default 1024).
    @raise Invalid_argument if [capacity < 1]. *)
val create : ?capacity:int -> unit -> 'a t

(** [find t key] returns the cached value and refreshes its recency.
    Counts one hit or one miss. *)
val find : 'a t -> string -> 'a option

(** [add t key v] inserts or refreshes [key], evicting the least
    recently used entry when the cache is full. *)
val add : 'a t -> string -> 'a -> unit

(** Hits, misses and evictions since {!create}, plus the current fill
    and the capacity. *)
val counters : 'a t -> Packing.Telemetry.cache_counters
