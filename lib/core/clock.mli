(** The one clock under the library: CLOCK_MONOTONIC in nanoseconds.
    It does not jump when the wall clock is set, so neither a measured
    duration nor a deadline moves with it. Every timer, latency and
    deadline in the library reads it, and a reading allocates nothing. *)

type t [@@immediate]
(** A reading. *)

val now : unit -> t

val since : t -> float
(** [since t0] is the seconds elapsed from the reading [t0] to now. *)

type deadline [@@immediate]
(** The instant a time budget runs out. Only {!after} makes one. *)

val after : float -> deadline
(** [after s] is [s] seconds from now; it has expired at once when
    [s <= 0]. It saturates instead of wrapping: a budget of 10{^9} s
    (about 32 years) or more, an infinite one, or NaN never expires. *)

val expired : deadline -> bool

val remaining : deadline -> float
(** Seconds until the deadline, negative once it has passed, and
    [infinity] for one that never expires. *)
