(** Per-domain cells: a list under an [Atomic] in which each domain owns
    at most one cell, registered on that domain's first touch. The
    {!Trace} streams use it.

    Registration races other registrations (compare-and-set retry),
    never updates: a cell is only ever written by its own domain. *)

(** [get cells ~owner ~make] is the calling domain's cell in [cells],
    the one whose [owner] is the domain's id. When there is none yet,
    [make id] is registered and returned. Finding an existing cell
    allocates nothing. *)
val get : 'c list Atomic.t -> owner:('c -> int) -> make:(int -> 'c) -> 'c
