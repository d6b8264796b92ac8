(** Lexicographic breadth-first search (Rose–Tarjan–Lueker).

    LexBFS visits vertices so that, on chordal graphs, the reverse visit
    order is a perfect elimination ordering — the classical linear-time
    chordality recognition, independent of the MCS route in {!Chordal}.
    Keeping both lets the test suite cross-validate the two recognizers
    on random graphs. *)

(** [order g ?start ()] is the LexBFS visit order (position 0 visited
    first). [start] chooses the initial vertex (default 0). *)
val order : Undirected.t -> ?start:int -> unit -> int array

(** [is_chordal g] recognizes chordal graphs via LexBFS + PEO check. *)
val is_chordal : Undirected.t -> bool
