(** Chordal graph recognition.

    A graph is chordal iff it admits a perfect elimination ordering
    (PEO). We compute a candidate ordering by Maximum Cardinality Search
    (MCS) and verify it; MCS yields a PEO exactly for chordal graphs
    (Tarjan & Yannakakis), so the test is exact. Interval graphs are
    chordal graphs whose complement is a comparability graph
    (Gilmore–Hoffman), so with {!Comparability} this module re-checks
    condition C1 on a component graph. *)

(** [mcs_order g] is a Maximum Cardinality Search ordering of the
    vertices (in elimination order: position 0 is eliminated first). *)
val mcs_order : Undirected.t -> int array

(** [is_peo g order] checks that [order] is a perfect elimination
    ordering of [g]: for every vertex, its neighbors occurring later in
    the ordering form a clique. *)
val is_peo : Undirected.t -> int array -> bool

(** [is_chordal g] is [true] iff [g] is chordal. *)
val is_chordal : Undirected.t -> bool

(** [find_chordless_cycle g] returns a chordless cycle of length >= 4 if
    one exists ([None] iff the graph is chordal). Used for diagnostics
    and tests. *)
val find_chordless_cycle : Undirected.t -> int list option
