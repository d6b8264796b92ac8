(** From a fully decided packing class to an actual placement
    (Theorem 1, constructive direction).

    At a leaf of the search every pair is decided in every dimension. We
    extend the forced orientations of each dimension's comparability
    edges to a full transitive orientation (Theorem 2 machinery), place
    every box at its weighted-longest-path coordinate, and verify the
    result geometrically. A returned placement is therefore feasible by
    construction {e and} by check; [None] means this leaf admits no
    feasible placement (some dimension has no suitable orientation, or a
    chain exceeds the container). *)

(** [of_state state] reconstructs a feasible placement from a leaf
    state. The state must have no undecided pairs and is left
    unchanged.
    @raise Invalid_argument if undecided pairs remain. *)
val of_state : Packing_state.t -> Geometry.Placement.t option

(** [attempt state] tries to realize a {e partial} state: orient the
    comparability edges fixed so far, ignore undecided pairs, place by
    longest paths and validate geometrically. Because undecided pairs
    carry no separation guarantee, the validator does all the work; a
    [Some] answer is a true feasible placement, [None] just means "keep
    searching". Calling this at every node lets the search stop as soon
    as the decided part of the packing class already forces a feasible
    layout. *)
val attempt : Packing_state.t -> Geometry.Placement.t option
