(** From a fully decided packing class to an actual placement
    (Theorem 1, constructive direction).

    At a leaf of the search every pair is decided in every dimension. We
    extend the forced orientations of each dimension's comparability
    edges to a full transitive orientation (Theorem 2 machinery), place
    every box at its weighted-longest-path coordinate, and verify the
    result geometrically. A returned placement is therefore feasible by
    construction {e and} by check; [None] means this leaf admits no
    feasible placement (some dimension has no suitable orientation, or a
    chain exceeds the container). This is the search's only path to a
    witness: {!Opp_solver} calls it at fully decided leaves and
    nowhere else. *)

(** [of_state state] reconstructs a feasible placement from a leaf
    state. The state must have no undecided pairs and is left
    unchanged.
    @raise Invalid_argument if undecided pairs remain. *)
val of_state : Packing_state.t -> Geometry.Placement.t option
