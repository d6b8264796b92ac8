(** Simple directed graphs on a fixed vertex set [0 .. n-1].

    Used for precedence DAGs and for transitive orientations of
    comparability graphs. Self-loops are rejected; antiparallel arc
    pairs are representable. *)

type t

(** [create n] is the arcless digraph on vertices [0 .. n-1]. *)
val create : int -> t

(** Number of vertices. *)
val order : t -> int

(** Number of arcs. *)
val size : t -> int

(** [add_arc g u v] adds the arc [u -> v].
    @raise Invalid_argument on self-loops or out-of-range vertices. *)
val add_arc : t -> int -> int -> unit

(** [mem_arc g u v] is [true] iff [u -> v] is an arc. *)
val mem_arc : t -> int -> int -> bool

(** All arcs as pairs [(u, v)], lexicographically sorted. *)
val arcs : t -> (int * int) list

(** [of_arcs n arcs] builds a digraph on [n] vertices. *)
val of_arcs : int -> (int * int) list -> t

(** Deep copy. *)
val copy : t -> t

(** [relabel g perm] renames vertex [u] to [perm.(u)]: [u -> v] is an
    arc of [g] iff [perm.(u) -> perm.(v)] is an arc of the result.
    [perm] must be a permutation of [0 .. order g - 1]. *)
val relabel : t -> int array -> t

(** [is_transitive g] checks [u -> v -> w] implies [u -> w]. *)
val is_transitive : t -> bool

(** [is_acyclic g] is [true] iff [g] has no directed cycle. *)
val is_acyclic : t -> bool

(** [topological_order g] is [Some order] (a vertex list such that all
    arcs go forward) iff [g] is acyclic, [None] otherwise. *)
val topological_order : t -> int list option

(** In-place reflexive-free transitive closure (Warshall). *)
val transitive_closure : t -> unit

(** [transitive_reduction g] returns a fresh digraph with the minimal
    arc set whose transitive closure equals that of [g].
    @raise Invalid_argument if [g] is not acyclic. *)
val transitive_reduction : t -> t

(** [longest_path_lengths g ~weight] computes, for an acyclic [g], the
    array [d] with [d.(v)] the maximum of [weight u + d u'] over arcs
    into [v] — i.e. [d.(v)] is the total weight of the heaviest chain of
    strict predecessors of [v]. This is exactly the earliest feasible
    coordinate of box [v] when [weight] gives box extents.
    @raise Invalid_argument if [g] has a cycle. *)
val longest_path_lengths : t -> weight:(int -> int) -> int array

(** [critical_path g ~weight] is the weight of the heaviest directed
    chain (including the weights of both endpoints) in an acyclic [g];
    0 for the empty graph.
    @raise Invalid_argument if [g] has a cycle. *)
val critical_path : t -> weight:(int -> int) -> int
