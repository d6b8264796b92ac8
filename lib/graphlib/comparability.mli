(** Comparability graphs: Gallai implication classes and transitive
    orientation.

    An undirected graph is a {e comparability graph} if its edges can be
    oriented transitively ([a -> b] and [b -> c] imply [a -> c]). These
    graphs are exactly the complements of the component graphs of
    packing classes: a transitive orientation of the complement of an
    interval graph is an interval order, and weighted longest paths in
    that order yield box coordinates (see {!Core.Reconstruct}).

    The implication machinery follows Gallai/Golumbic: two directed
    edges [(a,b)] and [(a,c)] force each other ([(a,b) Γ (a,c)]) when
    [{b,c}] is not an edge, and similarly [(a,b) Γ (d,b)] when [{a,d}]
    is not an edge. The classes of the transitive closure of [Γ] are the
    implication classes; a graph is a comparability graph iff no
    implication class contains both orientations of some edge
    (Golumbic, Thm. 5.29). *)

(** [implication_class g a b] is the set of directed edges forced by
    orienting [a -> b], as a list of pairs, closed under the [Γ]
    relation. [{a,b}] must be an edge of [g]. *)
val implication_class : Undirected.t -> int -> int -> (int * int) list

(** [is_comparability g] is [true] iff [g] has a transitive
    orientation. *)
val is_comparability : Undirected.t -> bool

(** [transitive_orientation g] is [Some d] with [d] a verified
    transitive orientation of [g] (every edge oriented exactly one way,
    orientation transitive and acyclic), or [None] if [g] is not a
    comparability graph. Uses the classical class-by-class TRO scheme;
    the result is checked before being returned, so a [Some] answer is
    always sound. *)
val transitive_orientation : Undirected.t -> Digraph.t option
