(** Simple undirected graphs on a fixed vertex set [0 .. n-1].

    The representation is a symmetric boolean adjacency matrix, which is
    the right trade-off for the small, dense graphs manipulated by the
    packing-class machinery (component graphs over at most a few dozen
    boxes). All operations are safe: vertex indices are bounds-checked
    and self-loops are rejected. *)

type t

(** [create n] is the edgeless graph on vertices [0 .. n-1]. *)
val create : int -> t

(** Number of vertices. *)
val order : t -> int

(** Number of edges. *)
val size : t -> int

(** [add_edge g u v] adds the edge [{u,v}]. Idempotent.
    @raise Invalid_argument on self-loops or out-of-range vertices. *)
val add_edge : t -> int -> int -> unit

(** [remove_edge g u v] removes the edge [{u,v}] if present. *)
val remove_edge : t -> int -> int -> unit

(** [mem_edge g u v] is [true] iff [{u,v}] is an edge. *)
val mem_edge : t -> int -> int -> bool

(** [neighbors g u] is the sorted list of neighbors of [u]. *)
val neighbors : t -> int -> int list

(** [degree g u] is the number of neighbors of [u]. *)
val degree : t -> int -> int

(** All edges as pairs [(u, v)] with [u < v], lexicographically sorted. *)
val edges : t -> (int * int) list

(** [of_edges n es] builds a graph on [n] vertices with edge list [es]. *)
val of_edges : int -> (int * int) list -> t

(** Deep copy. *)
val copy : t -> t

(** [complement g] has exactly the non-edges of [g] as edges. *)
val complement : t -> t

(** [induced g vs] is the subgraph induced by the vertex list [vs]
    (which must be duplicate-free); vertex [i] of the result corresponds
    to [List.nth vs i]. *)
val induced : t -> int list -> t

(** [is_clique g vs] checks that the vertices [vs] are pairwise adjacent. *)
val is_clique : t -> int list -> bool

(** [is_stable g vs] checks that the vertices [vs] are pairwise non-adjacent. *)
val is_stable : t -> int list -> bool

(** Structural equality (same order and same edge set). *)
val equal : t -> t -> bool

(** [iter_edges f g] iterates [f] over all edges [(u, v)], [u < v]. *)
val iter_edges : (int -> int -> unit) -> t -> unit

(** Connected components, each sorted, in increasing order of minimum. *)
val components : t -> int list list

(** Pretty-printer, e.g. [graph(5){0-1, 2-4}]. *)
val pp : Format.formatter -> t -> unit
