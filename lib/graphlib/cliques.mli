(** Exact maximum-weight clique for small graphs.

    The packing-class condition C2 requires that every stable set of a
    component graph fits into the container, i.e. that the maximum
    weight of a clique of pairwise-"comparable" boxes stays within the
    container extent. During the branch-and-bound search these cliques
    live on graphs with a few dozen vertices, so a carefully pruned
    exponential search is both exact and fast. *)

(** [max_weight_clique g ~weight] is [(w, vs)] where [vs] is a clique of
    [g] of maximum total weight [w]. Weights must be non-negative; the
    empty clique (weight 0) is always admissible. *)
val max_weight_clique : Undirected.t -> weight:(int -> int) -> int * int list

(** [exists_clique_heavier g ~weight ~bound] decides whether some clique
    has total weight strictly greater than [bound]; equivalent to
    [fst (max_weight_clique g ~weight) > bound] but can stop early. *)
val exists_clique_heavier : Undirected.t -> weight:(int -> int) -> bound:int -> bool
