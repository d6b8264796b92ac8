(** Named graph families and seeded random graphs for the graph-library
    tests. *)

open Graphlib

(** [path n] is the path on [n] vertices, [0 - 1 - ... - n-1]. *)
val path : int -> Undirected.t

(** [cycle n] is the cycle on [n >= 3] vertices. *)
val cycle : int -> Undirected.t

(** [complete n] is the clique on [n] vertices. *)
val complete : int -> Undirected.t

(** [grid ~rows ~cols] is the king-free rectangular grid graph. *)
val grid : rows:int -> cols:int -> Undirected.t

(** [random ~seed ~n ~edge_probability] — every pair independently an
    edge with the given probability; deterministic in [seed]. *)
val random : seed:int -> n:int -> edge_probability:float -> Undirected.t

(** [random_interval ~seed ~n ~span ~max_len] builds an interval graph
    from a random interval model (left endpoints in [0 .. span], lengths
    in [1 .. max_len]), returning the graph and the model. *)
val random_interval :
  seed:int ->
  n:int ->
  span:int ->
  max_len:int ->
  Undirected.t * (int array * int array)

(** [random_dag ~seed ~n ~arc_probability] orients random forward pairs
    [(i, j)], [i < j]. *)
val random_dag : seed:int -> n:int -> arc_probability:float -> Digraph.t
