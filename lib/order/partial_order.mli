(** Strict partial orders over [0 .. n-1], used for precedence
    constraints between tasks.

    A partial order is stored as the transitive closure of a DAG of
    arcs; the paper's first preprocessing step ("we compute the
    transitive closure of all data dependencies") is performed at
    construction time so that contradictions with packing conditions
    surface as early as possible in the search. *)

type t

(** [of_arcs ~n arcs] builds the partial order generated by [arcs].
    @raise Invalid_argument if the arcs contain a directed cycle. *)
val of_arcs : n:int -> (int * int) list -> t

(** The empty order (no constraints) on [n] elements. *)
val empty : n:int -> t

(** [relabel p perm] is [p] with element [u] renamed [perm.(u)]: [u < v]
    in [p] iff [perm.(u) < perm.(v)] in the result. [perm] must be a
    permutation of [0 .. ground p - 1]. *)
val relabel : t -> int array -> t

val size : t -> int

(** Number of elements. *)
val ground : t -> int

(** [precedes p u v] is [true] iff [u < v] in the order (transitively). *)
val precedes : t -> int -> int -> bool

(** [comparable p u v] is [precedes p u v || precedes p v u]. *)
val comparable : t -> int -> int -> bool

(** All relations of the transitive closure, as arcs. *)
val relations : t -> (int * int) list

(** Covering relations (transitive reduction). *)
val covers : t -> (int * int) list

(** [critical_path p ~duration] is the maximum total duration of a chain
    — the unbeatable lower bound on the makespan of any schedule that
    respects [p]. *)
val critical_path : t -> duration:(int -> int) -> int

(** [earliest_starts p ~duration] gives for each element the total
    duration of the heaviest chain of its strict predecessors — its
    earliest feasible start time. *)
val earliest_starts : t -> duration:(int -> int) -> int array

(** Maximal antichain decomposition is not needed; instead
    [is_antichain p vs] checks pairwise incomparability. *)
val is_antichain : t -> int list -> bool

(** [restrict_check p schedule ~duration] checks that the start times
    [schedule] respect the order: [u < v] implies
    [schedule.(u) + duration u <= schedule.(v)]. *)
val respects : t -> int array -> duration:(int -> int) -> bool

val pp : Format.formatter -> t -> unit
