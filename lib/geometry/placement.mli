(** Placements: an origin for every box, plus full feasibility checking.

    This module is the geometric ground truth of the whole library: the
    branch-and-bound solver only ever reports a packing after the
    corresponding placement has passed {!check} here, so solver
    soundness never rests on the combinatorial pruning rules alone. *)

type t

(** [make boxes origins] pairs each box with its origin (one coordinate
    per axis).
    @raise Invalid_argument on arity mismatches. *)
val make : Box.t array -> int array array -> t

(** Number of boxes. *)
val count : t -> int

val box : t -> int -> Box.t

(** [origin p i] is a fresh copy of box [i]'s origin. *)
val origin : t -> int -> int array

(** [start_time p i] is the origin along the last axis — the start time
    for space-time boxes. *)
val start_time : t -> int -> int

(** [finish_time p i] is start time plus duration. *)
val finish_time : t -> int -> int

(** [makespan p] is the maximum finish time (0 when empty). *)
val makespan : t -> int

(** Everything that can make a placement infeasible. *)
type violation =
  | Out_of_bounds of int (* box index *)
  | Boxes_overlap of int * int (* pair of box indices *)
  | Precedence_violated of int * int (* arc u -> v with start v < finish u *)

(** [check p ~container ~precedes] returns all violations: a box leaving
    the container, two boxes overlapping in {e every} axis, or an arc
    [(u, v)] with [precedes u v = true] whose head starts before its
    tail finishes (time = last axis). An empty list means the placement
    is feasible. It allocates nothing but the list, and asks [precedes]
    only about pairs whose times conflict. *)
val check :
  t -> container:Container.t -> precedes:(int -> int -> bool) -> violation list

(** [is_feasible p ~container ~precedes] is [check ... = []]. *)
val is_feasible :
  t -> container:Container.t -> precedes:(int -> int -> bool) -> bool

val pp_violation : Format.formatter -> violation -> unit
