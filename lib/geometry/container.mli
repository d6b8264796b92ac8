(** Packing containers: the chip in space, extended by the allowed
    makespan in time.

    A container is simply a box anchored at the origin; for the FPGA
    problems the container is [W x H x T] where [W x H] is the cell
    array of the chip and [T] the admissible total execution time. *)

type t

(** [make extents] is a container with the given positive extents. *)
val make : int array -> t

(** [make3 ~w ~h ~t_max] is the space-time container [w x h x t_max]. *)
val make3 : w:int -> h:int -> t_max:int -> t

val dim : t -> int
val extent : t -> int -> int
val extents : t -> int array

(** Product of all extents, saturated at [max_int] ({!Box.mul_sat}). *)
val volume : t -> int

(** [with_extent c k e] is [c] with axis [k] resized to [e]. *)
val with_extent : t -> int -> int -> t
