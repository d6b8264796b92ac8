(** Axis-aligned boxes of arbitrary dimension.

    A hardware module is a 3-dimensional box: extents along [x] and [y]
    are cell counts on the chip, the extent along the last (time) axis
    is the execution duration in clock cycles. The packing machinery is
    written for arbitrary dimension [d >= 1], which both matches the
    underlying theory and lets the 2D "fixed schedule" problems reuse
    the same code paths. *)

type t

(** [make extents] is a box with the given positive extents; dimension
    is [Array.length extents].
    @raise Invalid_argument if empty or any extent is non-positive. *)
val make : int array -> t

(** [make3 ~w ~h ~duration] is a convenience for space-time boxes with
    dimension order [x; y; t]. *)
val make3 : w:int -> h:int -> duration:int -> t

(** Number of dimensions. *)
val dim : t -> int

(** [extent b k] is the size of [b] along axis [k]. *)
val extent : t -> int -> int

(** All extents, as a fresh array. *)
val extents : t -> int array

(** Product of all extents. *)
val volume : t -> int

(** Largest product of extents accepted from outside the program:
    [2^40]. Volumes, their sums over the boxes of an instance and the
    bound engine's scaled volumes then stay far below [max_int]. *)
val max_volume : int

(** [check_volume exts] is [Error msg] when an extent is not positive
    or the product of [exts] exceeds {!max_volume}; the check itself
    never overflows. Every box, container and chip read from an
    instance file, the command line or a [serve] request passes it
    before any volume is computed. *)
val check_volume : int array -> (unit, string) result

(** [mul_sat a b] is [a * b] for non-negative [a] and [b], or [max_int]
    when that does not fit. Products of derived container extents (a
    chip times a probed makespan, a DFF-scaled extent) can pass
    {!max_volume}; they go through [mul_sat] and saturate. *)
val mul_sat : int -> int -> int

(** [rotate b ~axes] permutes the extents; [axes] must be a permutation
    of [0 .. dim-1]. *)
val rotate : t -> axes:int array -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
