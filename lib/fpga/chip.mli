(** The reconfigurable chip: a rectangular array of identical
    configurable cells, as in the paper's architecture model (Sec. 2.1,
    Xilinx 6200-like).

    The chip itself is a static descriptor; dynamic cell occupancy
    during execution lives in {!Simulator}. *)

type t

(** [create ~w ~h] is a chip of [w * h] cells.
    @raise Invalid_argument on non-positive sizes. *)
val create : w:int -> h:int -> t

val width : t -> int
val height : t -> int
val cells : t -> int

(** [square s] is [create ~w:s ~h:s]. *)
val square : int -> t

(** [container t ~t_max] is the space-time container for a makespan
    budget. *)
val container : t -> t_max:int -> Geometry.Container.t

val pp : Format.formatter -> t -> unit
