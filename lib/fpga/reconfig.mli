(** Reconfiguration cost models.

    The paper models reconfiguration overhead as a per-task constant
    ("possibly a different number for each task, depending on the target
    architecture") and notes many alternatives exist. We provide the
    constant model plus two structural ones for experimentation:
    column-based loading (Xilinx 6200-style partial configuration is
    addressed by columns) and per-cell streaming. *)

type model =
  | Constant of int (** fixed cycles per reconfiguration *)
  | Per_column of int (** cycles per occupied column *)
  | Per_cell of int (** cycles per configured cell *)

(** [load_time model ~w ~h] is the configuration-load time of a module
    footprint of [w x h] cells. *)
val load_time : model -> w:int -> h:int -> int

val pp : Format.formatter -> model -> unit
