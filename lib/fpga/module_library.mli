(** Hardware module libraries: named module types with geometry,
    execution time and reconfiguration overhead.

    A module type describes a synthesized macro (an array multiplier, an
    ALU slice, a DCT block, ...) as the paper's Sec. 2 does: a
    rectangular footprint of cells, an execution time in clock cycles,
    and a per-task constant reconfiguration overhead (load time of the
    partial configuration, modeled as an additive constant — the
    paper's simplification). *)

type module_type = {
  type_name : string;
  width : int; (** cells along x *)
  height : int; (** cells along y *)
  exec_time : int; (** clock cycles of computation *)
  reconfig_time : int; (** additive configuration-load overhead *)
}

type t

(** [create types] indexes module types by name.
    @raise Invalid_argument on duplicates or non-positive geometry. *)
val create : module_type list -> t

val find : t -> string -> module_type

(** [box mt] is the space-time box of one task of this type:
    [width x height x (exec_time + reconfig_time)], the paper's
    "considering this as an offset ... part of the execution time". *)
val box : module_type -> Geometry.Box.t

(** [instantiate t ~tasks] builds the boxes and labels of an instance
    given a list of [(label, type name)] pairs.
    @raise Not_found on unknown type names. *)
val instantiate :
  t ->
  tasks:(string * string) list ->
  Geometry.Box.t array * string array
