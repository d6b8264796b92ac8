(** ASCII rendering of space-time placements.

    Renders the chip occupancy at chosen time steps, one character per
    cell; boxes are labelled ['A'], ['B'], ... by index (wrapping after
    62 symbols). Intended for examples, debugging and the CLI. *)

(** [slice p ~container ~time] is the chip occupancy at clock cycle
    [time] as a list of strings (row 0 first). Empty cells are ['.']. *)
val slice : Placement.t -> container:Container.t -> time:int -> string list

(** [timeline p ~container] renders the slice at every cycle where the
    set of running boxes changes, with headers [-- t=... --]. A chip
    wider or taller than 100 cells gets a one-line note instead. *)
val timeline : Placement.t -> container:Container.t -> string

(** [gantt p] renders a one-line-per-box time chart, ignoring spatial
    coordinates: one column per cycle up to a makespan of 100. Past it,
    each of at most 100 columns covers [ceil (makespan / 100)] cycles
    and is marked when the box runs during any of them, and a last
    line names the scale. *)
val gantt : Placement.t -> string
