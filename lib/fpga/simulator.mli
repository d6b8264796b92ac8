(** Cycle-accurate simulation of a placed schedule on the reconfigurable
    chip.

    This is the executable model of the paper's target platform
    (Sec. 2.1): tasks are configured onto a region of the cell array,
    run for their execution time, and communicate through an external
    memory over the bus interface — the sender writes its result
    registers out at the end of its execution (read-out), the receiver
    reads them in when it starts. The simulator replays a placement
    cycle by cycle and verifies, independently of all solver machinery:

    - no cell is driven by two configured tasks in the same cycle;
    - every task stays within the cell array;
    - every data dependency is satisfied by an actual memory hand-over
      (the producer's read-out happens no later than the consumer's
      read-in).

    It also reports platform-level statistics the optimizer does not
    see: number of reconfigurations, bus traffic, and the peak number of
    intermediate results parked in external memory (the paper's
    footnote: "memory is allocated to store temporarily intermediate
    results"). *)

type event = {
  time : int;
  task : int;
  what : action;
}

and action =
  | Configure (** partial reconfiguration of the task's region *)
  | Start (** execution begins (after read-in) *)
  | Finish (** execution ends; result written to memory (read-out) *)
  | Release of int (** producer's result freed: last consumer = task *)

type report = {
  ok : bool;
  errors : string list;
  makespan : int;
  events : event list; (** chronological *)
  reconfigurations : int;
  bus_words : int; (** total words moved over the bus *)
  peak_memory_words : int; (** peak external-memory footprint *)
  busy_cell_cycles : int; (** sum over cycles of occupied cells *)
  utilization : float; (** busy cell-cycles / (cells * makespan) *)
}

(** [run instance placement ~chip] replays the placement. Each producing
    task hands over as many registers as its module is wide (one column
    of flip-flops). *)
val run :
  Packing.Instance.t ->
  Geometry.Placement.t ->
  chip:Chip.t ->
  report

(** Render the event list as a readable trace. *)
val pp_report : Format.formatter -> report -> unit
