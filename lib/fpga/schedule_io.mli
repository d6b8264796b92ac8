(** Schedule files: start times (and optionally positions) per task.

    Format, one line per task ([#] comments):

    {v
    start <label> <time>            # start time only
    place <label> <time> <x> <y>    # full space-time position
    v}

    A file may mix both forms; {!parse} resolves labels against an
    instance. Used by the CLI [check] command (FeasA&FixedS: is a given
    schedule realizable on a given chip?). *)

type entry = {
  task : int;
  start : int;
  position : (int * int) option;
}

(** [parse instance text] resolves labels and returns one entry per
    mentioned task.
    @raise Failure on syntax errors, unknown labels, duplicates or
    negative times. *)
val parse : Packing.Instance.t -> string -> entry list

(** [schedule_array instance entries] is the start-time array expected
    by the FixedS solvers; every task must be mentioned.
    @raise Failure if some task has no entry. *)
val schedule_array : Packing.Instance.t -> entry list -> int array

(** [placement_of instance entries] builds a placement when every entry
    carries a position and every task is mentioned; [None] otherwise. *)
val placement_of :
  Packing.Instance.t -> entry list -> Geometry.Placement.t option
