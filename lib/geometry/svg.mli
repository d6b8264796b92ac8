(** SVG rendering of space-time placements, as one self-contained SVG
    document (no external CSS): the chip at every cycle where the set of
    running tasks changes, one rectangle per running task, side by side,
    plus a Gantt strip underneath — the whole schedule on one canvas.

    Colors cycle through a fixed qualitative palette; tasks keep their
    color across slices. Intended for quick visual inspection in a
    browser; the ASCII renderer in {!Render} remains the terminal
    option. *)

(** [storyboard p ~container ?labels ()] renders every slice at which
    the set of running tasks changes, plus a Gantt strip. [labels]
    supplies per-task captions (default: the task index). *)
val storyboard :
  Placement.t ->
  container:Container.t ->
  ?labels:(int -> string) ->
  unit ->
  string
