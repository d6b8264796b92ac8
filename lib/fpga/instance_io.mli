(** Plain-text instance format (parser and printer).

    {b Version 1} grammar, one directive per line ([#] starts a
    comment) — the historical 3-dimensional FPGA surface:

    {v
    name <string>                      # optional instance name
    chip <w> <h>                       # optional target chip
    time <t_max>                       # optional makespan budget
    module <type> <w> <h> <exec> [<reconfig>]   # module-type declaration
    task <label> <type>                # task referencing a module type
    task <label> <w> <h> <duration>    # task with explicit geometry
    dep <label> <label>                # precedence arc (producer consumer)
    v}

    {b Version 2} adds dimension-generic directives; v1 files parse
    unchanged (the default dimension is 3):

    {v
    dim <d>                            # dimension (before any of the below)
    objective <k>                      # objective axis (default d-1)
    container <e0> ... <e(d-1)>        # optional target container
    box <label> <e0> ... <e(d-1)>      # task with d explicit extents
    order <axis> <label> <label>       # order arc along one axis
    v}

    [dim] must precede every dimension-dependent directive and defaults
    to 3; [chip]/[time]/[module]/[task] are only valid when the
    dimension is 3, while [dep] works in any dimension as an order arc
    on the objective axis. A 2-dimensional strip-packing instance with
    a left-to-right reading order is, for example:

    {v
    dim 2
    name strip
    container 8 1
    box a 3 2
    box b 2 4
    order 0 a b
    v}

    3-dimensional example (v1):

    {v
    name DE
    chip 32 32
    time 14
    module MUL 16 16 2
    module ALU 16 1 1
    task v1 MUL
    task v4 ALU
    dep v1 v4
    v} *)

type t = {
  instance : Packing.Instance.t;
  chip : Chip.t option;
  t_max : int option;
  container : Geometry.Container.t option;
      (** v2 [container] directive; [None] for v1 files, which carry
          the target geometry as [chip]/[t_max] instead *)
}

(** [parse text] reads the format above.
    @raise Failure with a line-numbered message on syntax errors,
    unknown module types or labels, duplicate labels, out-of-range
    axes, arity mismatches, cyclic order arcs, or extents that fail
    {!Geometry.Box.check_volume} (every box, module, container and
    chip, and the chip together with the time budget). *)
val parse : string -> t

(** [print t] renders a parseable representation (module types are
    expanded into explicit task geometry). Instances the v1 grammar
    can express — 3-dimensional, objective on the last axis, no
    spatial orders, no explicit container — print in the v1 surface,
    byte-identical to the historical output; anything else prints in
    the v2 surface ([dim]/[box]/[order] directives, per-axis covering
    arcs). *)
val print : t -> string
