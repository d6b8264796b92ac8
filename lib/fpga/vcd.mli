(** Value-change-dump (VCD) export of a simulated schedule.

    Produces an IEEE-1364-style VCD file with one wire per task (high
    while the task executes on the chip) plus a vector signal carrying
    the number of occupied cells — directly viewable in GTKWave & co.
    Pure string output, no I/O. *)

(** [of_placement instance placement ~chip] renders the waveform at
    one clock cycle per 1ns time unit. *)
val of_placement :
  Packing.Instance.t -> Geometry.Placement.t -> chip:Chip.t -> string
