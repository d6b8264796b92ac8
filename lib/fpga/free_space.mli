(** Run-time free-space management: the set of maximal empty rectangles
    (MERs) of a partially occupied chip, maintained incrementally.

    This is the data structure behind the online placement manager
    (after "Optimal Free-Space Management and Routing-Conscious Dynamic
    Placement for Reconfigurable Devices", PAPERS.md): placing a module
    splits every intersecting MER into at most four residual rectangles
    and prunes the non-maximal ones; retiring a module recomputes
    exactly the maximal rectangles that intersect the freed footprint
    and merges them with the surviving set. Whether a footprint fits at
    all is answered in O(1) from a per-width table of the tallest MER at
    least that wide ({!fits}), built on the first query after a change.
    Only a footprint that fits costs a placement query: a single scan
    of the MER list — no per-candidate overlap tests against the running
    set, unlike the corner-candidate scan it replaced. [First_fit]
    places exactly where that scan did, since the lowest feasible
    (y, x) position is the bottom-left corner of some MER.

    The manager is deterministic: the MER list is kept sorted, and fit
    selection breaks ties by bottom-left (y, then x) position. *)

type t

(** Fit selection over the MER set. Every policy agrees on {e whether}
    a module fits (a footprint fits iff some MER contains it); they
    differ in {e which} MER hosts it. *)
type policy =
  | First_fit  (** bottom-left: the fitting MER with the lowest (y, x) corner *)
  | Best_fit  (** the fitting MER of smallest area (least leftover) *)
  | Worst_fit  (** the fitting MER of largest area (most leftover) *)

(** [create ~w ~h] is an empty chip of [w * h] cells: one MER.
    @raise Invalid_argument on non-positive sizes. *)
val create : w:int -> h:int -> t

(** An independent copy in O(1): it shares the original's immutable
    state (the MER list, the occupied modules and a built {!fits}
    table), which neither one mutates, only replaces. Used for
    transactional compaction proposals and their per-step snapshots.
    It gets its own {!remove} buffers, built on its first removal. *)
val copy : t -> t

val width : t -> int
val height : t -> int

(** Number of free cells. *)
val free_area : t -> int

(** The occupied modules as [(id, (x, y, w, h))], sorted by id. *)
val occupied : t -> (int * (int * int * int * int)) list

(** The maximal empty rectangles as [(x, y, w, h)], sorted. *)
val mers : t -> (int * int * int * int) list

val mer_count : t -> int

(** [fits t ~w ~h] is whether some MER can host a [w * h] footprint,
    that is whether {!find} returns [Some _] under every policy. It
    reads [reach.(w)], the greatest height of any MER at least [w]
    wide, from a table of [width t + 1] entries. The table is built in
    O(MERs + width) on the first query after a {!place} or {!remove},
    so every later query on the same layout is O(1).
    @raise Invalid_argument on non-positive sizes. *)
val fits : t -> w:int -> h:int -> bool

(** [cap t ~w] is the tallest footprint of width [w] that fits: the
    greatest height of any MER at least [w] wide, read from the same
    table as {!fits}, and 0 when [w] exceeds {!width}. So [fits t ~w ~h]
    is [w <= width t && h <= cap t ~w], and [cap] does not grow with
    [w].
    @raise Invalid_argument on a non-positive width. *)
val cap : t -> w:int -> int

(** [find t ~policy ~w ~h] is the bottom-left corner of the MER chosen
    by [policy] among those that can host a [w * h] footprint, or
    [None] when no MER fits it; that answer comes from {!fits} without
    scanning the MERs. Does not modify [t] beyond building the {!fits}
    table. *)
val find : t -> policy:policy -> w:int -> h:int -> (int * int) option

(** [place t ~id ~x ~y ~w ~h] occupies the footprint and updates the
    MER set incrementally.
    @raise Invalid_argument if the id is live, the footprint leaves the
    chip, has non-positive extents, or overlaps an occupied module. *)
val place : t -> id:int -> x:int -> y:int -> w:int -> h:int -> unit

(** [remove t ~id] frees module [id]'s footprint F and updates the MER
    set incrementally. Every empty rectangle through F lies in the box
    B bounding F and the MERs that share an edge with it, so the MERs
    crossing F are recomputed inside B alone: on a compressed grid of
    B cut at the edges of F, of B and of the MERs meeting B, clipped
    to B. The live modules are not walked. With c compressed columns
    and r compressed rows (each at most 2m + 4 for m MERs meeting B)
    this costs O(c{^2}·r) plus one pass over the MER list. The grid
    lives in buffers owned by [t], built by its first [remove] and
    reused by later ones ({!create} and {!copy} build none), so no
    buffer is allocated per call.
    @raise Invalid_argument if [id] is not live. *)
val remove : t -> id:int -> unit
