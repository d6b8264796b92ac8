(** Run-time free-space management: the set of maximal empty rectangles
    (MERs) of a partially occupied chip, maintained incrementally.

    This is the data structure behind the online placement manager
    (after "Optimal Free-Space Management and Routing-Conscious Dynamic
    Placement for Reconfigurable Devices", PAPERS.md): placing a module
    splits every intersecting MER into at most four residual rectangles
    and prunes the non-maximal ones; retiring a module recomputes
    exactly the maximal rectangles that intersect the freed footprint
    and merges them with the surviving set. A placement query is a
    single scan of the MER list — no per-candidate overlap tests against
    the running set, unlike the corner-candidate scan it replaced:
    [First_fit] places exactly where that scan did, since the lowest
    feasible (y, x) position is the bottom-left corner of some MER.

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

(** An independent deep copy (used for transactional compaction
    proposals). *)
val copy : t -> t

val width : t -> int
val height : t -> int

(** Number of free (respectively occupied) cells. *)
val free_area : t -> int

val used_area : t -> int

(** The occupied modules as [(id, (x, y, w, h))], sorted by id. *)
val occupied : t -> (int * (int * int * int * int)) list

(** The maximal empty rectangles as [(x, y, w, h)], sorted. *)
val mers : t -> (int * int * int * int) list

val mer_count : t -> int

(** [find t ~policy ~w ~h] is the bottom-left corner of the MER chosen
    by [policy] among those that can host a [w * h] footprint, or
    [None] when no MER fits it. Does not modify [t]. *)
val find : t -> policy:policy -> w:int -> h:int -> (int * int) option

(** [place t ~id ~x ~y ~w ~h] occupies the footprint and updates the
    MER set incrementally.
    @raise Invalid_argument if the id is live, the footprint leaves the
    chip, has non-positive extents, or overlaps an occupied module. *)
val place : t -> id:int -> x:int -> y:int -> w:int -> h:int -> unit

(** [remove t ~id] frees module [id]'s footprint and updates the MER
    set incrementally: the MERs crossing the freed footprint are
    recomputed on a compressed occupancy grid whose columns and rows
    are cut at the distinct edges of the live modules, the footprint
    and the chip. With c compressed columns and r compressed rows
    (each at most 2k + 4 for k live modules) this costs O(c{^2}·r).
    The grid lives in a buffer owned by [t] and reused across calls
    ({!copy} gets its own): no buffer is allocated per call.
    @raise Invalid_argument if [id] is not live. *)
val remove : t -> id:int -> unit
