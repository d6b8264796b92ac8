(* Maximal-empty-rectangle (MER) free-space manager.

   Invariant: [mers] is exactly the set of maximal empty axis-aligned
   rectangles of the chip w.r.t. [occupied], kept sorted by
   [rect_order] for deterministic queries.

   - place: an MER that does not intersect the new footprint stays
     maximal (space only shrank); one that does is replaced by its four
     residuals (left/right/bottom/top of the footprint), and every
     residual that is contained in another candidate is pruned. Any
     maximal rectangle of the new configuration either was maximal
     before (survivor) or is a sub-rectangle of a split MER avoiding
     the footprint, hence contained in one of its residuals — so the
     candidate set is complete and pruning leaves exactly the maxima.

   - remove: a maximal rectangle of the new configuration either
     avoids the freed footprint F (then it was maximal before and is
     already present) or intersects F. The latter are recomputed
     inside a box B: the bounding box of F and of every old MER that
     shares a stretch of edge with F (an MER cannot overlap F, so it
     can at most touch it).

     Lemma. Every empty rectangle R that intersects F lies in B.
     Proof. Let L be the part of R left of F's left edge, if any. L
     is a rectangle with R's full height, and it avoids F, so it was
     empty before and lies in some old MER m. R meets F, so L's right
     edge lies on F's left edge over a stretch of positive length; m
     contains L and does not overlap F, so m's right edge is F's left
     edge and m touches F along that stretch. Hence R's left edge and
     R's height are within m, and so within B. The same holds right
     of, below and above F; where R does not reach past a side of F,
     that side of R lies within F. So R lies in B.

     It follows that a rectangle through F is maximal on the chip
     exactly when it is maximal in B with B's sides taken as walls:
     any extension of it is an empty rectangle through F, so it stays
     in B. Inside B the new free space is F together with the old
     MERs that intersect B, clipped to B. Those rectangles and F cut a
     compressed grid of B at their distinct x and y edges and B's, so
     occupancy is uniform inside each compressed cell and every
     maximal rectangle is a union of cells. The grid, a byte array
     owned by the manager, is painted occupied and then cleared under
     F and each clipped MER; the live modules are never walked.
     For each left column at or before F's right edge, a sweep adds
     columns to the right, keeping per row whether any added column is
     occupied there; after each column, every maximal run of free rows
     that crosses F's rows is emitted when the columns on both sides
     are blocked within it (or lie beyond B). The sweep stops once
     every row through F is blocked. With c compressed columns and r
     compressed rows of B (each at most 2m + 4 for m MERs meeting B)
     this costs O(c^2 * r) and allocates no buffer per call: only the
     resulting rectangles. An old MER that became extendable into F
     is contained in one of the new rectangles and is pruned; it
     touches F along an edge (the cells that blocked its extension
     were F's), so only the MERs that border F are tested. *)

type rect = { x : int; y : int; w : int; h : int }

type policy = First_fit | Best_fit | Worst_fit

(* Reusable buffers for [remove], built by its first call: most copies
   (compaction proposals) never remove. [xs]/[ys] hold the compressed
   coordinates in ascending order; [xi]/[yi] map an edge coordinate to
   its index, and hold -1 for a coordinate flagged as an edge but not
   yet indexed; [cells] is the column-major compressed occupancy grid
   (grown on demand); [blocked] is the per-row sweep state. *)
type buffers = {
  xs : int array;
  ys : int array;
  xi : int array;
  yi : int array;
  mutable cells : Bytes.t;
  blocked : Bytes.t;
}

module Ids = Map.Make (Int)

(* [reach] answers "does a w * h footprint fit?" in O(1): [reach.(w)]
   is the greatest height of any MER at least [w] wide. It is built on
   the first query after a change and dropped (set to [[||]]) by
   [place] and [remove]. The MER list, the [occupied] map and a built
   [reach] table are never mutated, only replaced, so [copy] shares
   them all. *)
type t = {
  width : int;
  height : int;
  mutable mers : rect list;
  mutable occupied : rect Ids.t;
  mutable used : int;
  mutable reach : int array;
  buffers : buffers Lazy.t;
}

let make_buffers ~w ~h =
  {
    xs = Array.make (w + 1) 0;
    ys = Array.make (h + 1) 0;
    xi = Array.make (w + 1) 0;
    yi = Array.make (h + 1) 0;
    cells = Bytes.empty;
    blocked = Bytes.make h '\000';
  }

let create ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Free_space.create: non-positive size";
  {
    width = w;
    height = h;
    mers = [ { x = 0; y = 0; w; h } ];
    occupied = Ids.empty;
    used = 0;
    reach = [||];
    buffers = lazy (make_buffers ~w ~h);
  }

let copy t = { t with buffers = lazy (make_buffers ~w:t.width ~h:t.height) }

let width t = t.width
let height t = t.height
let free_area t = (t.width * t.height) - t.used

let tuple r = (r.x, r.y, r.w, r.h)

let occupied t =
  List.map (fun (id, r) -> (id, tuple r)) (Ids.bindings t.occupied)

(* Lexicographic (y, x, w, h). *)
let rect_order a b =
  if a.y <> b.y then Int.compare a.y b.y
  else if a.x <> b.x then Int.compare a.x b.x
  else if a.w <> b.w then Int.compare a.w b.w
  else Int.compare a.h b.h

let mers t = List.map tuple t.mers
let mer_count t = List.length t.mers

let intersects a b =
  a.x < b.x + b.w && b.x < a.x + a.w && a.y < b.y + b.h && b.y < a.y + a.h

(* [contains a b]: b lies inside a. *)
let contains a b =
  a.x <= b.x && a.y <= b.y && b.x + b.w <= a.x + a.w && b.y + b.h <= a.y + a.h

let reach t =
  if Array.length t.reach = 0 then begin
    let r = Array.make (t.width + 1) 0 in
    List.iter (fun m -> if m.h > r.(m.w) then r.(m.w) <- m.h) t.mers;
    for w = t.width - 1 downto 1 do
      if r.(w + 1) > r.(w) then r.(w) <- r.(w + 1)
    done;
    t.reach <- r
  end;
  t.reach

let cap t ~w =
  if w <= 0 then invalid_arg "Free_space.cap: non-positive width";
  if w > t.width then 0 else (reach t).(w)

let fits t ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Free_space.fits: non-positive size";
  w <= t.width && h <= (reach t).(w)

let find t ~policy ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Free_space.find: non-positive size";
  if not (fits t ~w ~h) then None
  else
    (* Minimize (policy key, y, x), replacing only on strict improvement,
       so the result is independent of the MER list order. *)
    let key m =
      match policy with
      | First_fit -> 0
      | Best_fit -> m.w * m.h
      | Worst_fit -> -(m.w * m.h)
    in
    let rec scan found bk by bx = function
      | [] -> if found then Some (bx, by) else None
      | m :: rest ->
        if m.w >= w && m.h >= h then begin
          let k = key m in
          if
            (not found) || k < bk
            || (k = bk && (m.y < by || (m.y = by && m.x < bx)))
          then scan true k m.y m.x rest
          else scan found bk by bx rest
        end
        else scan found bk by bx rest
    in
    scan false 0 0 0 t.mers

let rec contained_in_some r = function
  | [] -> false
  | m :: rest -> contains m r || contained_in_some r rest

let place t ~id ~x ~y ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Free_space.place: non-positive size";
  if x < 0 || y < 0 || x + w > t.width || y + h > t.height then
    invalid_arg "Free_space.place: footprint leaves the chip";
  if Ids.mem id t.occupied then invalid_arg "Free_space.place: live id";
  let r = { x; y; w; h } in
  (* By the invariant, a footprint inside the chip is empty iff some
     MER contains it. *)
  if not (contained_in_some r t.mers) then
    invalid_arg "Free_space.place: footprint overlaps a module";
  t.occupied <- Ids.add id r t.occupied;
  t.used <- t.used + (w * h);
  t.reach <- [||];
  let survivors = ref [] and pieces = ref [] in
  List.iter
    (fun m ->
      if not (intersects m r) then survivors := m :: !survivors
      else begin
        let add p = if p.w > 0 && p.h > 0 then pieces := p :: !pieces in
        add { m with w = r.x - m.x };
        add { x = r.x + r.w; y = m.y; w = m.x + m.w - (r.x + r.w); h = m.h };
        add { m with h = r.y - m.y };
        add { x = m.x; y = r.y + r.h; w = m.w; h = m.y + m.h - (r.y + r.h) }
      end)
    t.mers;
  let pieces = List.sort_uniq rect_order !pieces in
  let kept =
    List.filter
      (fun p ->
        (not (List.exists (fun s -> contains s p) !survivors))
        && not (List.exists (fun q -> q != p && contains q p) pieces))
      pieces
  in
  t.mers <- List.merge rect_order (List.rev !survivors) kept

(* Flag coordinate [v] as an edge. *)
let mark index v = index.(v) <- -1

(* Collect the flagged coordinates of [lo, hi] in ascending order into
   [coords], replace each flag in [index] by the coordinate's index, and
   return how many there were. *)
let compress coords index lo hi =
  let n = ref 0 in
  for v = lo to hi do
    if index.(v) < 0 then begin
      index.(v) <- !n;
      coords.(!n) <- v;
      incr n
    end
  done;
  !n

(* Some cell of compressed column [c] in rows [r0, r1) is occupied. *)
let column_blocked cells nr c r0 r1 =
  let base = c * nr in
  let r = ref r0 in
  while !r < r1 && Bytes.get cells (base + !r) = '\000' do
    incr r
  done;
  !r < r1

(* [a] and [b] share a stretch of edge of positive length (or
   overlap). *)
let borders a b =
  a.x <= b.x + b.w
  && b.x <= a.x + a.w
  && a.y <= b.y + b.h
  && b.y <= a.y + a.h
  && ((a.x < b.x + b.w && b.x < a.x + a.w)
     || (a.y < b.y + b.h && b.y < a.y + a.h))

(* All maximal empty rectangles that intersect the freed rectangle [f],
   unsorted, found inside the box [b] that holds them all (see the
   header). The free space in [b] is [f] and the MERs meeting [b]. *)
let maximal_through t b f =
  let s = Lazy.force t.buffers in
  let bx1 = b.x + b.w and by1 = b.y + b.h in
  mark s.xi b.x;
  mark s.xi bx1;
  mark s.xi f.x;
  mark s.xi (f.x + f.w);
  mark s.yi b.y;
  mark s.yi by1;
  mark s.yi f.y;
  mark s.yi (f.y + f.h);
  List.iter
    (fun m ->
      if intersects m b then begin
        mark s.xi (Int.max m.x b.x);
        mark s.xi (Int.min (m.x + m.w) bx1);
        mark s.yi (Int.max m.y b.y);
        mark s.yi (Int.min (m.y + m.h) by1)
      end)
    t.mers;
  let nc = compress s.xs s.xi b.x bx1 - 1 in
  let nr = compress s.ys s.yi b.y by1 - 1 in
  if Bytes.length s.cells < nc * nr then s.cells <- Bytes.create (nc * nr);
  let cells = s.cells and blocked = s.blocked in
  Bytes.fill cells 0 (nc * nr) '\001';
  let clear r =
    let r0 = s.yi.(Int.max r.y b.y) in
    let len = s.yi.(Int.min (r.y + r.h) by1) - r0 in
    for c = s.xi.(Int.max r.x b.x) to s.xi.(Int.min (r.x + r.w) bx1) - 1 do
      Bytes.fill cells ((c * nr) + r0) len '\000'
    done
  in
  clear f;
  List.iter (fun m -> if intersects m b then clear m) t.mers;
  let fc0 = s.xi.(f.x) and fc1 = s.xi.(f.x + f.w) in
  let fr0 = s.yi.(f.y) and fr1 = s.yi.(f.y + f.h) in
  let out = ref [] in
  for cl = 0 to fc1 - 1 do
    (* A maximal rectangle's left edge is the box's or abuts an
       obstacle. *)
    if cl = 0 || column_blocked cells nr (cl - 1) 0 nr then begin
      Bytes.fill blocked 0 nr '\000';
      (* free rows through F in columns [cl, c] *)
      let open_rows = ref (fr1 - fr0) in
      let c = ref cl in
      while !open_rows > 0 && !c < nc do
        let base = !c * nr in
        for r = 0 to nr - 1 do
          if
            Bytes.get cells (base + r) <> '\000'
            && Bytes.get blocked r = '\000'
          then begin
            Bytes.set blocked r '\001';
            if fr0 <= r && r < fr1 then decr open_rows
          end
        done;
        if !open_rows > 0 && !c >= fc0 then begin
          let r = ref fr0 in
          while !r < fr1 do
            if Bytes.get blocked !r <> '\000' then incr r
            else begin
              let lo = ref !r and hi = ref (!r + 1) in
              while !lo > 0 && Bytes.get blocked (!lo - 1) = '\000' do
                decr lo
              done;
              while !hi < nr && Bytes.get blocked !hi = '\000' do
                incr hi
              done;
              if
                (cl = 0 || column_blocked cells nr (cl - 1) !lo !hi)
                && (!c = nc - 1 || column_blocked cells nr (!c + 1) !lo !hi)
              then
                out :=
                  {
                    x = s.xs.(cl);
                    y = s.ys.(!lo);
                    w = s.xs.(!c + 1) - s.xs.(cl);
                    h = s.ys.(!hi) - s.ys.(!lo);
                  }
                  :: !out;
              r := !hi
            end
          done
        end;
        incr c
      done
    end
  done;
  !out

(* The box B of the header: the bounding box of [f] and of every MER
   that borders it, with [x0, x1) * [y0, y1) the box so far. *)
let rec box_around f x0 y0 x1 y1 = function
  | [] -> { x = x0; y = y0; w = x1 - x0; h = y1 - y0 }
  | m :: rest ->
    if borders m f then
      box_around f (Int.min x0 m.x) (Int.min y0 m.y)
        (Int.max x1 (m.x + m.w))
        (Int.max y1 (m.y + m.h))
        rest
    else box_around f x0 y0 x1 y1 rest

let remove t ~id =
  match Ids.find_opt id t.occupied with
  | None -> invalid_arg "Free_space.remove: unknown id"
  | Some f ->
    t.occupied <- Ids.remove id t.occupied;
    t.used <- t.used - (f.w * f.h);
    t.reach <- [||];
    let box = box_around f f.x f.y (f.x + f.w) (f.y + f.h) t.mers in
    let fresh = List.sort rect_order (maximal_through t box f) in
    let survivors =
      List.filter
        (fun m -> not (borders m f && contained_in_some m fresh))
        t.mers
    in
    t.mers <- List.merge rect_order survivors fresh
