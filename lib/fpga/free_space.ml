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
     already present) or intersects F. The latter are recomputed on a
     compressed grid: its columns and rows are cut at the distinct x
     and y edges of the remaining obstacles, of F and of the chip, so
     occupancy is uniform inside each compressed cell and every
     maximal rectangle is a union of cells. The obstacles are painted
     into a byte grid owned by the manager and reused across calls.
     For each left column at or before F's right edge, a sweep adds
     columns to the right, keeping per row whether any added column is
     occupied there; after each column, every maximal run of free rows
     that crosses F's rows is emitted when the columns on both sides
     are blocked within it (or lie beyond the chip). The sweep stops
     once every row through F is blocked. With c compressed columns
     and r compressed rows (each at most 2k + 4 for k live modules)
     this costs O(c^2 * r) and allocates no buffer per call: only
     the resulting rectangles. Old MERs that became extendable into F
     are contained in one of the new rectangles and are pruned. *)

type rect = { x : int; y : int; w : int; h : int }

type policy = First_fit | Best_fit | Worst_fit

(* Reusable buffers for [remove]. [xs]/[ys] hold the compressed
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

(* [reach] answers "does a w * h footprint fit?" in O(1): [reach.(w)]
   is the greatest height of any MER at least [w] wide. It is built on
   the first query after a change and dropped (set to [[||]]) by
   [place] and [remove]; a built table is never mutated, so [copy]
   shares it. *)
type t = {
  width : int;
  height : int;
  mutable mers : rect list;
  occupied : (int, rect) Hashtbl.t;
  mutable used : int;
  mutable reach : int array;
  buffers : buffers;
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
    occupied = Hashtbl.create 64;
    used = 0;
    reach = [||];
    buffers = make_buffers ~w ~h;
  }

let copy t =
  {
    width = t.width;
    height = t.height;
    mers = t.mers;
    occupied = Hashtbl.copy t.occupied;
    used = t.used;
    reach = t.reach;
    buffers = make_buffers ~w:t.width ~h:t.height;
  }

let width t = t.width
let height t = t.height
let used_area t = t.used
let free_area t = (t.width * t.height) - t.used

let tuple r = (r.x, r.y, r.w, r.h)

let occupied t =
  Hashtbl.fold (fun id r acc -> (id, tuple r) :: acc) t.occupied []
  |> List.sort compare

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
  if Hashtbl.mem t.occupied id then invalid_arg "Free_space.place: live id";
  let r = { x; y; w; h } in
  (* By the invariant, a footprint inside the chip is empty iff some
     MER contains it. *)
  if not (contained_in_some r t.mers) then
    invalid_arg "Free_space.place: footprint overlaps a module";
  Hashtbl.replace t.occupied id r;
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

(* Collect the flagged coordinates of [0, limit] in ascending order into
   [coords], replace each flag in [index] by the coordinate's index, and
   return how many there were. *)
let compress coords index limit =
  let n = ref 0 in
  for v = 0 to limit do
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

(* All maximal empty rectangles (w.r.t. the occupied modules) that
   intersect the freed rectangle [f], unsorted. *)
let maximal_through t f =
  let s = t.buffers in
  mark s.xi 0;
  mark s.xi t.width;
  mark s.xi f.x;
  mark s.xi (f.x + f.w);
  mark s.yi 0;
  mark s.yi t.height;
  mark s.yi f.y;
  mark s.yi (f.y + f.h);
  Hashtbl.iter
    (fun _ o ->
      mark s.xi o.x;
      mark s.xi (o.x + o.w);
      mark s.yi o.y;
      mark s.yi (o.y + o.h))
    t.occupied;
  let nc = compress s.xs s.xi t.width - 1 in
  let nr = compress s.ys s.yi t.height - 1 in
  if Bytes.length s.cells < nc * nr then s.cells <- Bytes.create (nc * nr);
  let cells = s.cells and blocked = s.blocked in
  Bytes.fill cells 0 (nc * nr) '\000';
  Hashtbl.iter
    (fun _ o ->
      for c = s.xi.(o.x) to s.xi.(o.x + o.w) - 1 do
        Bytes.fill cells ((c * nr) + s.yi.(o.y)) (s.yi.(o.y + o.h) - s.yi.(o.y))
          '\001'
      done)
    t.occupied;
  let fc0 = s.xi.(f.x) and fc1 = s.xi.(f.x + f.w) in
  let fr0 = s.yi.(f.y) and fr1 = s.yi.(f.y + f.h) in
  let out = ref [] in
  for cl = 0 to fc1 - 1 do
    (* A maximal rectangle's left edge is the chip edge or abuts an
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

let remove t ~id =
  match Hashtbl.find_opt t.occupied id with
  | None -> invalid_arg "Free_space.remove: unknown id"
  | Some f ->
    Hashtbl.remove t.occupied id;
    t.used <- t.used - (f.w * f.h);
    t.reach <- [||];
    let fresh = List.sort rect_order (maximal_through t f) in
    let survivors =
      List.filter (fun m -> not (contained_in_some m fresh)) t.mers
    in
    t.mers <- List.merge rect_order survivors fresh
