(* Reference copy of the stage-2 scheduler as it was written before
   the int-only rewrite: polymorphic compare in [sort_unique] and the
   corner search, fresh working arrays for every schedule, and the
   predecessor sets built from n^2 [Instance.precedes] queries. The
   heuristic tests run the same inputs through it and through
   [Packing.Heuristic.pack] and [makespan] and require the same
   schedules, origin by origin. *)

module Instance = Packing.Instance
module Container = Geometry.Container
module Placement = Geometry.Placement
module PO = Order.Partial_order

(* Restarts [makespan] runs after the first schedule when that one
   leaves a gap over the target, and the fixed seed of their
   priorities. *)
let restarts = 200
let restart_seed = 17

(* Remaining-chain criticality: duration of the task plus the heaviest
   chain of successors. *)
let criticality inst =
  let n = Instance.count inst in
  let p = Instance.precedence inst in
  let memo = Array.make n (-1) in
  let rec crit i =
    if memo.(i) >= 0 then memo.(i)
    else begin
      let best = ref 0 in
      for j = 0 to n - 1 do
        if PO.precedes p i j then best := max !best (crit j)
      done;
      memo.(i) <- Instance.duration inst i + !best;
      memo.(i)
    end
  in
  Array.init n crit

(* The instance as flat arrays: extents, durations, every (transitive)
   predecessor of each task, and the base priority criticality x 4 +
   area. *)
type tasks = {
  n : int;
  w : int array;
  h : int array;
  d : int array;
  preds : int array array;
  priority : float array;
}

let tasks_of inst =
  let n = Instance.count inst in
  let w = Array.init n (fun i -> Instance.extent inst i 0)
  and h = Array.init n (fun i -> Instance.extent inst i 1)
  and d = Array.init n (Instance.duration inst) in
  let crit = criticality inst in
  let preds =
    Array.init n (fun j ->
        Array.of_list
          (List.filter (fun i -> Instance.precedes inst i j) (List.init n Fun.id)))
  in
  let priority = Array.init n (fun i -> float_of_int ((crit.(i) * 4) + (w.(i) * h.(i)))) in
  { n; w; h; d; preds; priority }

(* A precedence-respecting order: repeatedly the ready task of highest
   priority, the lower index on ties. *)
let priority_order tk priority =
  let taken = Array.make tk.n false in
  Array.init tk.n (fun _ ->
      let best = ref (-1) in
      for i = 0 to tk.n - 1 do
        if
          (not taken.(i))
          && Array.for_all (fun j -> taken.(j)) tk.preds.(i)
          && (!best < 0 || priority.(i) > priority.(!best))
        then best := i
      done;
      taken.(!best) <- true;
      !best)

(* Sorts [a.(0 .. len-1)] ascending, drops duplicates, and returns the
   new length. The arrays are a few entries long. *)
let sort_unique a len =
  for i = 1 to len - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  let m = ref (min len 1) in
  for i = 1 to len - 1 do
    if a.(i) <> a.(!m - 1) then begin
      a.(!m) <- a.(i);
      incr m
    end
  done;
  !m

(* The serial schedule-generation scheme on a [cw] x [ch] base. Tasks
   are taken in [order]; each starts at the earliest time — its
   predecessors' finish, or a later finish of a placed task — at which
   some bottom-left corner stays free for its whole duration, at the
   lowest such corner (y, then x). Corners come from the right and top
   faces of the placed tasks that overlap that duration; sliding a free
   position down and left always stops on one of them, so no free
   position is missed. Returns the makespan and the origins, or [None]
   when a task misses the base or cannot finish by [t_limit]. *)
let serial tk ~cw ~ch ~t_limit order =
  let n = tk.n in
  let ox = Array.make n 0 and oy = Array.make n 0 and ot = Array.make n 0 in
  let placed = Array.make n 0 and active = Array.make n 0 in
  let times = Array.make (n + 1) 0
  and cx = Array.make (n + 1) 0
  and cy = Array.make (n + 1) 0 in
  let free ~na ~x ~y ~w ~h =
    let ok = ref true and a = ref 0 in
    while !ok && !a < na do
      let j = active.(!a) in
      if x < ox.(j) + tk.w.(j) && ox.(j) < x + w && y < oy.(j) + tk.h.(j)
         && oy.(j) < y + h
      then ok := false;
      incr a
    done;
    !ok
  in
  (* The lowest free corner for a task at start [t], if any. *)
  let corner ~k ~t ~w ~h ~d =
    let na = ref 0 and nx = ref 1 and ny = ref 1 in
    cx.(0) <- 0;
    cy.(0) <- 0;
    for a = 0 to k - 1 do
      let j = placed.(a) in
      if ot.(j) < t + d && t < ot.(j) + tk.d.(j) then begin
        active.(!na) <- j;
        incr na;
        let x = ox.(j) + tk.w.(j) and y = oy.(j) + tk.h.(j) in
        if x + w <= cw then begin
          cx.(!nx) <- x;
          incr nx
        end;
        if y + h <= ch then begin
          cy.(!ny) <- y;
          incr ny
        end
      end
    done;
    let nx = sort_unique cx !nx and ny = sort_unique cy !ny in
    let found = ref None and b = ref 0 in
    while !found = None && !b < ny do
      let y = cy.(!b) and a = ref 0 in
      while !found = None && !a < nx do
        let x = cx.(!a) in
        if free ~na:!na ~x ~y ~w ~h then found := Some (x, y);
        incr a
      done;
      incr b
    done;
    !found
  in
  let makespan = ref 0 and k = ref 0 and failed = ref false in
  while (not !failed) && !k < n do
    let i = order.(!k) in
    let w = tk.w.(i) and h = tk.h.(i) and d = tk.d.(i) in
    if w > cw || h > ch then failed := true
    else begin
      let est =
        Array.fold_left (fun acc j -> max acc (ot.(j) + tk.d.(j))) 0 tk.preds.(i)
      in
      times.(0) <- est;
      let nt = ref 1 in
      for a = 0 to !k - 1 do
        let j = placed.(a) in
        let f = ot.(j) + tk.d.(j) in
        if f > est then begin
          times.(!nt) <- f;
          incr nt
        end
      done;
      let nt = sort_unique times !nt in
      let c = ref 0 and placed_at = ref false in
      while (not !placed_at) && (not !failed) && !c < nt do
        let t = times.(!c) in
        if t + d > t_limit then failed := true
        else begin
          match corner ~k:!k ~t ~w ~h ~d with
          | Some (x, y) ->
            ox.(i) <- x;
            oy.(i) <- y;
            ot.(i) <- t;
            makespan := max !makespan (t + d);
            placed_at := true
          | None -> incr c
        end
      done;
      (* Only a missed [t_limit] leaves a task unplaced: the last
         candidate start follows every placed task, so the base is
         empty there. *)
      if not !placed_at then failed := true
      else begin
        placed.(!k) <- i;
        incr k
      end
    end
  done;
  if !failed then None
  else Some (!makespan, Array.init n (fun i -> [| ox.(i); oy.(i); ot.(i) |]))

(* The scheduler understands exactly the classic FPGA shape:
   3-dimensional boxes, time on the last axis, and no order constraints
   on the spatial axes (it picks x/y positions freely, so a spatial
   order could be silently violated — the final validation would catch
   it, but the capability check keeps the solvers from even trying). *)
let supports inst =
  Instance.dim inst = 3
  && Instance.objective_axis inst = 2
  && List.for_all
       (fun k -> k = 2)
       (Instance.ordered_axes inst)

let validated inst container origins =
  let placement = Placement.make (Instance.boxes inst) origins in
  if
    Placement.is_feasible placement ~container
      ~precedes:(Instance.precedes inst)
  then Some placement
  else None

let pack inst container =
  if not (supports inst) || Container.dim container <> 3 then
    invalid_arg "Heuristic_reference.pack: expects 3-dimensional space-time instances";
  let tk = tasks_of inst in
  match
    serial tk ~cw:(Container.extent container 0) ~ch:(Container.extent container 1)
      ~t_limit:(Container.extent container 2)
      (priority_order tk tk.priority)
  with
  | None -> None
  | Some (_, origins) -> validated inst container origins

let makespan ?(target = 0) inst ~base =
  if not (supports inst) then
    invalid_arg "Heuristic_reference.makespan: expects 3-dimensional instances";
  let cw = Container.extent base 0 and ch = Container.extent base 1 in
  let horizon = max 1 (Instance.total_duration inst) in
  let container = Container.make3 ~w:cw ~h:ch ~t_max:horizon in
  (* No schedule beats the critical path or the volume over the base,
     so reaching either ends the restarts as well. *)
  let target =
    max target
      (max (Instance.critical_path inst)
         ((Instance.total_volume inst + (cw * ch) - 1) / (cw * ch)))
  in
  let tk = tasks_of inst in
  let run priority =
    serial tk ~cw ~ch ~t_limit:horizon (priority_order tk priority)
  in
  match run tk.priority with
  | None -> None
  | Some first ->
    let rng = Random.State.make [| restart_seed |] in
    let best = ref first and r = ref 0 in
    while fst !best > target && !r < restarts do
      incr r;
      let priority =
        Array.map (fun p -> p *. (0.5 +. Random.State.float rng 1.0)) tk.priority
      in
      match run priority with
      | Some ((ms, _) as s) when ms < fst !best -> best := s
      | Some _ | None -> ()
    done;
    let ms, origins = !best in
    Option.map (fun p -> (ms, p)) (validated inst container origins)
