module Container = Geometry.Container
module Placement = Geometry.Placement
module PO = Order.Partial_order

(* Restarts [makespan] runs after the first schedule when that one
   leaves a gap over the target, and the fixed seed of their
   priorities. *)
let restarts = 200
let restart_seed = 17

(* The instance as flat arrays: extents, durations, every (transitive)
   predecessor and successor of each task, its criticality (its
   duration plus the heaviest chain of its successors), and the base
   priority criticality x 4 + area. *)
type tasks = {
  n : int;
  w : int array;
  h : int array;
  d : int array;
  preds : int array array;
  succs : int array array;
  crit : int array;
  priority : float array;
}

let tasks_of inst =
  let n = Instance.count inst in
  let w = Array.init n (fun i -> Instance.extent inst i 0)
  and h = Array.init n (fun i -> Instance.extent inst i 1)
  and d = Array.init n (Instance.duration inst) in
  let preds = Array.make n [] and succs = Array.make n [] in
  List.iter
    (fun (u, v) ->
      succs.(u) <- v :: succs.(u);
      preds.(v) <- u :: preds.(v))
    (PO.relations (Instance.precedence inst));
  let preds = Array.map Array.of_list preds
  and succs = Array.map Array.of_list succs in
  let crit = Array.make n (-1) in
  let rec chain i =
    if crit.(i) < 0 then begin
      let best = ref 0 in
      Array.iter (fun j -> best := Int.max !best (chain j)) succs.(i);
      crit.(i) <- d.(i) + !best
    end;
    crit.(i)
  in
  let priority =
    Array.init n (fun i -> float_of_int ((chain i * 4) + (w.(i) * h.(i))))
  in
  { n; w; h; d; preds; succs; crit; priority }

(* The working arrays of one [pack] or [makespan] call, reused by every
   schedule it builds: the priority order, the origins of the schedule
   under construction, the tasks placed so far, and the candidate
   start times and corners of the task being placed. *)
type work = {
  tk : tasks;
  order : int array;
  missing : int array; (* predecessors not yet in [order]; -1 once in it *)
  ox : int array;
  oy : int array;
  ot : int array;
  placed : int array;
  active : int array;
  times : int array;
  cx : int array;
  cy : int array;
  mutable fx : int; (* the corner [corner] found *)
  mutable fy : int;
}

let work tk =
  let n = tk.n in
  {
    tk;
    order = Array.make n 0;
    missing = Array.make n 0;
    ox = Array.make n 0;
    oy = Array.make n 0;
    ot = Array.make n 0;
    placed = Array.make n 0;
    active = Array.make n 0;
    times = Array.make (n + 1) 0;
    cx = Array.make (n + 1) 0;
    cy = Array.make (n + 1) 0;
    fx = 0;
    fy = 0;
  }

(* Fills [s.order] with a precedence-respecting order: repeatedly the
   ready task of highest priority, the lower index on ties. *)
let priority_order s (priority : float array) =
  let tk = s.tk in
  for i = 0 to tk.n - 1 do
    s.missing.(i) <- Array.length tk.preds.(i)
  done;
  for k = 0 to tk.n - 1 do
    let best = ref (-1) in
    for i = 0 to tk.n - 1 do
      if s.missing.(i) = 0 && (!best < 0 || priority.(i) > priority.(!best))
      then best := i
    done;
    let b = !best in
    s.missing.(b) <- -1;
    s.order.(k) <- b;
    let succs = tk.succs.(b) in
    for a = 0 to Array.length succs - 1 do
      s.missing.(succs.(a)) <- s.missing.(succs.(a)) - 1
    done
  done

(* Sorts [a.(0 .. len-1)] ascending, drops duplicates, and returns the
   new length. The arrays are a few entries long. *)
let sort_unique (a : int array) len =
  for i = 1 to len - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  let m = ref (Int.min len 1) in
  for i = 1 to len - 1 do
    if a.(i) <> a.(!m - 1) then begin
      a.(!m) <- a.(i);
      incr m
    end
  done;
  !m

(* Whether a [w] x [h] rectangle at ([x], [y]) misses the first [na]
   tasks of [s.active]. *)
let free s ~na ~x ~y ~w ~h =
  let tk = s.tk in
  let ok = ref true and a = ref 0 in
  while !ok && !a < na do
    let j = s.active.(!a) in
    if x < s.ox.(j) + tk.w.(j) && s.ox.(j) < x + w && y < s.oy.(j) + tk.h.(j)
       && s.oy.(j) < y + h
    then ok := false;
    incr a
  done;
  !ok

(* Whether the first [k] placed tasks leave a free corner for a
   [w] x [h] task running from [t] for [d] on a [cw] x [ch] base; the
   lowest one goes to [s.fx], [s.fy]. *)
let corner s ~cw ~ch ~k ~t ~w ~h ~d =
  let tk = s.tk in
  let na = ref 0 and nx = ref 1 and ny = ref 1 in
  s.cx.(0) <- 0;
  s.cy.(0) <- 0;
  for a = 0 to k - 1 do
    let j = s.placed.(a) in
    if s.ot.(j) < t + d && t < s.ot.(j) + tk.d.(j) then begin
      s.active.(!na) <- j;
      incr na;
      let x = s.ox.(j) + tk.w.(j) and y = s.oy.(j) + tk.h.(j) in
      if x + w <= cw then begin
        s.cx.(!nx) <- x;
        incr nx
      end;
      if y + h <= ch then begin
        s.cy.(!ny) <- y;
        incr ny
      end
    end
  done;
  let nx = sort_unique s.cx !nx and ny = sort_unique s.cy !ny in
  let found = ref false and b = ref 0 in
  while (not !found) && !b < ny do
    let y = s.cy.(!b) and a = ref 0 in
    while (not !found) && !a < nx do
      let x = s.cx.(!a) in
      if free s ~na:!na ~x ~y ~w ~h then begin
        found := true;
        s.fx <- x;
        s.fy <- y
      end;
      incr a
    done;
    incr b
  done;
  !found

(* The serial schedule-generation scheme on a [cw] x [ch] base. Tasks
   are taken in [s.order]; each starts at the earliest time — its
   predecessors' finish, or a later finish of a placed task — at which
   some bottom-left corner stays free for its whole duration, at the
   lowest such corner (y, then x). Corners come from the right and top
   faces of the placed tasks that overlap that duration; sliding a free
   position down and left always stops on one of them, so no free
   position is missed. Returns the makespan, the origins left in
   [s.ox], [s.oy], [s.ot], or [None] when a task misses the base or
   cannot finish by [t_limit].
   A task starts only after its predecessors finish, so one started at
   [t] leaves a makespan of at least [t + crit]: the first candidate
   start where that passes [t_limit] fails the schedule, and so would
   every later one. *)
let serial s ~cw ~ch ~t_limit =
  let tk = s.tk in
  let makespan = ref 0 and k = ref 0 and failed = ref false in
  while (not !failed) && !k < tk.n do
    let i = s.order.(!k) in
    let w = tk.w.(i) and h = tk.h.(i) and d = tk.d.(i) in
    if w > cw || h > ch then failed := true
    else begin
      let est = ref 0 and preds = tk.preds.(i) in
      for a = 0 to Array.length preds - 1 do
        let j = preds.(a) in
        est := Int.max !est (s.ot.(j) + tk.d.(j))
      done;
      let est = !est in
      s.times.(0) <- est;
      let nt = ref 1 in
      for a = 0 to !k - 1 do
        let j = s.placed.(a) in
        let f = s.ot.(j) + tk.d.(j) in
        if f > est then begin
          s.times.(!nt) <- f;
          incr nt
        end
      done;
      let nt = sort_unique s.times !nt in
      let c = ref 0 and placed_at = ref false in
      while (not !placed_at) && (not !failed) && !c < nt do
        let t = s.times.(!c) in
        if t + tk.crit.(i) > t_limit then failed := true
        else if corner s ~cw ~ch ~k:!k ~t ~w ~h ~d then begin
          s.ox.(i) <- s.fx;
          s.oy.(i) <- s.fy;
          s.ot.(i) <- t;
          makespan := Int.max !makespan (t + d);
          placed_at := true
        end
        else incr c
      done;
      (* Only a missed [t_limit] leaves a task unplaced: the last
         candidate start follows every placed task, so the base is
         empty there. *)
      if not !placed_at then failed := true
      else begin
        s.placed.(!k) <- i;
        incr k
      end
    end
  done;
  if !failed then None else Some !makespan

let origins ox oy ot = Array.init (Array.length ox) (fun i -> [| ox.(i); oy.(i); ot.(i) |])

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
    invalid_arg "Heuristic.pack: expects 3-dimensional space-time instances";
  let s = work (tasks_of inst) in
  priority_order s s.tk.priority;
  match
    serial s ~cw:(Container.extent container 0) ~ch:(Container.extent container 1)
      ~t_limit:(Container.extent container 2)
  with
  | None -> None
  | Some _ -> validated inst container (origins s.ox s.oy s.ot)

let makespan ?(target = 0) ?deadline inst ~base =
  if not (supports inst) then
    invalid_arg "Heuristic.makespan: expects 3-dimensional instances";
  let cw = Container.extent base 0 and ch = Container.extent base 1 in
  let horizon = Int.max 1 (Instance.total_duration inst) in
  let container = Container.make3 ~w:cw ~h:ch ~t_max:horizon in
  (* No schedule beats the critical path or the volume over the base,
     so reaching either ends the restarts as well. *)
  let target =
    Int.max target
      (Int.max (Instance.critical_path inst)
         ((Instance.total_volume inst + (cw * ch) - 1) / (cw * ch)))
  in
  let s = work (tasks_of inst) in
  let tk = s.tk in
  let run priority ~t_limit =
    priority_order s priority;
    serial s ~cw ~ch ~t_limit
  in
  let expired () =
    match deadline with Some d -> Clock.expired d | None -> false
  in
  match run tk.priority ~t_limit:horizon with
  | None -> None
  | Some first ->
    (* The best schedule's origins, copied only when a restart beats
       it. *)
    let best = ref first in
    let bx = Array.copy s.ox and by = Array.copy s.oy and bt = Array.copy s.ot in
    if first > target then begin
      let rng = Random.State.make [| restart_seed |] in
      let priority = Array.make tk.n 0.0 and r = ref 0 in
      while !best > target && !r < restarts && not (expired ()) do
        incr r;
        for i = 0 to tk.n - 1 do
          priority.(i) <- tk.priority.(i) *. (0.5 +. Random.State.float rng 1.0)
        done;
        (* Only a schedule that beats the best is kept, so a restart
           stops at the first task that cannot finish before it. *)
        match run priority ~t_limit:(!best - 1) with
        | Some ms ->
          best := ms;
          Array.blit s.ox 0 bx 0 tk.n;
          Array.blit s.oy 0 by 0 tk.n;
          Array.blit s.ot 0 bt 0 tk.n
        | None -> ()
      done
    end;
    Option.map (fun p -> (!best, p)) (validated inst container (origins bx by bt))
