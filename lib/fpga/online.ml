module Instance = Packing.Instance
module PO = Order.Partial_order
module Trace = Packing.Trace
module Telemetry = Packing.Telemetry

type task = {
  w : int;
  h : int;
  duration : int;
  arrival : int;
  preds : int list;
}

type policy = Free_space.policy = First_fit | Best_fit | Worst_fit

type event =
  | Placed of { task : int; x : int; y : int; time : int }
  | Deferred of { task : int; until : int }
  | Compacted of { moved : int list; time : int; cost : int; enabled : int }
  | Rejected of { task : int }

type latency = {
  samples : int;
  p50_us : float;
  p99_us : float;
  max_us : float;
}

type report = {
  events : event list;
  makespan : int;
  placed : int;
  rejected : int;
  never_arrived : int;
  deferrals : int;
  compactions : int;
  moved_tasks : int;
  move_cycles : int;
  utilization : float;
  latency : latency;
  placement : Geometry.Placement.t option;
}

let to_json r =
  let open Telemetry in
  Obj
    [
      ("tasks", Int (r.placed + r.rejected + r.never_arrived));
      ("placements", Int r.placed);
      ("rejections", Int r.rejected);
      ("never_arrived", Int r.never_arrived);
      ("deferrals", Int r.deferrals);
      ("compactions", Int r.compactions);
      ("moved_tasks", Int r.moved_tasks);
      ("move_cycles", Int r.move_cycles);
      ("makespan", Int r.makespan);
      ("utilization", Raw (Printf.sprintf "%.4f" r.utilization));
      ("latency_samples", Int r.latency.samples);
      ("latency_p50_us", Raw (Printf.sprintf "%.2f" r.latency.p50_us));
      ("latency_p99_us", Raw (Printf.sprintf "%.2f" r.latency.p99_us));
      ("latency_max_us", Raw (Printf.sprintf "%.2f" r.latency.max_us));
    ]

(* Min-heap of (time, task) wake-ups: tasks whose predecessors have all
   finished, keyed by the time they become attemptable. *)
module Heap = struct
  type t = { mutable a : (int * int) array; mutable len : int }

  let create () = { a = Array.make 16 (max_int, -1); len = 0 }

  let push h x =
    if h.len = Array.length h.a then begin
      let b = Array.make (2 * h.len) (max_int, -1) in
      Array.blit h.a 0 b 0 h.len;
      h.a <- b
    end;
    h.a.(h.len) <- x;
    let i = ref h.len in
    h.len <- h.len + 1;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      fst h.a.(p) > fst h.a.(!i)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let peek h = if h.len = 0 then None else Some h.a.(0)

  let pop h =
    match peek h with
    | None -> None
    | Some top ->
      h.len <- h.len - 1;
      h.a.(0) <- h.a.(h.len);
      let i = ref 0 and sift = ref true in
      while !sift do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < h.len && fst h.a.(l) < fst h.a.(!s) then s := l;
        if r < h.len && fst h.a.(r) < fst h.a.(!s) then s := r;
        if !s = !i then sift := false
        else begin
          let tmp = h.a.(!s) in
          h.a.(!s) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !s
        end
      done;
      Some top
end

module Buckets = Map.Make (Int)

(* [i] inserted into the list [ids], ascending under [cmp]. *)
let rec insert cmp i = function
  | j :: rest when cmp j i < 0 -> j :: insert cmp i rest
  | ids -> i :: ids

let run_stream ?(policy = First_fit) ?(reconfig = Reconfig.Constant 0)
    ?(trace = Trace.null) tasks ~chip ~compaction ~move_delay =
  let n = Array.length tasks in
  if move_delay < 0 then invalid_arg "Online.run_stream: negative move delay";
  Array.iteri
    (fun i t ->
      if t.w <= 0 || t.h <= 0 then
        invalid_arg "Online.run_stream: non-positive extent";
      if t.duration <= 0 then
        invalid_arg "Online.run_stream: non-positive duration";
      List.iter
        (fun j ->
          if j < 0 || j >= n then
            invalid_arg "Online.run_stream: bad predecessor";
          if j = i then invalid_arg "Online.run_stream: self precedence")
        t.preds)
    tasks;
  let cw = Chip.width chip and ch = Chip.height chip in
  let tw i = tasks.(i).w and th i = tasks.(i).h in
  let areas = Array.map (fun (t : task) -> t.w * t.h) tasks in
  (* The attempt order: area descending, then id ascending. *)
  let by_area a b =
    let c = Int.compare areas.(b) areas.(a) in
    if c <> 0 then c else Int.compare a b
  in
  (* Deduplicated predecessor lists and the successor adjacency. *)
  let preds = Array.map (fun t -> List.sort_uniq compare t.preds) tasks in
  let succs = Array.make n [] in
  let remaining = Array.make n 0 in
  Array.iteri
    (fun i ps ->
      remaining.(i) <- List.length ps;
      List.iter (fun j -> succs.(j) <- i :: succs.(j)) ps)
    preds;
  let status = Array.make n `Pending in
  let doomed = Array.make n false in
  let px = Array.make n 0 and py = Array.make n 0 in
  let start_ = Array.make n 0 and finish_ = Array.make n 0 in
  (* The running tasks; in [by_area] order when [compaction] is on, since
     the proposal packs them in that order. *)
  let running = ref [] in
  let fs = Free_space.create ~w:cw ~h:ch in
  (* Layout generation counter: any place/retire/compaction/reject bumps
     it, invalidating the cached compaction proposal and verdict. *)
  let version = ref 0 in
  let events = ref [] in
  (* One online operation: its report event and its trace record. A
     compaction's event names the tasks it moved, so [task] names the
     blocked task it serves. *)
  let emit ?(dur_s = 0.0) ~task ~sim_time e =
    events := e :: !events;
    if Trace.enabled trace then
      let op =
        match e with
        | Placed _ -> "place"
        | Deferred _ -> "defer"
        | Compacted _ -> "compact"
        | Rejected _ -> "reject"
      in
      Trace.emit trace (Online_op { op; task; sim_time; dur_s })
  in
  let compactions = ref 0 and moved_tasks = ref 0 and move_cycles = ref 0 in
  let deferrals = ref 0 in
  let deferred_once = Array.make n false in
  (* Placement latencies in nanoseconds, one per placed task. *)
  let lat = Array.make n 0 and lat_len = ref 0 in
  (* Eligible = arrived, all predecessors finished, not yet placed.
     [sched] holds future wake-ups (time, task); [buckets] maps an area
     to the pending tasks of that area attemptable now, ids ascending,
     so walking the areas downward visits them [by_area]; [fresh] the
     tasks promoted at the current clock, newest first;
     [doomed_pending] arrived-listed tasks whose (transitive)
     predecessor was rejected, awaiting their own rejection in pass
     order: they join the buckets when the next pass starts. *)
  let sched = Heap.create () in
  let buckets = ref Buckets.empty in
  let fresh = ref [] in
  let doomed_pending = ref [] in
  let enqueue i =
    buckets :=
      Buckets.update areas.(i)
        (function
          | None -> Some [ i ]
          | Some ids -> Some (insert Int.compare i ids))
        !buckets
  in
  let dequeue i =
    buckets :=
      Buckets.update areas.(i)
        (function
          | None -> None
          | Some ids -> (
            match List.filter (fun j -> j <> i) ids with
            | [] -> None
            | ids -> Some ids))
        !buckets
  in
  (* The non-empty bucket of largest area [<= bound]. *)
  let bucket_below bound = Buckets.find_last_opt (fun a -> a <= bound) !buckets in
  (* [counts.(((w - 1) * ch) + h - 1)] is the number of pending
     eligible tasks of footprint [w * h]. Eligible tasks are never
     doomed (their predecessors have all finished), so a task is
     counted from its promotion until it is placed or rejected.
     Footprints larger than the chip are not counted. *)
  let counts = Array.make (cw * ch) 0 in
  let count i d =
    if tw i <= cw && th i <= ch then begin
      let s = ((tw i - 1) * ch) + th i - 1 in
      counts.(s) <- counts.(s) + d
    end
  in
  Array.iteri
    (fun i (t : task) ->
      if remaining.(i) = 0 && t.arrival < max_int then
        Heap.push sched (t.arrival, i))
    tasks;
  let ready_time i =
    List.fold_left (fun acc j -> max acc finish_.(j)) tasks.(i).arrival preds.(i)
  in
  let rec wake clock =
    match Heap.peek sched with
    | Some (t, i) when t <= clock ->
      ignore (Heap.pop sched);
      if status.(i) = `Pending && not doomed.(i) then begin
        (* Re-check against live finishes: a committed compaction may
           have stretched a predecessor past the scheduled time. *)
        let r = ready_time i in
        if r <= clock then fresh := i :: !fresh
        else Heap.push sched (r, i)
      end;
      wake clock
    | _ -> ()
  in
  let promote clock =
    fresh := [];
    wake clock;
    List.iter
      (fun i ->
        count i 1;
        enqueue i)
      !fresh
  in
  let reject clock i =
    if not doomed.(i) then count i (-1);
    status.(i) <- `Rejected;
    dequeue i;
    incr version;
    emit ~task:i ~sim_time:clock (Rejected { task = i });
    (* Doom every transitive successor; the arrived-listed ones get
       their rejection event in pass order, the rest surface as
       [never_arrived]. *)
    let rec propagate = function
      | [] -> ()
      | v :: stack ->
        if (not doomed.(v)) && status.(v) = `Pending then begin
          doomed.(v) <- true;
          if tasks.(v).arrival < max_int then
            doomed_pending := v :: !doomed_pending;
          propagate (List.rev_append succs.(v) stack)
        end
        else propagate stack
    in
    propagate succs.(i)
  in
  let commit_place i x y clock t0 =
    px.(i) <- x;
    py.(i) <- y;
    start_.(i) <- clock;
    finish_.(i) <- clock + tasks.(i).duration;
    status.(i) <- `Done;
    count i (-1);
    dequeue i;
    running := if compaction then insert by_area i !running else i :: !running;
    Free_space.place fs ~id:i ~x ~y ~w:(tw i) ~h:(th i);
    incr version;
    let d = Packing.Clock.since t0 in
    lat.(!lat_len) <- Float.to_int (Float.round (d *. 1e9));
    incr lat_len;
    emit ~dur_s:d ~task:i ~sim_time:clock
      (Placed { task = i; x; y; time = clock });
    List.iter
      (fun v ->
        if status.(v) = `Pending && not doomed.(v) then begin
          remaining.(v) <- remaining.(v) - 1;
          if remaining.(v) = 0 && tasks.(v).arrival < max_int then
            Heap.push sched (ready_time v, v)
        end)
      succs.(i)
  in
  (* Bottom-left re-pack of the running set, largest-area first. The
     proposal is packed first fit whatever the stream's policy; the
     trigger check and the blocked-task fill query it with the stream's
     own policy. It is a function of the ordered running list alone, so
     a build resumes from the longest prefix of that list it shares with
     the last build: [trail] holds one [(id, x, y, layout after that
     step)] per module the last build placed, in order. *)
  let empty_chip = Free_space.create ~w:cw ~h:ch in
  let trail = ref [] in
  let make_proposal () =
    (* [steps] are the entries placed so far, newest first; [layout]
       the chip after the newest. *)
    let rec resume layout steps trail ids =
      match (trail, ids) with
      | ((id', _, _, l) as e) :: trail, id :: ids when id' = id ->
        resume l (e :: steps) trail ids
      | _ -> pack layout steps ids
    and pack layout steps = function
      | [] -> (steps, Some layout)
      | id :: ids -> (
        match Free_space.find layout ~policy:First_fit ~w:(tw id) ~h:(th id) with
        | None -> (steps, None)
        | Some (x, y) ->
          let l = Free_space.copy layout in
          Free_space.place l ~id ~x ~y ~w:(tw id) ~h:(th id);
          pack l ((id, x, y, l) :: steps) ids)
    in
    let steps, layout = resume empty_chip [] !trail !running in
    trail := List.rev steps;
    Option.map
      (fun layout -> (List.map (fun (id, x, y, _) -> (id, x, y)) !trail, layout))
      layout
  in
  (* Place [i] where [fs] now hosts it, timing the placement from [t0]. *)
  let place_now i clock t0 =
    match Free_space.find fs ~policy ~w:(tw i) ~h:(th i) with
    | Some (x, y) -> commit_place i x y clock t0
    | None -> assert false
  in
  (* The proposal made for layout [proposal_version]. *)
  let proposal = ref None and proposal_version = ref (-1) in
  let current_proposal () =
    if !proposal_version <> !version then begin
      proposal := make_proposal ();
      proposal_version := !version
    end;
    !proposal
  in
  let hosts p i =
    match p with
    | Some (_, layout) -> Free_space.fits layout ~w:(tw i) ~h:(th i)
    | None -> false
  in
  (* The layout and clock at which the proposal was last found not worth
     committing. That verdict holds for every trigger the proposal
     hosts: it depends only on the proposal, the clock and the pending
     eligible tasks, and those change only with the version or the
     clock. *)
  let declined_version = ref (-1) and declined_clock = ref (-1) in
  (* Transactional cost-aware compaction triggered by blocked task [i]:
     propose a re-pack, roll back (no mutation, no cost) unless the
     trigger fits the proposed layout AND the modeled benefit — wait
     time saved for blocked tasks the new layout can host until the
     next retirement — exceeds the modeled cost (configuration reload
     plus move delay per moved module). On commit, [i] is placed. The
     clock is read only when a proposal must be built or hosts [i]. *)
  let try_compact i clock =
    if !declined_version = !version && !declined_clock = clock then false
    else if !proposal_version = !version && not (hosts !proposal i) then false
    else begin
      let t0 = Packing.Clock.now () in
      match current_proposal () with
      | Some (positions, layout) as p when hosts p i ->
        let decline () =
          declined_version := !version;
          declined_clock := clock;
          false
        in
        let moved =
          List.filter (fun (id, x, y) -> px.(id) <> x || py.(id) <> y) positions
        in
        if moved = [] then decline ()
        else begin
          let move_cost id =
            Reconfig.load_time reconfig ~w:(tw id) ~h:(th id) + move_delay
          in
          let cost =
            List.fold_left (fun acc (id, _, _) -> acc + move_cost id) 0 moved
          in
          let next_finish =
            List.fold_left (fun acc id -> min acc finish_.(id)) max_int !running
          in
          let horizon = max 1 (next_finish - clock) in
          (* Greedily fill the proposed layout with the blocked tasks,
             largest first, ids ascending: each one it hosts would
             otherwise wait for the next retirement. Doomed tasks, in
             the buckets during a pass that rejects them, are not
             blocked. [free] is the area the fill leaves free, so no
             bucket of larger area is walked: none of its tasks fits. *)
          let enabled = ref 0 in
          let l = Free_space.copy layout in
          let rec fill ~below free =
            match bucket_below (min below free) with
            | None -> ()
            | Some (a, ids) ->
              let free =
                List.fold_left
                  (fun free j ->
                    if a <= free && not doomed.(j) then
                      match Free_space.find l ~policy ~w:(tw j) ~h:(th j) with
                      | None -> free
                      | Some (x, y) ->
                        incr enabled;
                        Free_space.place l ~id:j ~x ~y ~w:(tw j) ~h:(th j);
                        free - a
                    else free)
                  free ids
              in
              fill ~below:(a - 1) free
          in
          fill ~below:max_int (Free_space.free_area l);
          let benefit = !enabled * horizon in
          if benefit <= cost then decline ()
          else begin
            List.iter
              (fun (id, x, y) ->
                if px.(id) <> x || py.(id) <> y then begin
                  px.(id) <- x;
                  py.(id) <- y;
                  finish_.(id) <- finish_.(id) + move_cost id
                end)
              positions;
            List.iter (fun id -> Free_space.remove fs ~id) !running;
            List.iter
              (fun id ->
                Free_space.place fs ~id ~x:px.(id) ~y:py.(id) ~w:(tw id)
                  ~h:(th id))
              !running;
            incr version;
            incr compactions;
            let moved_ids =
              List.sort compare (List.map (fun (id, _, _) -> id) moved)
            in
            moved_tasks := !moved_tasks + List.length moved_ids;
            move_cycles := !move_cycles + cost;
            emit ~dur_s:(Packing.Clock.since t0) ~task:i ~sim_time:clock
              (Compacted
                 { moved = moved_ids; time = clock; cost; enabled = !enabled });
            (* The committed layout is the proposal the trigger was
               checked against, so [i] fits. *)
            place_now i clock t0;
            true
          end
        end
      | _ -> false
    end
  in
  (* One attempt reads the clock only when it places or compacts: a
     failing fit is answered by [Free_space.fits] alone. *)
  let attempt i clock =
    if Free_space.fits fs ~w:(tw i) ~h:(th i) then begin
      place_now i clock (Packing.Clock.now ());
      true
    end
    else if !running = [] then begin
      (* Fails on an empty chip: can never fit. *)
      reject clock i;
      true
    end
    else compaction && try_compact i clock
  in
  (* The largest area of a pending footprint that [layout] fits, or
     [floor] when none is larger. *)
  let largest ~floor layout =
    let best = ref floor in
    for w = cw downto 1 do
      let h = ref (Free_space.cap layout ~w) in
      while w * !h > !best do
        if counts.(((w - 1) * ch) + !h - 1) > 0 then best := w * !h
        else decr h
      done
    done;
    !best
  in
  (* The largest area of a pending footprint that the layout fits or
     the current proposal hosts, given [fit], the largest the layout
     fits; [fit] itself while the proposal is declined at this version
     and clock. Asked by a task the layout does not fit, on a non-empty
     chip, so it builds the proposal exactly when that task's attempt
     would. *)
  let hosted clock ~fit =
    if !declined_version = !version && !declined_clock = clock then fit
    else
      match current_proposal () with
      | Some (_, layout) -> largest ~floor:fit layout
      | None -> fit
  in
  (* A pass on a non-empty chip with no doomed task visits only the
     tasks that can act. [fit] is the largest pending area the layout
     fits, and [host] the largest it fits or the proposal hosts (-1
     until a task of larger area than [fit] asks). Both tests are
     monotone in the footprint, so a task of larger area than both
     neither fits nor is hosted, and its attempt would change nothing.
     Both are measured again after each placement or committed
     compaction, and the pass stops once both are 0. [visit] walks the
     ids of bucket [a]; when they are done, or [a] exceeds both
     measures, [next] jumps to the largest non-empty area below [a]
     that one of them reaches. Both are areas of pending footprints, so
     the jump lands on tasks that can act; while [host] is unmeasured
     it goes to the next bucket, whose first task measures it exactly
     where its attempt would build the proposal. A [full] pass, one
     that rejects (doomed tasks, or an empty chip, where a footprint
     that does not fit never will), visits every task with both at
     [max_int]: a rejection bumps the version and so clears a declined
     proposal. [visit] returns whether some task acted. *)
  let rec visit clock ~full ~fit ~host progress a = function
    | _ when fit = 0 && host = 0 -> progress
    | [] -> next clock ~full ~fit ~host progress a
    | i :: rest ->
      if status.(i) <> `Pending then visit clock ~full ~fit ~host progress a rest
      else begin
        let host = if a > fit && host < 0 then hosted clock ~fit else host in
        if a > fit && a > host then next clock ~full ~fit ~host progress a
        else if doomed.(i) then begin
          reject clock i;
          visit clock ~full ~fit ~host true a rest
        end
        else if not (attempt i clock) then
          visit clock ~full ~fit ~host progress a rest
        else if full then visit clock ~full ~fit ~host true a rest
        else remeasure clock true a rest
      end
  and next clock ~full ~fit ~host progress a =
    let bound = if host < 0 then a - 1 else min (a - 1) (max fit host) in
    match bucket_below bound with
    | Some (a, ids) -> visit clock ~full ~fit ~host progress a ids
    | None -> progress
  (* [visit] with [fit] and [host] measured on the current layout. *)
  and remeasure clock progress a ids =
    let fit = largest ~floor:0 fs in
    visit clock ~full:false ~fit
      ~host:(if compaction then -1 else fit)
      progress a ids
  in
  let pass clock =
    let full = !doomed_pending <> [] || !running = [] in
    List.iter enqueue !doomed_pending;
    doomed_pending := [];
    match Buckets.max_binding_opt !buckets with
    | None -> false
    | Some (a, ids) ->
      if full then visit clock ~full ~fit:max_int ~host:max_int false a ids
      else remeasure clock false a ids
  in
  let retire clock =
    let keep, gone = List.partition (fun id -> finish_.(id) > clock) !running in
    if gone <> [] then begin
      running := keep;
      List.iter
        (fun id ->
          let t0 =
            if Trace.enabled trace then Some (Packing.Clock.now ()) else None
          in
          Free_space.remove fs ~id;
          match t0 with
          | Some t0 ->
            Trace.emit trace
              (Online_op
                 {
                   op = "retire";
                   task = id;
                   sim_time = clock;
                   dur_s = Packing.Clock.since t0;
                 })
          | None -> ())
        gone;
      incr version
    end
  in
  let first_time =
    Array.fold_left (fun acc (t : task) -> min acc t.arrival) max_int tasks
  in
  let arr =
    let l = ref [] in
    Array.iteri
      (fun i (t : task) -> if t.arrival < max_int then l := (t.arrival, i) :: !l)
      tasks;
    Array.of_list (List.sort compare !l)
  in
  let arr_ptr = ref 0 in
  let clock = ref (if first_time < max_int then first_time else 0) in
  if first_time < max_int then begin
    let quiescent = ref false in
    while not !quiescent do
      retire !clock;
      promote !clock;
      while pass !clock do
        ()
      done;
      (* Next event: earliest running finish, pending arrival, or
         scheduled wake-up. *)
      let next = ref max_int in
      List.iter
        (fun id -> if finish_.(id) > !clock then next := min !next finish_.(id))
        !running;
      let scanning = ref true in
      while !scanning && !arr_ptr < Array.length arr do
        let t, i = arr.(!arr_ptr) in
        if t <= !clock || status.(i) <> `Pending then incr arr_ptr
        else begin
          next := min !next t;
          scanning := false
        end
      done;
      (match Heap.peek sched with
      | Some (t, _) when t > !clock -> next := min !next t
      | _ -> ());
      if !next < max_int then begin
        (* Every task promoted at an earlier clock was marked then, so
           only [fresh] can still defer. *)
        List.iter
          (fun i ->
            if status.(i) = `Pending && not deferred_once.(i) then begin
              deferred_once.(i) <- true;
              incr deferrals;
              emit ~task:i ~sim_time:!clock
                (Deferred { task = i; until = !next })
            end)
          !fresh;
        clock := !next
      end
      else quiescent := true
    done
  end;
  (* Quiescence: anything still pending either waited forever for space
     or a predecessor (arrival-listed: rejected) or never arrived at
     all (counted separately — the seed left these uncounted). *)
  for i = 0 to n - 1 do
    if status.(i) = `Pending && tasks.(i).arrival < max_int then begin
      status.(i) <- `Rejected;
      emit ~task:i ~sim_time:!clock (Rejected { task = i })
    end
  done;
  let placed = ref 0 and rejected = ref 0 and never = ref 0 in
  let makespan = ref 0 and busy = ref 0 in
  for i = 0 to n - 1 do
    match status.(i) with
    | `Done ->
      incr placed;
      makespan := max !makespan finish_.(i);
      busy := !busy + (areas.(i) * (finish_.(i) - start_.(i)))
    | `Rejected -> incr rejected
    | `Pending -> incr never
  done;
  let utilization =
    if first_time < max_int && !makespan > first_time then
      float_of_int !busy /. float_of_int (cw * ch * (!makespan - first_time))
    else 0.0
  in
  let samples = !lat_len in
  let lat = Array.sub lat 0 samples in
  Array.sort Int.compare lat;
  (* Nearest rank, as [Telemetry.percentile]: the ceil(p * n)-th
     smallest sample, 1-based. *)
  let rank_us p =
    if samples = 0 then 0.0
    else
      let rank = Float.to_int (Float.round (ceil (p *. Float.of_int samples))) in
      Float.of_int lat.(max 0 (min (samples - 1) (rank - 1))) /. 1e3
  in
  let latency =
    {
      samples;
      p50_us = rank_us 0.5;
      p99_us = rank_us 0.99;
      max_us = rank_us 1.0 (* the last sample *);
    }
  in
  {
    events = List.rev !events;
    makespan = !makespan;
    placed = !placed;
    rejected = !rejected;
    never_arrived = !never;
    deferrals = !deferrals;
    compactions = !compactions;
    moved_tasks = !moved_tasks;
    move_cycles = !move_cycles;
    utilization;
    latency;
    placement = None;
  }

type arrival = { task : int; arrival_time : int }

let run ?policy ?reconfig ?trace inst arrivals ~chip ~compaction ~move_delay =
  let n = Instance.count inst in
  let seen = Array.make n false in
  List.iter
    (fun a ->
      if a.task < 0 || a.task >= n then invalid_arg "Online.run: bad task";
      if seen.(a.task) then invalid_arg "Online.run: duplicate arrival";
      seen.(a.task) <- true)
    arrivals;
  if move_delay < 0 then invalid_arg "Online.run: negative move delay";
  let arrival = Array.make n max_int in
  List.iter (fun a -> arrival.(a.task) <- a.arrival_time) arrivals;
  (* The transitive reduction suffices for eligibility gating: a cover
     predecessor finishes no earlier than anything it transitively
     dominates (durations are positive). *)
  let preds = Array.make n [] in
  List.iter
    (fun (u, v) -> preds.(v) <- u :: preds.(v))
    (PO.covers (Instance.precedence inst));
  let tasks =
    Array.init n (fun i ->
        {
          w = Instance.extent inst i 0;
          h = Instance.extent inst i 1;
          duration = Instance.duration inst i;
          arrival = arrival.(i);
          preds = preds.(i);
        })
  in
  let r = run_stream ?policy ?reconfig ?trace tasks ~chip ~compaction ~move_delay in
  let placement =
    if r.moved_tasks = 0 && r.rejected = 0 && r.never_arrived = 0 && r.placed = n && n > 0
    then begin
      let origins = Array.init n (fun _ -> [| 0; 0; 0 |]) in
      List.iter
        (function
          | Placed { task; x; y; time } -> origins.(task) <- [| x; y; time |]
          | _ -> ())
        r.events;
      Some (Geometry.Placement.make (Instance.boxes inst) origins)
    end
    else None
  in
  { r with placement }
