module Instance = Packing.Instance
module PO = Order.Partial_order
module Trace = Packing.Trace
module Telemetry = Packing.Telemetry
module Metrics = Packing.Metrics

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
    let op =
      match e with
      | Placed _ -> "place"
      | Deferred _ -> "defer"
      | Compacted _ -> "compact"
      | Rejected _ -> "reject"
    in
    Trace.online_op trace ~op ~task ~sim_time ~dur_s
  in
  let compactions = ref 0 and moved_tasks = ref 0 and move_cycles = ref 0 in
  let deferrals = ref 0 in
  let deferred_once = Array.make n false in
  let lat = ref [] in
  (* Eligible = arrived, all predecessors finished, not yet placed.
     [sched] holds future wake-ups (time, task); [eligible] the tasks
     attemptable now, kept sorted [by_area]; [fresh] the tasks promoted
     at the current clock, newest first; [doomed_pending] arrived-listed
     tasks whose (transitive) predecessor was rejected, awaiting their
     own rejection in pass order. *)
  let sched = Heap.create () in
  let eligible = ref [] in
  let fresh = ref [] in
  let doomed_pending = ref [] in
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
    if !fresh <> [] then
      eligible := List.merge by_area (List.sort by_area !fresh) !eligible
  in
  let reject clock i =
    status.(i) <- `Rejected;
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
    running := i :: !running;
    Free_space.place fs ~id:i ~x ~y ~w:(tw i) ~h:(th i);
    incr version;
    let d = Packing.Clock.since t0 in
    lat := (d *. 1e6) :: !lat;
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
     own policy. *)
  let make_proposal () =
    let ids = List.sort by_area !running in
    let pf = Free_space.create ~w:cw ~h:ch in
    let pos = ref [] in
    let ok =
      List.for_all
        (fun id ->
          match Free_space.find pf ~policy:First_fit ~w:(tw id) ~h:(th id) with
          | None -> false
          | Some (x, y) ->
            Free_space.place pf ~id ~x ~y ~w:(tw id) ~h:(th id);
            pos := (id, x, y) :: !pos;
            true)
        ids
    in
    if ok then Some (List.rev !pos, pf) else None
  in
  (* Place [i] where [fs] now hosts it, timing the placement from [t0]. *)
  let place_now i clock t0 =
    match Free_space.find fs ~policy ~w:(tw i) ~h:(th i) with
    | Some (x, y) -> commit_place i x y clock t0
    | None -> assert false
  in
  (* The proposal made for layout [proposal_version]. *)
  let proposal = ref None and proposal_version = ref (-1) in
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
      if !proposal_version <> !version then begin
        proposal := make_proposal ();
        proposal_version := !version
      end;
      match !proposal with
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
             largest first ([eligible] is in that order): each one it
             hosts would otherwise wait for the next retirement. *)
          let enabled = ref 0 in
          let l = Free_space.copy layout in
          List.iter
            (fun j ->
              if status.(j) = `Pending then
                match Free_space.find l ~policy ~w:(tw j) ~h:(th j) with
                | None -> ()
                | Some (x, y) ->
                  incr enabled;
                  Free_space.place l ~id:j ~x ~y ~w:(tw j) ~h:(th j))
            !eligible;
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
  let pass clock =
    let progress = ref false in
    let items =
      match !doomed_pending with
      | [] -> !eligible
      | doomed -> List.merge by_area (List.sort by_area doomed) !eligible
    in
    doomed_pending := [];
    List.iter
      (fun i ->
        if status.(i) = `Pending then
          if doomed.(i) then begin
            reject clock i;
            progress := true
          end
          else if attempt i clock then progress := true)
      items;
    if !progress then
      eligible := List.filter (fun i -> status.(i) = `Pending) !eligible;
    doomed_pending :=
      List.filter (fun i -> status.(i) = `Pending) !doomed_pending;
    !progress
  in
  let retire clock =
    let keep, gone = List.partition (fun id -> finish_.(id) > clock) !running in
    if gone <> [] then begin
      running := keep;
      List.iter
        (fun id ->
          if Trace.enabled trace then begin
            let t0 = Packing.Clock.now () in
            Free_space.remove fs ~id;
            Trace.online_op trace ~op:"retire" ~task:id ~sim_time:clock
              ~dur_s:(Packing.Clock.since t0)
          end
          else Free_space.remove fs ~id)
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
  (* Flush the run's disposition counters, chip gauges, and placement
     latencies into the process metrics registry — once, at the end,
     from the same tallies the report carries. *)
  (let m = Metrics.default () in
   if Metrics.enabled m then begin
     let c name help = Metrics.counter m ~help name in
     Metrics.add (c "fpga_online_placements_total" "Modules placed") !placed;
     Metrics.add (c "fpga_online_rejections_total" "Modules rejected") !rejected;
     Metrics.add
       (c "fpga_online_deferrals_total" "Blocked tasks deferred to a wake-up")
       !deferrals;
     Metrics.add
       (c "fpga_online_compactions_total" "Committed compactions")
       !compactions;
     Metrics.add
       (c "fpga_online_moved_tasks_total" "Modules moved by compaction")
       !moved_tasks;
     Metrics.set
       (Metrics.gauge m
          ~help:"Time-averaged chip utilization of the last online run"
          "fpga_online_utilization")
       utilization;
     Metrics.set
       (Metrics.gauge m
          ~help:"Maximal empty rectangles left by the last online run"
          "fpga_online_mer_count")
       (float_of_int (Free_space.mer_count fs));
     let h =
       Metrics.histogram m ~help:"Placement operation wall-clock latency"
         "fpga_online_place_seconds"
     in
     List.iter (fun us -> Metrics.observe h (us *. 1e-6)) !lat
   end);
  let lat_arr = Array.of_list !lat in
  let latency =
    {
      samples = Array.length lat_arr;
      p50_us = Telemetry.percentile lat_arr ~p:0.5;
      p99_us = Telemetry.percentile lat_arr ~p:0.99;
      max_us = Array.fold_left Float.max 0.0 lat_arr;
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
