(* Reference copy of the online scheduler as it was written before a
   pass skipped the tasks that can neither be placed nor trigger a
   compaction: every pass attempts every pending eligible task, largest
   area first. Trace events, metrics and latency samples are left out;
   they read the clock and change no decision. The online tests run the
   same streams through it and through [Fpga.Online.run_stream] and
   require the same event lists, event by event. *)

module Online = Fpga.Online
module Free_space = Fpga.Free_space
module Reconfig = Fpga.Reconfig

(* Min-heap of (time, task) wake-ups. *)
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

(* The event list of the stream, chronological. *)
let run_stream ?(policy = Online.First_fit) ?(reconfig = Reconfig.Constant 0)
    (tasks : Online.task array) ~chip ~compaction ~move_delay =
  let n = Array.length tasks in
  let cw = Fpga.Chip.width chip and ch = Fpga.Chip.height chip in
  let tw i = tasks.(i).w and th i = tasks.(i).h in
  let areas = Array.map (fun (t : Online.task) -> t.w * t.h) tasks in
  let by_area a b =
    let c = Int.compare areas.(b) areas.(a) in
    if c <> 0 then c else Int.compare a b
  in
  let preds =
    Array.map (fun (t : Online.task) -> List.sort_uniq compare t.preds) tasks
  in
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
  let finish_ = Array.make n 0 in
  let running = ref [] in
  let fs = Free_space.create ~w:cw ~h:ch in
  let version = ref 0 in
  let events = ref [] in
  let emit e = events := e :: !events in
  let deferred_once = Array.make n false in
  let sched = Heap.create () in
  let eligible = ref [] in
  let fresh = ref [] in
  let doomed_pending = ref [] in
  Array.iteri
    (fun i (t : Online.task) ->
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
  let reject i =
    status.(i) <- `Rejected;
    incr version;
    emit (Online.Rejected { task = i });
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
  let commit_place i x y clock =
    px.(i) <- x;
    py.(i) <- y;
    finish_.(i) <- clock + tasks.(i).duration;
    status.(i) <- `Done;
    running := i :: !running;
    Free_space.place fs ~id:i ~x ~y ~w:(tw i) ~h:(th i);
    incr version;
    emit (Online.Placed { task = i; x; y; time = clock });
    List.iter
      (fun v ->
        if status.(v) = `Pending && not doomed.(v) then begin
          remaining.(v) <- remaining.(v) - 1;
          if remaining.(v) = 0 && tasks.(v).arrival < max_int then
            Heap.push sched (ready_time v, v)
        end)
      succs.(i)
  in
  let make_proposal () =
    let ids = List.sort by_area !running in
    let pf = Free_space.create ~w:cw ~h:ch in
    let pos = ref [] in
    let ok =
      List.for_all
        (fun id ->
          match
            Free_space.find pf ~policy:Free_space.First_fit ~w:(tw id) ~h:(th id)
          with
          | None -> false
          | Some (x, y) ->
            Free_space.place pf ~id ~x ~y ~w:(tw id) ~h:(th id);
            pos := (id, x, y) :: !pos;
            true)
        ids
    in
    if ok then Some (List.rev !pos, pf) else None
  in
  let place_now i clock =
    match Free_space.find fs ~policy ~w:(tw i) ~h:(th i) with
    | Some (x, y) -> commit_place i x y clock
    | None -> assert false
  in
  let proposal = ref None and proposal_version = ref (-1) in
  let hosts p i =
    match p with
    | Some (_, layout) -> Free_space.fits layout ~w:(tw i) ~h:(th i)
    | None -> false
  in
  let declined_version = ref (-1) and declined_clock = ref (-1) in
  let try_compact i clock =
    if !declined_version = !version && !declined_clock = clock then false
    else if !proposal_version = !version && not (hosts !proposal i) then false
    else begin
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
            let moved_ids =
              List.sort compare (List.map (fun (id, _, _) -> id) moved)
            in
            emit
              (Online.Compacted
                 { moved = moved_ids; time = clock; cost; enabled = !enabled });
            place_now i clock;
            true
          end
        end
      | _ -> false
    end
  in
  let attempt i clock =
    if Free_space.fits fs ~w:(tw i) ~h:(th i) then begin
      place_now i clock;
      true
    end
    else if !running = [] then begin
      reject i;
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
            reject i;
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
      List.iter (fun id -> Free_space.remove fs ~id) gone;
      incr version
    end
  in
  let first_time =
    Array.fold_left (fun acc (t : Online.task) -> min acc t.arrival) max_int tasks
  in
  let arr =
    let l = ref [] in
    Array.iteri
      (fun i (t : Online.task) ->
        if t.arrival < max_int then l := (t.arrival, i) :: !l)
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
        List.iter
          (fun i ->
            if status.(i) = `Pending && not deferred_once.(i) then begin
              deferred_once.(i) <- true;
              emit (Online.Deferred { task = i; until = !next })
            end)
          !fresh;
        clock := !next
      end
      else quiescent := true
    done
  end;
  for i = 0 to n - 1 do
    if status.(i) = `Pending && tasks.(i).arrival < max_int then begin
      status.(i) <- `Rejected;
      emit (Online.Rejected { task = i })
    end
  done;
  List.rev !events
