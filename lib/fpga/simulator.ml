module Placement = Geometry.Placement
module Instance = Packing.Instance
module PO = Order.Partial_order

type event = {
  time : int;
  task : int;
  what : action;
}

and action =
  | Configure
  | Start
  | Finish
  | Release of int

type report = {
  ok : bool;
  errors : string list;
  makespan : int;
  events : event list;
  reconfigurations : int;
  bus_words : int;
  peak_memory_words : int;
  busy_cell_cycles : int;
  utilization : float;
}

let run inst placement ~chip =
  let n = Instance.count inst in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let w = Chip.width chip and h = Chip.height chip in
  let makespan = Placement.makespan placement in
  (* Spatial bounds. *)
  for i = 0 to n - 1 do
    let o = Placement.origin placement i in
    let bw = Instance.extent inst i 0 and bh = Instance.extent inst i 1 in
    if o.(0) < 0 || o.(1) < 0 || o.(0) + bw > w || o.(1) + bh > h then
      error "task %s leaves the cell array" (Instance.label inst i)
  done;
  (* Cycle-by-cycle cell occupancy. *)
  let busy_cell_cycles = ref 0 in
  let grid = Array.make (w * h) (-1) in
  for t = 0 to makespan - 1 do
    Array.fill grid 0 (w * h) (-1);
    for i = 0 to n - 1 do
      if Placement.start_time placement i <= t && t < Placement.finish_time placement i
      then begin
        let o = Placement.origin placement i in
        for y = o.(1) to min (h - 1) (o.(1) + Instance.extent inst i 1 - 1) do
          for x = o.(0) to min (w - 1) (o.(0) + Instance.extent inst i 0 - 1) do
            let c = (y * w) + x in
            if grid.(c) >= 0 then
              error "cycle %d: cell (%d,%d) driven by both %s and %s" t x y
                (Instance.label inst grid.(c))
                (Instance.label inst i)
            else begin
              grid.(c) <- i;
              incr busy_cell_cycles
            end
          done
        done
      end
    done
  done;
  (* Data hand-over via external memory. *)
  let p = Instance.precedence inst in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && PO.precedes p u v then
        if Placement.finish_time placement u > Placement.start_time placement v
        then
          error "dependency %s -> %s: consumer starts before read-out"
            (Instance.label inst u) (Instance.label inst v)
    done
  done;
  (* Event log and memory profile. Producers park their result in
     memory from their finish until the last consumer has started. *)
  let events = ref [] in
  let push time task what = events := { time; task; what } :: !events in
  for i = 0 to n - 1 do
    push (Placement.start_time placement i) i Configure;
    push (Placement.start_time placement i) i Start;
    push (Placement.finish_time placement i) i Finish
  done;
  let consumers u =
    List.filter (fun v -> v <> u && PO.precedes p u v) (List.init n Fun.id)
  in
  let bus_words = ref 0 in
  let live : (int * int * int) list ref = ref [] in
  (* (producer, release_time, words) *)
  List.iter
    (fun u ->
      match consumers u with
      | [] -> ()
      | cs ->
        let last =
          List.fold_left
            (fun (bt, bv) v ->
              let s = Placement.start_time placement v in
              if s > bt then (s, v) else (bt, bv))
            (min_int, -1) cs
        in
        let release_time, last_consumer = last in
        (* one column of flip-flops: the module width *)
        let words = Instance.extent inst u 0 in
        (* one write-out plus one read-in per consumer *)
        bus_words := !bus_words + words + (List.length cs * words);
        live := (u, release_time, words) :: !live;
        push release_time u (Release last_consumer))
    (List.init n Fun.id);
  let peak = ref 0 in
  for t = 0 to makespan do
    let footprint =
      List.fold_left
        (fun acc (u, release, words) ->
          if Placement.finish_time placement u <= t && t < release then
            acc + words
          else acc)
        0 !live
    in
    peak := max !peak footprint
  done;
  let events =
    List.stable_sort (fun a b -> compare (a.time, a.task) (b.time, b.task))
      (List.rev !events)
  in
  let cells = w * h in
  {
    ok = !errors = [];
    errors = List.rev !errors;
    makespan;
    events;
    reconfigurations = n;
    bus_words = !bus_words;
    peak_memory_words = !peak;
    busy_cell_cycles = !busy_cell_cycles;
    utilization =
      (if makespan = 0 then 0.0
       else float_of_int !busy_cell_cycles /. float_of_int (cells * makespan));
  }

let pp_action fmt = function
  | Configure -> Format.pp_print_string fmt "configure"
  | Start -> Format.pp_print_string fmt "start"
  | Finish -> Format.pp_print_string fmt "finish (read-out)"
  | Release v -> Format.fprintf fmt "release (last consumer %d)" v

let pp_report fmt r =
  Format.fprintf fmt "@[<v>%s, makespan %d@ "
    (if r.ok then "OK" else "INVALID")
    r.makespan;
  List.iter (fun e -> Format.fprintf fmt "error: %s@ " e) r.errors;
  List.iter
    (fun e ->
      Format.fprintf fmt "t=%-4d task %-3d %a@ " e.time e.task pp_action e.what)
    r.events;
  Format.fprintf fmt
    "reconfigurations: %d, bus words: %d, peak memory: %d words, utilization: \
     %.1f%%@]"
    r.reconfigurations r.bus_words r.peak_memory_words (100.0 *. r.utilization)
