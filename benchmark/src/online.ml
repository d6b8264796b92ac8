(* The two online workloads: whole-stream passes of
   [Fpga.Online.run_stream], and in the traced run a replay of the
   free-space calls and a pass with compaction flipped. *)

module Online = Fpga.Online
module Free_space = Fpga.Free_space

type workload = {
  name : string;
  streams : int;  (** distinct streams per pass *)
  tasks : int;  (** tasks per stream *)
  max_extent : int;
  max_duration : int;
  compaction : bool;
}

(* Small modules on a chip the streams keep fragmented; compaction off,
   so the free-space manager does all the work. Streams are long enough
   that the chip spends most of each one full: shorter streams are
   mostly ramp-up and drain (utilization 0.79 at 1000 tasks, 0.94 at
   10^4). *)
let small =
  {
    name = "online-small";
    streams = 1;
    tasks = 10_000;
    max_extent = 8;
    max_duration = 12;
    compaction = false;
  }

(* Large, long modules: blocked arrivals are common enough that
   compaction proposes and commits, so deleting it would show. Its cost
   per task grows with the backlog, so short streams (0.07 s per 1000
   tasks against 4.4 s per 10^4) would measure a different regime. *)
let defrag =
  {
    name = "online-defrag";
    streams = 1;
    tasks = 10_000;
    max_extent = 24;
    max_duration = 40;
    compaction = true;
  }

let chip = Fpga.Chip.square 32
let reconfig = Fpga.Reconfig.Per_column 1
let move_delay = 2

(* The streams of a pass. How costly a drawn stream is varies so much
   between draws that a run would mostly measure the draw, so they are
   one fixed pool, as on serve-unique, and the seed presents it: it
   shifts every stream's arrival times by its own offset, which the
   event-driven simulation cannot tell apart, and shuffles their order. *)
let streams w ~seed ~count ~tasks =
  let pool =
    Array.init count (fun i ->
        Benchmarks.Generate.arrival_stream
          ~seed:(Random.State.bits (Random.State.make [| 1; i |]))
          ~n:tasks ~chip ~load:1.0 ~max_extent:w.max_extent ~max_duration:w.max_duration
          ~arc_probability:0.1 ())
  in
  let rng = Random.State.make [| seed; 3 |] in
  Stats.shuffle rng pool;
  Array.map
    (fun stream ->
      let offset = Random.State.int rng 1_000_000 in
      Array.map (fun (t : Online.task) -> { t with Online.arrival = t.Online.arrival + offset }) stream)
    pool

let pass tasks ~compaction =
  Online.run_stream ~policy:Online.Best_fit ~reconfig tasks ~chip ~compaction ~move_delay

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let intersects (ax, ay, aw, ah) (bx, by, bw, bh) =
  ax < bx + bw && bx < ax + aw && ay < by + bh && by < ay + ah

(* Every task is placed exactly once, inside the chip, no earlier than
   its arrival and after each predecessor finished (a compaction move
   delays the mover's finish by its reload plus move delay); tasks no
   compaction moved never overlap in space-time. Returns the mean wait
   (start - arrival) over placed tasks. *)
let check (tasks : Online.task array) (r : Online.report) (c : Report.checks) =
  let n = Array.length tasks in
  let bad = Array.make n false in
  let fail i fmt =
    Printf.ksprintf
      (fun msg ->
        if not bad.(i) then begin
          bad.(i) <- true;
          Report.fail c "task %d: %s" i msg
        end)
      fmt
  in
  if r.Online.placed + r.Online.rejected + r.Online.never_arrived <> n then
    Report.fail c "placed + rejected + never_arrived <> %d" n;
  let start = Array.make n (-1) and rect = Array.make n (0, 0, 0, 0) in
  let moves = Array.make n 0 in
  List.iter
    (function
      | Online.Placed { task; x; y; time } ->
        if start.(task) >= 0 then fail task "placed twice"
        else begin
          start.(task) <- time;
          rect.(task) <- (x, y, tasks.(task).Online.w, tasks.(task).Online.h)
        end
      | Online.Compacted { moved; _ } -> List.iter (fun i -> moves.(i) <- moves.(i) + 1) moved
      | Online.Deferred _ | Online.Rejected _ -> ())
    r.Online.events;
  let finish i =
    let t = tasks.(i) in
    start.(i) + t.Online.duration
    + (moves.(i) * (Fpga.Reconfig.load_time reconfig ~w:t.Online.w ~h:t.Online.h + move_delay))
  in
  let cw = Fpga.Chip.width chip and ch = Fpga.Chip.height chip in
  let waited = ref 0 and placed = ref 0 in
  Array.iteri
    (fun i (t : Online.task) ->
      if start.(i) < 0 then fail i "never placed"
      else begin
        let x, y, w, h = rect.(i) in
        incr placed;
        waited := !waited + start.(i) - t.Online.arrival;
        if x < 0 || y < 0 || x + w > cw || y + h > ch then fail i "outside the chip";
        if start.(i) < t.Online.arrival then fail i "starts before its arrival";
        List.iter
          (fun p ->
            if start.(p) < 0 || start.(i) < finish p then
              fail i "starts before predecessor %d finished" p)
          t.Online.preds
      end)
    tasks;
  (* Sweep the unmoved tasks by start time against those still running. *)
  let order =
    List.sort
      (fun a b -> compare start.(a) start.(b))
      (List.filter (fun i -> start.(i) >= 0 && moves.(i) = 0) (List.init n Fun.id))
  in
  ignore
    (List.fold_left
       (fun active i ->
         let active = List.filter (fun j -> finish j > start.(i)) active in
         List.iter
           (fun j -> if intersects rect.(i) rect.(j) then fail i "overlaps task %d" j)
           active;
         i :: active)
       [] order);
  Stats.ratio (float_of_int !waited) (float_of_int !placed)

(* ------------------------------------------------------------------ *)
(* Replay of the free-space calls of one pass                          *)
(* ------------------------------------------------------------------ *)

type replay = {
  spans : float array;  (** find, place, remove: summed seconds *)
  mismatches : int;  (** finds that did not return the event's position *)
  mer_count_mean : float;
}

(* Replays each [Placed] event and each retirement through
   [Free_space.find/place/remove], timing every call. Retirements run
   in the order [run_stream] uses, most recently placed first. Only
   valid without compaction, whose moves the events do not locate. *)
let replay (tasks : Online.task array) (r : Online.report) =
  let fs = Free_space.create ~w:(Fpga.Chip.width chip) ~h:(Fpga.Chip.height chip) in
  let spans = Array.make 3 0.0 in
  let timed k f =
    let v, s = Probe.time f in
    spans.(k) <- spans.(k) +. Probe.seconds s;
    v
  in
  let mismatches = ref 0 and mers = ref 0 and finds = ref 0 in
  let running = ref [] in
  let retire clock =
    let keep, gone = List.partition (fun (_, fin) -> fin > clock) !running in
    running := keep;
    List.iter (fun (id, _) -> timed 2 (fun () -> Free_space.remove fs ~id)) gone
  in
  List.iter
    (function
      | Online.Placed { task; x; y; time } -> (
        retire time;
        let w = tasks.(task).Online.w and h = tasks.(task).Online.h in
        mers := !mers + Free_space.mer_count fs;
        incr finds;
        if timed 0 (fun () -> Free_space.find fs ~policy:Free_space.Best_fit ~w ~h) <> Some (x, y)
        then incr mismatches;
        match timed 1 (fun () -> Free_space.place fs ~id:task ~x ~y ~w ~h) with
        | () -> running := (task, time + tasks.(task).Online.duration) :: !running
        | exception Invalid_argument _ -> incr mismatches)
      | _ -> ())
    r.Online.events;
  retire max_int;
  {
    spans;
    mismatches = !mismatches;
    mer_count_mean = Stats.ratio (float_of_int !mers) (float_of_int !finds);
  }

(* ------------------------------------------------------------------ *)
(* The pass loop                                                       *)
(* ------------------------------------------------------------------ *)

(* Each stream is one operation. The warm-up pass runs every stream
   once; each timed pass runs one stream, taking them in turn, so a run
   ends within one stream of [seconds]. A stream's time is read at
   nominal speed and is its median over its timed passes, as a
   request's is on serve, so a busy machine slowing one pass does not
   move it. The traced run also times each stream with compaction
   flipped, in the same passes, to price compaction. *)
let run ?size w ~seed ~seconds ~trace =
  let k, n = Option.value size ~default:(w.streams, w.tasks) in
  let inputs, setup = Stats.setup (fun () -> streams w ~seed ~count:k ~tasks:n) in
  let c = Report.checks () in
  let times = Array.make k [] and flipped = Array.make k [] in
  let first = Array.make k None in
  let runs = ref 0 and minor_words = ref 0.0 and majors = ref 0 and peak = ref 0.0 in
  let timed tasks ~compaction =
    let r, s = Probe.time (fun () -> pass tasks ~compaction) in
    (r, Probe.seconds s)
  in
  let run_stream i =
    let m0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
    let r, dt = timed inputs.(i) ~compaction:w.compaction in
    incr runs;
    minor_words := !minor_words +. (Gc.minor_words () -. m0);
    majors := !majors + (Gc.quick_stat ()).Gc.major_collections - g0;
    (r, dt)
  in
  let _ : int =
    Stats.passes ~least:k ~seconds setup (fun p ->
        if p = 0 then begin
          let reports = Array.init k (fun i -> fst (run_stream i)) in
          peak := Stats.heap_peak_mb ();
          Array.iteri (fun i r -> first.(i) <- Some (r, check inputs.(i) r c)) reports
        end
        else begin
          let i = (p - 1) mod k in
          let (r : Online.report), dt = run_stream i in
          times.(i) <- dt :: times.(i);
          if trace then
            flipped.(i) <- snd (timed inputs.(i) ~compaction:(not w.compaction)) :: flipped.(i);
          match first.(i) with
          | Some (f, _) when r.Online.events <> f.Online.events ->
            Report.fail c "stream %d: pass %d differs from the first" i p
          | _ -> ()
        end)
  in
  let first = Array.map Option.get first in
  let reports = Array.map fst first in
  let mean f = Stats.sum (Array.map f reports) /. float_of_int k in
  let medians = Array.map (fun ts -> Stats.median (Array.of_list ts)) in
  let stream_s = medians times in
  let total_s = Stats.sum stream_s in
  (* A task's latency is its stream's time per task. *)
  let per_task_ms = Array.map (fun s -> 1e3 *. s /. float_of_int n) stream_s in
  let values =
    if not trace then
      [
        ("setup_s", Stats.setup_s setup);
        ("throughput", float_of_int (k * n) /. total_s);
        ("latency_p50_ms", Stats.median per_task_ms);
        ("latency_p95_ms", Packing.Telemetry.percentile per_task_ms ~p:0.95);
        ("quality", mean (fun r -> r.Online.utilization));
        ("heap_peak_mb", !peak);
      ]
    else begin
      let flipped = Stats.sum (medians flipped) in
      let on, off = if w.compaction then (total_s, flipped) else (flipped, total_s) in
      let free_space =
        if w.compaction then []
        else begin
          let rps = Probe.run (fun () -> Array.mapi (fun i r -> replay inputs.(i) r) reports) in
          let share j = Stats.ratio (Stats.sum (Array.map (fun rp -> rp.spans.(j)) rps)) total_s in
          let total = share 0 +. share 1 +. share 2 in
          [
            ("ledger.coverage", total);
            ("free_space.share", total);
            ("free_space.find_share", share 0);
            ("free_space.place_share", share 1);
            ("free_space.remove_share", share 2);
            ( "free_space.mer_count_mean",
              Stats.sum (Array.map (fun rp -> rp.mer_count_mean) rps) /. float_of_int k );
            ( "free_space.replay_mismatch",
              float_of_int (Array.fold_left (fun a rp -> a + rp.mismatches) 0 rps) );
          ]
        end
      in
      let sum f = float_of_int (Array.fold_left (fun a r -> a + f r) 0 reports) in
      [
        ("ledger.wall_s", total_s);
        ("online.deferrals", sum (fun r -> r.Online.deferrals));
        ( "online.makespan",
          Stats.sum
            (Array.mapi
               (fun i (r : Online.report) ->
                 float_of_int
                   (r.Online.makespan
                   - Array.fold_left (fun a (t : Online.task) -> min a t.Online.arrival) max_int inputs.(i)))
               reports)
          /. float_of_int k );
        ("online.mean_wait", Stats.sum (Array.map snd first) /. float_of_int k);
        ("compaction.commits", sum (fun r -> r.Online.compactions));
        ("compaction.moved_tasks", sum (fun r -> r.Online.moved_tasks));
        ("compaction.move_cycles", sum (fun r -> r.Online.move_cycles));
        ("compaction.overhead", Stats.ratio (on -. off) off);
        ("gc.minor_mb_per_op", Stats.mb_of_words !minor_words /. float_of_int (!runs * n));
        ("gc.major_collections", float_of_int (!majors * k) /. float_of_int !runs);
      ]
      @ free_space
    end
  in
  Report.outcome ~attempted:(!runs * n) c
    ~counts:[ ("streams", k); ("tasks", n); ("stream_runs", !runs) ]
    values
