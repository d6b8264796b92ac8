module Placement = Geometry.Placement

type decision = Opp_solver.decision = {
  dim : int;
  u : int;
  v : int;
  overlap : bool;
}

(* ------------------------------------------------------------------ *)
(* Work-stealing deque                                                 *)
(* ------------------------------------------------------------------ *)

module Deque = struct
  (* Chase–Lev-shaped: the owner pushes and pops at the bottom (LIFO,
     for locality and for the in-place reclaim protocol), thieves steal
     at the top (FIFO — the oldest descriptor is the shallowest, hence
     the largest subtree). A single mutex guards each deque: the owner
     touches it only at donation/reclaim points — gated so at most a
     handful of descriptors exist per worker at any time — and thieves
     only when they have run dry, so the lock is uncontended in the
     steady state and every operation is trivially linearizable (which
     the qcheck stress test pins). A lock-free Chase–Lev buffer could
     drop in behind this signature without touching the kernel. *)
  type 'a t = {
    lock : Mutex.t;
    mutable buf : 'a option array;
    mutable head : int; (* ring index of the oldest element *)
    mutable count : int;
    size_hint : int Atomic.t; (* approximate size, readable lock-free *)
  }

  let create () =
    {
      lock = Mutex.create ();
      buf = Array.make 16 None;
      head = 0;
      count = 0;
      size_hint = Atomic.make 0;
    }

  let grow d =
    let n = Array.length d.buf in
    let bigger = Array.make (2 * n) None in
    for i = 0 to d.count - 1 do
      bigger.(i) <- d.buf.((d.head + i) mod n)
    done;
    d.buf <- bigger;
    d.head <- 0

  let push d x =
    Mutex.lock d.lock;
    if d.count = Array.length d.buf then grow d;
    d.buf.((d.head + d.count) mod Array.length d.buf) <- Some x;
    d.count <- d.count + 1;
    Atomic.set d.size_hint d.count;
    Mutex.unlock d.lock

  let pop d =
    Mutex.lock d.lock;
    let r =
      if d.count = 0 then None
      else begin
        let i = (d.head + d.count - 1) mod Array.length d.buf in
        let x = d.buf.(i) in
        d.buf.(i) <- None;
        d.count <- d.count - 1;
        x
      end
    in
    Atomic.set d.size_hint d.count;
    Mutex.unlock d.lock;
    r

  let pop_if d p =
    Mutex.lock d.lock;
    let r =
      if d.count = 0 then None
      else begin
        let i = (d.head + d.count - 1) mod Array.length d.buf in
        match d.buf.(i) with
        | Some x when p x ->
          d.buf.(i) <- None;
          d.count <- d.count - 1;
          Some x
        | _ -> None
      end
    in
    Atomic.set d.size_hint d.count;
    Mutex.unlock d.lock;
    r

  let steal d =
    Mutex.lock d.lock;
    let r =
      if d.count = 0 then None
      else begin
        let x = d.buf.(d.head) in
        d.buf.(d.head) <- None;
        d.head <- (d.head + 1) mod Array.length d.buf;
        d.count <- d.count - 1;
        x
      end
    in
    Atomic.set d.size_hint d.count;
    Mutex.unlock d.lock;
    r

  let size d = Atomic.get d.size_hint
end

(* A subtree descriptor: the branching decisions from the search root
   to the subtree's root, never a copied state. [depth] caches the
   prefix length; [id] gives the owner's reclaim protocol a cheap
   identity check. *)
type task = { id : int; prefix : decision list; depth : int }

type worker_report = {
  worker : int;
  work : Telemetry.steal_counters;
  elapsed_s : float;
  stats : Opp_solver.stats;
}

type report = {
  outcome : Opp_solver.outcome;
  stats : Opp_solver.stats;
  workers : worker_report list;
  tasks : int;
  steals : int;
  jobs : int;
}

(* ------------------------------------------------------------------ *)
(* Prefix replay                                                       *)
(* ------------------------------------------------------------------ *)

let replay ?(options = Opp_solver.default_options) ?schedule inst cont
    decisions =
  match
    Packing_state.create ~rules:options.Opp_solver.rules ?schedule
      ~recorder:(Recorder.create ~trace:options.Opp_solver.trace ())
      inst cont
  with
  | Error reason -> Error reason
  | Ok st ->
    let rec go = function
      | [] -> Ok st
      | { dim; u; v; overlap } :: rest -> (
        let r =
          if overlap then Packing_state.assign_component st ~dim u v
          else Packing_state.assign_comparable st ~dim u v
        in
        match r with
        | Ok () -> go rest
        | Error reason -> Error reason)
    in
    go decisions

(* ------------------------------------------------------------------ *)
(* The work-stealing pool                                              *)
(* ------------------------------------------------------------------ *)

(* A worker offers an alternative branch only while its deque holds
   fewer than this many descriptors. Keeping the target small bounds
   both the replay cost thieves pay and the number of subtrees ripped
   out of the owner's sequential order; regeneration is continuous, so
   a hungry deque refills at the next branch point anyway. *)
let deque_target = 4

let solve ?(options = Opp_solver.default_options) ?schedule ?(jobs = 2) inst
    cont =
  let jobs = max 1 jobs in
  let t0 = Unix.gettimeofday () in
  let trace = options.Opp_solver.trace in
  let finish outcome stats workers ~tasks ~steals =
    let stats =
      { stats with Opp_solver.elapsed = Unix.gettimeofday () -. t0 }
    in
    { outcome; stats; workers; tasks; steals; jobs }
  in
  if jobs = 1 then begin
    (* Short-circuit: no deques, no domains, no descriptor machinery —
       the sequential solver runs on the calling domain and its stats
       are reported unchanged. *)
    let outcome, stats = Opp_solver.solve ~options ?schedule inst cont in
    finish outcome stats
      [
        {
          worker = 0;
          work = Telemetry.zero_steals;
          elapsed_s = stats.Opp_solver.elapsed;
          stats;
        };
      ]
      ~tasks:0 ~steals:0
  end
  else
    (* Stages 1 and 2 and the root propagation are the sequential
       solver's, run once on the calling domain before any domain is
       spawned; only the stage-3 search is work-stolen. *)
    Opp_solver.pipeline ~options ?schedule inst cont
      ~settled:(fun outcome stats -> finish outcome stats [] ~tasks:0 ~steals:0)
      ~stage3:(fun ~t0:_ root ->
        (* The root recorder's stage-1 bound work is reported once, in
           the merged stats, not as worker 0's: each worker's stats
           carry only the search it ran. *)
        let bounds0 = Recorder.take_bounds (Packing_state.recorder root) in
        (* Shared control state. [pending] counts descriptors that are
           queued or executing; it reaches 0 exactly when the whole
           tree has been exhausted (every descriptor ran to completion
           or failed replay — i.e. was refuted by propagation). *)
        let stop = Atomic.make false in
        let timed_out = Atomic.make false in
        let witness = Atomic.make None in
        let pending = Atomic.make 1 in
        let task_ids = Atomic.make 1 in
        let deques = Array.init jobs (fun _ -> Deque.create ()) in
        (* Heartbeat load board: each worker publishes its node count
           at every heartbeat; thieves use it to break victim ties
           toward the busiest worker, whose deque refills fastest. *)
        let board = Array.init jobs (fun _ -> Atomic.make 0) in
        (* One recorder per worker for the kernel events; each
           descriptor's search records into a recorder of its own. *)
        let kernels =
          Array.init jobs (fun wid ->
              let r = Recorder.create ~trace () in
              Recorder.register_kernel r ~worker:wid;
              r)
        in
        let worker_out = Array.make jobs None in
        Deque.push deques.(0) { id = 0; prefix = []; depth = 0 };
        let publish_feasible placement =
          if Atomic.compare_and_set witness None (Some placement) then
            Trace.cancel trace ~reason:"witness found";
          Atomic.set stop true
        in
        let caller_interrupt () =
          match options.Opp_solver.interrupt with
          | Some f -> f ()
          | None -> false
        in
        let worker wid =
          let w0 = Unix.gettimeofday () in
          let my_deque = deques.(wid) in
          let kernel = kernels.(wid) in
          let stats_acc = ref Opp_solver.empty_stats in
          let base_opts =
            {
              options with
              Opp_solver.use_bounds = false;
              use_heuristic = false;
              interrupt =
                Some (fun () -> Atomic.get stop || caller_interrupt ());
              on_heartbeat =
                Some
                  (fun p ->
                    Atomic.set board.(wid) p.Telemetry.nodes;
                    match options.Opp_solver.on_heartbeat with
                    | Some f -> f p
                    | None -> ());
            }
          in
          let finish_task () =
            if Atomic.fetch_and_add pending (-1) = 1 then begin
              (* Last descriptor done with no timeout recorded: the
                 tree is exhausted. *)
              Trace.cancel trace ~reason:"tree exhausted";
              Atomic.set stop true
            end
          in
          let give_up () =
            (* This worker's budget expired (or the caller
               interrupted): without its subtrees the proof cannot
               complete, so cancel everyone promptly. A witness that
               already landed still wins at join time. *)
            if Atomic.get witness = None then Atomic.set timed_out true;
            Atomic.set stop true
          in
          let run_task (t : task) =
            Recorder.claim kernel ~index:t.id;
            (* Per-task share hooks: descriptors donated while running
               this task extend its prefix with the local path. *)
            let offer ~path ~len ~alt =
              if Atomic.get stop || Deque.size my_deque >= deque_target then
                None
              else begin
                let local = Array.to_list (Array.sub path 0 len) in
                let prefix = t.prefix @ local @ [ alt ] in
                let id = Atomic.fetch_and_add task_ids 1 in
                Atomic.incr pending;
                Deque.push my_deque { id; prefix; depth = t.depth + len + 1 };
                Recorder.donate kernel ~depth:(t.depth + len);
                Some id
              end
            in
            let reclaim token =
              match Deque.pop_if my_deque (fun (x : task) -> x.id = token) with
              | Some _ ->
                Recorder.reclaim kernel;
                (* The branch runs in place on the live state: balance
                   the offer's increment here. The enclosing task is
                   still counted in [pending], so this cannot drain
                   the counter to 0. *)
                ignore (Atomic.fetch_and_add pending (-1));
                true
              | None -> false
            in
            let share = { Opp_solver.offer; reclaim } in
            let budget_left =
              match options.Opp_solver.node_limit with
              | None -> None
              | Some l -> Some (l - (!stats_acc).Opp_solver.nodes)
            in
            match budget_left with
            | Some b when b <= 0 ->
              give_up ();
              finish_task ()
            | _ -> (
              (* Descriptor 0 searches the propagated root itself. *)
              match
                if t.id = 0 then Ok root
                else replay ~options ?schedule inst cont t.prefix
              with
              | Error _ ->
                (* The descriptor's last decision (the donated
                   alternative) fails propagation — the same pruned
                   branch the sequential search would count. *)
                stats_acc :=
                  {
                    !stats_acc with
                    Opp_solver.conflicts =
                      (!stats_acc).Opp_solver.conflicts + 1;
                  };
                finish_task ()
              | Ok st ->
                let sub_opts =
                  { base_opts with Opp_solver.node_limit = budget_left }
                in
                let outcome, s =
                  Opp_solver.solve_state ~options:sub_opts
                    ~depth_offset:t.depth ~share st
                in
                Recorder.task_done kernel ~nodes:s.Opp_solver.nodes;
                stats_acc := Opp_solver.merge_stats !stats_acc s;
                (match outcome with
                | Opp_solver.Feasible p -> publish_feasible p
                | Opp_solver.Infeasible -> ()
                | Opp_solver.Timeout ->
                  (* Either a genuine budget/interrupt expiry or the
                     cooperative stop flag set by a sibling; a witness
                     means the stop was benign. *)
                  if Atomic.get witness = None then give_up ());
                finish_task ())
          in
          let pick_victim () =
            (* Largest deque first — its top descriptor is the
               shallowest available subtree; the heartbeat board
               breaks ties toward the busiest worker. *)
            let best = ref (-1) in
            let best_size = ref 0 in
            let best_load = ref min_int in
            for i = 0 to jobs - 1 do
              if i <> wid then begin
                let sz = Deque.size deques.(i) in
                let load = Atomic.get board.(i) in
                if
                  sz > !best_size
                  || (sz > 0 && sz = !best_size && load > !best_load)
                then begin
                  best := i;
                  best_size := sz;
                  best_load := load
                end
              end
            done;
            !best
          in
          (* Dry workers spin briefly, then back off to short sleeps:
             on hardware with fewer cores than jobs a hot spin would
             timeshare against the workers holding real work. *)
          let idle = ref 0 in
          let relax () =
            incr idle;
            if !idle > 128 then Unix.sleepf 0.0002 else Domain.cpu_relax ()
          in
          let rec loop () =
            if not (Atomic.get stop) then begin
              (match Deque.pop my_deque with
              | Some t ->
                idle := 0;
                run_task t
              | None -> (
                match pick_victim () with
                | -1 ->
                  if caller_interrupt () then give_up () else relax ()
                | v -> (
                  match Deque.steal deques.(v) with
                  | Some t ->
                    idle := 0;
                    Recorder.steal kernel ~victim:v ~depth:t.depth;
                    run_task t
                  | None -> relax ())));
              loop ()
            end
          in
          loop ();
          worker_out.(wid) <-
            Some
              {
                worker = wid;
                work = Recorder.steal_counters kernel;
                elapsed_s = Unix.gettimeofday () -. w0;
                stats = !stats_acc;
              }
        in
        (* Always join every domain before returning: cancellation
           must never leak a running domain past the call. *)
        let domains =
          Array.init jobs (fun wid -> Domain.spawn (fun () -> worker wid))
        in
        Array.iter Domain.join domains;
        let workers =
          Array.to_list worker_out
          |> List.filter_map Fun.id
          |> List.sort (fun (a : worker_report) (b : worker_report) ->
                 compare a.worker b.worker)
        in
        let merged =
          List.fold_left
            (fun acc (w : worker_report) ->
              Opp_solver.merge_stats acc w.stats)
            { Opp_solver.empty_stats with Opp_solver.bounds = bounds0 }
            workers
        in
        let outcome =
          match Atomic.get witness with
          | Some placement -> Opp_solver.Feasible placement
          | None ->
            if Atomic.get timed_out then Opp_solver.Timeout
            else Opp_solver.Infeasible
        in
        let work =
          List.fold_left
            (fun acc (w : worker_report) -> Telemetry.add_steals acc w.work)
            Telemetry.zero_steals workers
        in
        finish outcome merged workers ~tasks:work.Telemetry.tasks
          ~steals:work.Telemetry.steals)

let pp_report fmt r =
  Format.fprintf fmt "%a via %d jobs, %d tasks (%d stolen) (%a)"
    Opp_solver.pp_outcome r.outcome r.jobs r.tasks r.steals Opp_solver.pp_stats
    r.stats

let report_to_json r =
  let outcome =
    match r.outcome with
    | Opp_solver.Feasible _ -> "feasible"
    | Opp_solver.Infeasible -> "infeasible"
    | Opp_solver.Timeout -> "timeout"
  in
  let worker w =
    Telemetry.Obj
      [
        ("worker", Telemetry.Int w.worker);
        ("work", Telemetry.steals_to_json w.work);
        ("elapsed_s", Telemetry.seconds w.elapsed_s);
        ("stats", Opp_solver.stats_json w.stats);
      ]
  in
  Telemetry.to_string
    (Telemetry.Obj
       [
         ("outcome", Telemetry.String outcome);
         ("jobs", Telemetry.Int r.jobs);
         ("tasks", Telemetry.Int r.tasks);
         ("steals", Telemetry.Int r.steals);
         ("stats", Opp_solver.stats_json r.stats);
         ("workers", Telemetry.List (List.map worker r.workers));
       ])
