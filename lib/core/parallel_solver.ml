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

(* Rebuilds a fresh root state recording on [recorder] and re-applies a
   descriptor prefix. [Error] means the prefix fails propagation: the
   donated alternative branch is refuted, the same pruned branch the
   sequential search would count as a conflict. *)
let replay recorder ~options ?schedule inst cont decisions =
  match
    Packing_state.create ~rules:options.Opp_solver.rules ?schedule ~recorder
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

let max_jobs = 127

let check_jobs jobs =
  if jobs > max_jobs then
    Printf.ksprintf invalid_arg "jobs %d is above the maximum, %d" jobs max_jobs;
  max 1 jobs

let solve ?(options = Opp_solver.default_options) ?schedule ~jobs inst cont =
  let jobs = check_jobs jobs in
  let t0 = Clock.now () in
  let trace = options.Opp_solver.trace in
  let finish outcome stats workers ~tasks ~steals =
    let stats = { stats with Opp_solver.elapsed = Clock.since t0 } in
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
          work =
            { Telemetry.tasks = 0; steals = 0; donated = 0; reclaimed = 0 };
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
        (* The root recorder holds stage 1 and the root propagation.
           Each worker records into a recorder of its own, and the root
           absorbs them all when they stop: the merged report is read
           off it, the worker reports off theirs. *)
        let merged = Packing_state.recorder root in
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
        let worker_out = Array.make jobs None in
        let publish_feasible placement =
          if Atomic.compare_and_set witness None (Some placement) then
            Trace.emit trace (Cancel { reason = "witness found" });
          Atomic.set stop true
        in
        let worker wid =
          let w0 = Clock.now () in
          let my_deque = deques.(wid) in
          let recorder = Recorder.create ~trace () in
          Recorder.register_kernel recorder ~worker:wid;
          let sub_opts =
            {
              options with
              Opp_solver.use_bounds = false;
              use_heuristic = false;
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
              Trace.emit trace (Cancel { reason = "tree exhausted" });
              Atomic.set stop true
            end
          in
          let give_up () =
            (* This worker's budget expired: without its subtrees the
               proof cannot complete, so cancel everyone promptly. A
               witness that already landed still wins at join time. *)
            if Atomic.get witness = None then Atomic.set timed_out true;
            Atomic.set stop true
          in
          let run_task (t : task) =
            Recorder.claim recorder ~index:t.id;
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
                Recorder.donate recorder ~depth:(t.depth + len);
                Some id
              end
            in
            let reclaim token =
              match Deque.pop_if my_deque (fun (x : task) -> x.id = token) with
              | Some _ ->
                Recorder.reclaim recorder;
                (* The branch runs in place on the live state: balance
                   the offer's increment here. The enclosing task is
                   still counted in [pending], so this cannot drain
                   the counter to 0. *)
                ignore (Atomic.fetch_and_add pending (-1));
                true
              | None -> false
            in
            let share = { Opp_solver.offer; reclaim } in
            match options.Opp_solver.node_limit with
            | Some l when Recorder.nodes recorder >= l ->
              give_up ();
              finish_task ()
            | _ -> (
              match
                if t.id = 0 then begin
                  (* Descriptor 0 searches the propagated root itself. *)
                  Packing_state.set_recorder root recorder;
                  Ok root
                end
                else replay recorder ~options ?schedule inst cont t.prefix
              with
              | Error _ ->
                (* The descriptor's last decision (the donated
                   alternative) fails propagation — the same pruned
                   branch the sequential search would count. *)
                Recorder.conflict recorder;
                finish_task ()
              | Ok st ->
                let outcome, _ =
                  Opp_solver.solve_state ~options:sub_opts
                    ~depth_offset:t.depth ~share ~stop st
                in
                (match outcome with
                | Opp_solver.Feasible p -> publish_feasible p
                | Opp_solver.Infeasible -> ()
                | Opp_solver.Timeout ->
                  (* Either a genuine budget expiry or the
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
                | -1 -> relax ()
                | v -> (
                  match Deque.steal deques.(v) with
                  | Some t ->
                    idle := 0;
                    Recorder.steal recorder ~victim:v ~depth:t.depth;
                    run_task t
                  | None -> relax ())));
              loop ()
            end
          in
          if wid = 0 then run_task { id = 0; prefix = []; depth = 0 };
          loop ();
          Recorder.flush recorder;
          let elapsed_s = Clock.since w0 in
          worker_out.(wid) <-
            Some
              ( {
                  worker = wid;
                  work = Recorder.steal_counters recorder;
                  elapsed_s;
                  stats = Opp_solver.recorded recorder ~elapsed:elapsed_s;
                },
                recorder )
        in
        (* Worker 0 runs the root descriptor and starts last, so the
           thieves are waiting when it donates. Always join every domain
           before returning: cancellation must never leak a running
           domain past the call, and neither may a refused spawn. *)
        let domains = ref [] and refused = ref None in
        (try
           for wid = jobs - 1 downto 0 do
             domains := Domain.spawn (fun () -> worker wid) :: !domains
           done
         with e ->
           Atomic.set stop true;
           refused := Some e);
        List.iter Domain.join !domains;
        Option.iter raise !refused;
        let workers = List.filter_map Fun.id (Array.to_list worker_out) in
        List.iter (fun (_, r) -> Recorder.absorb ~into:merged r) workers;
        Recorder.flush merged;
        let outcome =
          match Atomic.get witness with
          | Some placement -> Opp_solver.Feasible placement
          | None ->
            if Atomic.get timed_out then Opp_solver.Timeout
            else Opp_solver.Infeasible
        in
        let work = Recorder.steal_counters merged in
        finish outcome
          (Opp_solver.recorded merged ~elapsed:(Clock.since t0))
          (List.map fst workers) ~tasks:work.Telemetry.tasks
          ~steals:work.Telemetry.steals)

let report_to_json r =
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
         ("outcome", Telemetry.String (Opp_solver.outcome_name r.outcome));
         ("jobs", Telemetry.Int r.jobs);
         ("tasks", Telemetry.Int r.tasks);
         ("steals", Telemetry.Int r.steals);
         ("stats", Opp_solver.stats_json r.stats);
         ("workers", Telemetry.List (List.map worker r.workers));
       ])
