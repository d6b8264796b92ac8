type outcome =
  | Feasible of Geometry.Placement.t
  | Infeasible
  | Timeout

type decision = {
  dim : int;
  u : int;
  v : int;
  overlap : bool;
}

type share = {
  offer : path:decision array -> len:int -> alt:decision -> int option;
  reclaim : int -> bool;
}

type stats = {
  nodes : int;
  conflicts : int;
  leaves : int;
  max_depth : int;
  elapsed : float;
  by_bounds : bool;
  by_heuristic : bool;
  rules : Telemetry.rule_counters;
  bounds : Telemetry.bound_counters;
}

type realize_policy = Realize_always | Realize_never | Realize_adaptive

type options = {
  rules : Packing_state.rules;
  use_bounds : bool;
  use_heuristic : bool;
  node_limit : int option;
  deadline : Clock.deadline option;
  progress_interval_s : float;
  on_heartbeat : (Telemetry.progress -> unit) option;
  trace : Trace.t;
  node_bounds : realize_policy;
}

let default_options =
  {
    rules = Packing_state.default_rules;
    use_bounds = true;
    use_heuristic = true;
    node_limit = None;
    deadline = None;
    progress_interval_s = 1.0;
    on_heartbeat = None;
    trace = Trace.null;
    node_bounds = Realize_adaptive;
  }

exception Found of Geometry.Placement.t
exception Stopped

(* How often (in nodes) the clock and the parallel kernel's stop flag
   are polled. A power of two so the check compiles to a mask; the
   progress callbacks fire on clock time measured at these polls, not
   on node counts. *)
let poll_mask = 31

let recorded r ~elapsed =
  {
    nodes = Recorder.nodes r;
    conflicts = Recorder.conflicts r;
    leaves = Recorder.leaves r;
    max_depth = Recorder.max_depth r;
    elapsed;
    by_bounds = false;
    by_heuristic = false;
    rules = Recorder.rule_counters r;
    bounds = Recorder.bounds r;
  }

(* The stage-3 search from an already-initialized state, recording into
   the state's recorder; [depth_offset] lets a caller account for
   decisions replayed into [state] before the search started. The node
   limit applies to the recorder's count, which a parallel worker keeps
   across its descriptors; heartbeats report this search's nodes. *)
let search ~options ~t0 ~depth_offset ?share ?stop state =
  let r = Packing_state.recorder state in
  Recorder.start_search r ~depth_offset;
  let nodes0 = Recorder.nodes r in
  (* The decision path from this search's root, maintained only when a
     work-stealing [share] is attached: slot [d] holds the branch taken
     at local depth [d] along the current DFS path, so an [offer] can
     describe the alternative subtree as a compact decision prefix
     without copying any state. *)
  let dummy_decision = { dim = 0; u = 0; v = 0; overlap = false } in
  let path = ref (if share = None then [||] else Array.make 64 dummy_decision) in
  let set_path d dec =
    let n = Array.length !path in
    if d >= n then begin
      let bigger = Array.make (2 * (d + 1)) dummy_decision in
      Array.blit !path 0 bigger 0 n;
      path := bigger
    end;
    !path.(d) <- dec
  in
  (* [throttle policy ~decided ~trail ~backoff check] runs [check] when
     [policy] allows it at this node, counting consecutive misses
     ([None]) for the backoff; the very first eligible node runs. The
     adaptive schedule waits until a [decided] fraction of the (pair,
     dimension) slots is decided, until the trail has moved [trail]
     entries since the last check, and for a node cooldown that doubles
     with each consecutive miss, capped at [backoff] nodes. Its one
     caller is the node-level energetic bound. *)
  let throttle policy ~decided ~trail ~backoff =
    let last_trail = ref (min_int / 2) in
    let last_node = ref (min_int / 2) in
    let misses = ref 0 in
    fun check ->
      let ready =
        match policy with
        | Realize_always -> true
        | Realize_never -> false
        | Realize_adaptive ->
          Packing_state.decided_fraction state >= decided
          && abs (Packing_state.total_trail state - !last_trail) >= trail
          && Recorder.nodes r - !last_node >= min backoff (1 lsl min !misses 20)
      in
      if not ready then None
      else begin
        last_node := Recorder.nodes r;
        last_trail := Packing_state.total_trail state;
        let hit = check () in
        if Option.is_none hit then incr misses else misses := 0;
        hit
      end
  in
  let bounds_throttled =
    throttle options.node_bounds ~decided:0.15 ~trail:12 ~backoff:256
  in
  (* The node-level energetic bound records into the search's recorder. *)
  let engine =
    match options.node_bounds with
    | Realize_never -> None
    | _ -> Some (Bound_engine.attach r)
  in
  let finish outcome =
    Recorder.flush r;
    (outcome, recorded r ~elapsed:(Clock.since t0))
  in
  (* Heartbeats fire on a clock cadence checked at every poll tick, so
     the reporting rate is independent of node throughput. The clock is
     only read when some consumer needs it. *)
  let wants_progress =
    Option.is_some options.on_heartbeat || Recorder.enabled r
  in
  let next_progress = ref (Clock.after options.progress_interval_s) in
  let heartbeat () =
    next_progress := Clock.after options.progress_interval_s;
    Recorder.flush r;
    if
      Option.is_some options.on_heartbeat || Trace.enabled options.trace
    then begin
      let elapsed = Clock.since t0 in
      let nodes = Recorder.nodes r - nodes0 in
      let p =
        {
          Telemetry.elapsed_s = elapsed;
          nodes;
          nodes_per_s =
            (if elapsed > 0.0 then float_of_int nodes /. elapsed else 0.0);
          max_depth = Recorder.max_depth r;
          decided_fraction = Packing_state.decided_fraction state;
          trail_length = Packing_state.total_trail state;
          bracket = None;
          gap = None;
        }
      in
      (match options.on_heartbeat with Some f -> f p | None -> ());
      Trace.emit options.trace (Progress p)
    end
  in
  let check_budget () =
    let nodes = Recorder.nodes r in
    (match options.node_limit with
    | Some limit when nodes > limit -> raise Stopped
    | _ -> ());
    if nodes land poll_mask = 0 || nodes = nodes0 + 1 then begin
      (match stop with
      | Some stop when Atomic.get stop -> raise Stopped
      | _ -> ());
      (match options.deadline with
      | Some d when Clock.expired d -> raise Stopped
      | _ -> ());
      if wants_progress && Clock.expired !next_progress then heartbeat ()
    end
  in
  (* Energetic reasoning on the committed time-axis arcs of the current
     node. Any arc of the orientation holds in every completion of the
     node, so an [Infeasible] verdict refutes the whole subtree, which
     the C2 clique check cannot always cut. *)
  let refute () =
    match
      Bound_engine.energetic_at_node (Option.get engine)
        (Packing_state.instance state)
        (Packing_state.container state)
        ~sequencing:(Packing_state.time_sequencing state)
    with
    | Bound_engine.Infeasible c -> Some c
    | Bound_engine.Lower_bound _ | Bound_engine.Inconclusive -> None
  in
  (* The branch explored first at every decision: component (overlap)
     first, except when the boxes fill the container exactly. A tiling
     leaves no room for overlaps to absorb, so comparable first finds
     it sooner. *)
  let first =
    Instance.total_volume (Packing_state.instance state)
    <> Geometry.Container.volume (Packing_state.container state)
  in
  let rec dfs depth =
    Recorder.node_enter r ~depth;
    check_budget ();
    let conflicts0 = Recorder.conflicts r in
    (if Option.is_some (bounds_throttled refute) then Recorder.conflict r
     else dfs_body depth);
    Recorder.node_close r ~depth ~conflicts:(Recorder.conflicts r - conflicts0)
  and dfs_body depth =
    match Packing_state.choose_unknown state with
    | None -> (
      (* The one path to a witness: a fully decided class that passed
         C1-C3 is oriented and placed (Theorem 1), then validated. *)
      Recorder.leaf r;
      Recorder.start r;
      let hit = Reconstruct.of_state state in
      Recorder.realize r ~success:(Option.is_some hit);
      match hit with
      | Some placement -> raise (Found placement)
      | None -> Recorder.conflict r)
    | Some (dim, u, v) ->
      Recorder.decision r ~depth ~dim ~u ~v;
      let branch overlap =
        let marks = Packing_state.mark state in
        let res =
          if overlap then Packing_state.assign_component state ~dim u v
          else Packing_state.assign_comparable state ~dim u v
        in
        (match res with
        | Ok () -> dfs (depth + 1)
        | Error _ -> Recorder.conflict r);
        Packing_state.undo_to state marks
      in
      (match share with
      | None ->
        branch first;
        branch (not first)
      | Some s ->
        (* Work-stealing protocol at a branch point: before descending
           the first branch, offer the second one to the local deque (it
           is accepted only when the deque is hungry). After the first
           branch returns, try to take the offer back: a successful
           [reclaim] means nobody stole it, so the second branch runs in
           place on the live state — the execution order is then exactly
           the sequential DFS order. A failed reclaim means a thief owns
           that subtree and this node is done. *)
        let d_local = depth - depth_offset - 1 in
        let second = { dim; u; v; overlap = not first } in
        let token = s.offer ~path:!path ~len:d_local ~alt:second in
        set_path d_local { second with overlap = first };
        branch first;
        (match token with
        | None ->
          set_path d_local second;
          branch (not first)
        | Some tok ->
          if s.reclaim tok then begin
            set_path d_local second;
            branch (not first)
          end))
  in
  try
    dfs (depth_offset + 1);
    finish Infeasible
  with
  | Found placement ->
    Trace.emit options.trace
      (Incumbent { objective = Geometry.Placement.makespan placement });
    finish (Feasible placement)
  | Stopped -> finish Timeout

let solve_state ?(options = default_options) ?(depth_offset = 0) ?share ~stop
    state =
  search ~options ~t0:(Clock.now ()) ~depth_offset ?share ~stop state

(* Nodes one root check may spend refuting its time slices, all slices
   together. A serve-unique pass spends about 200 on its slices, and
   none runs out. *)
let slice_node_budget = 2_000

(* A slice is refuted by the stage-1 bounds (without the time-slice
   bound, so it does not recurse) and then the search, on a detached
   recorder: the sub-solve is the bound's time, not solver work. *)
let slice_refuter () =
  let left = ref slice_node_budget in
  fun sub chip ->
    !left > 0
    &&
    let recorder = Recorder.detached () in
    match Bound_engine.check (Bound_engine.attach recorder) sub chip with
    | Bound_engine.Infeasible _ -> true
    | Bound_engine.Lower_bound _ | Bound_engine.Inconclusive -> (
      match Packing_state.create ~recorder sub chip with
      | Error _ -> true
      | Ok state ->
        let options = { default_options with node_limit = Some !left } in
        let outcome, stats =
          search ~options ~t0:(Clock.now ()) ~depth_offset:0 state
        in
        left := !left - stats.nodes;
        outcome = Infeasible)

let root_check engine inst cont =
  match Bound_engine.check engine inst cont with
  | Bound_engine.Infeasible _ as v -> v
  | (Bound_engine.Lower_bound _ | Bound_engine.Inconclusive) as v -> (
    match Bound_engine.time_slice engine ~refute:(slice_refuter ()) inst cont with
    | Bound_engine.Infeasible _ as refuted -> refuted
    | Bound_engine.Lower_bound _ | Bound_engine.Inconclusive -> v)

let pipeline ?(options = default_options) ?schedule inst cont ~settled ~stage3
    =
  let t0 = Clock.now () in
  let trace = options.trace in
  let staged name f =
    if Trace.enabled trace then begin
      let s0 = Clock.now () in
      let r = f () in
      Trace.emit trace (Phase { phase = name; dur_s = Clock.since s0 });
      r
    end
    else f ()
  in
  (* One recorder for the whole solve: the stage-1 engine, the packing
     state and the stage-3 search all record into it, so the final stats
     carry the root bounds whatever stage settles the instance. *)
  let recorder = Recorder.create ~trace () in
  let root_verdict =
    if options.use_bounds then
      staged "stage1-bounds" (fun () ->
          root_check (Bound_engine.attach recorder) inst cont)
    else Bound_engine.Inconclusive
  in
  (* A solve settled before the search reports no rule work, even
     though a failed root propagation did run the rules. *)
  let finish outcome ~by_bounds ~by_heuristic =
    Recorder.flush recorder;
    settled outcome
      {
        (recorded recorder ~elapsed:(Clock.since t0)) with
        by_bounds;
        by_heuristic;
        rules = Telemetry.zero_rules;
      }
  in
  match root_verdict with
  | Bound_engine.Infeasible _ ->
    finish Infeasible ~by_bounds:true ~by_heuristic:false
  | Bound_engine.Lower_bound _ | Bound_engine.Inconclusive -> begin
    (* Stage 2: try to construct a packing heuristically. A fixed
       schedule disables this stage: the heuristic would pick its own
       start times, which is not the question being asked. *)
    let heuristic_hit =
      if options.use_heuristic && schedule = None && Heuristic.supports inst
      then staged "stage2-heuristic" (fun () -> Heuristic.pack inst cont)
      else None
    in
    match heuristic_hit with
    | Some placement ->
      Trace.emit trace
        (Incumbent { objective = Geometry.Placement.makespan placement });
      finish (Feasible placement) ~by_bounds:false ~by_heuristic:true
    | None -> (
      (* Stage 3 starts from the propagated root; a root that fails
         propagation settles the instance as one search conflict. *)
      match
        Packing_state.create ~rules:options.rules ?schedule ~recorder inst cont
      with
      | Error _ ->
        Recorder.start_search recorder ~depth_offset:0;
        Recorder.conflict recorder;
        finish Infeasible ~by_bounds:false ~by_heuristic:false
      | Ok state -> staged "stage3-search" (fun () -> stage3 ~t0 state))
  end

let solve ?(options = default_options) ?schedule inst cont =
  pipeline ~options ?schedule inst cont
    ~settled:(fun outcome stats -> (outcome, stats))
    ~stage3:(fun ~t0 state -> search ~options ~t0 ~depth_offset:0 state)

let outcome_name = function
  | Feasible _ -> "feasible"
  | Infeasible -> "infeasible"
  | Timeout -> "timeout"

let pp_outcome fmt o = Format.pp_print_string fmt (outcome_name o)

let pp_stats fmt s =
  Format.fprintf fmt
    "nodes=%d conflicts=%d leaves=%d depth=%d elapsed=%.3fs bounds=%b \
     heuristic=%b realizations=%d"
    s.nodes s.conflicts s.leaves s.max_depth s.elapsed s.by_bounds
    s.by_heuristic s.rules.Telemetry.realize_attempts

let stats_json s =
  Telemetry.Obj
    [
      ("nodes", Telemetry.Int s.nodes);
      ("conflicts", Telemetry.Int s.conflicts);
      ("leaves", Telemetry.Int s.leaves);
      ("max_depth", Telemetry.Int s.max_depth);
      ("elapsed_s", Telemetry.seconds s.elapsed);
      ("by_bounds", Telemetry.Bool s.by_bounds);
      ("by_heuristic", Telemetry.Bool s.by_heuristic);
      ("rules", Telemetry.rules_to_json s.rules);
      ("bounds", Telemetry.bounds_to_json s.bounds);
    ]

let stats_to_json s = Telemetry.to_string (stats_json s)
