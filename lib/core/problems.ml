module Container = Geometry.Container
module Placement = Geometry.Placement

type 'a optimum = {
  value : 'a;
  placement : Placement.t;
}

type 'a anytime =
  | Optimal of 'a optimum
  | Feasible_incumbent of {
      incumbent : 'a optimum;
      lower_bound : int;
      gap : int;
    }
  | Infeasible
  | Unknown of { lower_bound : int }

let status_string = function
  | Optimal _ -> "optimal"
  | Feasible_incumbent _ -> "feasible"
  | Infeasible -> "infeasible"
  | Unknown _ -> "unknown"

type probe = {
  target : Container.t;
  verdict : [ `Feasible | `Infeasible | `Timeout ];
  nodes : int;
  elapsed_s : float;
  bounds : Telemetry.bound_counters;
}

let probe_json { target; verdict; nodes; elapsed_s; bounds } =
  Telemetry.Obj
    [
      ( "container",
        Telemetry.List
          (List.init (Container.dim target) (fun d ->
               Telemetry.Int (Container.extent target d))) );
      ( "outcome",
        Telemetry.String
          (match verdict with
          | `Feasible -> "feasible"
          | `Infeasible -> "infeasible"
          | `Timeout -> "timeout") );
      ("nodes", Telemetry.Int nodes);
      ("elapsed_s", Telemetry.seconds elapsed_s);
      ("bounds", Telemetry.bounds_to_json bounds);
    ]

type feasibility =
  | Sat of Placement.t
  | Unsat
  | Undecided

(* ------------------------------------------------------------------ *)
(* The shared budget and the probe runner                              *)
(* ------------------------------------------------------------------ *)

(* One budget for the whole optimization run. [node_limit] and
   [deadline] from the caller's options are reinterpreted as global:
   every probe is handed whatever remains, and the nodes it spends are
   subtracted afterwards. [hit] latches the first exhaustion so the
   drivers stop probing instead of firing zero-budget solves. *)
type budget = {
  deadline : Clock.deadline option;
  mutable nodes_left : int option;
  mutable hit : bool;
}

type ctx = {
  options : Opp_solver.options;
  jobs : int;
  on_probe : (probe -> unit) option;
  budget : budget;
  engine : Bound_engine.t option;
      (* shared across all probes of one optimization run when the
         caller enabled stage-1 bounds; engine checks are certificates,
         not searches, so they are never charged to the budget. Each
         probe record takes the engine's work since the previous one
         (pre-checks, bracket walks, free refutations of skipped sizes)
         off its recorder, so that work reaches [--stats json]. *)
  trace : Trace.t;
  mutable bracket : (int * int) option;
      (* (proven lower bound, incumbent value) of the running monotone
         search; stamped onto probe trace events and injected into the
         heartbeat snapshots of every probe *)
}

let make_ctx ?(options = Opp_solver.default_options) ?(jobs = 1) ?on_probe () =
  {
    options;
    jobs = Parallel_solver.check_jobs jobs;
    on_probe;
    budget =
      {
        deadline = options.Opp_solver.deadline;
        nodes_left = options.Opp_solver.node_limit;
        hit = false;
      };
    engine =
      (if options.Opp_solver.use_bounds then
         Some (Bound_engine.create ~trace:options.Opp_solver.trace ())
       else None);
    trace = options.Opp_solver.trace;
    bracket = None;
  }

let exhausted b =
  b.hit
  || (match b.nodes_left with Some n -> n <= 0 | None -> false)
  ||
  match b.deadline with Some d -> Clock.expired d | None -> false

(* [engine_use ctx f] is [f] applied to the shared engine, if the run
   has one, with its recorder flushed after: the run's bound work is in
   the registry whenever an optimization returns. *)
let engine_use ctx f =
  Option.map
    (fun e ->
      let r = f e in
      Recorder.flush (Bound_engine.recorder e);
      r)
    ctx.engine

(* Run one decision probe against the remaining budget: the solver is
   {!Parallel_solver.solve}, which runs {!Opp_solver.solve} itself when
   [jobs = 1]. Charges the nodes actually spent to the budget and reports
   the probe to [on_probe]. An already-dead budget short-circuits to
   [Timeout] without solving (and without emitting a phantom probe). *)
let run_probe ?schedule ctx cont inst =
  if exhausted ctx.budget then begin
    ctx.budget.hit <- true;
    Opp_solver.Timeout
  end
  else if
    (* Skip provably-infeasible probes: an engine certificate answers
       the probe for free — no budget charge, no probe event. The engine
       ignores [schedule], which only adds constraints, so a refutation
       of the unscheduled instance refutes the scheduled one too. *)
    match engine_use ctx (fun e -> Opp_solver.root_check e inst cont) with
    | Some (Bound_engine.Infeasible _) -> true
    | Some (Bound_engine.Lower_bound _ | Bound_engine.Inconclusive) | None ->
      false
  then Opp_solver.Infeasible
  else begin
    let options =
      {
        ctx.options with
        Opp_solver.node_limit = ctx.budget.nodes_left;
        deadline = ctx.budget.deadline;
        (* The engine pre-check above just ran stage 1; don't pay for it
           again inside the probe. *)
        use_bounds = ctx.options.Opp_solver.use_bounds && ctx.engine = None;
        (* Heartbeats escaping a probe carry the optimization's current
           bracket so a live listener sees the enclosing gap, not just
           the probe-local counters. *)
        on_heartbeat =
          (match ctx.options.Opp_solver.on_heartbeat with
          | None -> None
          | Some f ->
            Some
              (fun p ->
                f
                  (match ctx.bracket with
                  | Some (lo, hi) ->
                    {
                      p with
                      Telemetry.bracket = Some (lo, hi);
                      gap = Some (hi - lo);
                    }
                  | None -> p)));
      }
    in
    let { Parallel_solver.outcome; stats; _ } =
      Parallel_solver.solve ~options ?schedule ~jobs:ctx.jobs inst cont
    in
    (* With jobs > 1 the per-worker limits make the merged node count
       exceed the hand-out; charging the merged sum keeps the global
       budget conservative (never probes past what was granted). *)
    (match ctx.budget.nodes_left with
    | Some n -> ctx.budget.nodes_left <- Some (n - stats.Opp_solver.nodes)
    | None -> ());
    if Trace.enabled ctx.trace then
      Trace.emit ctx.trace
        (Probe
           {
             extents =
               Array.init (Container.dim cont) (fun d -> Container.extent cont d);
             verdict = Opp_solver.outcome_name outcome;
             nodes = stats.Opp_solver.nodes;
             dur_s = stats.Opp_solver.elapsed;
             budget_nodes_left = ctx.budget.nodes_left;
             budget_s_left = Option.map Clock.remaining ctx.budget.deadline;
             bracket = ctx.bracket;
           });
    (match ctx.on_probe with
    | None -> ()
    | Some f ->
      (* The shared engine answers some probes for free (skip branch
         above) and seeds brackets outside any probe; fold everything it
         did since the last emitted probe into this record. *)
      let engine_delta =
        match ctx.engine with
        | None -> []
        | Some e -> Recorder.take_bounds (Bound_engine.recorder e)
      in
      f
        {
          target = cont;
          verdict =
            (match outcome with
            | Opp_solver.Feasible _ -> `Feasible
            | Opp_solver.Infeasible -> `Infeasible
            | Opp_solver.Timeout -> `Timeout);
          nodes = stats.Opp_solver.nodes;
          elapsed_s = stats.Opp_solver.elapsed;
          bounds =
            Telemetry.add_bound_counters engine_delta stats.Opp_solver.bounds;
        });
    (match outcome with
    | Opp_solver.Timeout -> ctx.budget.hit <- true
    | Opp_solver.Feasible _ | Opp_solver.Infeasible -> ());
    outcome
  end

(* ------------------------------------------------------------------ *)
(* Anytime monotone search                                             *)
(* ------------------------------------------------------------------ *)

(* Bisect below a known-feasible incumbent. Feasibility is monotone in
   the probed value; [proven] is the strongest lower bound already
   refuted-below (everything < proven is proven infeasible), [lo] the
   smallest value still worth probing. An [Infeasible] answer at [mid]
   raises the proof to [mid + 1]; a [Timeout] proves nothing, so only
   [lo] moves — the search keeps shrinking the side where the incumbent
   can still improve, and the final gap is honest.

   [tighten] reads the witness's achieved objective: a probe at [mid]
   may return a placement that is strictly better than [mid] (e.g. a
   makespan below the probed t_max), and broadcasting that tighter
   incumbent halves the remaining bracket for free. The witness is
   feasible at its own value by construction, so correctness is
   unaffected; only the probe count shrinks. *)
let bisect ?tighten ctx ~lo ~proven ~incumbent ~probe =
  let best = ref incumbent in
  let lo = ref lo in
  let proven = ref proven in
  while !lo < fst !best && not (exhausted ctx.budget) do
    ctx.bracket <- Some (!proven, fst !best);
    let mid = (!lo + fst !best - 1) / 2 in
    match probe mid with
    | Opp_solver.Feasible w ->
      let value =
        match tighten with Some f -> min mid (f w) | None -> mid
      in
      best := (value, w);
      Trace.emit ctx.trace (Incumbent { objective = value })
    | Opp_solver.Infeasible ->
      lo := mid + 1;
      proven := max !proven (mid + 1)
    | Opp_solver.Timeout -> lo := mid + 1
  done;
  ctx.bracket <- Some (!proven, fst !best);
  (!best, !proven)

let classified (value, placement) ~proven =
  if proven >= value then Optimal { value; placement }
  else
    Feasible_incumbent
      {
        incumbent = { value; placement };
        lower_bound = proven;
        gap = value - proven;
      }

(* Find a feasible upper end by doubling, tracking how much is proven
   infeasible along the way. Guard or budget exhaustion is *not* an
   infeasibility proof — only an [Unknown] with the sizes refuted so
   far. *)
let doubling_minimize ctx ~lo ~probe =
  let rec find_hi s proven guard =
    if guard = 0 || exhausted ctx.budget then Error proven
    else
      match probe s with
      | Opp_solver.Feasible w -> Ok (s, w, proven)
      | Opp_solver.Infeasible -> find_hi (2 * s) (s + 1) (guard - 1)
      | Opp_solver.Timeout -> Error proven
  in
  match find_hi lo lo 24 with
  | Error proven -> Unknown { lower_bound = proven }
  | Ok (hi, w, proven) ->
    Trace.emit ctx.trace (Incumbent { objective = hi });
    (* Everything below [proven] is already refuted, so the bisection
       bracket starts there, not back at [lo]. *)
    let best, proven = bisect ctx ~lo:proven ~proven ~incumbent:(hi, w) ~probe in
    classified best ~proven

(* ------------------------------------------------------------------ *)
(* Bounds shared by the drivers                                        *)
(* ------------------------------------------------------------------ *)

(* A task overflowing the base cross-section (every axis but [axis])
   can never be placed, whatever extent [axis] is granted. *)
let cross_misfit inst ~axis ~base =
  let d = Instance.dim inst in
  let bad = ref false in
  for i = 0 to Instance.count inst - 1 do
    for k = 0 to d - 1 do
      if k <> axis && Instance.extent inst i k > Container.extent base k then
        bad := true
    done
  done;
  !bad

(* The extent a placement actually uses along one axis — the witness's
   achieved objective, generalizing [Placement.makespan]. *)
let achieved_extent p ~axis =
  let best = ref 0 in
  for i = 0 to Placement.count p - 1 do
    let o = Placement.origin p i in
    best := max !best (o.(axis) + Geometry.Box.extent (Placement.box p i) axis)
  done;
  !best

(* No container fits [inst] in less than the longest ordered chain or
   the largest single task along [axis]. *)
let chain_floor inst ~axis =
  let best = ref (Instance.critical_path_axis inst axis) in
  for i = 0 to Instance.count inst - 1 do
    best := max !best (Instance.extent inst i axis)
  done;
  !best

(* Closed-form floor for the extent needed along [axis], strengthened by
   the engine when [axis] is the objective axis (the engine's bounds
   argue about the objective dimension only). *)
let extent_lower_bound ctx inst ~axis ~base =
  let d = Instance.dim inst in
  let cross = ref 1 in
  for k = 0 to d - 1 do
    if k <> axis then
      cross := Geometry.Box.mul_sat !cross (Container.extent base k)
  done;
  let volume_bound = ((Instance.total_volume inst - 1) / !cross) + 1 in
  let closed =
    max (chain_floor inst ~axis)
      (max volume_bound (Bound_engine.exclusion_extent inst base ~axis))
  in
  if axis <> Instance.objective_axis inst then closed
  else
    match
      engine_use ctx (fun e ->
          Bound_engine.time_lower_bound e inst
            (Container.with_extent base axis 1))
    with
    | None -> closed
    | Some lb -> max closed lb

let base_lower_bound inst ~t_max =
  let spatial = ref 1 in
  for i = 0 to Instance.count inst - 1 do
    spatial := max !spatial (max (Instance.extent inst i 0) (Instance.extent inst i 1))
  done;
  let volume = Instance.total_volume inst in
  let rec by_volume s = if s * s * t_max >= volume then s else by_volume (s + 1) in
  max !spatial (by_volume !spatial)

(* Engine-strengthened lower bounds. Gated on the run having stage-1
   bounds enabled ([ctx.engine]); ablation runs with [use_bounds =
   false] keep the closed-form values, and so does every search the
   budget accounting already covers — certificates are free. *)

(* The smallest square base the engine cannot refute at [t_max]. The
   doubling search used to start from the closed-form floor even when
   stage 1 could already refute sizes past it — its guard then burned
   probe after probe rediscovering what the bounds knew. Walking the
   floor up by certificate first means [doubling_minimize] starts from
   the engine's lower bound. *)
let ctx_base_lower_bound ctx inst ~t_max =
  let lo = base_lower_bound inst ~t_max in
  let walk e =
    let rec go s guard =
      if guard = 0 then s
      else
        match Bound_engine.check e inst (Container.make3 ~w:s ~h:s ~t_max) with
        | Bound_engine.Infeasible _ -> go (s + 1) (guard - 1)
        | Bound_engine.Lower_bound _ | Bound_engine.Inconclusive -> s
    in
    go lo 64
  in
  Option.value (engine_use ctx walk) ~default:lo

(* ------------------------------------------------------------------ *)
(* MinT&FindS, and its axis-generic superproblem MinExt&FindS          *)
(* ------------------------------------------------------------------ *)

(* [upper] is a caller-supplied feasible extent with its witness (the
   previous Pareto point): it replaces the stage-2 heuristic as the
   initial upper bracket. *)
let minimize_extent_ctx ctx ?upper inst ~axis ~base =
  let d = Instance.dim inst in
  if Container.dim base <> d then
    invalid_arg "Problems.minimize_extent: container dimension mismatch";
  if axis < 0 || axis >= d then
    invalid_arg "Problems.minimize_extent: axis out of range";
  if
    cross_misfit inst ~axis ~base
    (* An ordered chain overflowing a cross axis is infeasible whatever
       extent [axis] is granted — the proof the doubling search cannot
       reach on its own. *)
    || List.exists
         (fun k ->
           k <> axis
           && Instance.critical_path_axis inst k > Container.extent base k)
         (Instance.ordered_axes inst)
  then Infeasible
  else begin
    let lo = max 1 (extent_lower_bound ctx inst ~axis ~base) in
    let probe e = run_probe ctx (Container.with_extent base axis e) inst in
    let tighten p = achieved_extent p ~axis in
    let incumbent =
      match upper with
      | Some { value; placement } ->
        (* The caller's witness is feasible at [value] on this base, and
           [lo] is a valid lower bound, so [value >= lo]; the max is
           only defensive. *)
        Some (max lo value, placement)
      | None ->
        if axis = Instance.objective_axis inst && Heuristic.supports inst
        then
          Option.map
            (fun (hi, p) -> (max lo hi, p))
            (Heuristic.makespan ~target:lo ?deadline:ctx.budget.deadline inst
               ~base)
        else None
    in
    match incumbent with
    | Some incumbent ->
      let best, proven =
        bisect ~tighten ctx ~lo ~proven:lo ~incumbent ~probe
      in
      classified best ~proven
    | None ->
      if axis = Instance.objective_axis inst && Heuristic.supports inst then
        (* The serial scheduler always places a spatially fitting task
           set given unbounded time, so a miss means spatial misfit. *)
        Infeasible
      else
        (* No constructive upper end for this axis/dimension: find one
           by doubling, then bisect. *)
        doubling_minimize ctx ~lo ~probe
  end

let minimize_extent ?options ?jobs ?on_probe inst ~axis ~base =
  minimize_extent_ctx (make_ctx ?options ?jobs ?on_probe ()) inst ~axis ~base

let minimize_time_ctx ctx ?upper inst ~w ~h =
  if Instance.dim inst <> 3 then
    invalid_arg "Problems.minimize_time: expects 3-dimensional instances";
  minimize_extent_ctx ctx ?upper inst
    ~axis:(Instance.objective_axis inst)
    ~base:(Container.make3 ~w ~h ~t_max:1)

let minimize_time ?options ?jobs ?on_probe inst ~w ~h =
  minimize_time_ctx (make_ctx ?options ?jobs ?on_probe ()) inst ~w ~h

(* ------------------------------------------------------------------ *)
(* MinA&FindS                                                          *)
(* ------------------------------------------------------------------ *)

(* Any feasible packing can be serialized on the same chip in at most
   the total duration, so a longer time budget cannot change which
   chips are feasible. Clamping it keeps every container the base
   drivers form (and the bounds' scaled volumes) far from overflow. *)
let serial_horizon inst ~t_max =
  min t_max (max 1 (Instance.total_duration inst))

let minimize_base_ctx ctx inst ~t_max =
  if Instance.dim inst <> 3 then
    invalid_arg "Problems.minimize_base: expects 3-dimensional instances";
  if Instance.critical_path inst > t_max then Infeasible
  else begin
    let t_max = serial_horizon inst ~t_max in
    let lo = ctx_base_lower_bound ctx inst ~t_max in
    let probe s = run_probe ctx (Container.make3 ~w:s ~h:s ~t_max) inst in
    doubling_minimize ctx ~lo ~probe
  end

let minimize_base ?options ?jobs ?on_probe inst ~t_max =
  minimize_base_ctx (make_ctx ?options ?jobs ?on_probe ()) inst ~t_max

(* ------------------------------------------------------------------ *)
(* Rectangular chips                                                   *)
(* ------------------------------------------------------------------ *)

let minimize_area_rect ?options inst ~t_max =
  if Instance.dim inst <> 3 then
    invalid_arg "Problems.minimize_area_rect: expects 3-dimensional instances";
  if Instance.critical_path inst > t_max then Infeasible
  else begin
    let t_max = serial_horizon inst ~t_max in
    let ctx = make_ctx ?options () in
    let n = Instance.count inst in
    let max_w = ref 1 and max_h = ref 1 in
    for i = 0 to n - 1 do
      max_w := max !max_w (Instance.extent inst i 0);
      max_h := max !max_h (Instance.extent inst i 1)
    done;
    let volume = Instance.total_volume inst in
    let area_lb = max (!max_w * !max_h) ((volume + t_max - 1) / t_max) in
    (* Seed the incumbent with the square optimum; the square search
       shares this run's budget. A feasible w x h chip embeds in the
       max(w,h) square, so when no square works no rectangle does
       either. *)
    match minimize_base_ctx ctx inst ~t_max with
    | Infeasible -> Infeasible
    | Unknown _ -> Unknown { lower_bound = area_lb }
    | (Optimal seed | Feasible_incumbent { incumbent = seed; _ }) as square ->
      let exact = ref (match square with Optimal _ -> true | _ -> false) in
      let s = seed.value in
      let best = ref ((s, s), seed.placement) in
      let best_area = ref (s * s) in
      let h_floor w = max !max_h ((volume + (w * t_max) - 1) / (w * t_max)) in
      let w = ref !max_w in
      let continue_ = ref true in
      while !continue_ do
        if exhausted ctx.budget then begin
          (* The sweep died mid-way: widths past [w] are unexplored. *)
          exact := false;
          continue_ := false
        end
        else begin
          let w0 = !w in
          if w0 * h_floor w0 >= !best_area then begin
            (* Wider chips only raise the area floor further once the
               width alone exceeds the incumbent. *)
            if w0 * !max_h >= !best_area then continue_ := false else incr w
          end
          else begin
            let probe h = run_probe ctx (Container.make3 ~w:w0 ~h ~t_max) inst in
            (* The bisection needs a feasible upper end below the
               incumbent area; cap h so the area can still improve.
               Feasibility is monotone in h, so probing the cap decides
               whether this width can improve at all. *)
            let h_cap = (!best_area - 1) / w0 in
            let lo = h_floor w0 in
            if lo <= h_cap then begin
              match probe h_cap with
              | Opp_solver.Infeasible -> ()
              | Opp_solver.Timeout -> exact := false
              | Opp_solver.Feasible wit ->
                let (bh, bw), proven =
                  bisect ctx ~lo ~proven:lo ~incumbent:(h_cap, wit) ~probe
                in
                if proven < bh then exact := false;
                if w0 * bh < !best_area then begin
                  best := ((w0, bh), bw);
                  best_area := w0 * bh
                end
            end;
            incr w
          end
        end
      done;
      let value, placement = !best in
      if !exact then Optimal { value; placement }
      else
        Feasible_incumbent
          {
            incumbent = { value; placement };
            lower_bound = area_lb;
            gap = !best_area - area_lb;
          }
  end

(* ------------------------------------------------------------------ *)
(* Fixed schedules                                                     *)
(* ------------------------------------------------------------------ *)

let schedule_valid inst ~t_max ~schedule ~who =
  let n = Instance.count inst in
  if Array.length schedule <> n then
    invalid_arg (who ^ ": schedule arity");
  Array.for_all Fun.id
    (Array.init n (fun i ->
         schedule.(i) >= 0 && schedule.(i) + Instance.duration inst i <= t_max))
  && Order.Partial_order.respects (Instance.precedence inst) schedule
       ~duration:(Instance.duration inst)

(* Substitute the requested start times into the solver's witness: it
   has the same time-overlap structure, so spatial disjointness carries
   over; re-validate to be safe. *)
let substitute_schedule inst ~w ~h ~t_max ~schedule p =
  let n = Instance.count inst in
  let origins =
    Array.init n (fun i ->
        let o = Placement.origin p i in
        [| o.(0); o.(1); schedule.(i) |])
  in
  let q = Placement.make (Instance.boxes inst) origins in
  let container = Container.make3 ~w ~h ~t_max in
  if Placement.is_feasible q ~container ~precedes:(Instance.precedes inst) then
    Some q
  else None

let feasible_fixed_schedule inst ~w ~h ~t_max ~schedule =
  if Instance.dim inst <> 3 then
    invalid_arg "Problems.feasible_fixed_schedule: expects 3-dimensional instances";
  if
    not
      (schedule_valid inst ~t_max ~schedule
         ~who:"Problems.feasible_fixed_schedule")
  then None
  else
    match
      run_probe ~schedule (make_ctx ()) (Container.make3 ~w ~h ~t_max) inst
    with
    | Opp_solver.Feasible p -> substitute_schedule inst ~w ~h ~t_max ~schedule p
    | Opp_solver.Infeasible -> None
    | Opp_solver.Timeout ->
      (* Unreachable: the probe has no node limit and no deadline. *)
      failwith "Problems.feasible_fixed_schedule: an unbudgeted probe timed out"

let minimize_base_fixed_schedule ?options inst ~t_max ~schedule =
  if Instance.dim inst <> 3 then
    invalid_arg
      "Problems.minimize_base_fixed_schedule: expects 3-dimensional instances";
  if
    not
      (schedule_valid inst ~t_max ~schedule
         ~who:"Problems.minimize_base_fixed_schedule")
  then Infeasible
  else begin
    let ctx = make_ctx ?options () in
    let probe s =
      match run_probe ~schedule ctx (Container.make3 ~w:s ~h:s ~t_max) inst with
      | Opp_solver.Feasible p -> (
        match substitute_schedule inst ~w:s ~h:s ~t_max ~schedule p with
        | Some q -> Opp_solver.Feasible q
        | None -> Opp_solver.Infeasible)
      | (Opp_solver.Infeasible | Opp_solver.Timeout) as r -> r
    in
    (* The engine ignores the schedule, which only adds constraints, so
       its refutations stay valid here. *)
    doubling_minimize ctx ~lo:(ctx_base_lower_bound ctx inst ~t_max) ~probe
  end

(* ------------------------------------------------------------------ *)
(* The Pareto front (Fig. 7)                                           *)
(* ------------------------------------------------------------------ *)

type front = {
  points : (int * int) list;
  complete : bool;
}

(* The front sweep: step [s] runs from [lo] to [hi], and [minimize s
   upper] minimizes the [axis] extent for that step's container. The
   best (extent, witness) so far warm-starts the next step's bisection
   as its upper bracket — feasibility is monotone in the swept extent,
   so it stays feasible on the larger container, the heuristic never
   needs rerunning and no step ever probes extents that cannot improve
   the front. *)
let sweep_front ctx inst ~axis ~lo ~hi minimize =
  (* Reaching the chain floor closes the front: no step can beat it. *)
  let floor_t = chain_floor inst ~axis in
  let points = ref [] in
  let incumbent = ref None in
  let complete = ref true in
  let s = ref lo in
  let continue_ = ref true in
  while !continue_ && !s <= hi do
    let best_t = match !incumbent with Some (t, _) -> t | None -> max_int in
    if best_t <= floor_t then continue_ := false
    else if exhausted ctx.budget then begin
      complete := false;
      continue_ := false
    end
    else begin
      let upper =
        Option.map (fun (t, p) -> { value = t; placement = p }) !incumbent
      in
      let record t placement =
        if t < best_t then begin
          points := (!s, t) :: !points;
          incumbent := Some (t, placement)
        end
      in
      (match minimize !s upper with
      | Infeasible -> ()
      | Unknown _ -> complete := false
      | Optimal { value = t; placement } -> record t placement
      | Feasible_incumbent { incumbent = { value = t; placement }; _ } ->
        (* An unproven point may sit above the true front. *)
        complete := false;
        record t placement);
      incr s
    end
  done;
  { points = List.rev !points; complete = !complete }

let pareto_front ?options ?jobs ?on_probe inst ~h_min ~h_max =
  if h_min > h_max then invalid_arg "Problems.pareto_front: empty range";
  let ctx = make_ctx ?options ?jobs ?on_probe () in
  sweep_front ctx inst ~axis:(Instance.objective_axis inst) ~lo:h_min
    ~hi:h_max (fun s upper -> minimize_time_ctx ctx ?upper inst ~w:s ~h:s)

let pareto_front_axes ?options ?jobs ?on_probe inst ~sweep ~minimize ~lo ~hi
    ~base =
  let d = Instance.dim inst in
  if Container.dim base <> d then
    invalid_arg "Problems.pareto_front_axes: container dimension mismatch";
  if sweep < 0 || sweep >= d || minimize < 0 || minimize >= d then
    invalid_arg "Problems.pareto_front_axes: axis out of range";
  if sweep = minimize then
    invalid_arg "Problems.pareto_front_axes: sweep and minimize coincide";
  if lo > hi then invalid_arg "Problems.pareto_front_axes: empty range";
  let ctx = make_ctx ?options ?jobs ?on_probe () in
  sweep_front ctx inst ~axis:minimize ~lo ~hi (fun s upper ->
      minimize_extent_ctx ctx ?upper inst ~axis:minimize
        ~base:(Container.with_extent base sweep s))
