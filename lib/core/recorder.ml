(* One recorder per search (or per parallel worker). Tallies are plain
   mutable fields; metric handles start as no-ops and are minted by the
   [register_*] call of the layer that owns the family, so a stage that
   never runs never registers its series. *)

type rule = C2 | C3 | C4 | Capacity | Symmetry | Implications

let rule_index = function
  | C2 -> 0
  | C3 -> 1
  | C4 -> 2
  | Capacity -> 3
  | Symmetry -> 4
  | Implications -> 5

let rule_names = [| "c2"; "c3"; "c4"; "capacity"; "symmetry"; "implications" |]

type conflict =
  | Pair of { dim : int; edge : Order.Oriented_graph.conflict }
  | Overlap of { u : int; v : int }
  | Chain of { dim : int; u : int; v : int; weight : int; cap : int }
  | Cross_section of { dim : int; u : int; v : int; weight : int; cap : int }
  | Induced_c4 of { dim : int; a : int; b : int; c : int; d : int }

let conflict_to_string = function
  | Pair { dim; edge = { pair = u, v; reason } } ->
    Printf.sprintf "dim %d, pair (%d,%d): %s" dim u v reason
  | Overlap { u; v } ->
    Printf.sprintf "C3: pair (%d,%d) overlaps in every dimension" u v
  | Chain { dim; u; v; weight; cap } ->
    Printf.sprintf
      "C2: comparable chain through (%d,%d) needs %d > %d in dim %d" u v weight
      cap dim
  | Cross_section { dim; u; v; weight; cap } ->
    Printf.sprintf
      "capacity: tasks overlapping (%d,%d) in dim %d need cross-section %d > %d"
      u v dim weight cap
  | Induced_c4 { dim; a; b; c; d } ->
    Printf.sprintf "C1: induced 4-cycle on {%d,%d,%d,%d} in dim %d" a b c d dim

(* A rule call reads the clock only when its rule's call count is a
   multiple of [sample_every]; the sampled time is scaled back up. *)
let sample_every = 32

type bound = {
  name : string;
  mutable calls : int;
  mutable time_s : float;
  mutable prunes : int;
  m_calls : Metrics.counter;
  m_prunes : Metrics.counter;
  m_seconds : Metrics.counter;
}

(* Search tallies by index, each flushed to the family at the same
   index of [search_families]; realization seconds are the last one. *)
let nodes_i = 0 and decisions_i = 1 and conflicts_i = 2 and leaves_i = 3
and realizes_i = 4

let search_families =
  [|
    ("fpga_solver_nodes_total", "Search nodes visited");
    ("fpga_solver_decisions_total", "Branch points expanded");
    ("fpga_solver_conflicts_total", "Search conflicts (refuted nodes)");
    ("fpga_solver_leaves_total", "Fully decided leaves reached");
    ( "fpga_solver_realize_attempts_total",
      "Realization (placement reconstruction) attempts" );
    ( "fpga_solver_realize_seconds_total",
      "Seconds spent in realization attempts" );
  |]

(* Kernel tallies by index: tasks, steals, donated, reclaimed. *)
let kernel_families =
  [|
    ("fpga_parallel_tasks_total", "Subtree descriptors executed");
    ( "fpga_parallel_steals_total",
      "Descriptors taken from another worker's deque" );
    ( "fpga_parallel_donated_total",
      "Alternative branches published while descending" );
    ("fpga_parallel_reclaimed_total", "Donated branches taken back unstolen");
  |]

type t = {
  trace : Trace.t;
  registry : Metrics.t;
  started : float array; (* start of the running timed event *)
  rule_calls : int array; (* by [rule_index] *)
  rule_time : float array;
  mutable m_rules : Metrics.counter array;
  mutable bounds : bound list; (* registration order *)
  search : int array;
  mutable realize_s : float;
  flushed : int array; (* [search] and [realize_s] at the last flush *)
  mutable flushed_s : float;
  mutable max_depth : int;
  mutable m_search : Metrics.counter array;
  work : int array;
  mutable m_work : Metrics.counter array;
  mutable m_worker_nodes : Metrics.counter;
}

let off = Metrics.counter Metrics.null "off"

let create ?(trace = Trace.null) () =
  {
    trace;
    registry = Metrics.default ();
    started = [| 0.0 |];
    rule_calls = Array.make 6 0;
    rule_time = Array.make 6 0.0;
    m_rules = Array.make 6 off;
    bounds = [];
    search = Array.make 5 0;
    realize_s = 0.0;
    flushed = Array.make 5 0;
    flushed_s = 0.0;
    max_depth = 0;
    m_search = Array.make 6 off;
    work = Array.make 4 0;
    m_work = Array.make 4 off;
    m_worker_nodes = off;
  }

let enabled t = Trace.enabled t.trace || Metrics.enabled t.registry

(* The start time lives in a float array so that neither [start] nor
   the event that ends it boxes a float: timed rule calls are the
   hottest events of the search. *)
let start t = t.started.(0) <- Unix.gettimeofday ()
let elapsed t = Unix.gettimeofday () -. t.started.(0)

let series t ?labels families =
  Array.map
    (fun (name, help) -> Metrics.counter t.registry ~help ?labels name)
    families

(* ------------------------------------------------------------------ *)
(* Packing rules                                                       *)
(* ------------------------------------------------------------------ *)

let register_rules t =
  t.m_rules <-
    Array.map
      (fun rule ->
        Metrics.counter t.registry ~help:"Packing-rule conflicts by rule"
          ~labels:[ ("rule", rule) ] "fpga_solver_rule_conflicts_total")
      rule_names

let rule_conflict t rule r =
  (match r with
  | Error c ->
    let i = rule_index rule in
    if Trace.enabled t.trace then
      Trace.rule_fire t.trace ~rule:rule_names.(i)
        ~detail:(conflict_to_string c);
    Metrics.incr t.m_rules.(i)
  | Ok () -> ());
  r

let sampled t i = t.rule_calls.(i) land (sample_every - 1) = 0
let rule_start t rule = if sampled t (rule_index rule) then start t

let rule_call t rule r =
  let i = rule_index rule in
  if sampled t i then
    t.rule_time.(i) <-
      t.rule_time.(i) +. (float_of_int sample_every *. elapsed t);
  t.rule_calls.(i) <- t.rule_calls.(i) + 1;
  rule_conflict t rule r

let rule_counters t =
  let calls r = t.rule_calls.(rule_index r)
  and time r = t.rule_time.(rule_index r) in
  {
    Telemetry.c2_calls = calls C2;
    c2_time_s = time C2;
    c4_calls = calls C4;
    c4_time_s = time C4;
    capacity_calls = calls Capacity;
    capacity_time_s = time Capacity;
    implication_calls = calls Implications;
    implication_time_s = time Implications;
    realize_attempts = t.search.(realizes_i);
    realize_time_s = t.realize_s;
  }

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

let register_bound t name =
  match List.find_opt (fun b -> b.name = name) t.bounds with
  | Some b -> b
  | None ->
    let m =
      series t ~labels:[ ("bound", name) ]
        [|
          ("fpga_bounds_calls_total", "Bound evaluations by bound");
          ("fpga_bounds_prunes_total", "Infeasible verdicts by bound");
          ("fpga_bounds_seconds_total", "Seconds spent evaluating each bound");
        |]
    in
    let b =
      {
        name;
        calls = 0;
        time_s = 0.0;
        prunes = 0;
        m_calls = m.(0);
        m_prunes = m.(1);
        m_seconds = m.(2);
      }
    in
    t.bounds <- t.bounds @ [ b ];
    b

let bound_call t b verdict =
  let dt = elapsed t in
  b.calls <- b.calls + 1;
  b.time_s <- b.time_s +. dt;
  Metrics.incr b.m_calls;
  Metrics.addf b.m_seconds dt;
  (match verdict with
  | Trace.Bv_infeasible _ ->
    b.prunes <- b.prunes + 1;
    Metrics.incr b.m_prunes
  | Trace.Bv_lower_bound _ | Trace.Bv_inconclusive -> ());
  Trace.bound_call t.trace ~bound:b.name ~verdict ~dur_s:dt

let tally b =
  { Telemetry.calls = b.calls; time_s = b.time_s; prunes = b.prunes }

let bounds t = List.map (fun b -> (b.name, tally b)) t.bounds

let take_bounds t =
  let busy = List.filter (fun b -> b.calls > 0 || b.prunes > 0) t.bounds in
  let taken = List.map (fun b -> (b.name, tally b)) busy in
  List.iter
    (fun b ->
      b.calls <- 0;
      b.time_s <- 0.0;
      b.prunes <- 0)
    busy;
  taken

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let start_search t ~depth_offset =
  t.max_depth <- depth_offset;
  t.m_search <- series t search_families

let bump t i = t.search.(i) <- t.search.(i) + 1

let node_enter t ~depth =
  bump t nodes_i;
  if depth > t.max_depth then t.max_depth <- depth;
  Trace.node_enter t.trace ~node:t.search.(nodes_i) ~depth

let node_close t ~recorded ~depth ~conflicts =
  Trace.node_close t.trace ~recorded ~depth ~conflicts

let decision t ~recorded ~depth ~dim ~u ~v =
  bump t decisions_i;
  Trace.decision t.trace ~recorded ~depth ~dim ~u ~v

let conflict t = bump t conflicts_i
let leaf t = bump t leaves_i

let realize t ~success =
  let dt = elapsed t in
  bump t realizes_i;
  t.realize_s <- t.realize_s +. dt;
  Trace.realize t.trace ~success ~dur_s:dt

let nodes t = t.search.(nodes_i)
let conflicts t = t.search.(conflicts_i)
let leaves t = t.search.(leaves_i)
let max_depth t = t.max_depth

let flush t =
  Array.iteri
    (fun i n ->
      Metrics.add t.m_search.(i) (n - t.flushed.(i));
      t.flushed.(i) <- n)
    t.search;
  Metrics.addf t.m_search.(realizes_i + 1) (t.realize_s -. t.flushed_s);
  t.flushed_s <- t.realize_s

(* ------------------------------------------------------------------ *)
(* Work-stealing kernel                                                *)
(* ------------------------------------------------------------------ *)

let register_kernel t ~worker =
  t.m_work <- series t kernel_families;
  t.m_worker_nodes <-
    Metrics.counter t.registry ~help:"Search nodes by worker"
      ~labels:[ ("worker", string_of_int worker) ]
      "fpga_parallel_worker_nodes_total"

let work t i =
  t.work.(i) <- t.work.(i) + 1;
  Metrics.incr t.m_work.(i)

let claim t ~index =
  work t 0;
  Trace.claim t.trace ~index

let steal t ~victim ~depth =
  work t 1;
  Trace.steal t.trace ~victim ~depth

let donate t ~depth =
  work t 2;
  Trace.donate t.trace ~depth

let reclaim t = work t 3
let task_done t ~nodes = Metrics.add t.m_worker_nodes nodes

let steal_counters t =
  {
    Telemetry.tasks = t.work.(0);
    steals = t.work.(1);
    donated = t.work.(2);
    reclaimed = t.work.(3);
  }
