(* One recorder per search, per probe engine, or per parallel worker.
   Tallies are plain mutable fields. Each tally that feeds a metric also
   keeps its value at the last flush, and [flush], when the registry is
   live, writes the difference to handles minted by the [register_*]
   call of the layer that owns the family, so a stage that never runs
   never registers its series.
   [absorb] adds one recorder's tallies and flush marks into another:
   a merged report is read off one recorder, and no event reaches the
   registry twice. *)

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

let off = Metrics.counter Metrics.null "off"

(* Tallies that reach the registry: counts [n] and seconds [s], their
   values at the last flush, and the series each difference goes to. *)
type tallies = {
  n : int array;
  n_flushed : int array;
  mutable m : Metrics.counter array;
  mutable s : float;
  mutable s_flushed : float;
  mutable m_s : Metrics.counter;
}

let tallies k =
  {
    n = Array.make k 0;
    n_flushed = Array.make k 0;
    m = Array.make k off;
    s = 0.0;
    s_flushed = 0.0;
    m_s = off;
  }

let flush_tallies c =
  Array.iteri
    (fun i n ->
      Metrics.add c.m.(i) (n - c.n_flushed.(i));
      c.n_flushed.(i) <- n)
    c.n;
  Metrics.addf c.m_s (c.s -. c.s_flushed);
  c.s_flushed <- c.s

let absorb_tallies ~into c =
  Array.iteri
    (fun i n ->
      into.n.(i) <- into.n.(i) + n;
      into.n_flushed.(i) <- into.n_flushed.(i) + c.n_flushed.(i))
    c.n;
  into.s <- into.s +. c.s;
  into.s_flushed <- into.s_flushed +. c.s_flushed

(* A bound's counts are its calls and prunes, its seconds its run time. *)
type bound = { name : string; tallies : tallies }

(* Search tallies by index, each flushed to the family at the same
   index of [search_families]; the seconds are realization time. *)
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
  mutable started : Clock.t; (* start of the running timed event *)
  rule_calls : int array; (* by [rule_index] *)
  rule_time : float array;
  rule_conflicts : tallies;
  mutable bounds : bound list; (* registration order *)
  search : tallies;
  mutable max_depth : int;
  work : tallies;
  mutable m_worker_nodes : Metrics.counter;
}

let make ~trace ~registry =
  {
    trace;
    registry;
    started = Clock.now ();
    rule_calls = Array.make 6 0;
    rule_time = Array.make 6 0.0;
    rule_conflicts = tallies 6;
    bounds = [];
    search = tallies 5;
    max_depth = 0;
    work = tallies 4;
    m_worker_nodes = off;
  }

let create ?(trace = Trace.null) () = make ~trace ~registry:(Metrics.default ())
let detached () = make ~trace:Trace.null ~registry:Metrics.null

let enabled t = Trace.enabled t.trace || Metrics.enabled t.registry

let start t = t.started <- Clock.now ()

let series t ?labels families =
  Array.map
    (fun (name, help) -> Metrics.counter t.registry ~help ?labels name)
    families

(* ------------------------------------------------------------------ *)
(* Packing rules                                                       *)
(* ------------------------------------------------------------------ *)

let register_rules t =
  t.rule_conflicts.m <-
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
      Trace.emit t.trace
        (Rule_fire { rule = rule_names.(i); detail = conflict_to_string c });
    t.rule_conflicts.n.(i) <- t.rule_conflicts.n.(i) + 1
  | Ok () -> ());
  r

let sampled t i = t.rule_calls.(i) land (sample_every - 1) = 0
let rule_start t rule = if sampled t (rule_index rule) then start t

let rule_call t rule r =
  let i = rule_index rule in
  if sampled t i then
    t.rule_time.(i) <-
      t.rule_time.(i) +. (float_of_int sample_every *. Clock.since t.started);
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
    realize_attempts = t.search.n.(realizes_i);
    realize_time_s = t.search.s;
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
    let b = { name; tallies = tallies 2 } in
    b.tallies.m <- Array.sub m 0 2;
    b.tallies.m_s <- m.(2);
    t.bounds <- t.bounds @ [ b ];
    b

let bound_call t b verdict =
  let dt = Clock.since t.started in
  let c = b.tallies in
  c.n.(0) <- c.n.(0) + 1;
  c.s <- c.s +. dt;
  (match verdict with
  | Trace.Bv_infeasible _ -> c.n.(1) <- c.n.(1) + 1
  | Trace.Bv_lower_bound _ | Trace.Bv_inconclusive -> ());
  if Trace.enabled t.trace then
    Trace.emit t.trace (Bound_call { bound = b.name; verdict; dur_s = dt })

let tally { tallies = c; _ } =
  { Telemetry.calls = c.n.(0); time_s = c.s; prunes = c.n.(1) }

let bounds t = List.map (fun b -> (b.name, tally b)) t.bounds

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let register_search t =
  t.search.m <- series t search_families;
  t.search.m_s <-
    Metrics.counter t.registry ~help:"Seconds spent in realization attempts"
      "fpga_solver_realize_seconds_total"

let start_search t ~depth_offset =
  t.max_depth <- max t.max_depth depth_offset;
  register_search t

let bump t i = t.search.n.(i) <- t.search.n.(i) + 1

let node_enter t ~depth =
  bump t nodes_i;
  if depth > t.max_depth then t.max_depth <- depth;
  if Trace.enabled t.trace then
    Trace.emit t.trace (Node_enter { node = t.search.n.(nodes_i); depth })

let node_close t ~depth ~conflicts =
  if Trace.enabled t.trace then
    Trace.emit t.trace (Node_close { depth; conflicts })

let decision t ~depth ~dim ~u ~v =
  bump t decisions_i;
  if Trace.enabled t.trace then
    Trace.emit t.trace (Decision { depth; dim; u; v })

let conflict t = bump t conflicts_i
let leaf t = bump t leaves_i

let realize t ~success =
  let dt = Clock.since t.started in
  bump t realizes_i;
  t.search.s <- t.search.s +. dt;
  if Trace.enabled t.trace then
    Trace.emit t.trace (Realize { success; dur_s = dt })

let nodes t = t.search.n.(nodes_i)
let conflicts t = t.search.n.(conflicts_i)
let leaves t = t.search.n.(leaves_i)
let max_depth t = t.max_depth

(* ------------------------------------------------------------------ *)
(* Work-stealing kernel                                                *)
(* ------------------------------------------------------------------ *)

let register_kernel t ~worker =
  register_search t;
  t.work.m <- series t kernel_families;
  t.m_worker_nodes <-
    Metrics.counter t.registry ~help:"Search nodes by worker"
      ~labels:[ ("worker", string_of_int worker) ]
      "fpga_parallel_worker_nodes_total"

let work t i = t.work.n.(i) <- t.work.n.(i) + 1

let claim t ~index =
  work t 0;
  if Trace.enabled t.trace then Trace.emit t.trace (Claim { index })

let steal t ~victim ~depth =
  work t 1;
  if Trace.enabled t.trace then Trace.emit t.trace (Steal { victim; depth })

let donate t ~depth =
  work t 2;
  if Trace.enabled t.trace then Trace.emit t.trace (Donate { depth })

let reclaim t = work t 3

let steal_counters t =
  {
    Telemetry.tasks = t.work.n.(0);
    steals = t.work.n.(1);
    donated = t.work.n.(2);
    reclaimed = t.work.n.(3);
  }

(* ------------------------------------------------------------------ *)
(* Flush and merge                                                     *)
(* ------------------------------------------------------------------ *)

let flush t =
  if Metrics.enabled t.registry then begin
    flush_tallies t.rule_conflicts;
    List.iter (fun b -> flush_tallies b.tallies) t.bounds;
    (* A worker's search nodes are its labelled node count. *)
    Metrics.add t.m_worker_nodes (nodes t - t.search.n_flushed.(nodes_i));
    flush_tallies t.search;
    flush_tallies t.work
  end

let take_bounds t =
  flush t;
  let busy =
    List.filter (fun b -> b.tallies.n.(0) > 0 || b.tallies.n.(1) > 0) t.bounds
  in
  let taken = List.map (fun b -> (b.name, tally b)) busy in
  List.iter
    (fun { tallies = c; _ } ->
      Array.fill c.n 0 2 0;
      Array.fill c.n_flushed 0 2 0;
      c.s <- 0.0;
      c.s_flushed <- 0.0)
    busy;
  taken

let absorb ~into t =
  flush t;
  Array.iteri (fun i n -> into.rule_calls.(i) <- into.rule_calls.(i) + n)
    t.rule_calls;
  Array.iteri (fun i s -> into.rule_time.(i) <- into.rule_time.(i) +. s)
    t.rule_time;
  absorb_tallies ~into:into.rule_conflicts t.rule_conflicts;
  List.iter
    (fun b ->
      absorb_tallies ~into:(register_bound into b.name).tallies b.tallies)
    t.bounds;
  absorb_tallies ~into:into.search t.search;
  into.max_depth <- max into.max_depth t.max_depth;
  absorb_tallies ~into:into.work t.work
