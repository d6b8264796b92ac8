(* The metric catalog (mirrored by BENCHMARK.json, which the self-test
   compares against it), the check accumulator, and the output format. *)

type metric = { name : string; unit : string }

let m name unit = { name; unit }

(* Untraced runs report these on every workload. Serve workloads count
   requests, online workloads count tasks and whole-stream passes; see
   README.md for each metric's definition per workload. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "throughput" "1/s";
    m "latency_p50_ms" "ms";
    m "latency_p95_ms" "ms";
    m "quality" "fraction";
    m "heap_peak_mb" "MB";
  ]

let bound_names =
  [
    "misfit"; "volume"; "critical-path"; "clique-time"; "clique-space";
    "dff-volume"; "dff-time"; "energetic";
  ]

let rule_names = [ "c2"; "c3"; "c4"; "capacity"; "symmetry"; "implications" ]

(* Traced runs report these on every workload; a layer the workload
   never enters reads 0. Layer times are shares of [ledger.wall_s], so
   no time reads a constant 0. *)
let per_layer =
  [
    m "ledger.wall_s" "s";
    m "ledger.coverage" "fraction";
    m "ledger.response_mismatch" "count";
    m "server.glue_share" "fraction";
    m "telemetry.parse_share" "fraction";
    m "instance_io.parse_share" "fraction";
    m "canonical.share" "fraction";
    m "canonical.incomplete" "count";
    m "result_cache.share" "fraction";
    m "result_cache.hit_ratio" "fraction";
    m "result_cache.evictions" "count";
    m "problems.share" "fraction";
    m "problems.probes_per_miss" "probes/miss";
    m "problems.zero_node_share" "fraction";
    m "render.share" "fraction";
    m "opp_solver.nodes" "count";
    m "opp_solver.nodes_per_s" "1/s";
    m "opp_solver.budget_hits" "count";
    m "opp_solver.realize_attempts" "count";
  ]
  @ List.map (fun b -> m ("bound_engine.calls." ^ b) "count") bound_names
  @ List.map (fun b -> m ("bound_engine.prunes." ^ b) "count") bound_names
  @ List.map (fun r -> m ("packing_state.conflicts." ^ r) "count") rule_names
  @ [
      m "free_space.share" "fraction";
      m "free_space.find_share" "fraction";
      m "free_space.place_share" "fraction";
      m "free_space.remove_share" "fraction";
      m "free_space.mer_count_mean" "count";
      m "free_space.replay_mismatch" "count";
      m "online.deferrals" "count";
      m "online.makespan" "cycles";
      m "online.mean_wait" "cycles";
      m "compaction.commits" "count";
      m "compaction.moved_tasks" "count";
      m "compaction.move_cycles" "cycles";
      m "compaction.overhead" "fraction";
      m "gc.minor_mb_per_op" "MB";
      m "gc.major_collections" "count";
      m "server.retained_mb" "MB";
      m "probe.slowdown" "ratio";
    ]

(* Failed operations with the first few reasons. *)
type checks = { mutable failed : int; mutable reasons : string list }

let checks () = { failed = 0; reasons = [] }

let fail c fmt =
  Printf.ksprintf
    (fun msg ->
      c.failed <- c.failed + 1;
      if List.length c.reasons < 10 then c.reasons <- msg :: c.reasons)
    fmt

(* What one workload run produced. [values] names metrics of the
   catalog for the run's mode; [counts] goes into the run header. *)
type outcome = {
  attempted : int;
  failed : int;
  reasons : string list;
  counts : (string * int) list;
  values : (string * float) list;
}

let outcome ~attempted (c : checks) ~counts values =
  { attempted; failed = c.failed; reasons = List.rev c.reasons; counts; values }

let correct o = o.failed = 0 && o.attempted > 0

(* The catalog for the mode, each paired with its value. A per-layer
   metric the workload did not produce is a layer it never entered. *)
let resolve ~trace o =
  if trace then
    List.map
      (fun k -> (k, Option.value (List.assoc_opt k.name o.values) ~default:0.0))
      per_layer
  else
    List.map
      (fun k ->
        match List.assoc_opt k.name o.values with
        | Some v -> (k, v)
        | None -> invalid_arg ("Report.resolve: no value for " ^ k.name))
      end_to_end

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 4096 in
  Printf.bprintf b {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {|}
    correct attempted failed;
  List.iteri
    (fun i (name, unit, v) ->
      Printf.bprintf b {|%s"%s": {"value": %s, "unit": "%s"}|}
        (if i = 0 then "" else ", ")
        name (number v) unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
