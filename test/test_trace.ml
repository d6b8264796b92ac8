(* Trace subsystem tests: JSONL export parses and carries the expected
   event classes, the Chrome export is well-formed trace-event JSON and
   writes the bytes of its frozen reference copy ([Trace_reference]),
   [Trace.Summary] re-derives the solver's per-bound counters from a
   trace, the ring buffer drops oldest-first under pressure, and the
   wall-clock heartbeat fires with sane fields. *)

module Container = Geometry.Container
module Solver = Packing.Opp_solver
module Trace = Packing.Trace
module T = Packing.Telemetry

let de = Benchmarks.De.instance
let cont3 w h t = Container.make3 ~w ~h ~t_max:t

(* Stage 2 settles DE instantly, which would leave the trace without
   node events; bounds stay on so bound_call events appear. *)
let traced_options trace =
  { Solver.default_options with use_heuristic = false; trace }

let jsonl_lines trace =
  let lines = ref [] in
  Trace.iter_jsonl trace (fun l -> lines := l :: !lines);
  List.rev !lines

let solve_traced () =
  let trace = Trace.create () in
  let outcome, stats =
    Solver.solve ~options:(traced_options trace) de (cont3 16 16 14)
  in
  (match outcome with
  | Solver.Feasible _ -> ()
  | _ -> Alcotest.fail "DE at 16x16x14 must be feasible");
  (trace, stats)

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

let test_jsonl_parses_and_covers () =
  let trace, _ = solve_traced () in
  let lines = jsonl_lines trace in
  Alcotest.(check bool) "has header + events" true (List.length lines > 3);
  let names =
    List.map
      (fun line ->
        match T.of_string line with
        | Error msg -> Alcotest.failf "unparseable JSONL line %S: %s" line msg
        | Ok j -> (
          match Option.bind (T.member "ev" j) T.to_string_opt with
          | Some ev -> ev
          | None -> Alcotest.failf "line without \"ev\": %S" line))
      lines
  in
  Alcotest.(check string) "header first" "trace_start" (List.hd names);
  List.iter
    (fun required ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %s" required)
        true
        (List.mem required names))
    [ "node_enter"; "node_close"; "bound_call"; "incumbent"; "phase" ]

let test_jsonl_timestamps_monotone () =
  let trace, _ = solve_traced () in
  (* single-domain solve: one stream, so the merged order must be
     globally non-decreasing *)
  let last = ref neg_infinity in
  List.iter
    (fun (_, (e : Trace.event)) ->
      Alcotest.(check bool) "ts non-decreasing" true (e.ts >= !last);
      last := e.ts)
    (Trace.events trace)

(* Two domains emitting at once: each stream keeps its emission order
   under the timestamp sort, so its timestamps never step back. *)
let test_timestamps_per_domain () =
  let trace = Trace.create () in
  let n = 20_000 in
  let emit () =
    for objective = 0 to n - 1 do
      Trace.emit trace (Incumbent { objective })
    done
  in
  List.iter Domain.join [ Domain.spawn emit; Domain.spawn emit ];
  let by_worker = Hashtbl.create 2 in
  List.iter
    (fun (w, (e : Trace.event)) ->
      match e.kind with
      | Trace.Incumbent { objective } ->
        let next = Option.value (Hashtbl.find_opt by_worker w) ~default:0 in
        Alcotest.(check int) "stream order kept" next objective;
        Hashtbl.replace by_worker w (next + 1)
      | _ -> Alcotest.fail "unexpected event")
    (Trace.events trace);
  Alcotest.(check (list int))
    "two full streams" [ n; n ]
    (List.of_seq (Hashtbl.to_seq_values by_worker))

(* ------------------------------------------------------------------ *)
(* Chrome export                                                       *)
(* ------------------------------------------------------------------ *)

(* The bytes [write] puts on a channel. *)
let channel_bytes write =
  let path = Filename.temp_file "trace" ".json" in
  let oc = open_out_bin path in
  write oc;
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let test_chrome_well_formed () =
  let trace, _ = solve_traced () in
  match T.of_string (channel_bytes (Trace.write_chrome trace)) with
  | Error msg -> Alcotest.failf "chrome export does not parse: %s" msg
  | Ok j -> (
    match T.member "traceEvents" j with
    | Some (T.List events) ->
      Alcotest.(check bool) "has events" true (events <> []);
      List.iter
        (fun e ->
          List.iter
            (fun key ->
              if T.member key e = None then
                Alcotest.failf "chrome event missing %S: %s" key
                  (T.to_string e))
            [ "name"; "ph"; "ts"; "pid"; "tid" ];
          match Option.bind (T.member "ph" e) T.to_string_opt with
          | Some ("X" | "i" | "C" | "M") -> ()
          | Some ph -> Alcotest.failf "unexpected phase %S" ph
          | None -> Alcotest.fail "non-string ph")
        events
    | _ -> Alcotest.fail "no traceEvents array")

(* The trace's streams as [Trace_reference] reads them: per worker, in
   order of each worker's first surviving event, which is registration
   order on the traces below (a later domain starts emitting only after
   the earlier ones' first surviving events). *)
let streams trace =
  let order = ref [] and by_worker = Hashtbl.create 2 in
  List.iter
    (fun (w, e) ->
      if not (Hashtbl.mem by_worker w) then order := w :: !order;
      Hashtbl.replace by_worker w
        (e :: Option.value (Hashtbl.find_opt by_worker w) ~default:[]))
    (Trace.events trace);
  List.rev_map (fun w -> (w, List.rev (Hashtbl.find by_worker w))) !order

(* One event of every kind, with both spellings of each optional field,
   a decision below the node-span depth limit, node spans left open at
   the end, a bound whose duration reaches back past the trace start,
   and online ops with a zero and a non-zero duration. *)
let every_kind trace ~salt =
  let progress =
    {
      T.elapsed_s = 0.5;
      nodes = 100 + salt;
      nodes_per_s = 1234.56;
      max_depth = 7;
      decided_fraction = 0.123456;
      trail_length = 40;
      bracket = Some (3, 5);
      gap = Some 2;
    }
  in
  List.iter (Trace.emit trace)
    [
      Node_enter { node = salt; depth = 0 };
      Node_enter { node = salt + 1; depth = 1 };
      Decision { depth = 1; dim = 2; u = 0; v = 3 };
      Decision { depth = 17; dim = 0; u = 1; v = 2 };
      Rule_fire { rule = "c2"; detail = "clique {0,1} \"t\"\n" };
      Bound_call
        { bound = "volume"; verdict = Bv_infeasible "volume 9 > 8"; dur_s = 1e3 };
      Bound_call
        { bound = "energetic"; verdict = Bv_lower_bound 12; dur_s = 2e-6 };
      Bound_call { bound = "misfit"; verdict = Bv_inconclusive; dur_s = 0.0 };
      Realize { success = false; dur_s = 3e-6 };
      Realize { success = true; dur_s = 4e-6 };
      Incumbent { objective = 14 + salt };
      Probe
        {
          extents = [| 16; 16; 14 |];
          verdict = "feasible";
          nodes = 42;
          dur_s = 5e-4;
          budget_nodes_left = Some 7;
          budget_s_left = Some 0.25;
          bracket = Some (13, 15);
        };
      Probe
        {
          extents = [| 8; 9 |];
          verdict = "timeout";
          nodes = 0;
          dur_s = 0.0;
          budget_nodes_left = None;
          budget_s_left = None;
          bracket = None;
        };
      Node_close { depth = 1; conflicts = 2 };
      Claim { index = salt };
      Steal { victim = 1; depth = 4 };
      Donate { depth = 3 };
      Cancel { reason = "witness found" };
      Phase { phase = "bounds"; dur_s = 6e-5 };
      Progress progress;
      Progress { progress with bracket = None; gap = None };
      Online_op { op = "place"; task = 3; sim_time = 9; dur_s = 7e-6 };
      Online_op { op = "defer"; task = 4; sim_time = 9; dur_s = 0.0 };
      Node_enter { node = salt + 2; depth = 2 };
      Node_enter { node = salt + 3; depth = 18 };
    ]

(* Two domains, the first one's ring wrapped: it fills its stream with
   a search of shallow nodes among deep decisions (which the export
   leaves out) until the oldest events are overwritten, then emits every
   kind; a second domain then emits every kind too. *)
let synthetic_trace () =
  let capacity = 1 lsl 18 in
  let trace = Trace.create () in
  for i = 0 to capacity + 1_000 do
    let depth = i / 64 mod 20 in
    Trace.emit trace
      (match i mod 64 with
      | 0 -> Node_enter { node = i; depth }
      | 32 -> Node_close { depth = depth + (i / 64 mod 3) - 1; conflicts = i mod 5 }
      | _ -> Decision { depth = 17 + (i mod 4); dim = i mod 3; u = 0; v = 1 })
  done;
  every_kind trace ~salt:0;
  Domain.join (Domain.spawn (fun () -> every_kind trace ~salt:100));
  trace

let traced_online_stream () =
  let chip = Fpga.Chip.create ~w:16 ~h:16 in
  let tasks =
    Benchmarks.Generate.arrival_stream ~seed:3 ~n:200 ~chip ~load:1.0
      ~max_extent:8 ~max_duration:6 ~arc_probability:0.1 ()
  in
  let trace = Trace.create () in
  ignore
    (Fpga.Online.run_stream ~policy:Fpga.Online.Best_fit ~trace tasks ~chip
       ~compaction:true ~move_delay:1);
  trace

let test_chrome_matches_reference () =
  let synthetic = synthetic_trace () in
  let traces =
    [
      ("null", Trace.null);
      ("DE search", fst (solve_traced ()));
      ("online stream", traced_online_stream ());
      ("two domains, wrapped", synthetic);
    ]
  in
  let kinds =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, t) ->
           List.filter_map
             (fun line ->
               match T.of_string line with
               | Ok j -> Option.bind (T.member "ev" j) T.to_string_opt
               | Error msg -> Alcotest.failf "unparseable JSONL line: %s" msg)
             (List.tl (jsonl_lines t)))
         traces)
  in
  Alcotest.(check int) "all 15 kinds covered" 15 (List.length kinds);
  Alcotest.(check int) "two domains" 2 (List.length (streams synthetic));
  Alcotest.(check bool) "ring wrapped" true (Trace.dropped synthetic > 0);
  List.iter
    (fun (name, t) ->
      Alcotest.(check bool)
        (name ^ ": same bytes as the reference copy")
        true
        (channel_bytes (Trace.write_chrome t)
        = channel_bytes (Trace_reference.write_chrome (streams t))))
    traces

(* ------------------------------------------------------------------ *)
(* Summary parity with --stats                                         *)
(* ------------------------------------------------------------------ *)

let test_summary_matches_stats () =
  let trace, stats = solve_traced () in
  match Trace.Summary.of_lines (jsonl_lines trace) with
  | Error msg -> Alcotest.failf "summary failed: %s" msg
  | Ok s ->
    Alcotest.(check int) "no drops" 0 s.Trace.Summary.dropped;
    Alcotest.(check int) "all nodes traced" stats.Solver.nodes
      s.Trace.Summary.nodes;
    List.iter
      (fun (name, (c : T.bound_counter)) ->
        match List.assoc_opt name s.Trace.Summary.bounds with
        | None -> Alcotest.failf "summary lost bound %S" name
        | Some d ->
          Alcotest.(check int) (name ^ " calls") c.T.calls d.T.calls;
          Alcotest.(check int) (name ^ " prunes") c.T.prunes d.T.prunes;
          Alcotest.(check bool)
            (name ^ " time within rounding")
            true
            (Float.abs (c.T.time_s -. d.T.time_s) < 1e-4))
      stats.Solver.bounds;
    Alcotest.(check bool) "found the incumbent" true
      (List.exists (fun (_, obj) -> obj = 14) s.Trace.Summary.incumbents)

(* Online_op events aggregate into the summary's per-op table, keeping
   counts exact and durations additive, sorted by op name. *)
let test_summary_online_ops () =
  let trace = Trace.create () in
  let op op task sim_time dur_s =
    Trace.emit trace (Online_op { op; task; sim_time; dur_s })
  in
  op "place" 0 0 0.25;
  op "defer" 1 0 0.5;
  op "place" 1 3 0.75;
  op "compact" 2 4 0.125;
  match Trace.Summary.of_lines (jsonl_lines trace) with
  | Error msg -> Alcotest.failf "summary failed: %s" msg
  | Ok s ->
    let ops = s.Trace.Summary.online_ops in
    Alcotest.(check (list string)) "ops sorted by name"
      [ "compact"; "defer"; "place" ]
      (List.map fst ops);
    let look op =
      match List.assoc_opt op ops with
      | Some x -> x
      | None -> Alcotest.failf "summary lost online op %S" op
    in
    let place_n, place_s = look "place" in
    Alcotest.(check int) "two places" 2 place_n;
    Alcotest.(check (float 1e-9)) "place time is additive" 1.0 place_s;
    let defer_n, defer_s = look "defer" in
    Alcotest.(check int) "one defer" 1 defer_n;
    Alcotest.(check (float 1e-9)) "defer time" 0.5 defer_s;
    (* and the text rendering includes the table *)
    let text = Format.asprintf "%a" Trace.Summary.pp s in
    let contains needle =
      let nh = String.length text and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "pp renders the online table" true
      (contains "online ops" && contains "place")

(* A traced best-fit stream times its retirements: the [retire] ops
   carry the measured cost of freeing the footprint, not a zero. *)
let test_online_retire_timed () =
  let chip = Fpga.Chip.create ~w:16 ~h:16 in
  let tasks =
    Benchmarks.Generate.arrival_stream ~seed:3 ~n:400 ~chip ~load:1.0
      ~max_extent:5 ~max_duration:6 ~arc_probability:0.1 ()
  in
  let trace = Trace.create () in
  let r =
    Fpga.Online.run_stream ~policy:Fpga.Online.Best_fit ~trace tasks ~chip
      ~compaction:false ~move_delay:0
  in
  let retires, retire_s =
    List.fold_left
      (fun (n, s) (_, (e : Trace.event)) ->
        match e.kind with
        | Trace.Online_op { op = "retire"; dur_s; _ } -> (n + 1, s +. dur_s)
        | _ -> (n, s))
      (0, 0.0) (Trace.events trace)
  in
  Alcotest.(check int) "one retire per placed task" r.Fpga.Online.placed
    retires;
  Alcotest.(check bool) "retire time is measured" true (retire_s > 0.0)

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let test_ring_drops_oldest () =
  (* A stream holds 2^18 events. *)
  let capacity = 1 lsl 18 in
  let trace = Trace.create () in
  for objective = 1 to capacity + 100 do
    Trace.emit trace (Incumbent { objective })
  done;
  Alcotest.(check int) "drop count" 100 (Trace.dropped trace);
  let objectives =
    List.filter_map
      (fun (_, (e : Trace.event)) ->
        match e.kind with
        | Trace.Incumbent { objective } -> Some objective
        | _ -> None)
      (Trace.events trace)
  in
  Alcotest.(check (list int))
    "newest survive in order"
    (List.init capacity (fun i -> 100 + 1 + i))
    objectives

let test_null_records_nothing () =
  let t = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Trace.emit t (Node_enter { node = 1; depth = 0 });
  Trace.emit t (Incumbent { objective = 3 });
  Alcotest.(check int) "no events" 0 (List.length (Trace.events t))

(* With the trace and the registry off, the recorder's per-node and
   work-stealing events build no trace event: a search pays nothing for
   instrumentation it does not read. *)
let test_off_path_allocates_nothing () =
  let module R = Packing.Recorder in
  let r = R.detached () in
  R.register_kernel r ~worker:0;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    R.node_enter r ~depth:(i land 15);
    R.decision r ~depth:1 ~dim:0 ~u:0 ~v:1;
    R.node_close r ~depth:1 ~conflicts:0;
    R.claim r ~index:i;
    R.steal r ~victim:0 ~depth:1;
    R.donate r ~depth:1
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words;
  Alcotest.(check int) "events still tallied" 10_000 (R.nodes r)

(* ------------------------------------------------------------------ *)
(* Heartbeat                                                           *)
(* ------------------------------------------------------------------ *)

let test_heartbeat_fires () =
  (* interval 0.0 fires at every poll tick (every ~32 nodes); DE is
     settled at the root by propagation alone, so use an instance whose
     bounds-off search actually visits thousands of nodes. *)
  let snapshots = ref [] in
  let options =
    {
      Solver.default_options with
      use_heuristic = false;
      use_bounds = false;
      node_limit = Some 20_000;
      progress_interval_s = 0.0;
      on_heartbeat = Some (fun p -> snapshots := p :: !snapshots);
    }
  in
  let inst = Benchmarks.Dfg.independent ~n:8 in
  let _, stats = Solver.solve ~options inst (cont3 32 32 4) in
  Alcotest.(check bool) "visited enough nodes to poll" true
    (stats.Solver.nodes >= 64);
  match !snapshots with
  | [] -> Alcotest.fail "heartbeat never fired"
  | ps ->
    List.iter
      (fun (p : T.progress) ->
        Alcotest.(check bool) "elapsed sane" true (p.T.elapsed_s >= 0.0);
        Alcotest.(check bool) "nodes positive" true (p.T.nodes > 0);
        Alcotest.(check bool) "nodes within limit" true
          (p.T.nodes <= stats.Solver.nodes);
        Alcotest.(check bool) "decided fraction in range" true
          (p.T.decided_fraction >= 0.0 && p.T.decided_fraction <= 1.0))
      ps

let () =
  Alcotest.run "trace"
    [
      ( "jsonl",
        [
          Alcotest.test_case "lines parse and cover event classes" `Quick
            test_jsonl_parses_and_covers;
          Alcotest.test_case "timestamps non-decreasing" `Quick
            test_jsonl_timestamps_monotone;
          Alcotest.test_case "timestamps non-decreasing per domain" `Quick
            test_timestamps_per_domain;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "export is valid trace-event JSON" `Quick
            test_chrome_well_formed;
          Alcotest.test_case "export matches the reference copy" `Quick
            test_chrome_matches_reference;
        ] );
      ( "summary",
        [
          Alcotest.test_case "reproduces per-bound stats" `Quick
            test_summary_matches_stats;
          Alcotest.test_case "aggregates online ops" `Quick
            test_summary_online_ops;
          Alcotest.test_case "online retirements are timed" `Quick
            test_online_retire_timed;
        ] );
      ( "ring",
        [
          Alcotest.test_case "drops oldest first" `Quick test_ring_drops_oldest;
          Alcotest.test_case "null trace records nothing" `Quick
            test_null_records_nothing;
        ] );
      ( "off path",
        [
          Alcotest.test_case "recorder events allocate nothing" `Quick
            test_off_path_allocates_nothing;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "wall-clock heartbeat fires" `Quick
            test_heartbeat_fires;
        ] );
    ]
