(* Trace subsystem tests: JSONL export parses and carries the expected
   event classes, the Chrome export is well-formed trace-event JSON,
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
      Trace.incumbent trace ~objective
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

let test_chrome_well_formed () =
  let trace, _ = solve_traced () in
  let path = Filename.temp_file "trace" ".json" in
  let oc = open_out path in
  Trace.write_chrome trace oc;
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match T.of_string s with
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
  Trace.online_op trace ~op:"place" ~task:0 ~sim_time:0 ~dur_s:0.25;
  Trace.online_op trace ~op:"defer" ~task:1 ~sim_time:0 ~dur_s:0.5;
  Trace.online_op trace ~op:"place" ~task:1 ~sim_time:3 ~dur_s:0.75;
  Trace.online_op trace ~op:"compact" ~task:2 ~sim_time:4 ~dur_s:0.125;
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
    Trace.incumbent trace ~objective
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
  Trace.node_enter t ~node:1 ~depth:0;
  Trace.incumbent t ~objective:3;
  Alcotest.(check int) "no events" 0 (List.length (Trace.events t))

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
      ( "heartbeat",
        [
          Alcotest.test_case "wall-clock heartbeat fires" `Quick
            test_heartbeat_fires;
        ] );
    ]
