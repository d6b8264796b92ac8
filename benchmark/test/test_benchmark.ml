(* Self-test of the benchmark: every workload at a tiny size with all
   checks on, the traced ledger, the catalog against BENCHMARK.json,
   and doctored outputs that the checks must reject. *)

open Fpga_bench
module T = Packing.Telemetry

let value o name =
  match List.assoc_opt name o.Report.values with
  | Some v -> v
  | None -> Alcotest.failf "no value for %s" name

let tiny ?(trace = false) name =
  match Workload.find name with
  | None -> Alcotest.failf "no workload %s" name
  | Some w -> w.Workload.run ~size:Workload.Tiny ~seed:1 ~seconds:0.0 ~trace

let check_clean o =
  Alcotest.(check (list string)) "no failed checks" [] o.Report.reasons;
  Alcotest.(check bool) "correct" true (Report.correct o)

let workloads_run_clean () =
  List.iter
    (fun (w : Workload.t) ->
      let o = tiny w.Workload.name in
      check_clean o;
      let metrics = Report.resolve ~trace:false o in
      List.iter
        (fun ((m : Report.metric), v) ->
          if m.Report.name <> "setup_s" && not (v > 0.0) then
            Alcotest.failf "%s: %s reads %g" w.Workload.name m.Report.name v)
        metrics)
    Workload.all

let traced_ledgers () =
  let o = tiny ~trace:true "serve-repeat" in
  check_clean o;
  Alcotest.(check (float 0.0)) "shadow answers as the server" 0.0
    (value o "ledger.response_mismatch");
  let coverage = value o "ledger.coverage" in
  if coverage < 0.5 || coverage > 1.5 then Alcotest.failf "ledger.coverage %g" coverage;
  let o = tiny ~trace:true "online-small" in
  check_clean o;
  Alcotest.(check (float 0.0)) "replay finds the same positions" 0.0
    (value o "free_space.replay_mismatch");
  Alcotest.(check int) "every per-layer metric" (List.length Report.per_layer)
    (List.length (Report.resolve ~trace:true o))

(* Slices run inside a span while the probe is on, are left out of its
   time, and stop with the probe. *)
let probe_slices_left_out () =
  let busy () =
    let t0 = Probe.now () in
    while Probe.now () -. t0 < 0.1 do
      ()
    done
  in
  let before = Probe.slices () in
  let (), s = Probe.run (fun () -> Probe.time busy) in
  let ran = Probe.slices () - before in
  if ran < 5 then Alcotest.failf "%d slices in 0.1 s" ran;
  let wall = s.Probe.stop -. s.Probe.start in
  if not (s.Probe.net > 0.5 *. wall && s.Probe.net < wall) then
    Alcotest.failf "net %g of wall %g" s.Probe.net wall;
  let at_nominal = Probe.seconds s in
  if not (Float.is_finite at_nominal && at_nominal > 0.0) then
    Alcotest.failf "at nominal speed: %g" at_nominal;
  let stopped = Probe.slices () in
  busy ();
  Alcotest.(check int) "no slice after the run" stopped (Probe.slices ())

(* BENCHMARK.json lists the same workloads and metrics, in order. *)
let catalog_matches_benchmark_json () =
  let j =
    match T.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let str k m = Option.value (Option.bind (T.member k m) T.to_string_opt) ~default:"" in
  let entries key f =
    match T.member key j with Some (T.List l) -> List.map f l | _ -> Alcotest.failf "no %s" key
  in
  let metric m = (str "name" m, str "unit" m) in
  let ours = List.map (fun (m : Report.metric) -> (m.Report.name, m.Report.unit)) in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end_to_end" (ours Report.end_to_end) (entries "end_to_end" metric);
  Alcotest.check pair "per_layer" (ours Report.per_layer) (entries "per_layer" metric);
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all)
    (entries "workloads" (str "name"))

(* ------------------------------------------------------------------ *)
(* The checks bite                                                     *)
(* ------------------------------------------------------------------ *)

let respond req =
  let out = ref "" in
  Service.Server.handle_line (Service.Server.create ())
    (Service.Writer.of_sink (fun s -> out := s))
    req.Serve.line;
  !out

let set_field key v line =
  match T.of_string line with
  | Ok (T.Obj fields) -> T.to_string (T.Obj (List.map (fun (k, x) -> (k, if k = key then v else x)) fields))
  | _ -> Alcotest.fail "response is not an object"

let verdicts ?(expected = []) count =
  {
    Serve.checks = Report.checks ();
    expected;
    answers = Array.make count None;
    digests = Array.make count "";
    classes = Hashtbl.create 8;
  }

let overlapping_placement_rejected () =
  let task = { Fpga.Online.w = 2; h = 2; duration = 3; arrival = 0; preds = [] } in
  let report (x, y, time) =
    {
      Fpga.Online.events =
        [
          Fpga.Online.Placed { task = 0; x = 0; y = 0; time = 0 };
          Fpga.Online.Placed { task = 1; x; y; time };
        ];
      makespan = 4;
      placed = 2;
      rejected = 0;
      never_arrived = 0;
      deferrals = 0;
      compactions = 0;
      moved_tasks = 0;
      move_cycles = 0;
      utilization = 0.5;
      latency = { Fpga.Online.samples = 0; p50_us = 0.0; p99_us = 0.0; max_us = 0.0 };
      placement = None;
    }
  in
  let failed second =
    let c = Report.checks () in
    ignore (Online.check [| task; task |] (report second) c);
    c.Report.failed
  in
  Alcotest.(check int) "side by side passes" 0 (failed (2, 0, 1));
  Alcotest.(check int) "after it finished passes" 0 (failed (1, 1, 3));
  Alcotest.(check int) "overlap fails" 1 (failed (1, 1, 2))

let wrong_optimal_value_rejected () =
  let reqs = Serve.unique_requests ~seed:1 ~count:6 in
  let req, resp, a =
    match
      Array.to_list reqs
      |> List.filter_map (fun r ->
             let resp = respond r in
             match Serve.check_response r resp with
             | Ok ({ Serve.status = "optimal"; _ } as a) -> Some (r, resp, a)
             | _ -> None)
    with
    | x :: _ -> x
    | [] -> Alcotest.fail "no optimal answer among the tiny requests"
  in
  let v = Option.get a.Serve.value in
  (match Serve.check_response req (set_field "value" (T.Int (v - 1)) resp) with
  | Ok _ -> Alcotest.fail "a value below the witness's makespan passed"
  | Error _ -> ());
  (* The same witness, claimed only feasible, as a smaller budget would. *)
  let feasible = set_field "status" (T.String "feasible") resp in
  let verified ?(resp = resp) status value =
    let vs = verdicts ~expected:[ (req.Serve.id, (status, value)) ] 1 in
    Serve.verify Serve.unique vs ~pass:0 0 req resp;
    vs.Serve.checks.Report.failed
  in
  let check name failures got = Alcotest.(check int) name failures got in
  check "agrees with the file" 0 (verified "optimal" (Some v));
  check "disagrees with the file" 1 (verified "optimal" (Some (v + 1)));
  check "optimum below a known witness" 0 (verified "feasible" (Some (v + 1)));
  check "optimum above a known witness" 1 (verified "feasible" (Some (v - 1)));
  check "witness of an infeasible problem" 1 (verified "infeasible" None);
  check "witness at the known optimum" 0 (verified ~resp:feasible "optimal" (Some v));
  check "witness below the known optimum" 1 (verified ~resp:feasible "optimal" (Some (v + 1)));
  check "nothing known" 0 (verified ~resp:feasible "unknown" None)

let broken_relabeling_rejected () =
  let reqs = Serve.repeat_requests ~seed:1 ~count:50 in
  let a, b =
    let hot = List.filter (fun r -> r.Serve.cls = 0) (Array.to_list reqs) in
    match hot with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "need two relabelings"
  in
  let failed second =
    let vs = verdicts 2 in
    Serve.verify Serve.repeat vs ~pass:0 0 a (respond a);
    Serve.verify Serve.repeat vs ~pass:0 1 b second;
    vs.Serve.checks.Report.failed
  in
  Alcotest.(check int) "consistent relabelings pass" 0 (failed (respond b));
  Alcotest.(check int) "inconsistent relabeling fails" 1
    (failed (set_field "status" (T.String "feasible") (respond b)))

let () =
  Alcotest.run "benchmark"
    [
      ( "runs",
        [
          Alcotest.test_case "every workload, tiny, checks on" `Quick workloads_run_clean;
          Alcotest.test_case "traced ledgers" `Quick traced_ledgers;
          Alcotest.test_case "probe slices left out" `Quick probe_slices_left_out;
          Alcotest.test_case "catalog matches BENCHMARK.json" `Quick catalog_matches_benchmark_json;
        ] );
      ( "checks bite",
        [
          Alcotest.test_case "overlapping placement" `Quick overlapping_placement_rejected;
          Alcotest.test_case "wrong optimal value" `Quick wrong_optimal_value_rejected;
          Alcotest.test_case "broken relabeling consistency" `Quick broken_relabeling_rejected;
        ] );
    ]
