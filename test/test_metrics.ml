(* Metrics registry tests:

   - handles re-registered under the same name+labels accumulate into
     the same cell, and writes from several domains add up to the
     exact total;
   - histogram buckets come out cumulative, monotone, ending in +Inf
     with the last bucket equal to the observation count;
   - the null registry is a true no-op surface (and snapshots empty);
   - exposition is byte-deterministic, [of_prometheus] inverts
     [to_prometheus], rejects malformed input with an error naming its
     line or family, and never raises on a mutated exposition;
   - registration validates names and rejects kind clashes. *)

module M = Packing.Metrics
module T = Packing.Telemetry

let seed = [| 0x3E7C; 2026 |]

let find_family snap name =
  match List.find_opt (fun f -> f.M.name = name) snap with
  | Some f -> f
  | None -> Alcotest.failf "no family %S in snapshot" name

let the_sample fam =
  match fam.M.samples with
  | [ s ] -> s
  | l -> Alcotest.failf "expected one sample in %s, got %d" fam.M.name
           (List.length l)

let sample_value s =
  match s.M.value with
  | M.Sample v -> v
  | M.Buckets _ -> Alcotest.fail "expected a scalar sample"

(* ------------------------------------------------------------------ *)
(* Accumulation, also from several domains                             *)
(* ------------------------------------------------------------------ *)

let test_reregistration_accumulates () =
  let m = M.create () in
  let a = M.counter m "acc_total" in
  M.add a 3;
  (* a second registration of the same series must hit the same cells *)
  let b = M.counter m ~help:"later help is ignored" "acc_total" in
  M.incr b;
  M.incr a;
  let v = sample_value (the_sample (find_family (M.snapshot m) "acc_total")) in
  Alcotest.(check (float 0.0)) "both handles feed one series" 5.0 v;
  (* distinct labels are distinct series *)
  let l1 = M.counter m ~labels:[ ("k", "x") ] "lab_total" in
  let l2 = M.counter m ~labels:[ ("k", "y") ] "lab_total" in
  M.add l1 2;
  M.incr l2;
  let fam = find_family (M.snapshot m) "lab_total" in
  Alcotest.(check int) "two label sets, two samples" 2
    (List.length fam.M.samples);
  let total =
    List.fold_left (fun acc s -> acc +. sample_value s) 0.0 fam.M.samples
  in
  Alcotest.(check (float 0.0)) "labelled totals" 3.0 total

let test_multidomain_merge () =
  let m = M.create () in
  let c = M.counter m "sharded_total" in
  let h = M.histogram m ~buckets:[| 1.0; 10.0 |] "sharded_seconds" in
  let per_domain = 10_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              M.incr c;
              M.observe h (if (i + d) mod 2 = 0 then 0.5 else 5.0)
            done))
  in
  (* the writers also include this domain *)
  for _ = 1 to per_domain do
    M.incr c
  done;
  List.iter Domain.join domains;
  let snap = M.snapshot m in
  let v = sample_value (the_sample (find_family snap "sharded_total")) in
  Alcotest.(check (float 0.0)) "joined shards merge exactly"
    (float_of_int (5 * per_domain))
    v;
  match (the_sample (find_family snap "sharded_seconds")).M.value with
  | M.Buckets { count; _ } ->
    Alcotest.(check int) "all observations counted" (4 * per_domain) count
  | M.Sample _ -> Alcotest.fail "histogram lost its buckets"

(* ------------------------------------------------------------------ *)
(* Histogram shape                                                     *)
(* ------------------------------------------------------------------ *)

let test_histogram_cumulative () =
  let m = M.create () in
  let h = M.histogram m ~buckets:[| 0.1; 1.0; 10.0 |] "hist_seconds" in
  List.iter (M.observe h) [ 0.05; 0.5; 0.5; 5.0; 50.0 ];
  match (the_sample (find_family (M.snapshot m) "hist_seconds")).M.value with
  | M.Sample _ -> Alcotest.fail "expected buckets"
  | M.Buckets { le; cumulative; sum; count } ->
    Alcotest.(check int) "+Inf bucket appended" 4 (Array.length le);
    Alcotest.(check bool) "ladder ends in +Inf" true (le.(3) = infinity);
    Alcotest.(check (array int)) "cumulative counts" [| 1; 3; 4; 5 |]
      cumulative;
    Alcotest.(check int) "count is the total" 5 count;
    Alcotest.(check (float 1e-9)) "sum of observations" 56.05 sum;
    let monotone = ref true in
    Array.iteri
      (fun i c -> if i > 0 && c < cumulative.(i - 1) then monotone := false)
      cumulative;
    Alcotest.(check bool) "cumulative is monotone" true !monotone

let arb_observations =
  QCheck.(list_of_size Gen.(0 -- 200) (float_bound_exclusive 100.0))

let prop_histogram_totals obs =
  let m = M.create () in
  let h =
    M.histogram m ~buckets:[| 0.01; 0.03; 0.09; 0.27; 0.81; 2.43 |] "prop_hist"
  in
  List.iter (M.observe h) obs;
  match (the_sample (find_family (M.snapshot m) "prop_hist")).M.value with
  | M.Sample _ -> false
  | M.Buckets { cumulative; sum; count; _ } ->
    count = List.length obs
    && cumulative.(Array.length cumulative - 1) = count
    && abs_float (sum -. List.fold_left ( +. ) 0.0 obs) < 1e-6

(* ------------------------------------------------------------------ *)
(* Null registry                                                       *)
(* ------------------------------------------------------------------ *)

let test_null_is_noop () =
  Alcotest.(check bool) "null is disabled" false (M.enabled M.null);
  let c = M.counter M.null "x_total" in
  let g = M.gauge M.null "x" in
  let h = M.histogram M.null "x_seconds" in
  M.incr c;
  M.add c 10;
  M.addf c 1.5;
  M.set g 3.0;
  M.shift g (-1.0);
  M.observe h 0.25;
  Alcotest.(check int) "null snapshot is empty" 0
    (List.length (M.snapshot M.null));
  Alcotest.(check string) "null exposition is empty" ""
    (M.to_prometheus (M.snapshot M.null))

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

let test_gauge_set_shift () =
  let m = M.create () in
  let g = M.gauge m "level" in
  M.set g 4.0;
  M.shift g 2.0;
  M.shift g (-5.0);
  let v = sample_value (the_sample (find_family (M.snapshot m) "level")) in
  Alcotest.(check (float 0.0)) "set + shifts" 1.0 v

(* ------------------------------------------------------------------ *)
(* Rendering: determinism and round trips                              *)
(* ------------------------------------------------------------------ *)

let populated () =
  let m = M.create () in
  let c = M.counter m ~help:"with \"quotes\" and back\\slash"
      ~labels:[ ("op", "solve"); ("status", "ok") ] "req_total" in
  M.add c 7;
  M.incr (M.counter m ~labels:[ ("op", "min-time"); ("status", "error") ]
            "req_total");
  M.set (M.gauge m ~help:"a gauge" "inflight") 2.0;
  let h = M.histogram m ~buckets:[| 0.001; 0.1; 1.0 |] ~help:"latency"
      ~labels:[ ("cache", "hit\nmiss") ] "lat_seconds" in
  List.iter (M.observe h) [ 0.0005; 0.05; 0.5; 5.0 ];
  M.snapshot m

let test_exposition_deterministic () =
  let s = populated () in
  Alcotest.(check string) "same snapshot renders identically"
    (M.to_prometheus s) (M.to_prometheus s)

let test_prometheus_round_trip () =
  let s = populated () in
  let text = M.to_prometheus s in
  match M.of_prometheus text with
  | Error e -> Alcotest.failf "own exposition rejected: %s" e
  | Ok s' ->
    Alcotest.(check string) "parse inverts render" text (M.to_prometheus s')

let test_of_prometheus_rejects_malformed () =
  let cases =
    [
      ( "sample without TYPE",
        "orphan_total 1\n",
        "line 1: sample orphan_total has no preceding # TYPE" );
      ( "kind clash",
        "# TYPE x counter\nx 1\n# TYPE x gauge\nx 2\n",
        "line 3: duplicate TYPE for x" );
      ( "buckets missing +Inf",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
        "h: buckets do not end in +Inf" );
      ( "non-cumulative buckets",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n\
         h_sum 1\nh_count 3\n",
        "h: bucket counts not cumulative" );
      ( "duplicate sample",
        "# TYPE x counter\nx 1\nx 2\n",
        "line 3: duplicate sample for x" );
      ( "label without '='",
        "# TYPE x counter\nx{a} 1\n",
        "line 2: label missing '='" );
      ( "NaN bucket count",
        "# TYPE h histogram\nh_bucket{le=\"1\"} NaN\n\
         h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
        "line 2: h_bucket is not a count: NaN" );
      ( "fractional bucket and _count",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 1.7\n\
         h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2.9\n",
        "line 2: h_bucket is not a count: 1.7" );
      ( "negative bucket counts and _count",
        "# TYPE h histogram\nh_bucket{le=\"1\"} -2\n\
         h_bucket{le=\"+Inf\"} -1\nh_sum 0\nh_count -1\n",
        "line 2: h_bucket is not a count: -2" );
      ( "count above 2^53",
        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1e300\nh_sum 0\n\
         h_count 0\n",
        "line 2: h_bucket is not a count: 1e+300" );
      ( "NaN le",
        "# TYPE h histogram\nh_bucket{le=\"NaN\"} 0\n\
         h_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n",
        "line 2: le is NaN" );
      ( "repeated le",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"1\"} 1\n\
         h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
        "line 3: repeated le=\"1\"" );
      ( "negative counter",
        "# TYPE x counter\nx -1\n",
        "line 2: counter x is negative" );
      ( "bad metric name",
        "# TYPE 0bad counter\n0bad 3\n",
        "line 1: bad metric name \"0bad\"" );
      ( "bad label name",
        "# TYPE x counter\nx{0a=\"1\"} 1\n",
        "line 2: bad label name \"0a\" on x" );
      ( "duplicate label keys",
        "# TYPE x counter\nx{a=\"1\",a=\"2\"} 1\n",
        "line 2: duplicate label \"a\" on x" );
    ]
  in
  List.iter
    (fun (what, text, error) ->
      match M.of_prometheus text with
      | Error e -> Alcotest.(check string) what error e
      | Ok _ -> Alcotest.failf "of_prometheus accepted %s" what)
    cases

(* Flip, delete and insert a few bytes of a populated exposition: the
   reader never raises, and whatever it accepts renders to a text it
   accepts again. *)
let arb_mutant =
  let text = M.to_prometheus (populated ()) in
  let n = String.length text in
  let edit s e =
    let len = String.length s in
    let upto i = String.sub s 0 i and from i = String.sub s i (len - i) in
    match e with
    | `Flip (i, mask) ->
      let i = i mod len in
      let c = Char.chr (Char.code s.[i] lxor mask) in
      upto i ^ String.make 1 c ^ from (i + 1)
    | `Delete i ->
      let i = i mod len in
      upto i ^ from (i + 1)
    | `Insert (i, c) ->
      let i = i mod (len + 1) in
      upto i ^ String.make 1 c ^ from i
  in
  let open QCheck.Gen in
  (* any byte, or one that means something to the reader *)
  let byte =
    oneof
      [
        char;
        oneofl [ '0'; '-'; '.'; 'e'; '"'; '{'; '}'; ','; '='; ' '; '\n'; '#' ];
      ]
  in
  let edits =
    list_size (1 -- 4)
      (oneof
         [
           map2 (fun i mask -> `Flip (i, mask)) (0 -- n) (1 -- 255);
           map (fun i -> `Delete i) (0 -- n);
           map2 (fun i c -> `Insert (i, c)) (0 -- n) byte;
         ])
  in
  QCheck.make ~print:String.escaped (map (List.fold_left edit text) edits)

let prop_reader_total text =
  match M.of_prometheus text with
  | Error _ -> true
  | Ok snap -> (
    match M.of_prometheus (M.to_prometheus snap) with
    | Ok _ -> true
    | Error e -> QCheck.Test.fail_reportf "re-rendered text rejected: %s" e)

(* ------------------------------------------------------------------ *)
(* Registration validation                                             *)
(* ------------------------------------------------------------------ *)

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s did not raise" what

let test_registration_validation () =
  let m = M.create () in
  ignore (M.counter m "fine_total");
  expect_invalid "kind clash" (fun () -> M.gauge m "fine_total");
  expect_invalid "bad metric name" (fun () -> M.counter m "0bad");
  expect_invalid "bad label name" (fun () ->
      M.counter m ~labels:[ ("0bad", "v") ] "labelled_total");
  expect_invalid "duplicate label keys" (fun () ->
      M.counter m ~labels:[ ("k", "a"); ("k", "b") ] "labelled_total");
  expect_invalid "non-increasing buckets" (fun () ->
      M.histogram m ~buckets:[| 1.0; 1.0 |] "flat_seconds");
  expect_invalid "infinite explicit bucket" (fun () ->
      M.histogram m ~buckets:[| 1.0; infinity |] "inf_seconds")

(* ------------------------------------------------------------------ *)
(* Online instrumentation: the stream writes no metric families        *)
(* ------------------------------------------------------------------ *)

(* The online placer reports through its [report] and the trace only;
   an installed registry stays empty across a whole stream. *)
let test_online_writes_no_metrics () =
  let registry = M.create () in
  M.set_default registry;
  Fun.protect ~finally:(fun () -> M.set_default M.null) @@ fun () ->
  let t ?(preds = []) ?(arrival = 0) w h duration =
    { Fpga.Online.w; h; duration; arrival; preds }
  in
  let tasks = [| t 2 2 3; t 2 2 3; t ~preds:[ 0 ] ~arrival:1 3 3 2 |] in
  let report =
    Fpga.Online.run_stream ~policy:Fpga.Online.Best_fit tasks
      ~chip:(Fpga.Chip.create ~w:4 ~h:4) ~compaction:false ~move_delay:0
  in
  Alcotest.(check int) "every task placed" 3 report.Fpga.Online.placed;
  Alcotest.(check (list string)) "no family registered" []
    (List.map (fun f -> f.M.name) (M.snapshot registry))

(* ------------------------------------------------------------------ *)
(* Solver events: metrics, trace and stats tell one story              *)
(* ------------------------------------------------------------------ *)

module Tr = Packing.Trace
module Solver = Packing.Opp_solver
module Problems = Packing.Problems

let de = Benchmarks.De.instance
let cont3 w h t = Geometry.Container.make3 ~w ~h ~t_max:t

(* Run [f] with a fresh live registry installed as the process default
   and a live trace; return both for inspection. *)
let observed f =
  let registry = M.create () in
  let trace = Tr.create () in
  M.set_default registry;
  Fun.protect ~finally:(fun () -> M.set_default M.null) (fun () -> f trace);
  (registry, trace)

let metric snap ?label name =
  match List.find_opt (fun f -> f.M.name = name) snap with
  | None -> 0
  | Some f ->
    List.fold_left
      (fun acc s ->
        match (s.M.value, label) with
        | M.Sample v, None -> acc + int_of_float v
        | M.Sample v, Some l when List.mem l s.M.labels -> acc + int_of_float v
        | _ -> acc)
      0 f.M.samples

let count_events trace p =
  List.length (List.filter (fun (_, e) -> p e.Tr.kind) (Tr.events trace))

let bound_names = Packing.Bound_engine.default_names
let rule_names = [ "c2"; "c3"; "c4"; "capacity"; "symmetry"; "implications" ]

(* Every metric family the solver core exposes equals its count of
   trace events, bound by bound and rule by rule. *)
let check_parity what (registry, trace) =
  let snap = M.snapshot registry in
  let eq label m e = Alcotest.(check int) (what ^ ": " ^ label) e m in
  eq "trace drops nothing" (Tr.dropped trace) 0;
  List.iter
    (fun b ->
      eq ("calls of " ^ b)
        (metric snap ~label:("bound", b) "fpga_bounds_calls_total")
        (count_events trace (function
          | Tr.Bound_call { bound; _ } -> bound = b
          | _ -> false));
      eq ("prunes of " ^ b)
        (metric snap ~label:("bound", b) "fpga_bounds_prunes_total")
        (count_events trace (function
          | Tr.Bound_call { bound; verdict = Tr.Bv_infeasible _; _ } -> bound = b
          | _ -> false)))
    bound_names;
  List.iter
    (fun r ->
      eq ("conflicts of " ^ r)
        (metric snap ~label:("rule", r) "fpga_solver_rule_conflicts_total")
        (count_events trace (function
          | Tr.Rule_fire { rule; _ } -> rule = r
          | _ -> false)))
    rule_names;
  let events p = count_events trace p in
  eq "nodes" (metric snap "fpga_solver_nodes_total")
    (events (function Tr.Node_enter _ -> true | _ -> false));
  eq "decisions" (metric snap "fpga_solver_decisions_total")
    (events (function Tr.Decision _ -> true | _ -> false));
  eq "realize attempts" (metric snap "fpga_solver_realize_attempts_total")
    (events (function Tr.Realize _ -> true | _ -> false));
  eq "tasks" (metric snap "fpga_parallel_tasks_total")
    (events (function Tr.Claim _ -> true | _ -> false));
  eq "steals" (metric snap "fpga_parallel_steals_total")
    (events (function Tr.Steal _ -> true | _ -> false));
  eq "donated" (metric snap "fpga_parallel_donated_total")
    (events (function Tr.Donate _ -> true | _ -> false))

let search_16 trace =
  let options =
    { Solver.default_options with use_heuristic = false; trace }
  in
  Solver.solve ~options de (cont3 16 16 14)

let min_time_17 ?on_probe ~jobs trace =
  let options = { Solver.default_options with trace } in
  Problems.minimize_time ~options ~jobs ?on_probe de ~w:17 ~h:17

let test_parity_search () =
  check_parity "16x16x14 search" (observed (fun trace -> ignore (search_16 trace)))

let test_parity_min_time jobs () =
  check_parity
    (Printf.sprintf "min-time jobs=%d" jobs)
    (observed (fun trace -> ignore (min_time_17 ~jobs trace)))

let test_parity_knapsack () =
  check_parity "knapsack 12x12x10"
    (observed (fun trace ->
         let options = { Solver.default_options with trace } in
         ignore
           (Packing.Knapsack.solve ~options de (cont3 12 12 10)
              ~value:(fun i -> 1 + (i mod 3)))))

(* A worker recorder flushes some events and holds one back; the root
   records a bound call of its own, absorbs the worker and flushes
   twice. Every event reaches the registry exactly once. *)
let test_absorb_writes_once () =
  let module R = Packing.Recorder in
  let registry, _ =
    observed (fun _ ->
        let root = R.create () and worker = R.create () in
        R.register_kernel worker ~worker:1;
        R.register_rules worker;
        let call r =
          R.start r;
          R.bound_call r (R.register_bound r "volume") (Tr.Bv_infeasible "x")
        in
        call root;
        R.claim worker ~index:0;
        for depth = 1 to 3 do
          R.node_enter worker ~depth
        done;
        R.conflict worker;
        ignore
          (R.rule_conflict worker R.C2 (Error (R.Overlap { u = 0; v = 1 })));
        call worker;
        R.flush worker;
        R.conflict worker;
        R.absorb ~into:root worker;
        R.flush root;
        R.flush root;
        Alcotest.(check (pair int int)) "root tallies" (3, 2)
          (R.nodes root, R.conflicts root))
  in
  let snap = M.snapshot registry in
  List.iter
    (fun (what, m, expected) -> Alcotest.(check int) what expected m)
    [
      ("nodes", metric snap "fpga_solver_nodes_total", 3);
      ("worker nodes", metric snap "fpga_parallel_worker_nodes_total", 3);
      ("conflicts", metric snap "fpga_solver_conflicts_total", 2);
      ("tasks", metric snap "fpga_parallel_tasks_total", 1);
      ( "c2 conflicts",
        metric snap ~label:("rule", "c2") "fpga_solver_rule_conflicts_total",
        1 );
      ("bound calls", metric snap "fpga_bounds_calls_total", 2);
      ("bound prunes", metric snap "fpga_bounds_prunes_total", 2);
    ]

(* A parallel search's merged report and the registry count the same
   nodes, leaves and conflicts, refuted replays included, and so does a
   solve whose root fails propagation (one conflict, at any [jobs]). *)
let report_is_registry what ~jobs ~use_bounds cont =
  let r = ref None in
  let registry, _ =
    observed (fun trace ->
        let options =
          { Solver.default_options with use_bounds; use_heuristic = false; trace }
        in
        r := Some (Packing.Parallel_solver.solve ~options ~jobs de cont))
  in
  let stats = (Option.get !r).Packing.Parallel_solver.stats in
  let snap = M.snapshot registry in
  List.iter
    (fun (name, m, expected) -> Alcotest.(check int) (what ^ ": " ^ name) expected m)
    [
      ("nodes", metric snap "fpga_solver_nodes_total", stats.Solver.nodes);
      ("leaves", metric snap "fpga_solver_leaves_total", stats.Solver.leaves);
      ( "conflicts",
        metric snap "fpga_solver_conflicts_total",
        stats.Solver.conflicts );
    ];
  stats

let test_parallel_report_is_registry () =
  ignore (report_is_registry "17x17x12" ~jobs:2 ~use_bounds:true (cont3 17 17 12));
  List.iter
    (fun jobs ->
      let what = Printf.sprintf "root refuted, jobs=%d" jobs in
      let stats =
        report_is_registry what ~jobs ~use_bounds:false (cont3 16 16 13)
      in
      Alcotest.(check (pair int int)) (what ^ ": nodes, conflicts") (0, 1)
        (stats.Solver.nodes, stats.Solver.conflicts))
    [ 1; 2 ]

(* The families, kinds, help strings and label sets a run leaves in the
   registry, one line per family. *)
let catalogue registry =
  List.map
    (fun f ->
      Printf.sprintf "%s %s %S %s" f.M.name
        (match f.M.kind with
        | M.Counter -> "counter"
        | M.Gauge -> "gauge"
        | M.Histogram -> "histogram")
        f.M.help
        (String.concat ";"
           (List.map
              (fun s ->
                String.concat ","
                  (List.map (fun (k, v) -> k ^ "=" ^ v) s.M.labels))
              f.M.samples)))
    (List.sort compare (M.snapshot registry))

let bound_labels = "bound=clique-space;bound=clique-time;bound=critical-path;bound=dff-time;bound=dff-volume;bound=energetic;bound=misfit;bound=time-slice;bound=volume"

let bound_catalogue =
  [
    "fpga_bounds_calls_total counter \"Bound evaluations by bound\" " ^ bound_labels;
    "fpga_bounds_prunes_total counter \"Infeasible verdicts by bound\" " ^ bound_labels;
    "fpga_bounds_seconds_total counter \"Seconds spent evaluating each bound\" " ^ bound_labels;
  ]

let test_catalogue_heuristic () =
  let registry, _ =
    observed (fun _ -> ignore (Solver.solve de (cont3 17 17 13)))
  in
  Alcotest.(check (list string)) "a heuristic solve exposes the bounds only"
    bound_catalogue (catalogue registry)

let test_catalogue_min_time () =
  let registry, _ = observed (fun trace -> ignore (min_time_17 ~jobs:2 trace)) in
  Alcotest.(check (list string)) "min-time jobs=2 catalogue"
    (bound_catalogue
    @ [
        "fpga_parallel_donated_total counter \"Alternative branches published while descending\" ";
        "fpga_parallel_reclaimed_total counter \"Donated branches taken back unstolen\" ";
        "fpga_parallel_steals_total counter \"Descriptors taken from another worker's deque\" ";
        "fpga_parallel_tasks_total counter \"Subtree descriptors executed\" ";
        "fpga_parallel_worker_nodes_total counter \"Search nodes by worker\" worker=0;worker=1";
        "fpga_solver_conflicts_total counter \"Search conflicts (refuted nodes)\" ";
        "fpga_solver_decisions_total counter \"Branch points expanded\" ";
        "fpga_solver_leaves_total counter \"Fully decided leaves reached\" ";
        "fpga_solver_nodes_total counter \"Search nodes visited\" ";
        "fpga_solver_realize_attempts_total counter \"Realization (placement reconstruction) attempts\" ";
        "fpga_solver_realize_seconds_total counter \"Seconds spent in realization attempts\" ";
        "fpga_solver_rule_conflicts_total counter \"Packing-rule conflicts by rule\" rule=c2;rule=c3;rule=c4;rule=capacity;rule=implications;rule=symmetry";
      ])
    (catalogue registry)

(* Replace every seconds field (keys ending in "_s") so the rest of a
   stats document can be compared byte for byte. *)
let rec mask = function
  | T.Obj fields ->
    T.Obj
      (List.map
         (fun (k, v) ->
           let n = String.length k in
           if n >= 2 && String.sub k (n - 2) 2 = "_s" then (k, T.String "#")
           else (k, mask v))
         fields)
  | T.List l -> T.List (List.map mask l)
  | j -> j

let masked s =
  match T.of_string s with
  | Ok j -> T.to_string (mask j)
  | Error e -> Alcotest.failf "unparseable stats: %s" e

let search_stats_bytes =
  String.concat ""
    [
      {|{"nodes":12,"conflicts":2,"leaves":1,"max_depth":11,|};
      {|"elapsed_s":"#","by_bounds":false,"by_heuristic":false,|};
      {|"rules":{"c2_calls":79,"c2_time_s":"#","c4_calls":192,|};
      {|"c4_time_s":"#","capacity_calls":113,"capacity_time_s":"#",|};
      {|"implication_calls":108,"implication_time_s":"#",|};
      {|"realize_attempts":1,"realize_time_s":"#"},|};
      {|"bounds":{"misfit":{"calls":1,"time_s":"#","prunes":0},|};
      {|"volume":{"calls":1,"time_s":"#","prunes":0},|};
      {|"critical-path":{"calls":1,"time_s":"#","prunes":0},|};
      {|"clique-time":{"calls":1,"time_s":"#","prunes":0},|};
      {|"clique-space":{"calls":1,"time_s":"#","prunes":0},|};
      {|"dff-volume":{"calls":1,"time_s":"#","prunes":0},|};
      {|"dff-time":{"calls":1,"time_s":"#","prunes":0},|};
      {|"energetic":{"calls":4,"time_s":"#","prunes":0},|};
      {|"time-slice":{"calls":1,"time_s":"#","prunes":0}}}|};
    ]

let probe_bytes =
  String.concat ""
    [
      {|[{"container":[17,17,12],"outcome":"infeasible","nodes":408,|};
      {|"elapsed_s":"#","bounds":{"misfit":{"calls":2,"time_s":"#",|};
      {|"prunes":0},"volume":{"calls":2,"time_s":"#","prunes":0},|};
      {|"critical-path":{"calls":2,"time_s":"#","prunes":0},|};
      {|"clique-time":{"calls":2,"time_s":"#","prunes":0},|};
      {|"clique-space":{"calls":1,"time_s":"#","prunes":0},|};
      {|"dff-volume":{"calls":1,"time_s":"#","prunes":0},|};
      {|"dff-time":{"calls":2,"time_s":"#","prunes":0},|};
      {|"energetic":{"calls":24,"time_s":"#","prunes":3},|};
      {|"time-slice":{"calls":1,"time_s":"#","prunes":0}}}]|};
    ]

let test_stats_bytes () =
  let _, stats = search_16 Tr.null in
  Alcotest.(check string) "16x16x14 --stats json" search_stats_bytes
    (masked (Solver.stats_to_json stats));
  let probes = ref [] in
  ignore (min_time_17 ~jobs:1 ~on_probe:(fun p -> probes := p :: !probes) Tr.null);
  Alcotest.(check string) "min-time probe records" probe_bytes
    (masked (T.to_string (T.List (List.rev_map Problems.probe_json !probes))))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "re-registration accumulates" `Quick
            test_reregistration_accumulates;
          Alcotest.test_case "multi-domain shards merge exactly" `Quick
            test_multidomain_merge;
          Alcotest.test_case "gauge set and shift" `Quick test_gauge_set_shift;
          Alcotest.test_case "null registry is a no-op" `Quick
            test_null_is_noop;
          Alcotest.test_case "registration validates" `Quick
            test_registration_validation;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "buckets cumulative, +Inf, count, sum" `Quick
            test_histogram_cumulative;
          Fixed_seed.qtest ~seed ~count:100
            "count and sum match the observations"
            arb_observations prop_histogram_totals;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "exposition is byte-deterministic" `Quick
            test_exposition_deterministic;
          Alcotest.test_case "of_prometheus inverts to_prometheus" `Quick
            test_prometheus_round_trip;
          Alcotest.test_case "of_prometheus rejects malformed input" `Quick
            test_of_prometheus_rejects_malformed;
          Fixed_seed.qtest ~seed ~count:2000
            "of_prometheus survives mutated expositions" arb_mutant
            prop_reader_total;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "online stream writes no metrics" `Quick
            test_online_writes_no_metrics;
        ] );
      ( "solver events",
        [
          Alcotest.test_case "parity: 16x16x14 search" `Quick
            test_parity_search;
          Alcotest.test_case "parity: min-time jobs=1" `Quick
            (test_parity_min_time 1);
          Alcotest.test_case "parity: min-time jobs=2" `Quick
            (test_parity_min_time 2);
          Alcotest.test_case "parity: knapsack" `Quick test_parity_knapsack;
          Alcotest.test_case "catalogue: heuristic solve" `Quick
            test_catalogue_heuristic;
          Alcotest.test_case "catalogue: min-time" `Quick
            test_catalogue_min_time;
          Alcotest.test_case "bytes: stats and probes" `Quick test_stats_bytes;
          Alcotest.test_case "absorb writes each event once" `Quick
            test_absorb_writes_once;
          Alcotest.test_case "parallel report = registry" `Quick
            test_parallel_report_is_registry;
        ] );
    ]
