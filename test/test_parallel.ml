(* Tests for the domain-parallel solver: the work-stealing deque,
   determinism across job counts, the jobs=1 short-circuit,
   deadline/cancellation behaviour, steal telemetry, and the
   budget-aware [Opp_solver.feasible] result. *)

module Box = Geometry.Box
module Container = Geometry.Container
module Placement = Geometry.Placement
module Instance = Packing.Instance
module Solver = Packing.Opp_solver
module Par = Packing.Parallel_solver

let box3 w h d = Box.make3 ~w ~h ~duration:d

let inst ?precedence boxes =
  Instance.make ?precedence ~boxes:(Array.of_list boxes) ()

let cont3 w h t = Container.make3 ~w ~h ~t_max:t

let search_only =
  { Solver.default_options with use_bounds = false; use_heuristic = false }

(* The seed-suite fixtures of test_packing.ml, as (name, instance,
   container) triples covering feasible, infeasible and
   precedence-bound cases, plus generated ones. *)
let fixtures () =
  [
    ("single box", inst [ box3 2 2 2 ], cont3 2 2 2);
    ("side by side", inst [ box3 2 2 2; box3 2 2 2 ], cont3 4 2 2);
    ("too narrow", inst [ box3 2 2 2; box3 2 2 2 ], cont3 3 2 2);
    ( "chain needs 4",
      inst ~precedence:[ (0, 1) ] [ box3 2 2 2; box3 2 2 2 ],
      cont3 4 4 3 );
    ( "chain fits 4",
      inst ~precedence:[ (0, 1) ] [ box3 2 2 2; box3 2 2 2 ],
      cont3 4 4 4 );
    ( "exact tiling",
      inst [ box3 2 2 2; box3 2 2 2; box3 2 2 2; box3 2 2 2 ],
      cont3 4 4 2 );
    ( "tiling plus one",
      inst [ box3 2 2 2; box3 2 2 2; box3 2 2 2; box3 2 2 2; box3 1 1 1 ],
      cont3 4 4 2 );
  ]
  @ List.map
      (fun seed ->
        ( Printf.sprintf "random seed %d" seed,
          Benchmarks.Generate.random ~seed ~n:5 ~max_extent:3 ~max_duration:3
            ~arc_probability:0.3 (),
          cont3 5 5 5 ))
      [ 1; 2; 3; 4 ]
  @ List.map
      (fun seed ->
        let container = cont3 6 6 6 in
        let i, _ =
          Benchmarks.Generate.guillotine ~seed ~container ~cuts:4
            ~arc_probability:0.3 ()
        in
        (Printf.sprintf "guillotine seed %d" seed, i, container))
      [ 1; 2; 3 ]

let verdict = function
  | Solver.Feasible _ -> `Feasible
  | Solver.Infeasible -> `Infeasible
  | Solver.Timeout -> `Timeout

let pp_verdict = function
  | `Feasible -> "feasible"
  | `Infeasible -> "infeasible"
  | `Timeout -> "timeout"

let check_witness name i c = function
  | Solver.Feasible p ->
    Alcotest.(check bool)
      (name ^ ": witness valid") true
      (Placement.is_feasible p ~container:c ~precedes:(Instance.precedes i))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The work-stealing deque                                             *)
(* ------------------------------------------------------------------ *)

(* Single-domain semantics against a list model: push/pop/pop_if act
   on the newest end, steal on the oldest, size is exact when no
   concurrent operation is in flight. Run through qcheck so the op
   sequences cover growth boundaries and interleavings a hand-written
   scenario would miss. *)
let deque_ops_arb =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 0 200)
        (oneofl [ `Push; `Pop; `Steal; `Pop_if_hit; `Pop_if_miss ]))
    ~print:(fun ops ->
      String.concat ""
        (List.map
           (function
             | `Push -> "u"
             | `Pop -> "o"
             | `Steal -> "s"
             | `Pop_if_hit -> "h"
             | `Pop_if_miss -> "m")
           ops))

let prop_deque_matches_model ops =
  let q : int Par.Deque.t = Par.Deque.create () in
  let model = ref [] (* newest first *) in
  let counter = ref 0 in
  List.for_all
    (fun op ->
      match op with
      | `Push ->
        let x = !counter in
        incr counter;
        Par.Deque.push q x;
        model := x :: !model;
        true
      | `Pop -> (
        match !model with
        | [] -> Par.Deque.pop q = None
        | x :: tl ->
          model := tl;
          Par.Deque.pop q = Some x)
      | `Steal -> (
        match List.rev !model with
        | [] -> Par.Deque.steal q = None
        | x :: tl ->
          model := List.rev tl;
          Par.Deque.steal q = Some x)
      | `Pop_if_hit -> (
        (* Reclaim-by-identity: matches only the newest element. *)
        match !model with
        | [] -> Par.Deque.pop_if q (fun _ -> true) = None
        | x :: tl ->
          if Par.Deque.pop_if q (fun y -> y = x) = Some x then (
            model := tl;
            true)
          else false)
      | `Pop_if_miss -> Par.Deque.pop_if q (fun _ -> false) = None)
    ops
  && Par.Deque.size q = List.length !model

(* Concurrent stress under 4 domains (1 owner + 3 thieves): every
   pushed descriptor is removed exactly once, by whoever got it first —
   no losses, no duplicates. The owner interleaves pops and identity
   reclaims with its pushes the way a search worker does. *)
let test_deque_stress () =
  let n = 20_000 in
  let q : int Par.Deque.t = Par.Deque.create () in
  let finished = Atomic.make false in
  let thief () =
    Domain.spawn (fun () ->
        let acc = ref [] in
        let rec sweep () =
          match Par.Deque.steal q with
          | Some x ->
            acc := x :: !acc;
            sweep ()
          | None ->
            if not (Atomic.get finished) then (
              Domain.cpu_relax ();
              sweep ())
        in
        sweep ();
        !acc)
  in
  let thieves = List.init 3 (fun _ -> thief ()) in
  let kept = ref [] in
  for i = 0 to n - 1 do
    Par.Deque.push q i;
    if i land 7 = 0 then
      match Par.Deque.pop q with
      | Some x -> kept := x :: !kept
      | None -> ()
  done;
  let rec drain () =
    match Par.Deque.pop_if q (fun _ -> true) with
    | Some x ->
      kept := x :: !kept;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set finished true;
  let stolen = List.concat_map Domain.join thieves in
  let all = !kept @ stolen in
  Alcotest.(check int) "no lost or duplicated descriptors" n (List.length all);
  Alcotest.(check int)
    "all values distinct" n
    (List.length (List.sort_uniq compare all));
  Alcotest.(check int) "deque drained" 0 (Par.Deque.size q);
  (* The owner pops newest-first, thieves steal oldest-first, so the
     stolen set never contains a value the owner pushed after its last
     steal returned — a weak FIFO/LIFO sanity check that catches
     end-swapped implementations. *)
  Alcotest.(check bool) "someone stole or owner kept all" true
    (List.length stolen >= 0)

(* ------------------------------------------------------------------ *)
(* Determinism across job counts                                       *)
(* ------------------------------------------------------------------ *)

let test_jobs_deterministic () =
  List.iter
    (fun (name, i, c) ->
      let seq, _ = Solver.solve ~options:search_only i c in
      List.iter
        (fun jobs ->
          let r = Par.solve ~options:search_only ~jobs i c in
          check_witness name i c r.Par.outcome;
          Alcotest.(check string)
            (Printf.sprintf "%s: jobs %d = sequential" name jobs)
            (pp_verdict (verdict seq))
            (pp_verdict (verdict r.Par.outcome)))
        [ 1; 2; 8 ])
    (fixtures ())

(* Full pipeline (bounds + heuristic prestage) agrees too. *)
let test_pipeline_deterministic () =
  List.iter
    (fun (name, i, c) ->
      let seq, _ = Solver.solve i c in
      let r = Par.solve ~jobs:4 i c in
      Alcotest.(check string)
        (name ^ ": full pipeline")
        (pp_verdict (verdict seq))
        (pp_verdict (verdict r.Par.outcome)))
    (fixtures ())

(* Stages 1 and 2 are the sequential solver's for every job count: an
   instance they settle must report the same outcome, stage flags,
   conflicts and bound counters under jobs=2, and its trace must carry
   the same stage phases and, on a heuristic hit, the incumbent. *)
let test_prestage_parity () =
  let counts bounds =
    List.map
      (fun (name, (b : Packing.Telemetry.bound_counter)) ->
        (name, b.calls, b.prunes))
      bounds
  in
  let traced () =
    let trace = Packing.Trace.create () in
    (trace, { Solver.default_options with trace })
  in
  let has trace p =
    List.exists (fun (_, e) -> p e.Packing.Trace.kind) (Packing.Trace.events trace)
  in
  let settled =
    List.filter_map
      (fun (name, i, c) ->
        let seq_trace, options = traced () in
        let seq_o, seq_s = Solver.solve ~options i c in
        if not (seq_s.Solver.by_bounds || seq_s.Solver.by_heuristic) then None
        else begin
          let par_trace, options = traced () in
          let r = Par.solve ~options ~jobs:2 i c in
          let s = r.Par.stats in
          Alcotest.(check string)
            (name ^ ": outcome")
            (pp_verdict (verdict seq_o))
            (pp_verdict (verdict r.Par.outcome));
          Alcotest.(check bool)
            (name ^ ": by_bounds") seq_s.Solver.by_bounds s.Solver.by_bounds;
          Alcotest.(check bool)
            (name ^ ": by_heuristic")
            seq_s.Solver.by_heuristic s.Solver.by_heuristic;
          Alcotest.(check int)
            (name ^ ": conflicts") seq_s.Solver.conflicts s.Solver.conflicts;
          Alcotest.(check (list (triple string int int)))
            (name ^ ": bound counters")
            (counts seq_s.Solver.bounds) (counts s.Solver.bounds);
          List.iter
            (fun trace ->
              Alcotest.(check bool)
                (name ^ ": stage1-bounds phase")
                true
                (has trace (function
                  | Packing.Trace.Phase { phase = "stage1-bounds"; _ } -> true
                  | _ -> false));
              Alcotest.(check bool)
                (name ^ ": incumbent on a heuristic hit")
                seq_s.Solver.by_heuristic
                (has trace (function
                  | Packing.Trace.Incumbent _ -> true
                  | _ -> false)))
            [ seq_trace; par_trace ];
          Some seq_s.Solver.by_bounds
        end)
      (fixtures ())
  in
  Alcotest.(check bool) "some settled by stage 1" true (List.mem true settled);
  Alcotest.(check bool) "some settled by stage 2" true (List.mem false settled)

(* jobs=1 must not merely agree — it short-circuits to the sequential
   solver on the calling domain, so the deterministic counters are
   byte-identical to a fresh [Opp_solver.solve] and no descriptor
   machinery runs at all. *)
let test_jobs1_short_circuit () =
  List.iter
    (fun (name, i, c) ->
      let seq_o, seq_s = Solver.solve ~options:search_only i c in
      let r = Par.solve ~options:search_only ~jobs:1 i c in
      Alcotest.(check string)
        (name ^ ": verdict")
        (pp_verdict (verdict seq_o))
        (pp_verdict (verdict r.Par.outcome));
      Alcotest.(check int) (name ^ ": nodes") seq_s.Solver.nodes
        r.Par.stats.Solver.nodes;
      Alcotest.(check int)
        (name ^ ": conflicts")
        seq_s.Solver.conflicts r.Par.stats.Solver.conflicts;
      Alcotest.(check int) (name ^ ": leaves") seq_s.Solver.leaves
        r.Par.stats.Solver.leaves;
      Alcotest.(check int)
        (name ^ ": max_depth")
        seq_s.Solver.max_depth r.Par.stats.Solver.max_depth;
      Alcotest.(check int) (name ^ ": jobs") 1 r.Par.jobs;
      Alcotest.(check int) (name ^ ": no descriptors") 0 r.Par.tasks;
      Alcotest.(check int) (name ^ ": no steals") 0 r.Par.steals;
      Alcotest.(check int)
        (name ^ ": one worker row")
        1
        (List.length r.Par.workers))
    (fixtures ())

(* ------------------------------------------------------------------ *)
(* Deadlines and cancellation                                          *)
(* ------------------------------------------------------------------ *)

let hard_case () =
  (* Search-only on the DE benchmark at a tight container: enough nodes
     that any small deadline expires mid-search. *)
  (Benchmarks.De.instance, cont3 17 17 12)

let test_expired_deadline_times_out () =
  let i, c = hard_case () in
  let options =
    { search_only with deadline = Some (Packing.Clock.after (-1.0)) }
  in
  (match Solver.solve ~options i c with
  | Solver.Timeout, _ -> ()
  | o, _ ->
    Alcotest.failf "sequential: expected timeout, got %s" (pp_verdict (verdict o)));
  let r = Par.solve ~options ~jobs:4 i c in
  match r.Par.outcome with
  | Solver.Timeout -> ()
  | o -> Alcotest.failf "parallel: expected timeout, got %s" (pp_verdict (verdict o))

let test_deadline_tolerance () =
  let i, c = hard_case () in
  let budget = 0.2 in
  let t0 = Packing.Clock.now () in
  let options =
    { search_only with deadline = Some (Packing.Clock.after budget) }
  in
  let r = Par.solve ~options ~jobs:4 i c in
  let elapsed = Packing.Clock.since t0 in
  (* The run either finished early or was cut off close to the budget;
     the tolerance is generous to absorb scheduler noise on loaded
     machines. *)
  Alcotest.(check bool)
    (Printf.sprintf "stopped within tolerance (%.3fs)" elapsed)
    true
    (elapsed <= budget +. 1.0);
  match r.Par.outcome with
  | Solver.Timeout | Solver.Feasible _ | Solver.Infeasible -> ()

(* A deadline can degrade the answer to Timeout but never flip it: on
   guillotine instances (feasible by construction) an Infeasible answer
   would be a soundness bug. *)
let test_deadline_never_wrong () =
  List.iter
    (fun seed ->
      let container = cont3 6 6 6 in
      let i, _ =
        Benchmarks.Generate.guillotine ~seed ~container ~cuts:5
          ~arc_probability:0.3 ()
      in
      let options =
        { search_only with deadline = Some (Packing.Clock.after 0.002) }
      in
      let r = Par.solve ~options ~jobs:3 i container in
      match r.Par.outcome with
      | Solver.Infeasible ->
        Alcotest.failf "seed %d: deadline flipped a feasible instance" seed
      | Solver.Feasible p ->
        Alcotest.(check bool)
          "witness valid" true
          (Placement.is_feasible p ~container
             ~precedes:(Instance.precedes i))
      | Solver.Timeout -> ())
    (List.init 10 (fun k -> 100 + k))

(* Cancellation joins every domain: repeated cancelled runs neither
   hang nor accumulate stuck domains (a leak would deadlock or crash
   long before this loop ends). *)
let test_cancellation_joins_workers () =
  let i, c = hard_case () in
  for k = 1 to 10 do
    let options =
      { search_only with deadline = Some (Packing.Clock.after 0.01) }
    in
    let r = Par.solve ~options ~jobs:4 i c in
    Alcotest.(check bool)
      (Printf.sprintf "run %d reported workers" k)
      true
      (List.length r.Par.workers = 4)
  done

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let test_stats_merge () =
  let i, c = hard_case () in
  let options = { search_only with node_limit = Some 2_000 } in
  let r = Par.solve ~options ~jobs:3 i c in
  let sum =
    List.fold_left
      (fun acc (w : Par.worker_report) -> acc + w.stats.Solver.nodes)
      0 r.Par.workers
  in
  Alcotest.(check int) "merged nodes = sum over workers" sum
    r.Par.stats.Solver.nodes;
  Alcotest.(check bool) "some work happened" true (sum > 0);
  Alcotest.(check bool) "depth recorded" true (r.Par.stats.Solver.max_depth > 0);
  Alcotest.(check bool) "elapsed recorded" true (r.Par.stats.Solver.elapsed > 0.0)

(* On a long enough search with several workers the thieves must
   actually steal, and the per-worker counters must reconcile with the
   report totals. *)
let test_steal_counters () =
  let i, c = hard_case () in
  let options = { search_only with node_limit = Some 20_000 } in
  let r = Par.solve ~options ~jobs:4 i c in
  let sum f = List.fold_left (fun acc (w : Par.worker_report) -> acc + f w) 0 r.Par.workers in
  let tasks = sum (fun w -> w.work.Packing.Telemetry.tasks) in
  let steals = sum (fun w -> w.work.Packing.Telemetry.steals) in
  let donated = sum (fun w -> w.work.Packing.Telemetry.donated) in
  let reclaimed = sum (fun w -> w.work.Packing.Telemetry.reclaimed) in
  Alcotest.(check int) "tasks total matches" r.Par.tasks tasks;
  Alcotest.(check int) "steals total matches" r.Par.steals steals;
  Alcotest.(check bool) "thieves actually stole" true (steals > 0);
  (* Every steal and every reclaim removes a donated descriptor; only
     the root descriptor was queued without being donated. *)
  Alcotest.(check bool)
    "donations cover steals and reclaims" true
    (donated + 1 >= steals + reclaimed);
  List.iter
    (fun (w : Par.worker_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "worker %d lifetime recorded" w.worker)
        true (w.elapsed_s >= 0.0))
    r.Par.workers

let test_on_heartbeat () =
  let i, c = hard_case () in
  let calls = Atomic.make 0 in
  let options =
    {
      search_only with
      node_limit = Some 50_000;
      on_heartbeat = Some (fun _ -> Atomic.incr calls);
    }
  in
  let _, stats = Solver.solve ~options i c in
  if stats.Solver.nodes > 4096 then
    Alcotest.(check bool) "heartbeat callback fired" true (Atomic.get calls > 0)

let test_report_json () =
  let _, i, c = List.hd (fixtures ()) in
  let r = Par.solve ~options:search_only ~jobs:2 i c in
  let json = Par.report_to_json r in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go k = k + nl <= jl && (String.sub json k nl = needle || go (k + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions outcome" true
    (String.length json > 0 && json.[0] = '{' && contains "\"outcome\"");
  Alcotest.(check bool) "mentions workers" true (contains "\"workers\"");
  Alcotest.(check bool) "mentions steals" true (contains "\"steals\"");
  Alcotest.(check bool) "mentions jobs" true (contains "\"jobs\"")

(* ------------------------------------------------------------------ *)
(* Opp_solver.feasible regression (budget-aware result)                *)
(* ------------------------------------------------------------------ *)

let test_feasible_result () =
  let yes = inst [ box3 2 2 2 ] in
  (match Solver.feasible yes (cont3 2 2 2) with
  | Ok true -> ()
  | _ -> Alcotest.fail "expected Ok true");
  let no = inst [ box3 2 2 2; box3 2 2 2 ] in
  (match Solver.feasible ~options:search_only no (cont3 3 2 2) with
  | Ok false -> ()
  | _ -> Alcotest.fail "expected Ok false");
  let i, c = hard_case () in
  match
    Solver.feasible ~options:{ search_only with node_limit = Some 1 } i c
  with
  | Error `Timeout -> ()
  | Ok b -> Alcotest.failf "expected Error `Timeout, got Ok %b" b

let () =
  Alcotest.run "parallel"
    [
      ( "deque",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x0FF1CE; 2026 |])
            (QCheck.Test.make ~count:500 ~long_factor:10
               ~name:"matches the list model" deque_ops_arb
               prop_deque_matches_model);
          Alcotest.test_case "4-domain stress: nothing lost or duplicated"
            `Quick test_deque_stress;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1/2/8 match sequential" `Quick
            test_jobs_deterministic;
          Alcotest.test_case "full pipeline matches" `Quick
            test_pipeline_deterministic;
          Alcotest.test_case "jobs=1 short-circuits to sequential" `Quick
            test_jobs1_short_circuit;
          Alcotest.test_case "prestage parity for jobs 2" `Quick
            test_prestage_parity;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "expired deadline times out" `Quick
            test_expired_deadline_times_out;
          Alcotest.test_case "stops within tolerance" `Quick
            test_deadline_tolerance;
          Alcotest.test_case "never a wrong answer" `Quick
            test_deadline_never_wrong;
          Alcotest.test_case "cancellation joins workers" `Quick
            test_cancellation_joins_workers;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats merge" `Quick test_stats_merge;
          Alcotest.test_case "steal counters reconcile" `Quick
            test_steal_counters;
          Alcotest.test_case "on_heartbeat fires" `Quick test_on_heartbeat;
          Alcotest.test_case "report json" `Quick test_report_json;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "feasible returns result" `Quick
            test_feasible_result;
        ] );
    ]
