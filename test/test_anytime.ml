(* Tests for the anytime optimization driver (Problems): budgets never
   raise, statuses are typed, incumbents and proven bounds are honest,
   the probe telemetry fires, the Pareto warm start caps every bracket,
   and the sequential and parallel probe routes agree. *)

module Container = Geometry.Container
module Placement = Geometry.Placement
module Instance = Packing.Instance
module Solver = Packing.Opp_solver
module Problems = Packing.Problems

let seed = [| 0xA417; 2026 |]

let cont3 w h t = Container.make3 ~w ~h ~t_max:t
let de = Benchmarks.De.instance
let codec = Benchmarks.Video_codec.instance

(* Budgeted probes must die inside the stage-3 search, not be settled
   by bounds or the packing heuristic. *)
let search_only =
  { Solver.default_options with use_bounds = false; use_heuristic = false }

let tiny = { search_only with Solver.node_limit = Some 5 }

(* ------------------------------------------------------------------ *)
(* Timeout paths: typed statuses, no exception                         *)
(* ------------------------------------------------------------------ *)

let test_minimize_time_budget () =
  (* minimize_time always has the heuristic incumbent (derived outside
     the solver), so a dead budget degrades to Feasible_incumbent. On a
     17x17 chip the volume bound (11) sits strictly below the true
     optimum (13), so five nodes cannot close the gap. *)
  match Problems.minimize_time ~options:tiny de ~w:17 ~h:17 with
  | Problems.Feasible_incumbent
      { incumbent = { value; placement }; lower_bound; gap } ->
    Alcotest.(check bool) "witness attains the value" true
      (Placement.makespan placement <= value);
    Alcotest.(check bool) "witness valid" true
      (Placement.is_feasible placement ~container:(cont3 17 17 value)
         ~precedes:(Instance.precedes de));
    Alcotest.(check bool) "bound below value" true (lower_bound <= value);
    Alcotest.(check int) "gap is the difference" (value - lower_bound) gap
  | r ->
    Alcotest.failf "expected a feasible incumbent, got %s"
      (Problems.status_string r)

let test_minimize_base_budget () =
  (* No incumbent can exist before the first feasible probe: a budget
     death during the doubling phase must be Unknown, never a bogus
     "infeasible". The DE base lower bound at T=14 is 16 (the BMM-wide
     multipliers), and nothing below it was probed. *)
  match Problems.minimize_base ~options:tiny de ~t_max:14 with
  | Problems.Unknown { lower_bound } ->
    Alcotest.(check int) "proven side bound" 16 lower_bound
  | r -> Alcotest.failf "expected unknown, got %s" (Problems.status_string r)

let test_minimize_area_rect_budget () =
  match Problems.minimize_area_rect ~options:tiny de ~t_max:14 with
  | Problems.Unknown { lower_bound } ->
    Alcotest.(check bool) "area bound positive" true (lower_bound > 0)
  | r -> Alcotest.failf "expected unknown, got %s" (Problems.status_string r)

let test_minimize_base_fixed_schedule_budget () =
  let asap =
    Order.Partial_order.earliest_starts (Instance.precedence de)
      ~duration:(Instance.duration de)
  in
  match
    Problems.minimize_base_fixed_schedule ~options:tiny de ~t_max:14
      ~schedule:asap
  with
  | Problems.Unknown { lower_bound } ->
    Alcotest.(check bool) "side bound positive" true (lower_bound > 0)
  | r -> Alcotest.failf "expected unknown, got %s" (Problems.status_string r)

let test_pareto_budget () =
  let front = Problems.pareto_front ~options:tiny de ~h_min:16 ~h_max:48 in
  Alcotest.(check bool) "truncated front is flagged" false
    front.Problems.complete

(* The stage-2 restarts read the run's deadline. On a 6-stage butterfly
   (576 tasks) at 32x32 the first schedule misses the stage-1 bound, and
   200 restarts, none of which reaches it, take about 1 s on a 2-core
   host; before the restarts polled the deadline, a 0.05 s budget
   returned after 0.9-1.5 s. Now the call returns once the bound and
   the first schedule are done: about 0.12 s. The tolerance, 0.4 s in
   all, leaves room for a loaded machine. *)
let test_stage2_deadline () =
  let inst = Benchmarks.Dfg.butterfly ~stages:6 in
  let budget = 0.05 and tolerance = 0.4 in
  let t0 = Packing.Clock.now () in
  let options =
    { Solver.default_options with deadline = Some (Packing.Clock.after budget) }
  in
  let r = Problems.minimize_time ~options inst ~w:32 ~h:32 in
  let elapsed = Packing.Clock.since t0 in
  Alcotest.(check bool)
    (Printf.sprintf "returned within %.2fs (%.3fs)" tolerance elapsed)
    true (elapsed <= tolerance);
  match r with
  | Problems.Infeasible | Problems.Unknown _ ->
    Alcotest.fail "the first schedule is an incumbent"
  | Problems.Optimal { value; placement }
  | Problems.Feasible_incumbent { incumbent = { value; placement }; _ } ->
    Alcotest.(check int) "makespan of the witness" value
      (Placement.makespan placement);
    Alcotest.(check bool) "witness feasible" true
      (Placement.is_feasible placement ~container:(cont3 32 32 value)
         ~precedes:(Instance.precedes inst))

let test_expired_deadline_everywhere () =
  (* Nothing raises under a dead wall clock, whatever the entry point;
     any Optimal claim must still be a true optimum (bounds alone can
     prove one without searching). *)
  let expired () =
    {
      Solver.default_options with
      Solver.deadline = Some (Packing.Clock.after (-1.0));
    }
  in
  (match Problems.minimize_time ~options:(expired ()) de ~w:32 ~h:32 with
  | Problems.Optimal { value; _ } ->
    Alcotest.(check int) "optimal claim is the true optimum" 6 value
  | Problems.Feasible_incumbent { incumbent = { value; _ }; lower_bound; _ } ->
    Alcotest.(check bool) "incumbent above the true optimum" true (value >= 6);
    Alcotest.(check bool) "bound is proven" true (lower_bound <= 6)
  | Problems.Infeasible | Problems.Unknown _ ->
    Alcotest.fail "DE fits 32x32");
  (match Problems.minimize_base ~options:(expired ()) de ~t_max:14 with
  | Problems.Optimal { value; _ } -> Alcotest.(check int) "true optimum" 16 value
  | Problems.Feasible_incumbent _ | Problems.Unknown _ -> ()
  | Problems.Infeasible -> Alcotest.fail "DE is feasible at T=14");
  (match Problems.minimize_area_rect ~options:(expired ()) de ~t_max:14 with
  | Problems.Infeasible -> Alcotest.fail "DE is feasible at T=14"
  | _ -> ());
  ignore (Problems.pareto_front ~options:(expired ()) de ~h_min:16 ~h_max:48)

(* No Problems entry point may raise under any node budget (the old
   driver crashed with Failure on the first budget hit). *)
let prop_no_exception_under_budget budget =
  let options = { search_only with Solver.node_limit = Some budget } in
  let ok f = match f () with _ -> true in
  ok (fun () -> Problems.minimize_time ~options de ~w:32 ~h:32)
  && ok (fun () -> Problems.minimize_base ~options de ~t_max:13)
  && ok (fun () -> Problems.minimize_area_rect ~options de ~t_max:14)
  && ok (fun () -> Problems.pareto_front ~options de ~h_min:16 ~h_max:20)

(* ------------------------------------------------------------------ *)
(* Unlimited budget: byte-identical optima on the paper benchmarks     *)
(* ------------------------------------------------------------------ *)

let test_unlimited_de () =
  List.iter
    (fun (t_max, expected) ->
      match Problems.minimize_base de ~t_max with
      | Problems.Optimal { value; _ } ->
        Alcotest.(check int) (Printf.sprintf "DE T=%d" t_max) expected value
      | r ->
        Alcotest.failf "DE T=%d: expected optimal, got %s" t_max
          (Problems.status_string r))
    Benchmarks.De.table1;
  let front = Problems.pareto_front de ~h_min:16 ~h_max:48 in
  Alcotest.(check bool) "solid front complete" true front.Problems.complete;
  Alcotest.(check (list (pair int int)))
    "solid front" [ (16, 14); (17, 13); (32, 6) ] front.Problems.points

let test_unlimited_codec () =
  (match Problems.minimize_base codec ~t_max:59 with
  | Problems.Optimal { value; _ } -> Alcotest.(check int) "codec chip" 64 value
  | r -> Alcotest.failf "expected optimal, got %s" (Problems.status_string r));
  match Problems.minimize_time codec ~w:64 ~h:64 with
  | Problems.Optimal { value; _ } -> Alcotest.(check int) "codec latency" 59 value
  | r -> Alcotest.failf "expected optimal, got %s" (Problems.status_string r)

(* ------------------------------------------------------------------ *)
(* Probe telemetry                                                     *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go k = k + nl <= hl && (String.sub haystack k nl = needle || go (k + 1)) in
  go 0

let test_on_probe () =
  let probes = ref [] in
  let on_probe p = probes := p :: !probes in
  (match Problems.minimize_base ~on_probe de ~t_max:14 with
  | Problems.Optimal { value; _ } -> Alcotest.(check int) "optimum" 16 value
  | r -> Alcotest.failf "expected optimal, got %s" (Problems.status_string r));
  let probes = List.rev !probes in
  Alcotest.(check bool) "probes recorded" true (probes <> []);
  List.iter
    (fun (p : Problems.probe) ->
      Alcotest.(check int) "3d container" 3 (Container.dim p.Problems.target);
      Alcotest.(check bool) "nodes non-negative" true (p.Problems.nodes >= 0);
      let json = Packing.Telemetry.to_string (Problems.probe_json p) in
      Alcotest.(check bool) "probe json shape" true
        (String.length json > 0
        && json.[0] = '{'
        && contains json "\"container\""
        && contains json "\"outcome\""))
    probes

let test_budget_is_global () =
  (* One driver call owns one budget pool: a 5-node limit admits exactly
     one (timed-out) probe, and a zero budget admits none — the driver
     answers from the bounds alone. *)
  let count options =
    let seen = ref 0 in
    let r =
      Problems.minimize_base ~options ~on_probe:(fun _ -> incr seen) de
        ~t_max:14
    in
    (r, !seen)
  in
  (match count tiny with
  | Problems.Unknown _, n -> Alcotest.(check int) "one probe under 5 nodes" 1 n
  | r, _ -> Alcotest.failf "expected unknown, got %s" (Problems.status_string r));
  match count { search_only with Solver.node_limit = Some 0 } with
  | Problems.Unknown { lower_bound }, n ->
    Alcotest.(check int) "no probes under 0 nodes" 0 n;
    Alcotest.(check int) "bound from the closed form" 16 lower_bound
  | r, _ -> Alcotest.failf "expected unknown, got %s" (Problems.status_string r)

(* ------------------------------------------------------------------ *)
(* Pareto warm start                                                   *)
(* ------------------------------------------------------------------ *)

let test_pareto_warm_start () =
  (* The previous point's makespan caps every later bracket: after
     (16, 14) no probe at a wider chip may try 14 cycles or more, and
     once (32, 6) hits the critical-path floor no wider chip is probed
     at all. *)
  let probes = ref [] in
  let front =
    Problems.pareto_front ~on_probe:(fun p -> probes := p :: !probes) de
      ~h_min:16 ~h_max:48
  in
  Alcotest.(check (list (pair int int)))
    "front unchanged" [ (16, 14); (17, 13); (32, 6) ] front.Problems.points;
  List.iter
    (fun (p : Problems.probe) ->
      let w = Container.extent p.Problems.target 0 in
      let t = Container.extent p.Problems.target 2 in
      if w > 16 then
        Alcotest.(check bool)
          (Printf.sprintf "probe %dx%d t=%d capped by the 16x16 point" w w t)
          true (t < 14);
      Alcotest.(check bool)
        (Printf.sprintf "no probe beyond the floor point (w=%d)" w)
        true (w <= 32))
    !probes

(* ------------------------------------------------------------------ *)
(* jobs=1 and jobs=4 agree                                             *)
(* ------------------------------------------------------------------ *)

let seed_arb = QCheck.make QCheck.Gen.(0 -- 10_000) ~print:string_of_int

let prop_jobs_agree seed =
  let i =
    Benchmarks.Generate.random ~seed ~n:5 ~max_extent:3 ~max_duration:3
      ~arc_probability:0.3 ()
  in
  let agree a b =
    Problems.status_string a = Problems.status_string b
    &&
    match (a, b) with
    | Problems.Optimal x, Problems.Optimal y -> x.Problems.value = y.Problems.value
    | _ -> true
  in
  agree
    (Problems.minimize_time i ~w:5 ~h:5)
    (Problems.minimize_time ~jobs:4 i ~w:5 ~h:5)
  && agree
       (Problems.minimize_base i ~t_max:8)
       (Problems.minimize_base ~jobs:4 i ~t_max:8)

let () =
  Alcotest.run "anytime"
    [
      ( "budgets",
        [
          Alcotest.test_case "minimize_time incumbent" `Quick
            test_minimize_time_budget;
          Alcotest.test_case "minimize_base unknown" `Quick
            test_minimize_base_budget;
          Alcotest.test_case "minimize_area_rect unknown" `Quick
            test_minimize_area_rect_budget;
          Alcotest.test_case "fixed schedule unknown" `Quick
            test_minimize_base_fixed_schedule_budget;
          Alcotest.test_case "pareto truncation flagged" `Quick
            test_pareto_budget;
          Alcotest.test_case "expired deadline everywhere" `Quick
            test_expired_deadline_everywhere;
          Alcotest.test_case "stage 2 stops at the deadline" `Quick
            test_stage2_deadline;
          Fixed_seed.qtest ~seed ~count:25 "no exception under any node budget"
            (QCheck.make QCheck.Gen.(0 -- 2_000) ~print:string_of_int)
            prop_no_exception_under_budget;
        ] );
      ( "unlimited",
        [
          Alcotest.test_case "DE optima unchanged" `Quick test_unlimited_de;
          Alcotest.test_case "codec optima unchanged" `Slow
            test_unlimited_codec;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "on_probe fires with valid records" `Quick
            test_on_probe;
          Alcotest.test_case "budget is one global pool" `Quick
            test_budget_is_global;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "pareto brackets capped by incumbent" `Quick
            test_pareto_warm_start;
        ] );
      ( "parallel",
        [ Fixed_seed.qtest ~seed ~count:20 "jobs 1 and 4 agree" seed_arb prop_jobs_agree ]
          );
    ]
