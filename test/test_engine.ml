(* Search-kernel regression tests:

   - the incremental [Packing_state.choose_unknown] (static score order
     + trail-maintained pressure flags) must pick exactly the pair the
     historical from-scratch scan picked, across arbitrary assign/undo
     sequences;
   - the derived decided-slot count must track the edge-state stores;
   - every node-bound throttle policy must return the same verdict
     (the bound emits exact certificates);
   - node-bound call telemetry must decrease as the policy gets
     stricter;
   - realization runs at fully decided leaves only, and every witness
     is feasible;
   - the edge-state store's propagation must match the reference copy
     of its historical implementation write for write;
   - the search kernel must stay allocation-light. *)

module OG = Order.Oriented_graph
module Container = Geometry.Container
module Instance = Packing.Instance
module PS = Packing.Packing_state
module Solver = Packing.Opp_solver
module Par = Packing.Parallel_solver

let seed = [| 0xE2612E; 2026 |]

(* ------------------------------------------------------------------ *)
(* Reference branching oracle: the pre-incremental implementation,     *)
(* recomputed from scratch off the live edge-state stores.             *)
(* ------------------------------------------------------------------ *)

let reference_choose st =
  let inst = PS.instance st and cont = PS.container st in
  let d = Instance.dim inst in
  let has_comparable u v =
    let rec go k =
      k < d && (OG.kind (PS.dimension st k) u v = OG.Comparable || go (k + 1))
    in
    go 0
  in
  let pick ~pressured_only =
    let best = ref None in
    let best_score = ref (-1.0) in
    let consider k =
      let cap = float_of_int (Container.extent cont k) in
      List.iter
        (fun (u, v) ->
          if (not pressured_only) || not (has_comparable u v) then begin
            let score =
              float_of_int (Instance.extent inst u k + Instance.extent inst v k)
              /. cap
            in
            if score > !best_score then begin
              best_score := score;
              best := Some (k, u, v)
            end
          end)
        (OG.unknown_pairs (PS.dimension st k))
    in
    consider (d - 1);
    if !best = None then
      for k = 0 to d - 2 do
        consider k
      done;
    !best
  in
  match pick ~pressured_only:true with
  | Some _ as found -> found
  | None -> pick ~pressured_only:false

let reference_decided_fraction st =
  let inst = PS.instance st in
  let d = Instance.dim inst and n = Instance.count inst in
  let total = d * (n * (n - 1) / 2) in
  if total = 0 then 1.0
  else begin
    let unknown =
      List.fold_left
        (fun acc k -> acc + List.length (OG.unknown_pairs (PS.dimension st k)))
        0 (List.init d Fun.id)
    in
    float_of_int (total - unknown) /. float_of_int total
  end

(* ------------------------------------------------------------------ *)
(* Random assign/undo walks                                            *)
(* ------------------------------------------------------------------ *)

let arb_walk =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* n = int_range 2 6 in
      let* max_extent = int_range 1 3 in
      let* max_duration = int_range 1 3 in
      let* arc_probability = oneofl [ 0.0; 0.3 ] in
      let* cw = int_range 3 6 and* ch = int_range 3 6 and* ct = int_range 3 7 in
      let* steps = int_range 5 40 in
      let* walk_seed = int_range 0 1_000_000 in
      return
        (seed, n, max_extent, max_duration, arc_probability, (cw, ch, ct),
         steps, walk_seed))
  in
  QCheck.make gen
    ~print:(fun (seed, n, me, md, ap, (cw, ch, ct), steps, ws) ->
      Printf.sprintf
        "seed=%d n=%d max_extent=%d max_duration=%d arcs=%.1f cont=%dx%dx%d \
         steps=%d walk=%d"
        seed n me md ap cw ch ct steps ws)

let prop_choose_unknown_matches_reference
    (seed, n, max_extent, max_duration, arc_probability, (cw, ch, ct), steps,
     walk_seed) =
  let inst =
    Benchmarks.Generate.random ~seed ~n ~max_extent ~max_duration
      ~arc_probability ()
  in
  let cont = Container.make3 ~w:cw ~h:ch ~t_max:ct in
  match PS.create inst cont with
  | Error _ -> true (* root infeasible: nothing to walk *)
  | Ok st ->
    let rng = Random.State.make [| walk_seed |] in
    let mark_stack = ref [] in
    let check () =
      let got = PS.choose_unknown st in
      let want = reference_choose st in
      if got <> want then
        QCheck.Test.fail_reportf
          "choose_unknown diverged: incremental %s, reference %s"
          (match got with
          | None -> "None"
          | Some (k, u, v) -> Printf.sprintf "(%d,%d,%d)" k u v)
          (match want with
          | None -> "None"
          | Some (k, u, v) -> Printf.sprintf "(%d,%d,%d)" k u v);
      let df = PS.decided_fraction st in
      let want_df = reference_decided_fraction st in
      if abs_float (df -. want_df) > 1e-9 then
        QCheck.Test.fail_reportf "decided_fraction drifted: %f vs %f" df
          want_df;
      got
    in
    for _ = 1 to steps do
      match check () with
      | None -> (
        (* Fully decided: only undo can continue the walk. *)
        match !mark_stack with
        | [] -> ()
        | m :: rest ->
          PS.undo_to st m;
          mark_stack := rest)
      | Some (dim, u, v) ->
        let r = Random.State.int rng 10 in
        if r < 4 || !mark_stack = [] then begin
          (* Branch on the solver's own pick, either way. *)
          let m = PS.mark st in
          let assign =
            if r land 1 = 0 then PS.assign_component
            else PS.assign_comparable
          in
          match assign st ~dim u v with
          | Ok () -> mark_stack := m :: !mark_stack
          | Error _ -> PS.undo_to st m
        end
        else if r < 7 then begin
          (* Undo one level. *)
          match !mark_stack with
          | [] -> ()
          | m :: rest ->
            PS.undo_to st m;
            mark_stack := rest
        end
        else begin
          (* Undo several levels at once (deep backtrack). *)
          let depth = 1 + Random.State.int rng 3 in
          let rec pop k =
            match !mark_stack with
            | m :: rest when k > 0 ->
              PS.undo_to st m;
              mark_stack := rest;
              pop (k - 1)
            | _ -> ()
          in
          pop depth
        end
    done;
    ignore (check ());
    true

(* ------------------------------------------------------------------ *)
(* Node-bound throttle and leaf realization                            *)
(* ------------------------------------------------------------------ *)

(* A case's time extent: fixed, or [Slack s] cycles past the
   instance's critical path. *)
type time = Fixed of int | Slack of int

(* Loose cases, and tight ones where the node energetic bound fires:
   eight tasks with precedence chains on a 2x2 chip, the time extent
   one or two cycles past the critical path. About one tight case in
   sixteen prunes at nodes, and none takes more than a few thousand
   nodes under any policy. *)
let arb_small_case =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* tight = bool in
      if tight then
        let* max_duration = int_range 2 3 in
        let* slack = int_range 1 2 in
        return (seed, 8, 2, max_duration, 0.1, (2, 2, Slack slack))
      else
        let* n = int_range 2 5 in
        let* max_extent = int_range 1 3 in
        let* max_duration = int_range 1 3 in
        let* arc_probability = oneofl [ 0.0; 0.25; 0.5 ] in
        let* cw = int_range 3 6 and* ch = int_range 3 6 and* ct = int_range 3 7 in
        return
          (seed, n, max_extent, max_duration, arc_probability, (cw, ch, Fixed ct)))
  in
  QCheck.make gen
    ~print:(fun (seed, n, me, md, ap, (cw, ch, time)) ->
      Printf.sprintf "seed=%d n=%d max_extent=%d max_duration=%d arcs=%.2f \
                      cont=%dx%dx%s"
        seed n me md ap cw ch
        (match time with
        | Fixed ct -> string_of_int ct
        | Slack s -> Printf.sprintf "(critical path + %d)" s))

let small_case
    (seed, n, max_extent, max_duration, arc_probability, (cw, ch, time)) =
  let inst =
    Benchmarks.Generate.random ~seed ~n ~max_extent ~max_duration
      ~arc_probability ()
  in
  let ct =
    match time with
    | Fixed ct -> ct
    | Slack s -> Instance.critical_path inst + s
  in
  (inst, Container.make3 ~w:cw ~h:ch ~t_max:ct)

let solve_with node_bounds inst cont =
  let options =
    {
      Solver.default_options with
      use_bounds = false;
      use_heuristic = false;
      node_limit = Some 2_000_000;
      node_bounds;
    }
  in
  Solver.solve ~options inst cont

(* Each policy checks at a subset of the nodes where the one before it
   checks: "always" at every node, "adaptive" at the nodes its schedule
   admits, "never" at none. *)
let strictness_chain =
  [
    ("always", Solver.Realize_always);
    ("adaptive", Solver.Realize_adaptive);
    ("never", Solver.Realize_never);
  ]

let verdict_name = function
  | Solver.Feasible _ -> "feasible"
  | Solver.Infeasible -> "infeasible"
  | Solver.Timeout -> "timeout"

let prop_policies_preserve_verdicts case =
  let inst, cont = small_case case in
  let reference, _ = solve_with Solver.Realize_adaptive inst cont in
  List.for_all
    (fun (name, policy) ->
      let outcome, _ = solve_with policy inst cont in
      match (reference, outcome) with
      | Solver.Feasible _, Solver.Feasible _
      | Solver.Infeasible, Solver.Infeasible ->
        true
      | _ ->
        QCheck.Test.fail_reportf "policy %s: %s but default says %s" name
          (verdict_name outcome) (verdict_name reference))
    strictness_chain

let energetic (s : Solver.stats) =
  match List.assoc_opt "energetic" s.bounds with
  | Some c -> (c.Packing.Telemetry.calls, c.Packing.Telemetry.prunes)
  | None -> (0, 0)

let prop_attempts_monotone_in_strictness case =
  let inst, cont = small_case case in
  (* Where "always" prunes nothing, no policy changes the state, so all
     three visit the same nodes and their call counts are comparable.
     With the root bounds off, every energetic call is a node check. *)
  match solve_with Solver.Realize_always inst cont with
  | Solver.Timeout, _ -> true
  | _, always when snd (energetic always) > 0 -> true
  | _, always ->
    let calls policy = fst (energetic (snd (solve_with policy inst cont))) in
    let always_calls = fst (energetic always) in
    let adaptive = calls Solver.Realize_adaptive in
    let never = calls Solver.Realize_never in
    if always_calls <> always.Solver.nodes then
      QCheck.Test.fail_reportf "always: %d calls at %d nodes" always_calls
        always.Solver.nodes
    else if never <> 0 then QCheck.Test.fail_reportf "never: %d calls" never
    else if adaptive > always_calls then
      QCheck.Test.fail_reportf "adaptive: %d calls, always %d" adaptive
        always_calls
    else true

let throttle_cases = 150

(* The throttle properties are not vacuous: on the sample they draw,
   the node energetic bound prunes under "always" on some case, so a
   policy that skipped or misread it would change a verdict or a call
   count. *)
let test_some_case_prunes () =
  let cases =
    QCheck.Gen.generate ~rand:(Fixed_seed.rand seed) ~n:throttle_cases
      (QCheck.gen arb_small_case)
  in
  let prunes case =
    let inst, cont = small_case case in
    snd (energetic (snd (solve_with Solver.Realize_always inst cont)))
  in
  let pruned = List.length (List.filter (fun c -> prunes c > 0) cases) in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d cases prune at nodes" pruned throttle_cases)
    true (pruned > 0)

(* The search builds a placement only where the packing class is fully
   decided: one realization per leaf, and a witness that validates. *)
let prop_realization_only_at_leaves case =
  let inst, cont = small_case case in
  match solve_with Solver.Realize_adaptive inst cont with
  | Solver.Timeout, _ -> true
  | outcome, s ->
    let attempts = s.rules.Packing.Recorder.realize_attempts in
    if attempts <> s.leaves then
      QCheck.Test.fail_reportf "%s: %d realizations at %d leaves"
        (verdict_name outcome) attempts s.leaves
    else (
      match outcome with
      | Solver.Feasible p ->
        Instance.placement_feasible inst ~container:cont p
        || QCheck.Test.fail_reportf "witness fails validation"
      | Solver.Infeasible | Solver.Timeout -> true)

(* ------------------------------------------------------------------ *)
(* Propagation differential: the edge-state store against the          *)
(* reference copy of its historical implementation (Og_reference).     *)
(* ------------------------------------------------------------------ *)

let arb_og_walk =
  QCheck.make
    QCheck.Gen.(
      triple (int_range 2 7) (int_range 0 1_000_000) (int_range 1 150))
    ~print:(fun (n, seed, steps) ->
      Printf.sprintf "n=%d seed=%d steps=%d" n seed steps)

(* A random walk of mutations, propagations, marks and undos applied to
   both stores. After every step the results, the pair states and the
   whole trail (pair, state before, state written) must agree. *)
let prop_propagation_matches_reference (n, seed, steps) =
  let rng = Random.State.make [| seed |] in
  let og = OG.create n and reference = Og_reference.create n in
  let marks = ref [] in
  let show = function
    | Ok () -> "Ok"
    | Error { OG.pair = u, v; reason } ->
      Printf.sprintf "Error (%d,%d) %s" u v reason
  in
  let trail () =
    let acc = ref [] in
    OG.iter_trail_window og ~since:0 (fun u v ~prev ~cur ->
        acc := ((u * n) + v, prev, cur) :: !acc);
    List.rev !acc
  in
  for step = 1 to steps do
    let u = Random.State.int rng n in
    let v = (u + 1 + Random.State.int rng (n - 1)) mod n in
    let agree what got want =
      if got <> want then
        QCheck.Test.fail_reportf "step %d, %s %d %d: store %s, reference %s"
          step what u v (show got) (show want)
    in
    (match Random.State.int rng 9 with
    | 0 ->
      agree "set_component" (OG.set_component og u v)
        (Og_reference.set_component reference u v)
    | 1 ->
      agree "set_comparable" (OG.set_comparable og u v)
        (Og_reference.set_comparable reference u v)
    | 2 | 3 ->
      agree "force_arc" (OG.force_arc og u v)
        (Og_reference.force_arc reference u v)
    | 4 | 5 ->
      agree "propagate" (OG.propagate og) (Og_reference.propagate reference)
    | 6 ->
      if OG.mark og <> Og_reference.mark reference then
        QCheck.Test.fail_reportf "step %d: marks differ" step;
      marks := OG.mark og :: !marks
    | _ -> (
      (* Back to a random mark on the stack, dropping the ones above. *)
      match !marks with
      | [] -> ()
      | stack ->
        let depth = Random.State.int rng (List.length stack) in
        let m = List.nth stack depth in
        OG.undo_to og m;
        Og_reference.undo_to reference m;
        marks := List.filteri (fun i _ -> i > depth) stack));
    let orientation = OG.orientation og in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if
          a <> b
          && (OG.kind og a b <> Og_reference.kind reference a b
             || Graphlib.Digraph.mem_arc orientation a b
                <> Og_reference.arc reference a b)
        then
          QCheck.Test.fail_reportf "step %d: pair (%d,%d) differs" step a b
      done
    done;
    if trail () <> Og_reference.trail reference then
      QCheck.Test.fail_reportf "step %d: trails differ" step
  done;
  true

(* ------------------------------------------------------------------ *)
(* Allocation guard                                                    *)
(* ------------------------------------------------------------------ *)

(* A min-time probe whose stage 3 exhausts a 5,000-node budget (the
   heuristic and the bounds do not settle 6x6x7). The kernel allocated
   about 1,183 minor words per node before it went allocation-light and
   about 128 after; the guard sits at half the old figure. *)
let test_minor_words_per_node () =
  let inst =
    Benchmarks.Generate.random ~seed:3 ~n:10 ~max_extent:4 ~max_duration:3
      ~arc_probability:0.15 ()
  in
  let cont = Container.make3 ~w:6 ~h:6 ~t_max:7 in
  let options = { Solver.default_options with node_limit = Some 5_000 } in
  ignore (Solver.solve ~options inst cont);
  let before = Gc.minor_words () in
  let outcome, stats = Solver.solve ~options inst cont in
  let per_node =
    (Gc.minor_words () -. before) /. float_of_int stats.Solver.nodes
  in
  Alcotest.(check string) "budget exhausted" "timeout" (verdict_name outcome);
  if per_node > 1183.0 /. 2.0 then
    Alcotest.failf "%.1f minor words per node > %.1f" per_node (1183.0 /. 2.0)

(* ------------------------------------------------------------------ *)
(* Stats surfaces carry the rule counters                              *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_stats_json_carries_counters () =
  let inst =
    Benchmarks.Generate.random ~seed:11 ~n:6 ~max_extent:3 ~max_duration:3
      ~arc_probability:0.3 ()
  in
  let cont = Container.make3 ~w:5 ~h:5 ~t_max:6 in
  let options =
    { Solver.default_options with use_bounds = false; use_heuristic = false }
  in
  let _, stats = Solver.solve ~options inst cont in
  let json = Solver.stats_to_json stats in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "sequential json has %s" needle)
        true
        (contains ~needle json))
    [ "\"rules\""; "\"c2_calls\""; "\"c4_calls\""; "\"implication_calls\"";
      "\"capacity_calls\""; "\"realize_attempts\"" ];
  let report = Par.solve ~options ~jobs:2 inst cont in
  let pjson = Par.report_to_json report in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "parallel json has %s" needle)
        true
        (contains ~needle pjson))
    [ "\"rules\""; "\"realize_attempts\""; "\"workers\"" ]

let () =
  Alcotest.run "engine"
    [
      ( "branching",
        [
          Fixed_seed.qtest ~seed ~long_factor:10 ~count:150
            "incremental choose_unknown = from-scratch reference"
            arb_walk prop_choose_unknown_matches_reference;
        ] );
      ( "kernel",
        [
          Fixed_seed.qtest ~seed ~long_factor:10 ~count:400
            "store = reference, write for write" arb_og_walk
            prop_propagation_matches_reference;
          Alcotest.test_case "minor words per node" `Quick
            test_minor_words_per_node;
        ] );
      ( "throttle",
        [
          Fixed_seed.qtest ~seed ~long_factor:10 ~count:throttle_cases
            "every policy preserves the verdict"
            arb_small_case prop_policies_preserve_verdicts;
          Fixed_seed.qtest ~seed ~long_factor:10 ~count:throttle_cases
            "attempts decrease with stricter policies"
            arb_small_case prop_attempts_monotone_in_strictness;
          Alcotest.test_case "some case prunes at nodes" `Quick
            test_some_case_prunes;
        ] );
      ( "witness",
        [
          Fixed_seed.qtest ~seed ~long_factor:10 ~count:100
            "realization runs only at leaves" arb_small_case
            prop_realization_only_at_leaves;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats json carries rule counters" `Quick
            test_stats_json_carries_counters;
        ] );
    ]
