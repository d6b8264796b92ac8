(* Search-kernel regression tests:

   - the incremental [Packing_state.choose_unknown] (static score order
     + trail-maintained pressure flags) must pick exactly the pair the
     historical from-scratch scan picked, across arbitrary assign/undo
     sequences;
   - the derived decided-slot count must track the edge-state stores;
   - every realization-throttle policy must return the same verdict
     (the exact leaf check is never throttled);
   - realization-attempt telemetry must decrease monotonically as the
     policy gets stricter;
   - the edge-state store's propagation must match the reference copy
     of its historical implementation write for write;
   - the search kernel must stay allocation-light. *)

module OG = Order.Oriented_graph
module Container = Geometry.Container
module Instance = Packing.Instance
module PS = Packing.Packing_state
module Solver = Packing.Opp_solver
module Par = Packing.Parallel_solver

let fixed_rand () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> Random.State.make [| int_of_string s |]
  | None -> Random.State.make [| 0xE2612E; 2026 |]

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest ~rand:(fixed_rand ())
    (QCheck.Test.make ~count ~long_factor:10 ~name arb prop)

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
    let unknown = PS.unknown_count st in
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
(* Realization throttle                                                *)
(* ------------------------------------------------------------------ *)

let arb_small_case =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* n = int_range 2 5 in
      let* max_extent = int_range 1 3 in
      let* max_duration = int_range 1 3 in
      let* arc_probability = oneofl [ 0.0; 0.25; 0.5 ] in
      let* cw = int_range 3 6 and* ch = int_range 3 6 and* ct = int_range 3 7 in
      return (seed, n, max_extent, max_duration, arc_probability, (cw, ch, ct)))
  in
  QCheck.make gen
    ~print:(fun (seed, n, me, md, ap, (cw, ch, ct)) ->
      Printf.sprintf "seed=%d n=%d max_extent=%d max_duration=%d arcs=%.2f \
                      cont=%dx%dx%d"
        seed n me md ap cw ch ct)

let small_case (seed, n, max_extent, max_duration, arc_probability, (cw, ch, ct))
    =
  ( Benchmarks.Generate.random ~seed ~n ~max_extent ~max_duration
      ~arc_probability (),
    Container.make3 ~w:cw ~h:ch ~t_max:ct )

let solve_with realize inst cont =
  let options =
    {
      Solver.default_options with
      use_bounds = false;
      use_heuristic = false;
      node_limit = Some 2_000_000;
      realize;
    }
  in
  Solver.solve ~options inst cont

(* Each policy attempts at a subset of the nodes where the one before
   it attempts: "always" at every node, "adaptive" at the nodes its
   schedule admits, "never" at none (leaf checks aside). *)
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

let prop_attempts_monotone_in_strictness case =
  let inst, cont = small_case case in
  (* On infeasible instances the node sequence is policy-independent
     (failed and skipped attempts both leave the state untouched), so
     attempt counts are comparable across policies. Feasible instances
     exit early at policy-dependent points; skip them. *)
  match solve_with Solver.Realize_always inst cont with
  | Solver.Feasible _, _ | Solver.Timeout, _ -> true
  | Solver.Infeasible, always_stats ->
    let runs =
      List.map
        (fun (name, policy) ->
          match solve_with policy inst cont with
          | Solver.Infeasible, s -> (name, s)
          | outcome, _ ->
            QCheck.Test.fail_reportf "policy %s flipped verdict to %s" name
              (verdict_name outcome))
        (List.tl strictness_chain)
    in
    let runs = ("always", always_stats) :: runs in
    let attempts (_, (s : Solver.stats)) =
      s.rules.Packing.Telemetry.realize_attempts
    in
    (* Exact endpoints: "always" tries at every interior visit plus the
       exact check at each leaf; "never" only runs the leaf checks. *)
    let _, always = List.hd runs in
    let _, never = List.hd (List.rev runs) in
    if
      always.Solver.rules.Packing.Telemetry.realize_attempts
      <> always.Solver.nodes + always.Solver.leaves
    then
      QCheck.Test.fail_reportf "always: %d attempts at %d nodes + %d leaves"
        always.Solver.rules.Packing.Telemetry.realize_attempts
        always.Solver.nodes always.Solver.leaves;
    if never.Solver.rules.Packing.Telemetry.realize_attempts <> never.Solver.leaves
    then
      QCheck.Test.fail_reportf "never: %d attempts at %d leaves"
        never.Solver.rules.Packing.Telemetry.realize_attempts
        never.Solver.leaves;
    let rec monotone = function
      | (na, _) :: ((nb, _) :: _ as rest) ->
        let a = attempts (na, List.assoc na runs)
        and b = attempts (nb, List.assoc nb runs) in
        if a < b then
          QCheck.Test.fail_reportf
            "attempts grew under stricter policy: %s=%d < %s=%d" na a nb b
        else monotone rest
      | _ -> true
    in
    monotone runs

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
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if
          a <> b
          && (OG.kind og a b <> Og_reference.kind reference a b
             || OG.arc og a b <> Og_reference.arc reference a b)
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
          qtest ~count:150 "incremental choose_unknown = from-scratch reference"
            arb_walk prop_choose_unknown_matches_reference;
        ] );
      ( "kernel",
        [
          qtest ~count:400 "store = reference, write for write" arb_og_walk
            prop_propagation_matches_reference;
          Alcotest.test_case "minor words per node" `Quick
            test_minor_words_per_node;
        ] );
      ( "throttle",
        [
          qtest ~count:70 "every policy preserves the verdict" arb_small_case
            prop_policies_preserve_verdicts;
          qtest ~count:70 "attempts decrease with stricter policies"
            arb_small_case prop_attempts_monotone_in_strictness;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats json carries rule counters" `Quick
            test_stats_json_carries_counters;
        ] );
    ]
