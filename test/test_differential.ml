(* Differential harness: the packing-class solver, the domain-parallel
   solver and the baseline geometric enumeration must agree on
   feasibility for randomly generated instances (with and without
   precedence DAGs), and every Feasible witness must pass geometric
   validation and respect the precedence arcs.

   The fast profile (plain `dune runtest`) runs 500+ random instances
   with a fixed qcheck seed; `dune build @slow` multiplies the counts
   via QCHECK_LONG (see test/dune). *)

module Container = Geometry.Container
module Placement = Geometry.Placement
module Instance = Packing.Instance
module Solver = Packing.Opp_solver
module Par = Packing.Parallel_solver
module BB = Baseline.Geometric_bb

(* A fixed generator state makes `dune runtest` reproducible;
   QCHECK_SEED (read by qcheck-alcotest before this default applies)
   still wins when exported explicitly. *)
let seed = [| 0x0FF1CE; 2026 |]

(* Budgets large enough that these instance sizes never hit them; a
   budget hit would surface as an Alcotest failure, not a skip. *)
let seq_options = { Solver.default_options with node_limit = Some 2_000_000 }
let geo_node_limit = 20_000_000

type verdict =
  | Yes of Placement.t
  | No

let check_witness name inst container p =
  if not (Placement.is_feasible p ~container ~precedes:(Instance.precedes inst))
  then QCheck.Test.fail_reportf "%s: witness fails geometric validation" name;
  (* Redundant with [is_feasible]'s precedence check, but asserted
     separately so a validator regression cannot mask an ordering bug. *)
  let n = Instance.count inst in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Instance.precedes inst u v then
        if Placement.finish_time p u > Placement.start_time p v then
          QCheck.Test.fail_reportf "%s: witness violates arc %d -> %d" name u v
    done
  done

let seq_verdict inst container =
  match Solver.solve ~options:seq_options inst container with
  | Solver.Feasible p, _ ->
    check_witness "sequential" inst container p;
    Yes p
  | Solver.Infeasible, _ -> No
  | Solver.Timeout, _ -> QCheck.Test.fail_report "sequential solver timed out"

let par_verdict ~jobs inst container =
  let r = Par.solve ~options:seq_options ~jobs inst container in
  match r.Par.outcome with
  | Solver.Feasible p ->
    check_witness "parallel" inst container p;
    Yes p
  | Solver.Infeasible -> No
  | Solver.Timeout -> QCheck.Test.fail_report "parallel solver timed out"

(* The baseline's position enumeration can exhaust even a generous
   budget on mid-size containers; a budget hit is "no verdict", not a
   disagreement, so it only skips the geometric leg of the check. *)
let geo_verdict inst container =
  match BB.solve ~node_limit:geo_node_limit inst container with
  | BB.Feasible p, _ ->
    check_witness "geometric" inst container p;
    Some (Yes p)
  | BB.Infeasible, _ -> Some No
  | BB.Timeout, _ -> None

let agree a b = match (a, b) with
  | Yes _, Yes _ | No, No -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Random instances (precedence DAG density varies, including none)    *)
(* ------------------------------------------------------------------ *)

let arb_random_case =
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
      Printf.sprintf "seed=%d n=%d max_extent=%d max_duration=%d arcs=%.2f cont=%dx%dx%d"
        seed n me md ap cw ch ct)

let random_case (seed, n, max_extent, max_duration, arc_probability, (cw, ch, ct)) =
  ( Benchmarks.Generate.random ~seed ~n ~max_extent ~max_duration
      ~arc_probability (),
    Container.make3 ~w:cw ~h:ch ~t_max:ct )

let prop_three_way_agreement case =
  let inst, container = random_case case in
  let s = seq_verdict inst container in
  let p = par_verdict ~jobs:2 inst container in
  agree s p
  && match geo_verdict inst container with None -> true | Some g -> agree s g

let prop_parallel_jobs_agree case =
  let inst, container = random_case case in
  let s = seq_verdict inst container in
  List.for_all
    (fun jobs -> agree s (par_verdict ~jobs inst container))
    [ 1; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Guillotine instances: feasible by construction                      *)
(* ------------------------------------------------------------------ *)

let arb_guillotine =
  QCheck.make
    QCheck.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* cuts = int_range 0 6 in
      let* arc_probability = oneofl [ 0.0; 0.3; 0.6 ] in
      return (seed, cuts, arc_probability))
    ~print:(fun (seed, cuts, ap) ->
      Printf.sprintf "seed=%d cuts=%d arcs=%.1f" seed cuts ap)

let prop_guillotine_all_feasible (seed, cuts, arc_probability) =
  let container = Container.make3 ~w:6 ~h:6 ~t_max:6 in
  let inst, _witness =
    Benchmarks.Generate.guillotine ~seed ~container ~cuts ~arc_probability ()
  in
  let feasible = function Yes _ -> true | No -> false in
  feasible (seq_verdict inst container)
  && feasible (par_verdict ~jobs:2 inst container)
  && match geo_verdict inst container with
     | None -> true
     | Some g -> feasible g

(* ------------------------------------------------------------------ *)
(* d-dimensional instances (d in {2, 3, 4}) with per-axis orders       *)
(* ------------------------------------------------------------------ *)

(* Witness validation for instances whose order constraints live on
   arbitrary axes: [Placement.is_feasible] hardwires precedence to the
   last axis, so the instance-level check is the authority here. *)
let check_witness_ddim name inst container p =
  if not (Instance.placement_feasible inst ~container p) then
    QCheck.Test.fail_reportf "%s: witness fails d-dim validation" name

let seq_verdict_ddim inst container =
  match Solver.solve ~options:seq_options inst container with
  | Solver.Feasible p, _ ->
    check_witness_ddim "sequential" inst container p;
    Yes p
  | Solver.Infeasible, _ -> No
  | Solver.Timeout, _ -> QCheck.Test.fail_report "sequential solver timed out"

let par_verdict_ddim ~jobs inst container =
  let r = Par.solve ~options:seq_options ~jobs inst container in
  match r.Par.outcome with
  | Solver.Feasible p ->
    check_witness_ddim "parallel" inst container p;
    Yes p
  | Solver.Infeasible -> No
  | Solver.Timeout -> QCheck.Test.fail_report "parallel solver timed out"

let geo_verdict_ddim inst container =
  match BB.solve ~node_limit:geo_node_limit inst container with
  | BB.Feasible p, _ ->
    check_witness_ddim "geometric" inst container p;
    Some (Yes p)
  | BB.Infeasible, _ -> Some No
  | BB.Timeout, _ -> None

let ddim_container = function
  | 2 -> Container.make [| 5; 7 |]
  | 3 -> Container.make [| 4; 4; 6 |]
  | 4 -> Container.make [| 2; 2; 3; 5 |]
  | d -> invalid_arg (Printf.sprintf "ddim_container: %d" d)

let arb_ddim =
  QCheck.make
    QCheck.Gen.(
      let* dim = oneofl [ 2; 3; 4 ] in
      let* seed = int_range 0 1_000_000 in
      let* cuts = int_range 0 5 in
      let* arc_probability = oneofl [ 0.0; 0.3; 0.6 ] in
      (* Order arcs on the first axis, the objective axis, or both:
         spatial orders must be exercised, not just the legacy time
         order. *)
      let* axes = oneofl [ [ 0 ]; [ dim - 1 ]; [ 0; dim - 1 ] ] in
      (* How much the container's objective-axis extent is cut below
         the witnessed tiling: 0 keeps the instance feasible by
         construction, larger values make infeasibility likely. *)
      let* squeeze = int_range 0 2 in
      return (dim, seed, cuts, arc_probability, axes, squeeze))
    ~print:(fun (dim, seed, cuts, ap, axes, squeeze) ->
      Printf.sprintf "dim=%d seed=%d cuts=%d arcs=%.1f axes=[%s] squeeze=%d"
        dim seed cuts ap
        (String.concat ";" (List.map string_of_int axes))
        squeeze)

let ddim_case (dim, seed, cuts, arc_probability, axes, squeeze) =
  let full = ddim_container dim in
  let inst, _witness =
    Benchmarks.Generate.guillotine ~order_axes:axes ~seed ~container:full
      ~cuts ~arc_probability ()
  in
  let axis = Instance.objective_axis inst in
  let extent = max 1 (Container.extent full axis - squeeze) in
  (inst, Container.with_extent full axis extent, squeeze = 0)

let prop_ddim_three_way case =
  let inst, container, feasible_by_construction = ddim_case case in
  let s = seq_verdict_ddim inst container in
  let p = par_verdict_ddim ~jobs:2 inst container in
  (match (s, feasible_by_construction) with
  | No, true ->
    QCheck.Test.fail_report "guillotine tiling rejected at full container"
  | _ -> ());
  agree s p
  &&
  match geo_verdict_ddim inst container with
  | None -> true
  | Some g -> agree s g

(* The packing search's optimum along any axis must match the one the
   geometric enumeration finds by walking extents up from 1. *)
let geo_min_extent inst ~axis ~base =
  let rec walk e =
    if e > 64 then None
    else
      let cont = Container.with_extent base axis e in
      match BB.solve ~node_limit:geo_node_limit inst cont with
      | BB.Feasible _, _ -> Some e
      | BB.Infeasible, _ -> walk (e + 1)
      | BB.Timeout, _ -> None
  in
  walk 1

let prop_ddim_min_extent case =
  let inst, _, _ = ddim_case case in
  let dim = Instance.dim inst in
  let base = ddim_container dim in
  (* Minimize a spatial axis, not just the objective one. *)
  let axis = match case with d, s, _, _, _, _ -> (s + d) mod dim in
  match
    Packing.Problems.minimize_extent ~options:seq_options inst ~axis ~base
  with
  | Packing.Problems.Optimal { value; placement } ->
    check_witness_ddim "minimize_extent"
      inst
      (Container.with_extent base axis value)
      placement;
    (match geo_min_extent inst ~axis ~base with
    | None -> true
    | Some g ->
      if g <> value then
        QCheck.Test.fail_reportf
          "minimize_extent axis %d: packing says %d, geometric says %d" axis
          value g;
      true)
  | Packing.Problems.Infeasible ->
    (match geo_min_extent inst ~axis ~base with
    | Some g ->
      QCheck.Test.fail_reportf
        "minimize_extent axis %d: Infeasible but geometric finds %d" axis g
    | None -> true)
  | _ -> QCheck.Test.fail_report "minimize_extent exhausted its budget"

let () =
  Alcotest.run "differential"
    [
      ( "three-way",
        [
          Fixed_seed.qtest ~seed ~long_factor:10 ~count:300
            "random: seq = par = geometric" arb_random_case
            prop_three_way_agreement;
          Fixed_seed.qtest ~seed ~long_factor:10 ~count:100
            "random: jobs 1/3/4 agree with seq" arb_random_case
            prop_parallel_jobs_agree;
        ] );
      ( "guillotine",
        [
          Fixed_seed.qtest ~seed ~long_factor:10 ~count:150
            "feasible by construction, all three say yes"
            arb_guillotine prop_guillotine_all_feasible;
        ] );
      ( "ddim",
        [
          Fixed_seed.qtest ~seed ~long_factor:10 ~count:150
            "d in {2,3,4}: seq = par = geometric" arb_ddim prop_ddim_three_way;
          Fixed_seed.qtest ~seed ~long_factor:10 ~count:60
            "d in {2,3,4}: minimize_extent = geometric walk"
            arb_ddim prop_ddim_min_extent;
        ] );
    ]
