(* Random-instance sweep: compare the packing-class solver against the
   naive geometric branch-and-bound baseline on generated workloads, and
   sanity-check both against guillotine instances that are feasible by
   construction.

   Run with: dune exec examples/random_sweep.exe *)

let () =
  Format.printf
    "seed  n  verdict      packing-nodes  geometric-nodes  agree@.";
  let geometric_budget = 2_000_000 in
  for seed = 1 to 12 do
    let inst =
      Benchmarks.Generate.random ~seed ~n:6 ~max_extent:4 ~max_duration:3
        ~arc_probability:0.2 ()
    in
    let container = Geometry.Container.make3 ~w:6 ~h:6 ~t_max:6 in
    let options =
      (* Search only: measure tree sizes, not heuristic luck. *)
      {
        Packing.Opp_solver.default_options with
        use_bounds = false;
        use_heuristic = false;
      }
    in
    let outcome, stats = Packing.Opp_solver.solve ~options inst container in
    let base_outcome, base_stats =
      Baseline.Geometric_bb.solve ~node_limit:geometric_budget inst container
    in
    let verdict = Packing.Opp_solver.outcome_name outcome in
    let agree =
      match (outcome, base_outcome) with
      | Packing.Opp_solver.Feasible _, Baseline.Geometric_bb.Feasible _
      | Packing.Opp_solver.Infeasible, Baseline.Geometric_bb.Infeasible ->
        "yes"
      | _, Baseline.Geometric_bb.Timeout -> "baseline gave up"
      | _ -> "NO!"
    in
    Format.printf "%4d %2d  %-12s %13d  %15d  %s@." seed
      (Packing.Instance.count inst)
      verdict stats.Packing.Opp_solver.nodes base_stats.Baseline.Geometric_bb.nodes
      agree
  done;

  (* Guillotine instances: always feasible; the solver must agree. *)
  Format.printf "@.guillotine instances (feasible by construction):@.";
  for seed = 1 to 8 do
    let container = Geometry.Container.make3 ~w:8 ~h:8 ~t_max:8 in
    let inst, _witness =
      Benchmarks.Generate.guillotine ~seed ~container ~cuts:6
        ~arc_probability:0.3 ()
    in
    let outcome, stats = Packing.Opp_solver.solve inst container in
    Format.printf "  seed %d: %d pieces -> %a (nodes=%d)@." seed
      (Packing.Instance.count inst)
      Packing.Opp_solver.pp_outcome outcome stats.Packing.Opp_solver.nodes
  done
