(* Capacity planning with the orthogonal knapsack: when the chip and the
   deadline cannot accommodate the full task set, which subset of the
   computation should stay in hardware? Values are computation volumes
   (cells x cycles): keep the work that is most expensive to move to
   software. Also shows the stage-1 bound certificates and the size of
   the grid ILP model the paper argues against.

   Run with: dune exec examples/capacity_planning.exe *)

let () =
  let de = Benchmarks.De.instance in

  (* The full DE set needs a 16x16 chip and 14 cycles. Tighten the
     deadline to 8 cycles on the same chip: infeasible — what fits? *)
  let chip = Fpga.Chip.square 16 in
  let t_max = 8 in
  let container = Fpga.Chip.container chip ~t_max in

  (match
     Packing.Bound_engine.check (Packing.Bound_engine.create ()) de container
   with
  | Packing.Bound_engine.Infeasible { bound; detail } ->
    Format.printf "full task set on %a in %d cycles: infeasible (%s: %s)@."
      Fpga.Chip.pp chip t_max bound detail
  | Packing.Bound_engine.Lower_bound _ | Packing.Bound_engine.Inconclusive -> (
    match Packing.Opp_solver.solve de container with
    | Packing.Opp_solver.Infeasible, _ ->
      Format.printf "full task set on %a in %d cycles: infeasible (search)@."
        Fpga.Chip.pp chip t_max
    | _ -> Format.printf "full task set fits?!@."));

  let value i = Geometry.Box.volume (Packing.Instance.box de i) in
  (match Packing.Knapsack.solve de container ~value with
  | None -> Format.printf "nothing fits@."
  | Some { Packing.Knapsack.value; selected; placement } ->
    Format.printf "@.best hardware subset (kept volume %d of %d):@." value
      (Packing.Instance.total_volume de);
    List.iter
      (fun i -> Format.printf "  %s@." (Packing.Instance.label de i))
      selected;
    Format.printf "@.%s@." (Geometry.Render.gantt placement));

  (* The model-size argument from the paper's introduction: the
     grid-indexed 0-1 ILP for the same question. *)
  let size = Baseline.Ilp_model.size_of de container in
  Format.printf "grid 0-1 ILP for the same container: %a@."
    Baseline.Ilp_model.pp_size size;
  let big = Fpga.Chip.container (Fpga.Chip.square 32) ~t_max:14 in
  Format.printf "...and on the paper's 32x32x14 scale: %a@."
    Baseline.Ilp_model.pp_size
    (Baseline.Ilp_model.size_of de big)
