(* FixedS problems (paper Sec. 4 intro and [22,23]): when all start
   times are given, the time dimension is fully determined and the
   3D problem collapses to a 2D one. This example takes an ASAP
   schedule for the DE benchmark and asks for the smallest chip that
   realizes it (MinA&FixedS), then shows that an ill-chosen schedule
   needs a bigger chip than the jointly optimized one.

   Run with: dune exec examples/fixed_schedule.exe *)

let () =
  let de = Benchmarks.De.instance in

  (* ASAP schedule: every task starts as soon as its predecessors are
     done — maximum parallelism, maximum area pressure. *)
  let asap =
    Order.Partial_order.earliest_starts
      (Packing.Instance.precedence de)
      ~duration:(Packing.Instance.duration de)
  in
  Format.printf "ASAP start times:";
  Array.iteri (fun i s -> Format.printf " %s=%d" (Packing.Instance.label de i) s) asap;
  Format.printf "@.";
  let t_max = 14 in
  (match Packing.Problems.minimize_base_fixed_schedule de ~t_max ~schedule:asap with
  | Packing.Problems.Optimal { value; placement } ->
    Format.printf "smallest chip realizing the ASAP schedule: %dx%d@." value value;
    Format.printf "%s@." (Geometry.Render.gantt placement)
  | _ -> Format.printf "ASAP schedule unrealizable?@.");

  (* The jointly optimized schedule from the BMP needs only 16x16 at
     T = 14 — scheduling and placement interact. *)
  (match Packing.Problems.minimize_base de ~t_max with
  | Packing.Problems.Optimal { value; _ } ->
    Format.printf
      "smallest chip when the schedule is optimized jointly: %dx%d@." value
      value
  | _ -> ());

  (* FeasA&FixedS: check one explicit serialized schedule on the
     smallest possible chip. *)
  (* MULs serialize on the full chip for 12 cycles; the five ALUs share
     the last two cycles (three side by side, then two). *)
  let serial = [| 0; 2; 4; 12; 13; 6; 8; 10; 12; 12; 13 |] in
  match
    Packing.Problems.feasible_fixed_schedule de ~w:16 ~h:16 ~t_max:14
      ~schedule:serial
  with
  | Some placement ->
    Format.printf "@.hand-written serialized schedule fits 16x16:@.%s@."
      (Geometry.Render.gantt placement)
  | None -> Format.printf "@.hand-written schedule does not fit 16x16@."
