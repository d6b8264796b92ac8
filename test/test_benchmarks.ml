(* Tests for the benchmark instances (DE, video codec) and the random
   generators. The expensive end-to-end reproductions (Table 1, Table 2,
   Fig. 7) are exercised here at full fidelity: they are the headline
   results and they run in well under a second each. *)

module Instance = Packing.Instance
module Problems = Packing.Problems
module De = Benchmarks.De
module VC = Benchmarks.Video_codec
module Generate = Benchmarks.Generate

let seed = [| 0xBE4C; 2026 |]

(* ------------------------------------------------------------------ *)
(* DE benchmark                                                        *)
(* ------------------------------------------------------------------ *)

let test_de_shape () =
  let de = De.instance in
  Alcotest.(check int) "11 tasks" 11 (Instance.count de);
  Alcotest.(check string) "labels" "v1" (Instance.label de 0);
  (* 6 multipliers of 16x16x2, 5 ALU operations of 16x1x1. *)
  let muls = ref 0 and alus = ref 0 in
  for i = 0 to 10 do
    if Instance.extent de i 1 = 16 then incr muls else incr alus
  done;
  Alcotest.(check int) "MULs" 6 !muls;
  Alcotest.(check int) "ALUs" 5 !alus;
  Alcotest.(check int) "longest path 6" 6 (Instance.critical_path de);
  (* Transitive closure: v1 -> v3 -> v4 -> v5. *)
  Alcotest.(check bool) "closure v1 v5" true (Instance.precedes de 0 4)

let test_de_table1 () =
  List.iter
    (fun (t_max, expected) ->
      match Problems.minimize_base De.instance ~t_max with
      | Problems.Infeasible | Problems.Feasible_incumbent _ | Problems.Unknown _
        -> Alcotest.failf "T=%d must be optimal" t_max
      | Problems.Optimal { value; placement } ->
        Alcotest.(check int) (Printf.sprintf "optimal chip at T=%d" t_max)
          expected value;
        Alcotest.(check bool) "witness valid" true
          (Geometry.Placement.is_feasible placement
             ~container:(Geometry.Container.make3 ~w:value ~h:value ~t_max)
             ~precedes:(Instance.precedes De.instance)))
    De.table1

let test_de_fig7_solid () =
  let front = Problems.pareto_front De.instance ~h_min:16 ~h_max:48 in
  Alcotest.(check bool) "solid front complete" true front.Problems.complete;
  Alcotest.(check (list (pair int int)))
    "solid Pareto front" [ (16, 14); (17, 13); (32, 6) ] front.Problems.points

let test_de_fig7_dashed () =
  let front =
    Problems.pareto_front De.instance_without_precedence ~h_min:16 ~h_max:48
  in
  Alcotest.(check bool) "dashed front complete" true front.Problems.complete;
  Alcotest.(check (list (pair int int)))
    "dashed Pareto front"
    [ (16, 13); (17, 12); (32, 4); (48, 2) ]
    front.Problems.points

let test_de_infeasible_below_16 () =
  (* One multiplier alone fills a 16x16 chip; nothing smaller works. *)
  Alcotest.(check bool) "15x15 hopeless" true
    (Problems.minimize_time De.instance ~w:15 ~h:15 = Problems.Infeasible)

(* ------------------------------------------------------------------ *)
(* Video codec benchmark                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_shape () =
  let c = VC.instance in
  Alcotest.(check int) "15 tasks" 15 (Instance.count c);
  Alcotest.(check int) "critical path 59" 59 (Instance.critical_path c);
  (* The BMM spans the full chip. *)
  let me = 0 in
  Alcotest.(check string) "ME first" "ME" (Instance.label c me);
  Alcotest.(check int) "BMM width" 64 (Instance.extent c me 0)

let test_codec_table2 () =
  let h_exp, t_exp = VC.table2 in
  (match Problems.minimize_base VC.instance ~t_max:t_exp with
  | Problems.Optimal { value; _ } -> Alcotest.(check int) "chip 64" h_exp value
  | _ -> Alcotest.fail "codec feasible at T=59");
  match Problems.minimize_time VC.instance ~w:64 ~h:64 with
  | Problems.Optimal { value; _ } ->
    Alcotest.(check int) "latency 59" t_exp value
  | _ -> Alcotest.fail "codec feasible on 64x64"

let test_codec_no_smaller_chip () =
  (* "there is no solution for container sizes smaller than 64x64" *)
  match
    Packing.Opp_solver.solve VC.instance
      (Geometry.Container.make3 ~w:63 ~h:63 ~t_max:500)
  with
  | Packing.Opp_solver.Infeasible, _ -> ()
  | _ -> Alcotest.fail "63x63 must be infeasible at any latency"

let test_codec_infeasible_below_59 () =
  Alcotest.(check bool) "T=58 infeasible" true
    (Problems.minimize_base VC.instance ~t_max:58 = Problems.Infeasible)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_random_deterministic () =
  let a = Generate.random ~seed:7 ~n:5 ~max_extent:4 ~max_duration:3 ~arc_probability:0.5 () in
  let b = Generate.random ~seed:7 ~n:5 ~max_extent:4 ~max_duration:3 ~arc_probability:0.5 () in
  Alcotest.(check int) "same count" (Instance.count a) (Instance.count b);
  for i = 0 to Instance.count a - 1 do
    Alcotest.(check bool) "same boxes" true
      (Geometry.Box.equal (Instance.box a i) (Instance.box b i))
  done

let test_guillotine_tiles () =
  let container = Geometry.Container.make3 ~w:5 ~h:5 ~t_max:5 in
  let inst, placement =
    Generate.guillotine ~seed:3 ~container ~cuts:4 ~arc_probability:0.5 ()
  in
  Alcotest.(check int) "pieces" 5 (Instance.count inst);
  (* Pieces tile the container exactly: volumes add up. *)
  Alcotest.(check int) "volumes" 125 (Instance.total_volume inst);
  Alcotest.(check bool) "witness feasible" true
    (Geometry.Placement.is_feasible placement ~container
       ~precedes:(Instance.precedes inst))

let arb_gen_params =
  QCheck.make
    QCheck.Gen.(
      let* seed = int_range 0 9999 in
      let* cuts = int_range 0 8 in
      let* p = float_range 0.0 1.0 in
      return (seed, cuts, p))
    ~print:(fun (s, c, p) -> Printf.sprintf "seed=%d cuts=%d p=%.2f" s c p)

let prop_guillotine_always_witnessed (seed, cuts, p) =
  let container = Geometry.Container.make3 ~w:7 ~h:6 ~t_max:8 in
  let inst, placement =
    Generate.guillotine ~seed ~container ~cuts ~arc_probability:p ()
  in
  Instance.count inst = cuts + 1
  && Instance.total_volume inst = Geometry.Container.volume container
  && Geometry.Placement.is_feasible placement ~container
       ~precedes:(Instance.precedes inst)

let prop_random_within_ranges (seed, _, p) =
  let inst =
    Generate.random ~seed ~n:6 ~max_extent:5 ~max_duration:4 ~arc_probability:p ()
  in
  let ok = ref true in
  for i = 0 to Instance.count inst - 1 do
    if Instance.extent inst i 0 > 5 || Instance.extent inst i 1 > 5 then ok := false;
    if Instance.duration inst i > 4 then ok := false
  done;
  !ok


(* ------------------------------------------------------------------ *)
(* Arrival streams                                                     *)
(* ------------------------------------------------------------------ *)

let stream_chip = Fpga.Chip.create ~w:10 ~h:6

let test_stream_deterministic () =
  let gen () =
    Generate.arrival_stream ~seed:7 ~n:200 ~chip:stream_chip ~load:1.2
      ~max_extent:8 ~max_duration:5 ~arc_probability:0.2 ()
  in
  Alcotest.(check bool) "same seed, same stream" true (gen () = gen ());
  let other =
    Generate.arrival_stream ~seed:8 ~n:200 ~chip:stream_chip ~load:1.2
      ~max_extent:8 ~max_duration:5 ~arc_probability:0.2 ()
  in
  Alcotest.(check bool) "different seed differs" true (gen () <> other)

(* Every generated task fits the chip, arrivals are non-decreasing, and
   predecessors precede their successors in the array. *)
let prop_stream_well_formed (seed, _, p) =
  let tasks =
    Generate.arrival_stream ~seed ~n:80 ~chip:stream_chip ~load:1.0
      ~max_extent:8 ~max_duration:5 ~arc_probability:p ()
  in
  let ok = ref (Array.length tasks = 80) in
  let last = ref 0 in
  Array.iteri
    (fun i t ->
      let open Fpga.Online in
      (* max_extent is clamped to the chip's min side (6 here) *)
      if t.w < 1 || t.w > 6 || t.h < 1 || t.h > 6 then ok := false;
      if t.duration < 1 || t.duration > 5 then ok := false;
      if t.arrival < !last then ok := false;
      last := t.arrival;
      List.iter (fun j -> if j < 0 || j >= i then ok := false) t.preds;
      if List.sort_uniq compare t.preds <> List.sort compare t.preds then
        ok := false)
    tasks;
  !ok

(* The generated stream is directly consumable by the online manager:
   everything is accounted for and nothing is oversize. *)
let prop_stream_runs_clean (seed, _, _) =
  let tasks =
    Generate.arrival_stream ~seed ~n:60 ~chip:stream_chip ~load:1.5
      ~max_extent:4 ~max_duration:4 ~arc_probability:0.2 ()
  in
  let r =
    Fpga.Online.run_stream ~policy:Fpga.Online.Best_fit tasks ~chip:stream_chip
      ~compaction:false ~move_delay:0
  in
  r.Fpga.Online.placed = 60
  && r.Fpga.Online.rejected = 0
  && r.Fpga.Online.never_arrived = 0

(* ------------------------------------------------------------------ *)
(* Parametric DFG families                                             *)
(* ------------------------------------------------------------------ *)

let test_dfg_fir () =
  let f = Benchmarks.Dfg.fir ~taps:4 in
  (* 4 MULs + 3 adders in a balanced tree. *)
  Alcotest.(check int) "tasks" 7 (Instance.count f);
  (* Critical path: MUL (2) + 2 adder levels (1 + 1). *)
  Alcotest.(check int) "critical path" 4 (Instance.critical_path f);
  let one = Benchmarks.Dfg.fir ~taps:1 in
  Alcotest.(check int) "degenerate" 1 (Instance.count one)

let test_dfg_chain () =
  let c = Benchmarks.Dfg.chain ~length:5 in
  Alcotest.(check int) "tasks" 5 (Instance.count c);
  (* MUL ALU MUL ALU MUL: 2+1+2+1+2 = 8, fully serial. *)
  Alcotest.(check int) "critical = total" (Instance.total_duration c)
    (Instance.critical_path c)

let test_dfg_independent () =
  let i = Benchmarks.Dfg.independent ~n:4 in
  Alcotest.(check int) "tasks" 4 (Instance.count i);
  Alcotest.(check int) "no chains" 2 (Instance.critical_path i)

let test_dfg_butterfly () =
  let b = Benchmarks.Dfg.butterfly ~stages:2 in
  (* 2 stages x 2 butterflies x 3 tasks. *)
  Alcotest.(check int) "tasks" 12 (Instance.count b);
  Alcotest.(check bool) "has dependencies" true
    (Order.Partial_order.size (Instance.precedence b) > 0)

let test_dfg_solvable () =
  (* The FIR-4 on a 32x32 chip: exact makespan is the critical path
     (two MULs run in parallel, adders slot beside them). *)
  let f = Benchmarks.Dfg.fir ~taps:4 in
  match Problems.minimize_time f ~w:48 ~h:48 with
  | Problems.Optimal { value; _ } ->
    Alcotest.(check int) "critical-path optimal" (Instance.critical_path f) value
  | _ -> Alcotest.fail "fits"

let () =
  Alcotest.run "benchmarks"
    [
      ( "de",
        [
          Alcotest.test_case "shape" `Quick test_de_shape;
          Alcotest.test_case "Table 1" `Quick test_de_table1;
          Alcotest.test_case "Fig. 7 solid" `Quick test_de_fig7_solid;
          Alcotest.test_case "Fig. 7 dashed" `Quick test_de_fig7_dashed;
          Alcotest.test_case "below 16" `Quick test_de_infeasible_below_16;
        ] );
      ( "video codec",
        [
          Alcotest.test_case "shape" `Quick test_codec_shape;
          Alcotest.test_case "Table 2" `Quick test_codec_table2;
          Alcotest.test_case "no smaller chip" `Quick test_codec_no_smaller_chip;
          Alcotest.test_case "below 59" `Quick test_codec_infeasible_below_59;
        ] );
      ( "dfg families",
        [
          Alcotest.test_case "fir" `Quick test_dfg_fir;
          Alcotest.test_case "chain" `Quick test_dfg_chain;
          Alcotest.test_case "independent" `Quick test_dfg_independent;
          Alcotest.test_case "butterfly" `Quick test_dfg_butterfly;
          Alcotest.test_case "fir solvable" `Quick test_dfg_solvable;
        ] );
      ( "generators",
        [
          Alcotest.test_case "deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "guillotine tiles" `Quick test_guillotine_tiles;
          Fixed_seed.qtest ~seed ~count:60 "guillotine witnessed" arb_gen_params
            prop_guillotine_always_witnessed;
          Fixed_seed.qtest ~seed ~count:60 "random ranges" arb_gen_params
            prop_random_within_ranges;
        ] );
      ( "arrival stream",
        [
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
          Fixed_seed.qtest ~seed ~count:60 "well formed" arb_gen_params
            prop_stream_well_formed;
          Fixed_seed.qtest ~seed ~count:40 "runs clean" arb_gen_params
            prop_stream_runs_clean;
        ] );
    ]
