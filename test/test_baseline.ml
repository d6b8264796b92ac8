(* Tests for the naive geometric branch-and-bound baseline: it must be
   exact (agree with the packing-class solver), just slower. *)

module Box = Geometry.Box
module Container = Geometry.Container
module GBB = Baseline.Geometric_bb
module Solver = Packing.Opp_solver

let seed = [| 0xBA5E; 2026 |]

let inst ?precedence boxes =
  Packing.Instance.make ?precedence ~boxes:(Array.of_list boxes) ()

let box3 w h d = Box.make3 ~w ~h ~duration:d
let cont3 w h t = Container.make3 ~w ~h ~t_max:t

let test_baseline_feasible () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  match GBB.solve i (cont3 4 2 2) with
  | GBB.Feasible p, stats ->
    Alcotest.(check bool) "validated" true
      (Geometry.Placement.is_feasible p ~container:(cont3 4 2 2)
         ~precedes:(Packing.Instance.precedes i));
    Alcotest.(check bool) "nodes counted" true (stats.GBB.nodes > 0)
  | _ -> Alcotest.fail "must fit side by side"

let test_baseline_infeasible () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  match GBB.solve i (cont3 3 2 2) with
  | GBB.Infeasible, _ -> ()
  | _ -> Alcotest.fail "3 wide cannot hold two 2-wide boxes in 2 cycles"

let test_baseline_precedence () =
  let i = inst ~precedence:[ (0, 1) ] [ box3 2 2 2; box3 2 2 2 ] in
  (match GBB.solve i (cont3 4 4 3) with
  | GBB.Infeasible, _ -> ()
  | _ -> Alcotest.fail "chain needs 4 cycles");
  match GBB.solve i (cont3 4 4 4) with
  | GBB.Feasible p, _ ->
    Alcotest.(check bool) "order respected" true
      (Geometry.Placement.finish_time p 0 <= Geometry.Placement.start_time p 1)
  | _ -> Alcotest.fail "chain fits 4 cycles"

let test_baseline_node_limit () =
  let i = inst (List.init 5 (fun _ -> box3 2 2 2)) in
  match GBB.solve ~node_limit:1 i (cont3 6 6 4) with
  | GBB.Timeout, _ -> ()
  | _ -> Alcotest.fail "limit of one node must time out"

(* Agreement with the packing-class solver on random small instances. *)
let arb_case =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* dims =
        list_repeat n (triple (int_range 1 3) (int_range 1 3) (int_range 1 3))
      in
      let* arcs =
        let pairs =
          List.concat_map
            (fun u -> List.init (n - u - 1) (fun k -> (u, u + k + 1)))
            (List.init n Fun.id)
        in
        flatten_l
          (List.map
             (fun p ->
               let* keep = int_range 0 3 in
               return (if keep = 0 then Some p else None))
             pairs)
      in
      let* cw = int_range 2 4 and* ch = int_range 2 4 and* ct = int_range 2 5 in
      return (dims, List.filter_map Fun.id arcs, (cw, ch, ct)))
  in
  QCheck.make gen ~print:(fun (dims, arcs, (cw, ch, ct)) ->
      Format.asprintf "boxes=%s arcs=%s cont=%dx%dx%d"
        (String.concat ","
           (List.map (fun (w, h, d) -> Printf.sprintf "%dx%dx%d" w h d) dims))
        (String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) arcs))
        cw ch ct)

let prop_agrees_with_packing_solver (dims, arcs, (cw, ch, ct)) =
  let i = inst ~precedence:arcs (List.map (fun (w, h, d) -> box3 w h d) dims) in
  let c = cont3 cw ch ct in
  let baseline =
    match GBB.solve i c with
    | GBB.Feasible _, _ -> true
    | GBB.Infeasible, _ -> false
    | GBB.Timeout, _ -> QCheck.assume_fail ()
  in
  let packing =
    match Solver.solve i c with
    | Solver.Feasible _, _ -> true
    | Solver.Infeasible, _ -> false
    | Solver.Timeout, _ -> QCheck.assume_fail ()
  in
  baseline = packing


(* ------------------------------------------------------------------ *)
(* ILP model                                                           *)
(* ------------------------------------------------------------------ *)

module Ilp = Baseline.Ilp_model

let test_ilp_size () =
  let i = inst [ box3 2 2 2 ] in
  let c = cont3 4 4 4 in
  let s = Ilp.size_of i c in
  (* Anchors: 3 * 3 * 3 = 27 feasible positions; dense count 64. *)
  Alcotest.(check int) "variables" 27 s.Ilp.variables;
  Alcotest.(check int) "dense" 64 s.Ilp.dense_variables;
  Alcotest.(check int) "assignment" 1 s.Ilp.assignment_constraints;
  Alcotest.(check int) "capacity" 64 s.Ilp.capacity_constraints

let test_ilp_size_blowup () =
  (* The paper's argument: the DE instance on 32x32x14 needs a hopeless
     number of 0-1 variables. *)
  let s =
    Ilp.size_of Benchmarks.De.instance
      (Geometry.Container.make3 ~w:32 ~h:32 ~t_max:14)
  in
  Alcotest.(check bool) "tens of thousands of variables" true
    (s.Ilp.variables > 10_000);
  Alcotest.(check int) "dense count n*X*Y*T" (11 * 32 * 32 * 14)
    s.Ilp.dense_variables

let test_ilp_lp_format () =
  let i = inst ~precedence:[ (0, 1) ] [ box3 1 1 1; box3 1 1 1 ] in
  let lp = Ilp.to_lp i (cont3 1 1 2) in
  let contains needle =
    let nl = String.length needle and l = String.length lp in
    let rec go j = j + nl <= l && (String.sub lp j nl = needle || go (j + 1)) in
    go 0
  in
  Alcotest.(check bool) "assignment rows" true (contains "assign_0:");
  Alcotest.(check bool) "capacity rows" true (contains "cap_0_0_0:");
  Alcotest.(check bool) "precedence rows" true (contains "prec_0_1:");
  Alcotest.(check bool) "binary section" true (contains "Binary")

let test_ilp_solve_tiny () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  Alcotest.(check (option bool)) "feasible" (Some true)
    (Ilp.solve_tiny i (cont3 4 2 2) ~variable_limit:100);
  Alcotest.(check (option bool)) "infeasible" (Some false)
    (Ilp.solve_tiny i (cont3 3 2 2) ~variable_limit:100);
  Alcotest.(check (option bool)) "refuses big models" None
    (Ilp.solve_tiny Benchmarks.De.instance
       (Geometry.Container.make3 ~w:32 ~h:32 ~t_max:14)
       ~variable_limit:100)

let prop_ilp_agrees_with_packing_solver (dims, arcs, (cw, ch, ct)) =
  let i = inst ~precedence:arcs (List.map (fun (w, h, d) -> box3 w h d) dims) in
  let c = cont3 cw ch ct in
  match Ilp.solve_tiny i c ~variable_limit:200 with
  | None -> QCheck.assume_fail ()
  | Some ilp_answer -> (
    match Solver.solve i c with
    | Solver.Feasible _, _ -> ilp_answer
    | Solver.Infeasible, _ -> not ilp_answer
    | Solver.Timeout, _ -> QCheck.assume_fail ())

let () =
  Alcotest.run "baseline"
    [
      ( "geometric bb",
        [
          Alcotest.test_case "feasible" `Quick test_baseline_feasible;
          Alcotest.test_case "infeasible" `Quick test_baseline_infeasible;
          Alcotest.test_case "precedence" `Quick test_baseline_precedence;
          Alcotest.test_case "node limit" `Quick test_baseline_node_limit;
          Fixed_seed.qtest ~seed ~count:80 "agrees with packing solver" arb_case
            prop_agrees_with_packing_solver;
        ] );
      ( "ilp model",
        [
          Alcotest.test_case "size" `Quick test_ilp_size;
          Alcotest.test_case "size blowup" `Quick test_ilp_size_blowup;
          Alcotest.test_case "lp format" `Quick test_ilp_lp_format;
          Alcotest.test_case "solve tiny" `Quick test_ilp_solve_tiny;
          Fixed_seed.qtest ~seed ~count:60 "agrees with packing solver" arb_case
            prop_ilp_agrees_with_packing_solver;
        ] );
    ]
