(* Tests for the packing-class core: instances, bounds, heuristic,
   propagation state, reconstruction, OPP solver and problem drivers. *)

module Box = Geometry.Box
module Container = Geometry.Container
module Placement = Geometry.Placement
module Instance = Packing.Instance
module Bound_engine = Packing.Bound_engine
module Heuristic = Packing.Heuristic
module PS = Packing.Packing_state
module Solver = Packing.Opp_solver
module Problems = Packing.Problems
module OG = Order.Oriented_graph

let why = Packing.Recorder.conflict_to_string

let seed = [| 0x9ACC; 2026 |]

let box3 w h d = Box.make3 ~w ~h ~duration:d

let inst ?precedence boxes =
  Instance.make ?precedence ~boxes:(Array.of_list boxes) ()

let cont3 w h t = Container.make3 ~w ~h ~t_max:t

(* [arc g u v]: the comparability edge [{u,v}] is oriented [u -> v]. *)
let arc g u v = Graphlib.Digraph.mem_arc (OG.orientation g) u v

let comparable p u v =
  Order.Partial_order.precedes p u v || Order.Partial_order.precedes p v u

(* ------------------------------------------------------------------ *)
(* Instance                                                            *)
(* ------------------------------------------------------------------ *)

let test_instance_basics () =
  let i = inst ~precedence:[ (0, 1); (1, 2) ] [ box3 2 3 4; box3 1 1 1; box3 5 5 2 ] in
  Alcotest.(check int) "count" 3 (Instance.count i);
  Alcotest.(check int) "dim" 3 (Instance.dim i);
  Alcotest.(check int) "duration" 4 (Instance.duration i 0);
  Alcotest.(check bool) "transitive closure" true (Instance.precedes i 0 2);
  Alcotest.(check int) "volume" (24 + 1 + 50) (Instance.total_volume i);
  Alcotest.(check int) "critical path" 7 (Instance.critical_path i);
  Alcotest.(check int) "total duration" 7 (Instance.total_duration i);
  let free = Instance.without_precedence i in
  Alcotest.(check bool) "precedence dropped" false (Instance.precedes free 0 1);
  Alcotest.(check int) "critical path without order" 4 (Instance.critical_path free)

let test_instance_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Instance.make: no tasks")
    (fun () -> ignore (inst []));
  Alcotest.check_raises "mixed dims"
    (Invalid_argument "Instance.make: mixed dimensions") (fun () ->
      ignore
        (Instance.make ~boxes:[| Box.make [| 1; 2 |]; box3 1 1 1 |] ()));
  Alcotest.check_raises "cycle"
    (Invalid_argument "Partial_order.of_arcs: precedence graph has a cycle")
    (fun () -> ignore (inst ~precedence:[ (0, 1); (1, 0) ] [ box3 1 1 1; box3 1 1 1 ]))

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

(* Whether the registered bound [name] refutes [i] in [c], read off
   the engine's full report. *)
let refutes name i c =
  match
    List.assoc name
      (Bound_engine.run_all (Bound_engine.create ())
         ~refute:(fun _ _ -> false)
         i c)
  with
  | Bound_engine.Infeasible _ -> true
  | Bound_engine.Lower_bound _ | Bound_engine.Inconclusive -> false

let test_bounds_volume () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  Alcotest.(check bool) "fits" false (refutes "volume" i (cont3 2 2 4));
  Alcotest.(check bool) "overflow" true (refutes "volume" i (cont3 2 2 3))

let test_bounds_misfit () =
  let i = inst [ box3 5 1 1 ] in
  Alcotest.(check (option int)) "too wide" (Some 0) (Bound_engine.misfit i (cont3 4 4 4));
  Alcotest.(check (option int)) "fits" None (Bound_engine.misfit i (cont3 5 1 1))

let test_bounds_critical_path () =
  let i = inst ~precedence:[ (0, 1) ] [ box3 1 1 3; box3 1 1 3 ] in
  Alcotest.(check bool) "chain too long" true
    (refutes "critical-path" i (cont3 4 4 5));
  Alcotest.(check bool) "chain fits" false
    (refutes "critical-path" i (cont3 4 4 6))

let test_bounds_exclusion () =
  (* Three boxes pairwise too large to share the chip: serialized. *)
  let i = inst [ box3 3 3 2; box3 3 3 2; box3 3 3 2 ] in
  let duration c =
    Bound_engine.exclusion_extent i c ~axis:(Instance.objective_axis i)
  in
  Alcotest.(check int) "exclusion clique" 6 (duration (cont3 4 4 10));
  (* A wide chip admits pairs side by side: no exclusion. *)
  Alcotest.(check int) "no exclusion" 2 (duration (cont3 6 4 10))

let test_dff_f_eps () =
  Alcotest.(check int) "big item" 10 (Bound_engine.f_eps ~eps:3 ~w_max:10 8);
  Alcotest.(check int) "small item" 0 (Bound_engine.f_eps ~eps:3 ~w_max:10 2);
  Alcotest.(check int) "middle item" 5 (Bound_engine.f_eps ~eps:3 ~w_max:10 5);
  Alcotest.check_raises "eps range" (Invalid_argument "Bound_engine.f_eps: bad eps")
    (fun () -> ignore (Bound_engine.f_eps ~eps:6 ~w_max:10 5))

let test_dff_u_k () =
  (* w_max = 10, k = 2: w = 5 has (k+1)w = 15 not divisible by 10 ->
     10 * floor(15/10) = 10; w = 4: 12 -> 10; w = 3: 9 -> 0. *)
  Alcotest.(check int) "u2 of 5" 10 (Bound_engine.u_k ~k:2 ~w_max:10 5);
  Alcotest.(check int) "u2 of 3" 0 (Bound_engine.u_k ~k:2 ~w_max:10 3);
  (* (k+1)w divisible: w = 10 -> k*w = 20. *)
  Alcotest.(check int) "u2 of 10" 20 (Bound_engine.u_k ~k:2 ~w_max:10 10)

(* DFF property: for any multiset of sizes that fits (sum <= w_max), the
   transformed sizes fit the transformed container. *)
let arb_dff_case =
  let gen =
    QCheck.Gen.(
      let* w_max = int_range 2 30 in
      let* eps = int_range 1 (w_max / 2) in
      let* k = int_range 1 4 in
      let* n = int_range 1 6 in
      let* sizes = list_repeat n (int_range 0 w_max) in
      return (w_max, eps, k, sizes))
  in
  QCheck.make gen ~print:(fun (w_max, eps, k, sizes) ->
      Printf.sprintf "w_max=%d eps=%d k=%d sizes=[%s]" w_max eps k
        (String.concat ";" (List.map string_of_int sizes)))

let prop_f_eps_dual_feasible (w_max, eps, _, sizes) =
  let total = List.fold_left ( + ) 0 sizes in
  QCheck.assume (total <= w_max);
  List.fold_left (fun acc w -> acc + Bound_engine.f_eps ~eps ~w_max w) 0 sizes <= w_max

let prop_u_k_dual_feasible (w_max, _, k, sizes) =
  let total = List.fold_left ( + ) 0 sizes in
  QCheck.assume (total <= w_max);
  List.fold_left (fun acc w -> acc + Bound_engine.u_k ~k ~w_max w) 0 sizes <= k * w_max

let test_bounds_check_dff_catches_mul_wall () =
  (* Six 16x16x2 multipliers on a 31x31 chip must serialize: 12 cycles.
     The DFF bound proves a 31x31x6 container infeasible. *)
  let i = inst (List.init 6 (fun _ -> box3 16 16 2)) in
  match Bound_engine.check (Bound_engine.create ()) i (cont3 31 31 6) with
  | Bound_engine.Infeasible _ -> ()
  | Bound_engine.Lower_bound _ | Bound_engine.Inconclusive ->
    Alcotest.fail "expected an infeasibility certificate"

(* ------------------------------------------------------------------ *)
(* Heuristic                                                           *)
(* ------------------------------------------------------------------ *)

let test_heuristic_packs_simple () =
  let i = inst [ box3 2 2 2; box3 2 2 2; box3 2 2 2; box3 2 2 2 ] in
  match Heuristic.pack i (cont3 4 4 2) with
  | None -> Alcotest.fail "four quadrants fit"
  | Some p ->
    Alcotest.(check bool) "validated" true
      (Placement.is_feasible p ~container:(cont3 4 4 2)
         ~precedes:(Instance.precedes i))

let test_heuristic_respects_precedence () =
  let i = inst ~precedence:[ (0, 1) ] [ box3 2 2 2; box3 2 2 2 ] in
  match Heuristic.pack i (cont3 4 4 4) with
  | None -> Alcotest.fail "sequential packing exists"
  | Some p ->
    Alcotest.(check bool) "order respected" true
      (Placement.finish_time p 0 <= Placement.start_time p 1)

let test_heuristic_gives_up () =
  let i = inst [ box3 4 4 1; box3 4 4 1 ] in
  Alcotest.(check bool) "no room in time" true (Heuristic.pack i (cont3 4 4 1) = None)

let test_heuristic_makespan () =
  let i = inst ~precedence:[ (0, 1) ] [ box3 2 2 3; box3 2 2 2 ] in
  match Heuristic.makespan i ~base:(cont3 2 2 1) with
  | None -> Alcotest.fail "fits spatially"
  | Some (ms, _) -> Alcotest.(check int) "chain length" 5 ms

(* Random stage-2 cases: up to [max_n] tasks of spatial extents up to
   [max_side] and durations up to 4, each arc u -> v (u < v) kept with
   probability 1/[arc_odds], on a base of 3..8 per side. *)
let arb_stage2 ~max_n ~max_side ~arc_odds =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 max_n in
      let* dims =
        list_repeat n
          (triple (int_range 1 max_side) (int_range 1 max_side) (int_range 1 4))
      in
      let* arcs =
        flatten_l
          (List.concat_map
             (fun u ->
               List.init (n - u - 1) (fun k ->
                   let* keep = int_range 1 arc_odds in
                   return (if keep = 1 then Some (u, u + k + 1) else None)))
             (List.init n Fun.id))
      in
      let* cw = int_range 3 8 and* ch = int_range 3 8 in
      return (dims, List.filter_map Fun.id arcs, (cw, ch)))
  in
  QCheck.make gen ~print:(fun (dims, arcs, (cw, ch)) ->
      Format.asprintf "boxes=%s arcs=%s base=%dx%d"
        (String.concat ","
           (List.map (fun (w, h, d) -> Printf.sprintf "%dx%dx%d" w h d) dims))
        (String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) arcs))
        cw ch)

(* Extents up to 6, so some tasks miss the base. *)
let arb_stage2_case = arb_stage2 ~max_n:10 ~max_side:6 ~arc_odds:5

let prop_stage2_schedule (dims, arcs, (cw, ch)) =
  let i = inst ~precedence:arcs (List.map (fun (w, h, d) -> box3 w h d) dims) in
  let fits = List.for_all (fun (w, h, _) -> w <= cw && h <= ch) dims in
  let precedes = Instance.precedes i in
  let origins p = Array.init (Placement.count p) (Placement.origin p) in
  match Heuristic.makespan i ~base:(cont3 cw ch 1) with
  | None ->
    if fits then QCheck.Test.fail_report "no schedule although every task fits";
    true
  | Some (ms, p) ->
    if not fits then QCheck.Test.fail_report "schedule although a task misfits";
    let horizon = cont3 cw ch (max 1 (Instance.total_duration i)) in
    if not (Placement.is_feasible p ~container:horizon ~precedes) then
      QCheck.Test.fail_report "infeasible in the horizon container";
    let volume_bound = (Instance.total_volume i + (cw * ch) - 1) / (cw * ch) in
    if ms < Instance.critical_path i || ms < volume_bound then
      QCheck.Test.fail_reportf "makespan %d beats a lower bound (path %d, volume %d)"
        ms (Instance.critical_path i) volume_bound;
    (match Heuristic.makespan i ~base:(cont3 cw ch 1) with
    | Some (ms', p') when ms' = ms && origins p' = origins p -> ()
    | _ -> QCheck.Test.fail_report "a second call differs");
    List.iter
      (fun t ->
        let c = cont3 cw ch t in
        match Heuristic.pack i c with
        | Some q when not (Placement.is_feasible q ~container:c ~precedes) ->
          QCheck.Test.fail_reportf "pack hit at t=%d is infeasible" t
        | Some _ | None -> ())
      (List.filter (fun t -> t >= 1) [ ms - 1; ms; ms + 1 ]);
    true

(* Every schedule the stage-2 calls build on [case]: [makespan] at
   target 0 (the critical path and volume floor still apply), one past
   the critical path, [max_int], which keeps the first schedule, and
   the target [Problems.minimize_time] passes, the stage-1 time bound;
   then [pack] at horizons from the critical path through the first
   schedule's makespan to the total duration. *)
let stage2_runs ~makespan ~pack (dims, arcs, (cw, ch)) =
  let i = inst ~precedence:arcs (List.map (fun (w, h, d) -> box3 w h d) dims) in
  let origins p = Array.init (Placement.count p) (Placement.origin p) in
  let bound =
    Bound_engine.time_lower_bound (Bound_engine.create ()) i (cont3 cw ch 1)
  in
  let spans =
    List.map
      (fun target ->
        Option.map
          (fun (ms, p) -> (ms, origins p))
          (makespan ~target i ~base:(cont3 cw ch 1)))
      [ 0; Instance.critical_path i + 1; max_int; bound ]
  in
  let first = match List.nth spans 2 with Some (ms, _) -> ms | None -> 1 in
  let horizons =
    List.sort_uniq Int.compare
      (List.filter
         (fun t -> t >= 1)
         [ Instance.critical_path i; first - 1; first; Instance.total_duration i ])
  in
  (spans, List.map (fun t -> Option.map origins (pack i (cont3 cw ch t))) horizons)

let heuristic_runs =
  stage2_runs
    ~makespan:(fun ~target i ~base -> Heuristic.makespan ~target i ~base)
    ~pack:Heuristic.pack

let reference_runs =
  stage2_runs
    ~makespan:(fun ~target i ~base -> Heuristic_reference.makespan ~target i ~base)
    ~pack:Heuristic_reference.pack

let prop_stage2_matches_reference case =
  let spans, packs = heuristic_runs case
  and spans_ref, packs_ref = reference_runs case in
  if spans <> spans_ref then QCheck.Test.fail_report "makespan differs from the reference";
  if packs <> packs_ref then QCheck.Test.fail_report "pack differs from the reference";
  true

let stage2_seed = [| 0x5E41; 2026 |]
let stage2_cases = 500

(* Extents up to 4: few misfits, and many tasks of equal priority,
   whose ties the order breaks by index. *)
let arb_stage2_reference = arb_stage2 ~max_n:12 ~max_side:4 ~arc_odds:4

(* The sample the reference comparison draws is not vacuous: restarts
   improve on the first schedule, some base is too small for a task,
   and [pack] both hits and misses. *)
let test_stage2_sample_covers () =
  let cases =
    QCheck.Gen.generate ~rand:(Fixed_seed.rand stage2_seed) ~n:stage2_cases
      (QCheck.get_gen arb_stage2_reference)
  in
  let runs = List.map heuristic_runs cases in
  let count p = List.length (List.filter p runs) in
  let improved =
    count (function
      | Some (best, _) :: _ :: Some (first, _) :: _, _ -> best < first
      | _ -> false)
  and misfit = count (fun (spans, _) -> List.hd spans = None)
  and hit = count (fun (_, packs) -> List.exists Option.is_some packs)
  and miss = count (fun (_, packs) -> List.exists Option.is_none packs) in
  Alcotest.(check bool)
    (Printf.sprintf "%d improved by restarts, %d misfit, %d pack hits, %d misses"
       improved misfit hit miss)
    true
    (improved > 0 && misfit > 0 && hit > 0 && miss > 0)

(* ------------------------------------------------------------------ *)
(* Packing_state                                                       *)
(* ------------------------------------------------------------------ *)

let test_state_width_rule () =
  let i = inst [ box3 3 1 1; box3 3 1 1 ] in
  match PS.create i (cont3 4 4 4) with
  | Error e -> Alcotest.failf "root must be consistent: %s" (why e)
  | Ok st ->
    (* 3 + 3 > 4 forces overlap in x; y and t remain open. *)
    Alcotest.(check bool) "x forced component" true
      (OG.kind (PS.dimension st 0) 0 1 = OG.Component);
    Alcotest.(check bool) "t open" true
      (OG.kind (PS.dimension st 2) 0 1 = OG.Unknown)

let test_state_c3_forcing () =
  (* Overlap forced in x and y: the pair must separate in time. *)
  let i = inst [ box3 3 3 1; box3 3 3 1 ] in
  match PS.create i (cont3 4 4 4) with
  | Error e -> Alcotest.failf "consistent: %s" (why e)
  | Ok st ->
    Alcotest.(check bool) "t forced comparable" true
      (OG.kind (PS.dimension st 2) 0 1 = OG.Comparable)

let test_state_c3_conflict () =
  (* Forced overlap in all three dimensions: infeasible at the root. *)
  let i = inst [ box3 3 3 3; box3 3 3 3 ] in
  match PS.create i (cont3 4 4 4) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected root conflict"

let test_state_c2_conflict () =
  (* Three tall boxes pairwise separated in time exceed the budget:
     spatially they pairwise exclude (3+3 > 4 in both axes), so all
     pairs serialize; total duration 9 > 8. *)
  let i = inst [ box3 3 3 3; box3 3 3 3; box3 3 3 3 ] in
  match PS.create i (cont3 4 4 8) with
  | Error e ->
    Alcotest.(check bool) "C2 mentioned" true
      (String.length (why e) > 0)
  | Ok _ -> Alcotest.fail "expected C2 root conflict"

let test_state_precedence_seed () =
  let i = inst ~precedence:[ (0, 1) ] [ box3 1 1 1; box3 1 1 1 ] in
  match PS.create i (cont3 4 4 4) with
  | Error e -> Alcotest.failf "consistent: %s" (why e)
  | Ok st ->
    Alcotest.(check bool) "arc seeded" true (arc (PS.dimension st 2) 0 1)

let test_state_undo () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  match PS.create i (cont3 4 4 4) with
  | Error e -> Alcotest.failf "consistent: %s" (why e)
  | Ok st ->
    let marks = PS.mark st in
    let before = PS.decided_fraction st in
    (match PS.assign_component st ~dim:2 0 1 with
    | Ok () -> ()
    | Error e -> Alcotest.failf "assign failed: %s" (why e));
    Alcotest.(check bool) "more decided" true (PS.decided_fraction st > before);
    PS.undo_to st marks;
    Alcotest.(check (float 0.0)) "restored" before (PS.decided_fraction st)

let test_state_schedule_seed () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  (* Overlapping schedule: component in t; disjoint: oriented. *)
  (match PS.create ~schedule:[| 0; 1 |] i (cont3 4 4 4) with
  | Error e -> Alcotest.failf "consistent: %s" (why e)
  | Ok st ->
    Alcotest.(check bool) "overlap seeded" true
      (OG.kind (PS.dimension st 2) 0 1 = OG.Component));
  match PS.create ~schedule:[| 0; 2 |] i (cont3 4 4 4) with
  | Error e -> Alcotest.failf "consistent: %s" (why e)
  | Ok st -> Alcotest.(check bool) "order seeded" true (arc (PS.dimension st 2) 0 1)

let test_state_spatial_order_seed () =
  (* An order on axis 0 must seed an oriented arc in that axis's graph
     and leave the other axes open. *)
  let i =
    Instance.make
      ~orders:[ (0, [ (0, 1) ]) ]
      ~boxes:[| box3 1 1 1; box3 1 1 1 |]
      ()
  in
  match PS.create i (cont3 4 4 4) with
  | Error e -> Alcotest.failf "consistent: %s" (why e)
  | Ok st ->
    Alcotest.(check bool) "x arc seeded" true (arc (PS.dimension st 0) 0 1);
    Alcotest.(check bool) "y open" true
      (OG.kind (PS.dimension st 1) 0 1 = OG.Unknown);
    Alcotest.(check bool) "t open" true
      (OG.kind (PS.dimension st 2) 0 1 = OG.Unknown)

let test_state_every_axis_seeds () =
  (* Distinct orders on every axis of a 4-dimensional instance: each
     axis's graph carries exactly its own arc. *)
  let b = Box.make [| 1; 1; 1; 1 |] in
  let i =
    Instance.make
      ~orders:[ (0, [ (0, 1) ]); (1, [ (1, 2) ]); (2, [ (2, 0) ]) ]
      ~precedence:[ (0, 2) ] (* objective axis 3 *)
      ~boxes:[| b; b; b |] ()
  in
  match PS.create i (Container.make [| 4; 4; 4; 4 |]) with
  | Error e -> Alcotest.failf "consistent: %s" (why e)
  | Ok st ->
    List.iter
      (fun (k, u, v) ->
        Alcotest.(check bool)
          (Printf.sprintf "axis %d arc %d->%d" k u v)
          true
          (arc (PS.dimension st k) u v))
      [ (0, 0, 1); (1, 1, 2); (2, 2, 0); (3, 0, 2) ]

let test_state_spatial_order_conflict () =
  (* A chain on axis 0 longer than the container width is a root
     conflict, no matter how roomy the other axes are. *)
  let i =
    Instance.make
      ~orders:[ (0, [ (0, 1) ]) ]
      ~boxes:[| box3 3 1 1; box3 3 1 1 |]
      ()
  in
  match PS.create i (cont3 4 9 9) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected root conflict on the ordered axis"

(* [Packing_state.symmetric_pairs] as it was written before it compared
   precomputed rows: every pair of equal boxes asks
   [Partial_order.precedes] about every third task in every axis, and
   goes on after the first difference. *)
let reference_symmetric_pairs inst =
  let n = Instance.count inst in
  let ords = Instance.orders inst in
  let sym = Array.make (n * n) false in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if
        Box.equal (Instance.box inst u) (Instance.box inst v)
        && Array.for_all
             (fun p ->
               (not (comparable p u v))
               &&
               let same = ref true in
               for w = 0 to n - 1 do
                 if w <> u && w <> v then begin
                   if
                     Order.Partial_order.precedes p u w
                     <> Order.Partial_order.precedes p v w
                   then same := false;
                   if
                     Order.Partial_order.precedes p w u
                     <> Order.Partial_order.precedes p w v
                   then same := false
                 end
               done;
               !same)
             ords
      then sym.((u * n) + v) <- true
    done
  done;
  sym

let symmetry_seed = [| 0x5E77; 2026 |]
let symmetry_cases = 500

(* Up to 14 tasks with extents 1 or 2, so many boxes are equal, a
   precedence order and, in some cases, an order on the x axis. *)
let arb_symmetry =
  let arcs n odds =
    QCheck.Gen.(
      let* keep =
        flatten_l
          (List.concat_map
             (fun u ->
               List.init (n - u - 1) (fun k ->
                   let* r = int_range 1 odds in
                   return (if r = 1 then Some (u, u + k + 1) else None)))
             (List.init n Fun.id))
      in
      return (List.filter_map Fun.id keep))
  in
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 14 in
      let* dims =
        list_repeat n (triple (int_range 1 2) (int_range 1 2) (int_range 1 2))
      in
      let* odds = int_range 3 10 in
      let* precedence = arcs n odds in
      let* x_odds = int_range 0 12 in
      let* x_arcs = if x_odds < 4 then arcs n (8 + x_odds) else return [] in
      return (dims, precedence, x_arcs))
  in
  let show arcs =
    String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) arcs)
  in
  QCheck.make gen ~print:(fun (dims, precedence, x_arcs) ->
      Printf.sprintf "boxes=%s precedence=%s x=%s"
        (String.concat ","
           (List.map (fun (w, h, d) -> Printf.sprintf "%dx%dx%d" w h d) dims))
        (show precedence) (show x_arcs))

let symmetry_instance (dims, precedence, x_arcs) =
  Instance.make ~precedence
    ~orders:(if x_arcs = [] then [] else [ (0, x_arcs) ])
    ~boxes:(Array.of_list (List.map (fun (w, h, d) -> box3 w h d) dims))
    ()

let prop_symmetric_matches_reference case =
  let i = symmetry_instance case in
  PS.symmetric_pairs i = reference_symmetric_pairs i

(* The sample is not vacuous: some instances have symmetric pairs, and
   some have a pair of equal, incomparable boxes that is not symmetric
   (its relations to a third task differ). *)
let test_symmetric_sample_covers () =
  let cases =
    QCheck.Gen.generate ~rand:(Fixed_seed.rand symmetry_seed) ~n:symmetry_cases
      (QCheck.get_gen arb_symmetry)
  in
  let with_pair = ref 0 and with_broken = ref 0 and with_x = ref 0 in
  List.iter
    (fun ((_, _, x_arcs) as case) ->
      let i = symmetry_instance case in
      let n = Instance.count i in
      let sym = PS.symmetric_pairs i in
      if Array.exists Fun.id sym then incr with_pair;
      if x_arcs <> [] then incr with_x;
      let broken = ref false in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if
            Box.equal (Instance.box i u) (Instance.box i v)
            && Array.for_all
                 (fun p -> not (comparable p u v))
                 (Instance.orders i)
            && not sym.((u * n) + v)
          then broken := true
        done
      done;
      if !broken then incr with_broken)
    cases;
  Alcotest.(check bool)
    (Printf.sprintf
       "%d with a symmetric pair, %d with an equal incomparable pair that is \
        not, %d with an x order"
       !with_pair !with_broken !with_x)
    true
    (!with_pair > 0 && !with_broken > 0 && !with_x > 0)

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

let no_stage12 =
  { Solver.default_options with use_bounds = false; use_heuristic = false }

let solve_bool ?(options = Solver.default_options) i c =
  match Solver.solve ~options i c with
  | Solver.Feasible p, _ ->
    Alcotest.(check bool) "witness valid" true
      (Placement.is_feasible p ~container:c ~precedes:(Instance.precedes i));
    true
  | Solver.Infeasible, _ -> false
  | Solver.Timeout, _ -> Alcotest.fail "unexpected timeout"

let test_solver_trivial () =
  let i = inst [ box3 2 2 2 ] in
  Alcotest.(check bool) "single box" true (solve_bool i (cont3 2 2 2));
  Alcotest.(check bool) "search agrees" true
    (solve_bool ~options:no_stage12 i (cont3 2 2 2))

let test_solver_side_by_side () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  Alcotest.(check bool) "fits" true (solve_bool ~options:no_stage12 i (cont3 4 2 2));
  Alcotest.(check bool) "does not fit" false
    (solve_bool ~options:no_stage12 i (cont3 3 2 2))

let test_solver_precedence_forces_time () =
  (* Two boxes that fit side by side, but an arc forces serialization. *)
  let free = inst [ box3 2 2 2; box3 2 2 2 ] in
  let chained = inst ~precedence:[ (0, 1) ] [ box3 2 2 2; box3 2 2 2 ] in
  Alcotest.(check bool) "parallel ok" true
    (solve_bool ~options:no_stage12 free (cont3 4 4 2));
  Alcotest.(check bool) "chain needs 4 cycles" false
    (solve_bool ~options:no_stage12 chained (cont3 4 4 3));
  Alcotest.(check bool) "chain fits in 4" true
    (solve_bool ~options:no_stage12 chained (cont3 4 4 4))

let test_solver_exact_fit () =
  (* Four quadrants exactly tile the container; no slack anywhere. *)
  let i = inst [ box3 2 2 2; box3 2 2 2; box3 2 2 2; box3 2 2 2 ] in
  Alcotest.(check bool) "tiling found" true
    (solve_bool ~options:no_stage12 i (cont3 4 4 2));
  Alcotest.(check bool) "5th box kills it" false
    (solve_bool ~options:no_stage12
       (inst [ box3 2 2 2; box3 2 2 2; box3 2 2 2; box3 2 2 2; box3 1 1 1 ])
       (cont3 4 4 2))

let test_solver_timeout () =
  let i = inst (List.init 6 (fun _ -> box3 2 2 2)) in
  let options = { no_stage12 with node_limit = Some 1 } in
  match Solver.solve ~options i (cont3 5 5 3) with
  | Solver.Timeout, st -> Alcotest.(check bool) "nodes counted" true (st.nodes >= 1)
  | _ -> Alcotest.fail "expected timeout with 1-node budget"

let test_solver_stats () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  let _, st = Solver.solve ~options:no_stage12 i (cont3 3 2 2) in
  Alcotest.(check bool) "conflicts seen" true (st.conflicts > 0);
  let _, st2 = Solver.solve i (cont3 4 2 2) in
  Alcotest.(check bool) "heuristic hit" true st2.by_heuristic

(* Solver agrees with brute-force geometric enumeration on small random
   instances (the gold standard). *)
let arb_small_instance =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* dims = list_repeat n (triple (int_range 1 3) (int_range 1 3) (int_range 1 3)) in
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

(* Reference: brute force over all integer positions. *)
let brute_force_feasible i c =
  let n = Instance.count i in
  let cw = Container.extent c 0
  and ch = Container.extent c 1
  and ct = Container.extent c 2 in
  let origins = Array.make n [| 0; 0; 0 |] in
  let rec go k =
    if k = n then
      Placement.is_feasible
        (Placement.make (Instance.boxes i) (Array.map Array.copy origins))
        ~container:c ~precedes:(Instance.precedes i)
    else begin
      let found = ref false in
      let w = Instance.extent i k 0
      and h = Instance.extent i k 1
      and d = Instance.duration i k in
      let x = ref 0 in
      while (not !found) && !x + w <= cw do
        let y = ref 0 in
        while (not !found) && !y + h <= ch do
          let t = ref 0 in
          while (not !found) && !t + d <= ct do
            origins.(k) <- [| !x; !y; !t |];
            if go (k + 1) then found := true;
            incr t
          done;
          incr y
        done;
        incr x
      done;
      !found
    end
  in
  go 0

let prop_solver_matches_bruteforce (dims, arcs, (cw, ch, ct)) =
  let boxes = List.map (fun (w, h, d) -> box3 w h d) dims in
  let i = inst ~precedence:arcs boxes in
  let c = cont3 cw ch ct in
  solve_bool ~options:no_stage12 i c = brute_force_feasible i c

let prop_full_pipeline_matches_bruteforce (dims, arcs, (cw, ch, ct)) =
  let boxes = List.map (fun (w, h, d) -> box3 w h d) dims in
  let i = inst ~precedence:arcs boxes in
  let c = cont3 cw ch ct in
  solve_bool i c = brute_force_feasible i c

(* Guillotine instances are feasible by construction. *)
let arb_guillotine =
  QCheck.make
    QCheck.Gen.(
      let* seed = int_range 0 100000 in
      let* cuts = int_range 0 5 in
      return (seed, cuts))
    ~print:(fun (seed, cuts) -> Printf.sprintf "seed=%d cuts=%d" seed cuts)

let prop_guillotine_feasible (seed, cuts) =
  let container = cont3 6 6 6 in
  let i, _ =
    Benchmarks.Generate.guillotine ~seed ~container ~cuts ~arc_probability:0.3 ()
  in
  solve_bool ~options:no_stage12 i container

(* ------------------------------------------------------------------ *)
(* Problems                                                            *)
(* ------------------------------------------------------------------ *)

(* With an unlimited budget the anytime drivers must settle: anything
   other than [Optimal] (or a proven [Infeasible]) is a failure. *)
let optimal_exn = function
  | Problems.Optimal o -> o
  | r -> Alcotest.failf "expected an optimum, got %s" (Problems.status_string r)

let test_minimize_time () =
  let i = inst ~precedence:[ (0, 1) ] [ box3 2 2 2; box3 2 2 2 ] in
  let { Problems.value; placement } = optimal_exn (Problems.minimize_time i ~w:4 ~h:4) in
  Alcotest.(check int) "chain" 4 value;
  Alcotest.(check int) "witness makespan" 4 (Placement.makespan placement)

let test_minimize_time_parallel () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  let { Problems.value; _ } = optimal_exn (Problems.minimize_time i ~w:4 ~h:2) in
  Alcotest.(check int) "parallel" 2 value

let test_minimize_time_misfit () =
  let i = inst [ box3 5 1 1 ] in
  Alcotest.(check bool) "too wide" true
    (Problems.minimize_time i ~w:4 ~h:4 = Problems.Infeasible)

let test_minimize_extent_strip2d () =
  (* Open 2D strip packing: a 3x2 and a 3x3 piece on a width-6 strip
     pack side by side into height 3 (area bound ceil(15/6) = 3 is not
     tight; the 3x3 piece forces 3). *)
  let boxes = [| Box.make [| 3; 2 |]; Box.make [| 3; 3 |] |] in
  let i = Instance.make ~boxes () in
  let base = Container.make [| 6; 1 |] in
  let { Problems.value; placement } =
    optimal_exn (Problems.minimize_extent i ~axis:1 ~base)
  in
  Alcotest.(check int) "strip height" 3 value;
  Alcotest.(check bool) "witness fits" true
    (Instance.placement_feasible i
       ~container:(Container.with_extent base 1 value)
       placement);
  (* An axis-0 order keeps the side-by-side optimum (3 + 3 <= 6, and
     stacking can never satisfy an x-order), but shrinking the strip
     below the x-chain makes every height infeasible. *)
  let ordered = Instance.make ~orders:[ (0, [ (0, 1) ]) ] ~boxes () in
  let { Problems.value; _ } =
    optimal_exn (Problems.minimize_extent ordered ~axis:1 ~base)
  in
  Alcotest.(check int) "x-order still side by side" 3 value;
  Alcotest.(check bool) "x-chain overflows narrower strip" true
    (Problems.minimize_extent ordered ~axis:1
       ~base:(Container.make [| 5; 1 |])
    = Problems.Infeasible);
  (* An order on the minimized axis is the 2D precedence chain: the
     optimum becomes the stacked height. *)
  let stacked = Instance.make ~orders:[ (1, [ (0, 1) ]) ] ~boxes () in
  let { Problems.value; _ } =
    optimal_exn (Problems.minimize_extent stacked ~axis:1 ~base)
  in
  Alcotest.(check int) "y-order stacks" 5 value

let test_minimize_extent_spatial_axis () =
  (* Minimizing a spatial axis of a 3D instance: two 2x2x2 boxes over a
     2-wide, 2-cycle base must stack along y -> extent 4; with 4 cycles
     they serialize in time -> extent 2. *)
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  let { Problems.value; _ } =
    optimal_exn
      (Problems.minimize_extent i ~axis:1
         ~base:(Container.make [| 2; 1; 2 |]))
  in
  Alcotest.(check int) "stacked" 4 value;
  let { Problems.value; _ } =
    optimal_exn
      (Problems.minimize_extent i ~axis:1
         ~base:(Container.make [| 2; 1; 4 |]))
  in
  Alcotest.(check int) "serialized in time" 2 value

let test_minimize_extent_matches_minimize_time () =
  (* On the objective axis of a 3D instance the two drivers are the
     same problem. *)
  let i = inst ~precedence:[ (0, 1) ] [ box3 2 2 2; box3 2 2 2 ] in
  let a = optimal_exn (Problems.minimize_time i ~w:4 ~h:4) in
  let b =
    optimal_exn
      (Problems.minimize_extent i ~axis:(Instance.objective_axis i)
         ~base:(Container.make3 ~w:4 ~h:4 ~t_max:1))
  in
  Alcotest.(check int) "same optimum" a.Problems.value b.Problems.value

let test_minimize_extent_cross_infeasible () =
  (* Infeasibility must be detected on cross axes: a task overflowing
     the base, and an order chain overflowing a cross axis. *)
  let wide = Instance.make ~boxes:[| Box.make [| 7; 1 |] |] () in
  Alcotest.(check bool) "task overflows base" true
    (Problems.minimize_extent wide ~axis:1
       ~base:(Container.make [| 6; 1 |])
    = Problems.Infeasible);
  let chain =
    Instance.make
      ~orders:[ (0, [ (0, 1) ]) ]
      ~boxes:[| Box.make [| 4; 1 |]; Box.make [| 4; 1 |] |]
      ()
  in
  Alcotest.(check bool) "axis-0 chain overflows base" true
    (Problems.minimize_extent chain ~axis:1
       ~base:(Container.make [| 6; 1 |])
    = Problems.Infeasible)

let test_minimize_base () =
  (* Two 2x2x2 boxes in 2 cycles: need a 4x2... with quadratic base a
     2x2 chip can serialize them given 4 cycles, but in 2 cycles they
     must sit side by side: 4x4 is the smallest square. *)
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  let { Problems.value; _ } = optimal_exn (Problems.minimize_base i ~t_max:2) in
  Alcotest.(check int) "side by side" 4 value;
  let { Problems.value; _ } = optimal_exn (Problems.minimize_base i ~t_max:4) in
  Alcotest.(check int) "serialized" 2 value

let test_minimize_base_critical_path () =
  let i = inst ~precedence:[ (0, 1) ] [ box3 1 1 3; box3 1 1 3 ] in
  Alcotest.(check bool) "chain exceeds budget" true
    (Problems.minimize_base i ~t_max:5 = Problems.Infeasible)

(* A time budget past the serialized makespan cannot change the
   answer. Budgets from 2^50 up used to wrap the containers the drivers
   form and report a false lower bound instead of the optimum. *)
let test_minimize_base_huge_budget () =
  let de = Benchmarks.De.instance in
  List.iter
    (fun t_max ->
      let { Problems.value; _ } =
        optimal_exn (Problems.minimize_base de ~t_max)
      in
      Alcotest.(check int) (Printf.sprintf "square at t=%d" t_max) 16 value)
    [ 14; 1 lsl 45; 1 lsl 50; max_int ];
  let serial = Packing.Instance.total_duration de in
  let rect t_max =
    (optimal_exn (Problems.minimize_area_rect de ~t_max)).value
  in
  Alcotest.(check (pair int int)) "rect at max_int" (rect serial) (rect max_int)

let test_fixed_schedule () =
  let i = inst ~precedence:[ (0, 1) ] [ box3 2 2 2; box3 2 2 2 ] in
  (* Valid schedule: task 1 after task 0. *)
  (match Problems.feasible_fixed_schedule i ~w:2 ~h:2 ~t_max:4 ~schedule:[| 0; 2 |] with
  | Problems.Sat p ->
    Alcotest.(check int) "start honored" 2 (Placement.start_time p 1)
  | Problems.Unsat | Problems.Undecided -> Alcotest.fail "schedule is realizable");
  (* Schedule violating precedence is rejected outright. *)
  Alcotest.(check bool) "violating schedule" true
    (Problems.feasible_fixed_schedule i ~w:2 ~h:2 ~t_max:4 ~schedule:[| 2; 0 |]
    = Problems.Unsat);
  (* Simultaneous schedule needs a wider chip. *)
  let free = inst [ box3 2 2 2; box3 2 2 2 ] in
  Alcotest.(check bool) "simultaneous too tight" true
    (Problems.feasible_fixed_schedule free ~w:2 ~h:2 ~t_max:2 ~schedule:[| 0; 0 |]
    = Problems.Unsat);
  Alcotest.(check bool) "simultaneous fits wider" true
    (match
       Problems.feasible_fixed_schedule free ~w:4 ~h:2 ~t_max:2
         ~schedule:[| 0; 0 |]
     with
    | Problems.Sat _ -> true
    | Problems.Unsat | Problems.Undecided -> false);
  (* Identical, unordered tasks started in either order: the schedule
     that runs the higher index first is as realizable as the other. *)
  let twins = inst [ box3 2 2 1; box3 2 2 1 ] in
  List.iter
    (fun schedule ->
      match Problems.feasible_fixed_schedule twins ~w:4 ~h:4 ~t_max:2 ~schedule with
      | Problems.Sat p ->
        Alcotest.(check int) "start of 0 honored" schedule.(0)
          (Placement.start_time p 0)
      | Problems.Unsat | Problems.Undecided ->
        Alcotest.failf "schedule [|%d; %d|] is realizable" schedule.(0)
          schedule.(1))
    [ [| 0; 1 |]; [| 1; 0 |] ]

let test_minimize_base_fixed_schedule () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  let { Problems.value; _ } =
    optimal_exn (Problems.minimize_base_fixed_schedule i ~t_max:2 ~schedule:[| 0; 0 |])
  in
  Alcotest.(check int) "parallel needs 4" 4 value;
  let { Problems.value; _ } =
    optimal_exn (Problems.minimize_base_fixed_schedule i ~t_max:4 ~schedule:[| 0; 2 |])
  in
  Alcotest.(check int) "serial needs 2" 2 value;
  let twins = inst [ box3 2 2 1; box3 2 2 1 ] in
  List.iter
    (fun schedule ->
      let { Problems.value; _ } =
        optimal_exn (Problems.minimize_base_fixed_schedule twins ~t_max:2 ~schedule)
      in
      Alcotest.(check int) "serial in either order needs 2" 2 value)
    [ [| 0; 1 |]; [| 1; 0 |] ]

let test_pareto () =
  let i = inst ~precedence:[ (0, 1) ] [ box3 2 2 2; box3 2 2 2 ] in
  let front = Problems.pareto_front i ~h_min:2 ~h_max:6 in
  (* Chain of two: time 4 on any chip >= 2 (they serialize anyway). *)
  Alcotest.(check (list (pair int int))) "front" [ (2, 4) ] front.Problems.points;
  Alcotest.(check bool) "front complete" true front.Problems.complete;
  let free = inst [ box3 2 2 2; box3 2 2 2 ] in
  let front = Problems.pareto_front free ~h_min:2 ~h_max:6 in
  Alcotest.(check (list (pair int int)))
    "front without order" [ (2, 4); (4, 2) ] front.Problems.points;
  Alcotest.(check bool) "front without order complete" true front.Problems.complete

(* Minimized values are consistent: solving at value succeeds, at
   value - 1 fails. *)
let prop_minimize_time_tight (dims, arcs, (cw, ch, _)) =
  let boxes = List.map (fun (w, h, d) -> box3 w h d) dims in
  let i = inst ~precedence:arcs boxes in
  match Problems.minimize_time i ~w:cw ~h:ch with
  | Problems.Infeasible -> true
  | Problems.Feasible_incumbent _ | Problems.Unknown _ -> false
  | Problems.Optimal { value; placement } ->
    Placement.makespan placement <= value
    && (value = 1
       || not (solve_bool ~options:no_stage12 i (cont3 cw ch (value - 1))))


(* ------------------------------------------------------------------ *)
(* Knapsack (OKP)                                                      *)
(* ------------------------------------------------------------------ *)

let test_knapsack_picks_best () =
  (* Two boxes, only one fits: take the more valuable one. *)
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  let value = function 0 -> 3 | _ -> 5 in
  match Packing.Knapsack.solve i (cont3 2 2 2) ~value with
  | None -> Alcotest.fail "one box fits"
  | Some { Packing.Knapsack.value; selected; _ } ->
    Alcotest.(check int) "value" 5 value;
    Alcotest.(check (list int)) "task 1" [ 1 ] selected

let test_knapsack_takes_all () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  match Packing.Knapsack.solve i (cont3 4 2 2) ~value:(fun _ -> 1) with
  | None -> Alcotest.fail "both fit"
  | Some { Packing.Knapsack.value; selected; _ } ->
    Alcotest.(check int) "value" 2 value;
    Alcotest.(check (list int)) "both" [ 0; 1 ] selected

let test_knapsack_down_closed () =
  (* The valuable consumer needs its worthless producer: both or none. *)
  let i = inst ~precedence:[ (0, 1) ] [ box3 2 2 2; box3 2 2 2 ] in
  let value = function 0 -> 0 | _ -> 10 in
  (* Chain needs 4 cycles; with only 2 cycles the consumer (and hence
     its producer) cannot run: nothing packs. A lone producer has
     value 0 and is also reported (value 0 beats nothing only if
     positive), so the result is None or value 0. *)
  (match Packing.Knapsack.solve i (cont3 2 2 2) ~value with
  | None -> ()
  | Some { Packing.Knapsack.value; _ } ->
    Alcotest.(check int) "worthless" 0 value);
  match Packing.Knapsack.solve i (cont3 2 2 4) ~value with
  | None -> Alcotest.fail "chain fits 4 cycles"
  | Some { Packing.Knapsack.value; selected; _ } ->
    Alcotest.(check int) "chain value" 10 value;
    Alcotest.(check (list int)) "producer dragged in" [ 0; 1 ] selected

let test_knapsack_witness_valid () =
  let i = inst [ box3 2 2 2; box3 2 2 2; box3 2 2 2 ] in
  match Packing.Knapsack.solve i (cont3 4 2 2) ~value:(fun _ -> 1) with
  | None -> Alcotest.fail "two fit"
  | Some { Packing.Knapsack.value; selected; placement } ->
    Alcotest.(check int) "two selected" 2 value;
    Alcotest.(check int) "witness boxes" (List.length selected)
      (Placement.count placement)

(* Knapsack with all-equal values and a container holding everything
   equals full feasibility. *)
let prop_knapsack_degenerates_to_opp (dims, arcs, (cw, ch, ct)) =
  let boxes = List.map (fun (w, h, d) -> box3 w h d) dims in
  let i = inst ~precedence:arcs boxes in
  let c = cont3 cw ch ct in
  let n = Instance.count i in
  match Packing.Knapsack.solve i c ~value:(fun _ -> 1) with
  | Some { Packing.Knapsack.value; _ } when value = n -> solve_bool i c
  | Some _ | None -> not (solve_bool i c)


let test_minimize_area_rect () =
  (* Two 2x2x2 boxes simultaneously: a 4x2 rectangle beats the 4x4
     square (area 8 vs 16). *)
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  let { Problems.value = w, h; placement } =
    optimal_exn (Problems.minimize_area_rect i ~t_max:2)
  in
  Alcotest.(check int) "area" 8 (w * h);
  Alcotest.(check bool) "witness valid" true
    (Placement.is_feasible placement
       ~container:(cont3 w h 2)
       ~precedes:(Instance.precedes i));
  (* With 4 cycles they serialize on a 2x2 chip. *)
  let { Problems.value = w, h; _ } =
    optimal_exn (Problems.minimize_area_rect i ~t_max:4)
  in
  Alcotest.(check int) "serialized" 4 (w * h);
  (* Asymmetric boxes force an asymmetric optimum: a 1x4 module and a
     1x4 module side by side in one cycle need 2x4, not 3x3. *)
  let tall = inst [ box3 1 4 1; box3 1 4 1 ] in
  let { Problems.value = w, h; _ } =
    optimal_exn (Problems.minimize_area_rect tall ~t_max:1)
  in
  (* Both (1,8) and (2,4) are optimal; the area and the height floor
     are what matters. *)
  Alcotest.(check int) "tall pair area" 8 (w * h);
  Alcotest.(check bool) "height floor" true (h >= 4)

let prop_minimize_area_rect_never_worse_than_square (dims, arcs, (_, _, ct)) =
  let boxes = List.map (fun (w, h, d) -> box3 w h d) dims in
  let i = inst ~precedence:arcs boxes in
  match (Problems.minimize_area_rect i ~t_max:ct, Problems.minimize_base i ~t_max:ct) with
  | Problems.Infeasible, Problems.Infeasible -> true
  | Problems.Optimal { value = w, h; _ }, Problems.Optimal { value = s; _ } ->
    w * h <= s * s
  | _ -> false


(* ------------------------------------------------------------------ *)
(* Invariance properties                                               *)
(* ------------------------------------------------------------------ *)

(* Swapping the two spatial axes of every box and of the container must
   not change feasibility (time is left in place). *)
let prop_spatial_axis_swap_invariant (dims, arcs, (cw, ch, ct)) =
  let boxes = List.map (fun (w, h, d) -> box3 w h d) dims in
  let swapped = List.map (fun (w, h, d) -> box3 h w d) dims in
  let i = inst ~precedence:arcs boxes in
  let j = inst ~precedence:arcs swapped in
  solve_bool ~options:no_stage12 i (cont3 cw ch ct)
  = solve_bool ~options:no_stage12 j (cont3 ch cw ct)

(* Renaming tasks (reversing indices, with arcs remapped) must not
   change feasibility. *)
let prop_relabeling_invariant (dims, arcs, (cw, ch, ct)) =
  let n = List.length dims in
  let boxes = List.map (fun (w, h, d) -> box3 w h d) dims in
  let i = inst ~precedence:arcs boxes in
  let rev k = n - 1 - k in
  let j =
    inst
      ~precedence:(List.map (fun (a, b) -> (rev a, rev b)) arcs)
      (List.rev boxes)
  in
  let c = cont3 cw ch ct in
  solve_bool ~options:no_stage12 i c = solve_bool ~options:no_stage12 j c

(* Feasibility is monotone in every container extent. *)
let prop_container_monotone (dims, arcs, (cw, ch, ct)) =
  let boxes = List.map (fun (w, h, d) -> box3 w h d) dims in
  let i = inst ~precedence:arcs boxes in
  (not (solve_bool ~options:no_stage12 i (cont3 cw ch ct)))
  || solve_bool ~options:no_stage12 i (cont3 (cw + 1) ch (ct + 1))

(* ------------------------------------------------------------------ *)
(* Two-dimensional packing (the machinery is dimension-generic)        *)
(* ------------------------------------------------------------------ *)

let inst2 boxes =
  Instance.make ~boxes:(Array.of_list (List.map Box.make boxes)) ()

let solve2 i w h =
  match Solver.solve ~options:no_stage12 i (Container.make [| w; h |]) with
  | Solver.Feasible p, _ ->
    Alcotest.(check bool) "2D witness valid" true
      (Placement.is_feasible p
         ~container:(Container.make [| w; h |])
         ~precedes:(fun _ _ -> false));
    true
  | Solver.Infeasible, _ -> false
  | Solver.Timeout, _ -> Alcotest.fail "timeout"

let test_2d_packing () =
  (* Classic: two dominoes tile a 2x2 square. *)
  Alcotest.(check bool) "dominoes" true
    (solve2 (inst2 [ [| 2; 1 |]; [| 2; 1 |] ]) 2 2);
  (* Three unit squares cannot fit a 2x1 strip. *)
  Alcotest.(check bool) "三 squares too many" false
    (solve2 (inst2 [ [| 1; 1 |]; [| 1; 1 |]; [| 1; 1 |] ]) 2 1);
  (* A pinwheel-ish exact 2D tiling: 1x2 + 1x2 + 2x1 + 2x1 in 3x2?
     total area 8 > 6 -> infeasible; in 4x2 it fits. *)
  let pieces = inst2 [ [| 1; 2 |]; [| 1; 2 |]; [| 2; 1 |]; [| 2; 1 |] ] in
  Alcotest.(check bool) "area overflow" false (solve2 pieces 3 2);
  Alcotest.(check bool) "fits 4x2" true (solve2 pieces 4 2)

let test_2d_guillotine_free () =
  (* The classic non-guillotine 5-rectangle pinwheel in a 6x6 square:
     feasible, but no single straight cut separates the pieces — a
     regression test that the solver is not restricted to guillotine
     patterns. Pieces: 2x4, 4x2, 2x4, 4x2 around a 2x2 core. *)
  let pieces =
    inst2 [ [| 2; 4 |]; [| 4; 2 |]; [| 2; 4 |]; [| 4; 2 |]; [| 2; 2 |] ]
  in
  Alcotest.(check bool) "pinwheel fits 6x6" true (solve2 pieces 6 6)


(* ------------------------------------------------------------------ *)
(* Individual propagation rules                                        *)
(* ------------------------------------------------------------------ *)

let test_rule_capacity () =
  (* Three tasks pairwise overlapping in time need their total area on
     the chip at one instant: 3 * 4 = 12 > 9 on a 3x3 chip. Spatially
     each pair fits side by side (2+2 <= 4? no: chip 3 wide, 2+2 > 3 ->
     spatial width rule forces overlap in x AND y... choose sizes so
     only the capacity rule can catch it: tasks 2x1 on a 3x3 chip:
     pairwise x: 2+2>3 forces x-overlap; y: 1+1 <= 3 free. Force time
     overlap for all pairs via duration: 2 cycles each in t_max 3 means
     any two overlap (width rule in time). Capacity: cross-section
     2*1 * 3 = 6 <= 9 fine. Use 2x2 tasks: cross 4*3=12 > 9 -> root
     conflict. *)
  let i = inst [ box3 2 2 2; box3 2 2 2; box3 2 2 2 ] in
  (match PS.create i (cont3 3 3 3) with
  | Error e ->
    Alcotest.(check bool) "capacity certificate" true
      (String.length (why e) > 0)
  | Ok _ -> Alcotest.fail "expected capacity conflict at the root");
  (* Disabling the rule defers the conflict (the root then succeeds). *)
  let rules = { PS.default_rules with component_cliques = false } in
  match PS.create ~rules i (cont3 3 3 3) with
  | Ok _ -> ()
  | Error _ ->
    (* Another rule may still catch it; both behaviours are sound. *)
    ()

let test_rule_symmetry_breaking () =
  (* Two identical, unrelated tasks that must serialize: the symmetric
     pair is forced into index order. *)
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  match PS.create i (cont3 2 2 4) with
  | Error e -> Alcotest.failf "root consistent: %s" (why e)
  | Ok st ->
    (* Width rules force overlap in x and y; C3 forces time-comparable;
       symmetry orients it 0 -> 1. *)
    Alcotest.(check bool) "oriented by symmetry" true
      (arc (PS.dimension st 2) 0 1)

let test_rule_symmetry_needs_identical_context () =
  (* Same boxes but one has a predecessor: not interchangeable. *)
  let i =
    inst ~precedence:[ (2, 1) ]
      [ box3 2 2 2; box3 2 2 2; box3 1 1 1 ]
  in
  match PS.create i (cont3 2 2 8) with
  | Error e -> Alcotest.failf "root consistent: %s" (why e)
  | Ok st ->
    (* Pair (0,1) must still be time-comparable (width rules), but not
       pre-oriented 0 -> 1 by symmetry — task 1 has a producer. *)
    Alcotest.(check bool) "comparable" true
      (OG.kind (PS.dimension st 2) 0 1 = OG.Comparable);
    Alcotest.(check bool) "not symmetric-forced" false
      (arc (PS.dimension st 2) 0 1 && not (arc (PS.dimension st 2) 1 0))

let test_rule_c4 () =
  (* Build a C4 pattern in one dimension by hand and check the forcing:
     component edges 0-1, 1-2, 2-3, 3-0 in dim 0 with diagonal (0,2)
     comparable forces diagonal (1,3) component. Use a large container
     so no other rule interferes; time pairs are made comparable to
     satisfy C3 trivially. *)
  let i = inst [ box3 1 1 1; box3 1 1 1; box3 1 1 1; box3 1 1 1 ] in
  match PS.create i (cont3 10 10 10) with
  | Error e -> Alcotest.failf "root consistent: %s" (why e)
  | Ok st ->
    let ok r =
      match r with Ok () -> () | Error e -> Alcotest.failf "%s" (why e)
    in
    ok (PS.assign_component st ~dim:0 0 1);
    ok (PS.assign_component st ~dim:0 1 2);
    ok (PS.assign_component st ~dim:0 2 3);
    ok (PS.assign_component st ~dim:0 3 0);
    ok (PS.assign_comparable st ~dim:0 0 2);
    Alcotest.(check bool) "diagonal forced component" true
      (OG.kind (PS.dimension st 0) 1 3 = OG.Component)

(* The trace's [rule_fire] detail is the text of a conflict. It is
   pinned byte for byte for every kind of conflict, whatever builds it. *)
let first_fire run =
  let trace = Packing.Trace.create () in
  run (Packing.Recorder.create ~trace ());
  match
    List.find_map
      (fun (_, (e : Packing.Trace.event)) ->
        match e.kind with
        | Packing.Trace.Rule_fire { rule; detail } -> Some (rule, detail)
        | _ -> None)
      (Packing.Trace.events trace)
  with
  | Some fire -> fire
  | None -> Alcotest.fail "no rule fired"

let test_conflict_text () =
  let must = function
    | Ok () -> ()
    | Error _ -> Alcotest.fail "unexpected conflict"
  in
  let root boxes cont recorder =
    ignore (PS.create ~recorder (inst boxes) cont)
  in
  let on boxes f recorder =
    match PS.create ~recorder (inst boxes) (cont3 10 10 10) with
    | Error _ -> Alcotest.fail "root must be consistent"
    | Ok st -> f st
  in
  let unit4 = List.init 4 (fun _ -> box3 1 1 1) in
  (* Component edges 0-1, 1-2, 2-3 in dim 0: a 4-cycle short of 3-0. *)
  let path3 st =
    List.iter
      (fun (u, v) -> must (PS.assign_component st ~dim:0 u v))
      [ (0, 1); (1, 2); (2, 3) ]
  in
  let cases =
    [
      ( "C3 at the root",
        root [ box3 3 3 3; box3 3 3 3 ] (cont3 4 4 4),
        ("c3", "C3: pair (0,1) overlaps in every dimension") );
      ( "C2 chain",
        root [ box3 3 3 3; box3 3 3 3; box3 3 3 3 ] (cont3 4 4 8),
        ("c2", "C2: comparable chain through (0,1) needs 9 > 8 in dim 2") );
      ( "capacity",
        (* Ten unit cells all running at t = 1 on a 3x3 chip. *)
        root (List.init 10 (fun _ -> box3 1 1 2)) (cont3 3 3 3),
        ( "capacity",
          "capacity: tasks overlapping (0,1) in dim 2 need cross-section 10 > 9"
        ) );
      ( "C1 edge closes the cycle",
        on unit4 (fun st ->
            path3 st;
            must (PS.assign_comparable st ~dim:0 0 2);
            must (PS.assign_comparable st ~dim:0 1 3);
            ignore (PS.assign_component st ~dim:0 3 0)),
        ("c4", "C1: induced 4-cycle on {0,3,2,1} in dim 0") );
      ( "C1 diagonal closes the cycle",
        on unit4 (fun st ->
            path3 st;
            must (PS.assign_comparable st ~dim:0 1 3);
            let og = PS.dimension st 0 in
            must (OG.set_comparable og 0 2);
            must (OG.set_component og 0 3);
            ignore (PS.stabilize st)),
        ("c4", "C1: induced 4-cycle on {0,1,2,3} in dim 0") );
      ( "edge-state store",
        on [ box3 1 1 1; box3 1 1 1; box3 1 1 1 ] (fun st ->
            let og = PS.dimension st 2 in
            must (OG.force_arc og 0 1);
            must (OG.force_arc og 1 2);
            must (OG.set_component og 0 2);
            ignore (PS.stabilize st)),
        ( "implications",
          "dim 2, pair (1,2): path conflict: edge forced in both orientations" ) );
      ( "symmetry",
        on [ box3 1 1 1; box3 1 1 1 ] (fun st ->
            must (OG.force_arc (PS.dimension st 2) 1 0);
            ignore (PS.stabilize st)),
        ( "symmetry",
          "dim 2, pair (0,1): path conflict: edge forced in both orientations" ) );
    ]
  in
  List.iter
    (fun (name, run, want) ->
      Alcotest.(check (pair string string)) name want (first_fire run))
    cases

let () =
  Alcotest.run "packing"
    [
      ( "instance",
        [
          Alcotest.test_case "basics" `Quick test_instance_basics;
          Alcotest.test_case "errors" `Quick test_instance_errors;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "volume" `Quick test_bounds_volume;
          Alcotest.test_case "misfit" `Quick test_bounds_misfit;
          Alcotest.test_case "critical path" `Quick test_bounds_critical_path;
          Alcotest.test_case "exclusion" `Quick test_bounds_exclusion;
          Alcotest.test_case "f_eps" `Quick test_dff_f_eps;
          Alcotest.test_case "u_k" `Quick test_dff_u_k;
          Alcotest.test_case "DFF catches MUL wall" `Quick
            test_bounds_check_dff_catches_mul_wall;
          Fixed_seed.qtest ~seed ~count:300 "f_eps dual feasible" arb_dff_case
            prop_f_eps_dual_feasible;
          Fixed_seed.qtest ~seed ~count:300 "u_k dual feasible" arb_dff_case
            prop_u_k_dual_feasible;
        ] );
      ( "heuristic",
        [
          Alcotest.test_case "packs quadrants" `Quick test_heuristic_packs_simple;
          Alcotest.test_case "respects precedence" `Quick
            test_heuristic_respects_precedence;
          Alcotest.test_case "gives up" `Quick test_heuristic_gives_up;
          Alcotest.test_case "makespan" `Quick test_heuristic_makespan;
          Fixed_seed.qtest ~seed ~count:300
            "serial schedule sound and deterministic" arb_stage2_case
            prop_stage2_schedule;
          Fixed_seed.qtest ~seed:stage2_seed ~count:stage2_cases
            "schedules match the reference copy" arb_stage2_reference
            prop_stage2_matches_reference;
          Alcotest.test_case "reference sample improves and misses" `Quick
            test_stage2_sample_covers;
        ] );
      ( "state",
        [
          Alcotest.test_case "width rule" `Quick test_state_width_rule;
          Alcotest.test_case "C3 forcing" `Quick test_state_c3_forcing;
          Alcotest.test_case "C3 conflict" `Quick test_state_c3_conflict;
          Alcotest.test_case "C2 conflict" `Quick test_state_c2_conflict;
          Alcotest.test_case "precedence seed" `Quick test_state_precedence_seed;
          Alcotest.test_case "undo" `Quick test_state_undo;
          Alcotest.test_case "schedule seed" `Quick test_state_schedule_seed;
          Alcotest.test_case "spatial order seed" `Quick
            test_state_spatial_order_seed;
          Alcotest.test_case "every axis seeds" `Quick
            test_state_every_axis_seeds;
          Alcotest.test_case "spatial order conflict" `Quick
            test_state_spatial_order_conflict;
          Fixed_seed.qtest ~seed:symmetry_seed ~count:symmetry_cases
            "symmetric pairs match the reference copy" arb_symmetry
            prop_symmetric_matches_reference;
          Alcotest.test_case "symmetric sample has pairs and near misses" `Quick
            test_symmetric_sample_covers;
        ] );
      ( "solver",
        [
          Alcotest.test_case "trivial" `Quick test_solver_trivial;
          Alcotest.test_case "side by side" `Quick test_solver_side_by_side;
          Alcotest.test_case "precedence forces time" `Quick
            test_solver_precedence_forces_time;
          Alcotest.test_case "exact fit" `Quick test_solver_exact_fit;
          Alcotest.test_case "timeout" `Quick test_solver_timeout;
          Alcotest.test_case "stats" `Quick test_solver_stats;
          Fixed_seed.qtest ~seed ~count:150 "search matches brute force"
            arb_small_instance prop_solver_matches_bruteforce;
          Fixed_seed.qtest ~seed ~count:150 "pipeline matches brute force"
            arb_small_instance prop_full_pipeline_matches_bruteforce;
          Fixed_seed.qtest ~seed ~count:80 "guillotine instances feasible"
            arb_guillotine prop_guillotine_feasible;
        ] );
      ( "rules",
        [
          Alcotest.test_case "capacity (Helly)" `Quick test_rule_capacity;
          Alcotest.test_case "symmetry breaking" `Quick test_rule_symmetry_breaking;
          Alcotest.test_case "symmetry needs identical context" `Quick
            test_rule_symmetry_needs_identical_context;
          Alcotest.test_case "C4 diagonal forcing" `Quick test_rule_c4;
          Alcotest.test_case "conflict text" `Quick test_conflict_text;
        ] );
      ( "invariance",
        [
          Fixed_seed.qtest ~seed ~count:80 "spatial axis swap"
            arb_small_instance prop_spatial_axis_swap_invariant;
          Fixed_seed.qtest ~seed ~count:80 "relabeling" arb_small_instance
            prop_relabeling_invariant;
          Fixed_seed.qtest ~seed ~count:80 "container monotone"
            arb_small_instance prop_container_monotone;
        ] );
      ( "two-dimensional",
        [
          Alcotest.test_case "basic 2D" `Quick test_2d_packing;
          Alcotest.test_case "non-guillotine pinwheel" `Quick
            test_2d_guillotine_free;
        ] );
      ( "knapsack",
        [
          Alcotest.test_case "picks best" `Quick test_knapsack_picks_best;
          Alcotest.test_case "takes all" `Quick test_knapsack_takes_all;
          Alcotest.test_case "down closed" `Quick test_knapsack_down_closed;
          Alcotest.test_case "witness valid" `Quick test_knapsack_witness_valid;
          Fixed_seed.qtest ~seed ~count:60 "degenerates to OPP"
            arb_small_instance prop_knapsack_degenerates_to_opp;
        ] );
      ( "problems",
        [
          Alcotest.test_case "minimize time chain" `Quick test_minimize_time;
          Alcotest.test_case "minimize extent: 2D strip" `Quick
            test_minimize_extent_strip2d;
          Alcotest.test_case "minimize extent: spatial axis" `Quick
            test_minimize_extent_spatial_axis;
          Alcotest.test_case "minimize extent = minimize time" `Quick
            test_minimize_extent_matches_minimize_time;
          Alcotest.test_case "minimize extent: cross infeasible" `Quick
            test_minimize_extent_cross_infeasible;
          Alcotest.test_case "minimize time parallel" `Quick
            test_minimize_time_parallel;
          Alcotest.test_case "minimize time misfit" `Quick test_minimize_time_misfit;
          Alcotest.test_case "minimize base" `Quick test_minimize_base;
          Alcotest.test_case "minimize base critical path" `Quick
            test_minimize_base_critical_path;
          Alcotest.test_case "minimize base huge time budget" `Quick
            test_minimize_base_huge_budget;
          Alcotest.test_case "minimize area rect" `Quick test_minimize_area_rect;
          Fixed_seed.qtest ~seed ~count:40 "rect never worse than square"
            arb_small_instance prop_minimize_area_rect_never_worse_than_square;
          Alcotest.test_case "fixed schedule" `Quick test_fixed_schedule;
          Alcotest.test_case "minimize base fixed schedule" `Quick
            test_minimize_base_fixed_schedule;
          Alcotest.test_case "pareto" `Quick test_pareto;
          Fixed_seed.qtest ~seed ~count:60 "minimize time tight"
            arb_small_instance prop_minimize_time_tight;
        ] );
    ]
