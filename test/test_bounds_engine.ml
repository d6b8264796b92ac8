(* Soundness harness for the composable bound engine: every Infeasible
   certificate must agree with the exact solver, every Lower_bound must
   be dominated by the true optimum, and the counters/certificates must
   surface in the JSON telemetry. The reference solver runs with every
   engine hook disabled so the comparison is not circular. *)

module Engine = Packing.Bound_engine
module Solver = Packing.Opp_solver
module Problems = Packing.Problems
module Container = Geometry.Container
module Box = Geometry.Box

let seed = [| 0xB0D5; 2026 |]

let inst ?precedence boxes =
  Packing.Instance.make ?precedence ~boxes:(Array.of_list boxes) ()

let box3 w h d = Box.make3 ~w ~h ~duration:d
let cont3 w h t = Container.make3 ~w ~h ~t_max:t

(* Engine-free reference options: no stage-1 bounds, no node-level
   engine checks. The heuristic stays on (its witnesses are validated),
   so only the exact search core decides. Without the bounds a few
   small cases can search for minutes, so the search stops at a node
   limit, and a case it cannot decide is discarded. *)
let reference =
  {
    Solver.default_options with
    use_bounds = false;
    node_bounds = Solver.Realize_never;
    node_limit = Some 50_000;
  }

let contains haystack needle =
  let nl = String.length needle and l = String.length haystack in
  let rec go i = i + nl <= l && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Random small instances: n <= 6, extents <= 3, containers <= 5^3.    *)
(* ------------------------------------------------------------------ *)

(* [gen_case ~max_n ~min_side] draws 1 to [max_n] boxes, arcs between
   them and container sides from [min_side] to 5. *)
let gen_case ~max_n ~min_side =
  QCheck.Gen.(
    let* n = int_range 1 max_n in
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
    let* cw = int_range min_side 5
    and* ch = int_range min_side 5
    and* ct = int_range min_side 5 in
    return (dims, List.filter_map Fun.id arcs, (cw, ch, ct)))

let print_case (dims, arcs, (cw, ch, ct)) =
  Format.asprintf "boxes=%s arcs=%s cont=%dx%dx%d"
    (String.concat ","
       (List.map (fun (w, h, d) -> Printf.sprintf "%dx%dx%d" w h d) dims))
    (String.concat ","
       (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) arcs))
    cw ch ct

let arb_case = QCheck.make (gen_case ~max_n:6 ~min_side:2) ~print:print_case

let case_instance (dims, arcs, _) =
  inst ~precedence:arcs (List.map (fun (w, h, d) -> box3 w h d) dims)

(* An Infeasible certificate must never contradict the exact solver. *)
let prop_infeasible_agrees case =
  let i = case_instance case in
  let _, _, (cw, ch, ct) = case in
  let c = cont3 cw ch ct in
  match Engine.check (Engine.create ()) i c with
  | Engine.Lower_bound _ | Engine.Inconclusive -> true
  | Engine.Infeasible cert -> (
    match Solver.solve ~options:reference i c with
    | Solver.Infeasible, _ -> true
    | Solver.Feasible _, _ ->
      QCheck.Test.fail_reportf "unsound certificate %s: %s" cert.Engine.bound
        cert.Engine.detail
    | Solver.Timeout, _ -> QCheck.assume_fail ())

(* A Lower_bound never exceeds the container's time extent (larger
   values must surface as Infeasible) and never exceeds the true
   minimal makespan on the same chip. *)
let prop_lower_bound_sound case =
  let i = case_instance case in
  let _, _, (cw, ch, ct) = case in
  let c = cont3 cw ch ct in
  match Engine.check (Engine.create ()) i c with
  | Engine.Infeasible _ | Engine.Inconclusive -> true
  | Engine.Lower_bound l ->
    if l > ct then
      QCheck.Test.fail_reportf "Lower_bound %d exceeds the queried cap %d" l ct
    else (
      match Problems.minimize_time ~options:reference i ~w:cw ~h:ch with
      | Problems.Optimal { value; _ } ->
        if l <= value then true
        else
          QCheck.Test.fail_reportf "Lower_bound %d above the optimum %d" l value
      | Problems.Infeasible -> true (* spatial misfit: no optimum to bound *)
      | Problems.Feasible_incumbent _ | Problems.Unknown _ ->
        QCheck.assume_fail ())

(* [time_lower_bound] (the probe-bracket seed used by Problems) is
   always positive and dominated by the optimum. *)
let prop_time_lower_bound_sound case =
  let i = case_instance case in
  let _, _, (cw, ch, _) = case in
  let lb = Engine.time_lower_bound (Engine.create ()) i (cont3 cw ch 1) in
  lb >= 1
  &&
  match Problems.minimize_time ~options:reference i ~w:cw ~h:ch with
  | Problems.Optimal { value; _ } -> lb <= value
  | Problems.Infeasible -> true
  | Problems.Feasible_incumbent _ | Problems.Unknown _ -> QCheck.assume_fail ()

(* [clique-time] is built on the same serialization graph as the
   objective-axis [exclusion_extent], plus the precedence arcs, so the engine's time
   lower bound never falls below the bare exclusion clique. *)
let prop_time_lower_bound_covers_exclusion case =
  let i = case_instance case in
  let _, _, (cw, ch, _) = case in
  let c = cont3 cw ch 1 in
  Engine.time_lower_bound (Engine.create ()) i c
  >= Engine.exclusion_extent i c ~axis:(Packing.Instance.objective_axis i)

(* ------------------------------------------------------------------ *)
(* Satellite: the doubling bracket of minimize_base starts at the      *)
(* engine's proven lower bound, not at 1.                              *)
(* ------------------------------------------------------------------ *)

let test_base_search_starts_at_engine_bound () =
  (* Two 3x3x3 tasks with t_max = 4: any two length-3 windows inside
     [0,4) intersect, so the tasks must be spatially disjoint — base 6
     is optimal. The engine refutes s = 4, 5 (serialization clique), so
     the first probe the driver pays for is already at s = 6. *)
  let i = inst [ box3 3 3 3; box3 3 3 3 ] in
  let probes = ref [] in
  let on_probe p = probes := p :: !probes in
  (match Problems.minimize_base ~on_probe i ~t_max:4 with
  | Problems.Optimal { value; _ } -> Alcotest.(check int) "optimum" 6 value
  | _ -> Alcotest.fail "expected a proven optimum");
  List.iter
    (fun (p : Problems.probe) ->
      let w = Container.extent p.Problems.target 0 in
      if w < 6 then
        Alcotest.failf "probed s=%d below the engine lower bound 6" w)
    !probes;
  Alcotest.(check bool) "at least one probe" true (!probes <> [])

(* With bounds disabled the same driver pays for the refuted sizes —
   the satellite fix is observable, not vacuous. *)
let test_base_search_without_engine_probes_low () =
  let i = inst [ box3 3 3 3; box3 3 3 3 ] in
  let probes = ref [] in
  let on_probe p = probes := p :: !probes in
  (match Problems.minimize_base ~options:reference ~on_probe i ~t_max:4 with
  | Problems.Optimal { value; _ } -> Alcotest.(check int) "optimum" 6 value
  | _ -> Alcotest.fail "expected a proven optimum");
  Alcotest.(check bool) "some probe below 6" true
    (List.exists
       (fun (p : Problems.probe) -> Container.extent p.Problems.target 0 < 6)
       !probes)

(* ------------------------------------------------------------------ *)
(* Certificates, counters, and their JSON surfaces                     *)
(* ------------------------------------------------------------------ *)

let test_certificate_and_counters () =
  let e = Engine.create () in
  (* Volume alone refutes: 2 * 3*3*3 = 54 > 3*3*3 = 27. *)
  let i = inst [ box3 3 3 3; box3 3 3 3 ] in
  (match Engine.check e i (cont3 3 3 3) with
  | Engine.Infeasible cert ->
    Alcotest.(check bool) "bound named" true (cert.Engine.bound <> "");
    let js = Packing.Telemetry.to_string (Engine.certificate_json cert) in
    Alcotest.(check bool) "certificate json has bound" true
      (contains js cert.Engine.bound)
  | _ -> Alcotest.fail "volume overflow must be refuted");
  let counters = Engine.counters e in
  Alcotest.(check bool) "counters non-empty" true (counters <> []);
  Alcotest.(check bool) "a prune was recorded" true
    (List.exists
       (fun (_, c) -> c.Packing.Telemetry.prunes > 0)
       counters);
  (* Merge is pointwise by name. *)
  let merged = Packing.Telemetry.add_bound_counters counters counters in
  List.iter
    (fun (name, c) ->
      let m = List.assoc name merged in
      Alcotest.(check int)
        (name ^ " calls doubled")
        (2 * c.Packing.Telemetry.calls)
        m.Packing.Telemetry.calls)
    counters

let test_verdict_json () =
  let e = Engine.create () in
  let i = inst [ box3 3 3 3; box3 3 3 3 ] in
  List.iter
    (fun (name, v) ->
      let js = Packing.Telemetry.to_string (Engine.verdict_json v) in
      match v with
      | Engine.Infeasible _ ->
        Alcotest.(check bool) (name ^ " infeasible tag") true
          (contains js "\"infeasible\"")
      | Engine.Lower_bound _ ->
        Alcotest.(check bool) (name ^ " lower_bound tag") true
          (contains js "\"lower_bound\"")
      | Engine.Inconclusive ->
        Alcotest.(check bool) (name ^ " inconclusive tag") true
          (contains js "\"inconclusive\""))
    (Engine.run_all e ~refute:(Solver.slice_refuter ()) i (cont3 3 3 3))

let test_solver_stats_carry_bounds () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  let _, stats = Solver.solve i (cont3 4 2 2) in
  Alcotest.(check bool) "stage-1 engine counted" true
    (stats.Solver.bounds <> []);
  Alcotest.(check bool) "stats json has bounds object" true
    (contains (Solver.stats_to_json stats) "\"bounds\"")

(* ------------------------------------------------------------------ *)
(* Node-level checks                                                   *)
(* ------------------------------------------------------------------ *)

let test_energetic_at_node_uses_arcs () =
  let e = Engine.create () in
  (* No precedence at all: two 1x1x3 tasks fit a 2-wide chip in 3
     cycles side by side. An oriented arc 0 -> 1 (a branching decision)
     forces 6 cycles, so the same node is refuted at t_max = 5. *)
  let i = inst [ box3 1 1 3; box3 1 1 3 ] in
  let c = cont3 2 2 5 in
  (match Engine.check e i c with
  | Engine.Infeasible _ -> Alcotest.fail "feasible instance refuted at root"
  | _ -> ());
  let seq = Graphlib.Digraph.of_arcs 2 [ (0, 1) ] in
  match Engine.energetic_at_node e i c ~sequencing:seq with
  | Engine.Infeasible _ -> ()
  | _ -> Alcotest.fail "oriented chain 3+3 must refute t_max = 5"

(* Up to 8 boxes in containers they all fit, plus a walk seed. *)
let arb_walk =
  QCheck.make
    QCheck.Gen.(pair (gen_case ~max_n:8 ~min_side:3) (int_range 0 1_000_000))
    ~print:(fun (case, seed) ->
      Printf.sprintf "%s seed=%d" (print_case case) seed)

(* Why the search runs no critical-path or clique-time bound at its
   nodes: under the default rules every node that survives propagation
   already meets both. The heaviest chain of committed time arcs, and
   the heaviest exclusion clique with those arcs added, fit the time
   extent (C2 held each such clique to it, C3 made each exclusion pair
   comparable in time). A random walk of branching decisions checks
   every node it reaches. *)
let prop_node_chains_within_time (case, seed) =
  let module St = Packing.Packing_state in
  let i = case_instance case in
  let _, _, (cw, ch, ct) = case in
  let c = cont3 cw ch ct in
  let rng = Random.State.make [| seed |] in
  let check st =
    let seq = St.time_sequencing st in
    let chain =
      Graphlib.Digraph.critical_path seq ~weight:(Packing.Instance.duration i)
    in
    let clique =
      Engine.exclusion_extent i c ~axis:(Packing.Instance.objective_axis i)
        ~also:(fun u v ->
          Graphlib.Digraph.mem_arc seq u v || Graphlib.Digraph.mem_arc seq v u)
    in
    if chain > ct || clique > ct then
      QCheck.Test.fail_reportf
        "a node survives with chain %d and clique %d past time extent %d"
        chain clique ct
  in
  let rec walk st =
    check st;
    let open_pairs =
      List.concat_map
        (fun dim ->
          List.map
            (fun (u, v) -> (dim, u, v))
            (Order.Oriented_graph.unknown_pairs (St.dimension st dim)))
        [ 0; 1; 2 ]
    in
    if open_pairs <> [] then begin
      let dim, u, v =
        List.nth open_pairs (Random.State.int rng (List.length open_pairs))
      in
      let assign overlap =
        if overlap then St.assign_component st ~dim u v
        else St.assign_comparable st ~dim u v
      in
      let first = Random.State.bool rng in
      let m = St.mark st in
      match assign first with
      | Ok () -> walk st
      | Error _ -> (
        St.undo_to st m;
        match assign (not first) with Ok () -> walk st | Error _ -> ())
    end
  in
  (match St.create i c with Ok st -> walk st | Error _ -> ());
  true

(* ------------------------------------------------------------------ *)
(* Derived extents past max_int                                        *)
(* ------------------------------------------------------------------ *)

(* [n] unit-area tasks of duration [d] in a dependency chain on a
   2^20 x 2^20 chip: the optimum is [n * d], and the container at that
   makespan has a volume past max_int (2^63 for n = 8, d = 2^20). *)
let chain n d =
  inst
    ~precedence:(List.init (n - 1) (fun i -> (i, i + 1)))
    (List.init n (fun _ -> box3 1 1 d))

let test_derived_extents_saturate () =
  let side = 1 lsl 20 in
  List.iter
    (fun (n, d) ->
      let i = chain n d and opt = n * d in
      (match Engine.check (Engine.create ()) i (cont3 side side opt) with
      | Engine.Infeasible c ->
        Alcotest.failf "%d x %d chain refuted at its optimum: %s: %s" n d
          c.Engine.bound c.Engine.detail
      | Engine.Lower_bound _ | Engine.Inconclusive -> ());
      match Problems.minimize_time i ~w:side ~h:side with
      | Problems.Optimal { value; _ } ->
        Alcotest.(check int) (Printf.sprintf "%d x %d optimum" n d) opt value
      | _ -> Alcotest.failf "%d x %d chain: no optimum" n d)
    [ (8, 1 lsl 20); (9, 1_000_000) ]

(* [run_all] evaluates every bound, the DFF ones included, even when a
   task overflows the container: [misfit] must speak and nothing may
   raise (the DFFs are only defined on extents within the container).
   The time-slice bound leaves that certificate to [misfit] too. *)
let misfit_verdicts i c =
  let verdicts =
    Engine.run_all (Engine.create ()) ~refute:(Solver.slice_refuter ()) i c
  in
  let is_infeasible name =
    match List.assoc name verdicts with
    | Engine.Infeasible _ -> true
    | Engine.Lower_bound _ | Engine.Inconclusive -> false
  in
  ( is_infeasible "misfit",
    is_infeasible "dff-volume" || is_infeasible "dff-time"
    || is_infeasible "time-slice" )

let prop_run_all_on_misfit case =
  let i = case_instance case in
  let _, _, (cw, ch, ct) = case in
  (* Containers from 1^3 to 4^3 against extents up to 3. *)
  let c = cont3 (cw - 1) (ch - 1) (ct - 1) in
  let misfit, dff = misfit_verdicts i c in
  if misfit <> Option.is_some (Engine.misfit i c) then
    QCheck.Test.fail_report "misfit verdict disagrees with Engine.misfit";
  if misfit && dff then
    QCheck.Test.fail_report "a DFF or time-slice bound spoke on a misfit container";
  true

let test_run_all_de_small_chips () =
  let de = Benchmarks.De.instance in
  for side = 1 to 17 do
    let misfit, _ = misfit_verdicts de (cont3 side side 14) in
    Alcotest.(check bool)
      (Printf.sprintf "misfit on %dx%d" side side)
      (Option.is_some (Engine.misfit de (cont3 side side 14)))
      misfit
  done;
  let misfit, _ = misfit_verdicts de (cont3 8 8 14) in
  Alcotest.(check bool) "8x8 is a misfit" true misfit

(* ------------------------------------------------------------------ *)
(* Time slices                                                         *)
(* ------------------------------------------------------------------ *)

(* A guillotine instance with its witness tiling, in 2 to 4 dimensions,
   with orders on the objective axis, the first axis or both. *)
let arb_tiling =
  QCheck.make
    QCheck.Gen.(
      let* dim = oneofl [ 2; 3; 4 ] in
      let* seed = int_range 0 1_000_000 in
      let* cuts = int_range 1 12 in
      let* arc_probability = oneofl [ 0.0; 0.3; 0.6; 1.0 ] in
      let* axes = oneofl [ [ dim - 1 ]; [ 0 ]; [ 0; dim - 1 ] ] in
      return (dim, seed, cuts, arc_probability, axes))
    ~print:(fun (dim, seed, cuts, ap, axes) ->
      Printf.sprintf "dim=%d seed=%d cuts=%d arcs=%.1f axes=[%s]" dim seed cuts
        ap
        (String.concat ";" (List.map string_of_int axes)))

let tiling (dim, seed, cuts, arc_probability, axes) =
  let container =
    Container.make (Array.init dim (fun k -> if k = dim - 1 then 8 else 6))
  in
  let inst, witness =
    Benchmarks.Generate.guillotine ~order_axes:axes ~seed ~container ~cuts
      ~arc_probability ()
  in
  (inst, container, witness)

(* Every slice runs together in the witness too (its start times lie in
   the windows), and the root check never refutes a feasible instance. *)
let prop_time_slice_sound case =
  let inst, container, witness = tiling case in
  let ta = Packing.Instance.objective_axis inst in
  List.iter
    (fun (t, tasks) ->
      List.iter
        (fun i ->
          let s = (Geometry.Placement.origin witness i).(ta) in
          if not (s <= t && t < s + Packing.Instance.duration inst i) then
            QCheck.Test.fail_reportf "task %d does not run at time %d" i t)
        tasks)
    (Engine.time_slices inst container);
  match Solver.root_check (Engine.create ()) inst container with
  | Engine.Infeasible c ->
    QCheck.Test.fail_reportf "a tiling refuted by %s: %s" c.Engine.bound
      c.Engine.detail
  | Engine.Lower_bound _ | Engine.Inconclusive -> true

let parse_instance text = (Fpga.Instance_io.parse text).Fpga.Instance_io.instance

(* Request u298 of the serve-unique pool, canonical labels:
   [Generate.random] n=10 on a 7x7 chip. Its critical path is 5, and
   t2, t4, t5, t7 and t9 run during cycle 2 in every 5-cycle schedule:
   44 of 49 cells, but no packing of the 7x7 chip. *)
let u298 =
  parse_instance
    {|task t0 1 2 1
task t1 1 3 1
task t2 1 3 1
task t3 1 3 2
task t4 3 3 3
task t5 3 4 3
task t6 4 1 1
task t7 4 2 3
task t8 4 3 2
task t9 4 3 2
dep t2 t8
dep t3 t2
dep t3 t7
dep t6 t9
dep t9 t8
|}

let test_u298_refuted_by_slice () =
  let options = { Solver.default_options with node_limit = Some 25_000 } in
  let outcome, stats = Solver.solve ~options u298 (cont3 7 7 5) in
  Alcotest.(check string) "7x7x5" "infeasible"
    (Format.asprintf "%a" Solver.pp_outcome outcome);
  Alcotest.(check bool) "by bounds" true stats.Solver.by_bounds;
  Alcotest.(check int) "no node" 0 stats.Solver.nodes;
  Alcotest.(check int) "time-slice prunes" 1
    (List.assoc "time-slice" stats.Solver.bounds).Packing.Telemetry.prunes;
  match Solver.root_check (Engine.create ()) u298 (cont3 7 7 5) with
  | Engine.Infeasible c ->
    Alcotest.(check (pair string string)) "certificate"
      ( "time-slice",
        "tasks 2,4,5,7,9 all run at time 2 and do not pack the 7x7 \
         cross-section" )
      (c.Engine.bound, c.Engine.detail)
  | Engine.Lower_bound _ | Engine.Inconclusive ->
    Alcotest.fail "the root check does not refute 7x7x5"

(* Request u83 of the serve-unique pool, canonical labels: a
   [Generate.guillotine] tiling of 8x8x8 with no volume slack, so the
   search explores the comparable branch first. Component first needs
   56,336 nodes. *)
let u83 =
  parse_instance
    {|task t0 1 2 1
task t1 1 6 1
task t2 1 8 1
task t3 1 8 3
task t4 2 8 1
task t5 2 8 1
task t6 2 8 5
task t7 3 8 5
task t8 3 8 5
task t9 5 8 1
task t10 5 8 2
dep t0 t4
dep t0 t5
dep t0 t6
dep t0 t8
dep t1 t9
dep t2 t5
dep t3 t6
dep t10 t6
dep t10 t8
dep t10 t9
|}

let test_u83_zero_slack_tiling () =
  let options = { Solver.default_options with node_limit = Some 1_000 } in
  match Solver.solve ~options u83 (cont3 8 8 8) with
  | Solver.Feasible _, stats ->
    Alcotest.(check bool) "searched" false stats.Solver.by_heuristic
  | (Solver.Infeasible | Solver.Timeout), _ ->
    Alcotest.fail "8x8x8 not solved within 1,000 nodes"

(* ------------------------------------------------------------------ *)
(* DFF enumerations against their reference copy                       *)
(* ------------------------------------------------------------------ *)

(* A d-dimensional instance with precedence and a container from tight
   (every axis the widest task's extent) to loose (the sum of all).
   Huge cases mix small extents with extents at or just below 2^(62/d)
   (2^31 in two dimensions), where the composed container volume lies
   near max_int and the larger [u^(k)] targets saturate [mul_sat]. *)
let gen_dff_case =
  QCheck.Gen.(
    let* dim = oneofl [ 2; 3; 4 ] in
    let* n = int_range 1 (if dim = 4 then 6 else 9) in
    let* huge = frequencyl [ (3, false); (1, true) ] in
    let extent =
      if huge then
        frequency
          [
            (2, map (fun r -> (1 lsl (62 / dim)) - r) (int_range 0 3));
            (1, int_range 1 4);
          ]
      else int_range 1 6
    in
    let* extents = list_repeat n (array_repeat dim extent) in
    let* arcs =
      flatten_l
        (List.concat_map
           (fun u ->
             List.init (n - u - 1) (fun k ->
                 map
                   (fun keep -> if keep = 0 then Some (u, u + k + 1) else None)
                   (int_range 0 3)))
           (List.init n Fun.id))
    in
    let* looseness = array_repeat dim (oneofl [ 0.0; 0.1; 0.25; 0.5; 1.0 ]) in
    let container =
      Array.mapi
        (fun k l ->
          let widest = List.fold_left (fun m e -> max m e.(k)) 0 extents in
          let sum = List.fold_left (fun s e -> s + e.(k)) 0 extents in
          widest + int_of_float (l *. float_of_int (sum - widest)))
        looseness
    in
    return (extents, List.filter_map Fun.id arcs, container))

let print_dff_case (extents, arcs, container) =
  let ints sep a = String.concat sep (List.map string_of_int (Array.to_list a)) in
  Printf.sprintf "boxes=%s arcs=%s cont=%s"
    (String.concat "," (List.map (ints "x") extents))
    (String.concat ","
       (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) arcs))
    (ints "x" container)

let arb_dff_case = QCheck.make gen_dff_case ~print:print_dff_case

let dff_instance (extents, arcs, container) =
  ( Packing.Instance.make ~precedence:arcs
      ~boxes:(Array.of_list (List.map Box.make extents))
      (),
    Container.make container )

let show v = Format.asprintf "%a" Engine.pp_verdict v

let dff_verdicts case =
  let i, c = dff_instance case in
  ( (show (Engine.dff_volume i c), show (Dff_reference.dff_volume i c)),
    (show (Engine.dff_time i c), show (Dff_reference.dff_time i c)) )

let prop_dff_matches_reference case =
  let (volume, volume_ref), (time, time_ref) = dff_verdicts case in
  if volume <> volume_ref then
    QCheck.Test.fail_reportf "dff-volume: %s, reference %s" volume volume_ref
  else if time <> time_ref then
    QCheck.Test.fail_reportf "dff-time: %s, reference %s" time time_ref
  else true

let dff_cases = 1000

(* The sample the property draws is not vacuous: both bounds refute,
   dff-time proves time bounds, and some containers reach [mul_sat]
   saturation on their largest composed target ([u^(4)] on every axis),
   some of them refuted all the same. *)
let test_dff_sample_covers () =
  let cases =
    QCheck.Gen.generate ~rand:(Fixed_seed.rand seed)
      ~n:dff_cases gen_dff_case
  in
  let refuted = String.starts_with ~prefix:"infeasible" in
  let saturates (_, _, container) =
    Array.fold_left (fun a w -> Box.mul_sat a (4 * w)) 1 container = max_int
  in
  let tally =
    List.map
      (fun case ->
        let (volume, _), (time, _) = dff_verdicts case in
        (refuted volume, refuted time, contains time "lower bound",
         saturates case))
      cases
  in
  let count p = List.length (List.filter p tally) in
  let volume = count (fun (v, _, _, _) -> v)
  and time = count (fun (_, t, _, _) -> t)
  and bounded = count (fun (_, _, b, _) -> b)
  and saturated = count (fun (_, _, _, s) -> s)
  and saturated_refuted = count (fun (v, _, _, s) -> v && s) in
  Alcotest.(check bool)
    (Printf.sprintf
       "%d dff-volume and %d dff-time refutations, %d time bounds, %d \
        saturating containers (%d refuted)"
       volume time bounded saturated saturated_refuted)
    true
    (volume > 0 && time > 0 && bounded > 0 && saturated_refuted > 0)

(* ------------------------------------------------------------------ *)
(* time_lower_bound against its definition                             *)
(* ------------------------------------------------------------------ *)

(* A d-dimensional instance on a random objective axis, with
   precedence, in half the cases an order on one other axis, and a
   container whose axes range from one unit narrower than the widest
   task (a misfit) to the sum of all extents. A quarter of the cases
   mix small extents with ones just below 2^(62/d); another quarter
   draws extents 2 to 4 on a container of side 5, where pairs of width
   2 fit side by side but triples do not, which only the DFF bounds
   see. *)
let gen_serial_case =
  QCheck.Gen.(
    let* dim = oneofl [ 2; 3; 4 ] in
    let* n = int_range 1 (if dim = 4 then 6 else 8) in
    let* mode = frequencyl [ (2, `Small); (1, `Medium); (1, `Huge) ] in
    let extent =
      match mode with
      | `Huge ->
        frequency
          [
            (2, map (fun r -> (1 lsl (62 / dim)) - r) (int_range 0 3));
            (1, int_range 1 4);
          ]
      | `Medium -> oneofl [ 2; 2; 3; 4 ]
      | `Small -> int_range 1 5
    in
    let* extents = list_repeat n (array_repeat dim extent) in
    let arcs =
      map (List.filter_map Fun.id)
        (flatten_l
           (List.concat_map
              (fun u ->
                List.init (n - u - 1) (fun k ->
                    map
                      (fun keep -> if keep = 0 then Some (u, u + k + 1) else None)
                      (int_range 0 3)))
              (List.init n Fun.id)))
    in
    let* objective = int_range 0 (dim - 1) in
    let* precedence = arcs in
    let* ordered = bool in
    let* axis = map (fun k -> (objective + 1 + k) mod dim) (int_range 0 (dim - 2)) in
    let* spatial = arcs in
    let orders = if ordered then [ (axis, spatial) ] else [] in
    let* looseness =
      array_repeat dim (oneofl [ -1.0; 0.0; 0.0; 0.25; 0.5; 1.0; 1.0 ])
    in
    let container =
      Array.mapi
        (fun k l ->
          let widest = List.fold_left (fun m e -> max m e.(k)) 0 extents in
          let sum = List.fold_left (fun s e -> s + e.(k)) 0 extents in
          if mode = `Medium then 5
          else if l < 0.0 then max 1 (widest - 1)
          else widest + int_of_float (l *. float_of_int (sum - widest)))
        looseness
    in
    return (extents, objective, precedence, orders, container))

let print_serial_case (extents, objective, precedence, orders, container) =
  let ints sep a = String.concat sep (List.map string_of_int (Array.to_list a)) in
  let arcs l =
    String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) l)
  in
  Printf.sprintf "boxes=%s objective=%d precedence=%s orders=%s cont=%s"
    (String.concat "," (List.map (ints "x") extents))
    objective (arcs precedence)
    (String.concat ";"
       (List.map (fun (k, l) -> Printf.sprintf "%d:%s" k (arcs l)) orders))
    (ints "x" container)

let arb_serial_case = QCheck.make gen_serial_case ~print:print_serial_case

let serial_instance (extents, objective, precedence, orders, container) =
  ( Packing.Instance.make ~objective_axis:objective ~precedence ~orders
      ~boxes:(Array.of_list (List.map Box.make extents))
      (),
    Container.make container )

(* [time_lower_bound] as first defined: every registered bound through
   [check] at the serialized horizon, the total duration. *)
let serialized_check i c =
  let h = max 1 (Packing.Instance.total_duration i) in
  match
    Engine.check (Engine.create ()) i
      (Container.with_extent c (Packing.Instance.objective_axis i) h)
  with
  | Engine.Infeasible _ -> h + 1
  | Engine.Lower_bound l -> max 1 l
  | Engine.Inconclusive -> 1

let prop_time_lower_bound_definition case =
  let i, c = serial_instance case in
  let lb = Engine.time_lower_bound (Engine.create ()) i c
  and expected = serialized_check i c in
  if lb = expected then true
  else QCheck.Test.fail_reportf "time_lower_bound %d, definition %d" lb expected

let serial_cases = 1000

(* The sample is not vacuous: the definition refutes by a misfit and,
   with every task fitting, by an ordered spatial chain; it proves
   bounds above 1, some of which only dff-time reaches. *)
let test_serial_sample_covers () =
  let cases =
    QCheck.Gen.generate ~rand:(Fixed_seed.rand seed)
      ~n:serial_cases gen_serial_case
  in
  let tally =
    List.map
      (fun case ->
        let i, c = serial_instance case in
        let h = max 1 (Packing.Instance.total_duration i) in
        let c = Container.with_extent c (Packing.Instance.objective_axis i) h in
        let lb = serialized_check i c in
        let misfit = Option.is_some (Engine.misfit i c) in
        let bound = function Engine.Lower_bound l -> l | _ -> 0 in
        let others =
          List.fold_left
            (fun m (name, v) -> if name = "dff-time" then m else max m (bound v))
            0
            (Engine.run_all (Engine.create ()) ~refute:(fun _ _ -> false) i c)
        in
        ( misfit,
          lb > h && not misfit,
          lb > 1 && lb <= h,
          bound (Engine.dff_time i c) > others ))
      cases
  in
  let count p = List.length (List.filter p tally) in
  let misfit = count (fun (m, _, _, _) -> m)
  and chain = count (fun (_, r, _, _) -> r)
  and bounded = count (fun (_, _, b, _) -> b)
  and dff = count (fun (_, _, _, d) -> d) in
  Alcotest.(check bool)
    (Printf.sprintf
       "%d misfits, %d refuted with every task fitting, %d bounded (%d by \
        dff-time alone)"
       misfit chain bounded dff)
    true
    (misfit > 0 && chain > 0 && bounded > 0 && dff > 0)

let () =
  Alcotest.run "bounds engine"
    [
      ( "soundness",
        [
          Fixed_seed.qtest ~seed ~count:150
            "Infeasible agrees with exact solver" arb_case
            prop_infeasible_agrees;
          Fixed_seed.qtest ~seed ~count:100 "Lower_bound below optimum" arb_case
            prop_lower_bound_sound;
          Fixed_seed.qtest ~seed ~count:100 "time_lower_bound below optimum"
            arb_case prop_time_lower_bound_sound;
          Fixed_seed.qtest ~seed ~count:200
            "time_lower_bound covers exclusion clique"
            arb_case prop_time_lower_bound_covers_exclusion;
        ] );
      ( "problems integration",
        [
          Alcotest.test_case "base doubling starts at engine bound" `Quick
            test_base_search_starts_at_engine_bound;
          Alcotest.test_case "engine-free driver probes low" `Quick
            test_base_search_without_engine_probes_low;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "certificate and counters" `Quick
            test_certificate_and_counters;
          Alcotest.test_case "verdict json" `Quick test_verdict_json;
          Alcotest.test_case "solver stats carry bounds" `Quick
            test_solver_stats_carry_bounds;
        ] );
      ( "oriented",
        [
          Alcotest.test_case "energetic_at_node uses arcs" `Quick
            test_energetic_at_node_uses_arcs;
          Fixed_seed.qtest ~seed ~count:1000
            "nodes keep chains within the time extent" arb_walk
            prop_node_chains_within_time;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "derived extents saturate" `Quick
            test_derived_extents_saturate;
        ] );
      ( "time-slice",
        [
          Fixed_seed.qtest ~seed ~count:300 "never refutes a guillotine tiling"
            arb_tiling prop_time_slice_sound;
          Alcotest.test_case "u298 refuted at the root" `Quick
            test_u298_refuted_by_slice;
          Alcotest.test_case "u83 tiling found at zero slack" `Quick
            test_u83_zero_slack_tiling;
        ] );
      ( "dff",
        [
          Fixed_seed.qtest ~seed ~count:dff_cases
            "DFF matches the reference copy" arb_dff_case
            prop_dff_matches_reference;
          Alcotest.test_case "reference sample refutes and saturates" `Quick
            test_dff_sample_covers;
        ] );
      ( "serialized",
        [
          Fixed_seed.qtest ~seed ~count:serial_cases
            "time_lower_bound matches its definition"
            arb_serial_case prop_time_lower_bound_definition;
          Alcotest.test_case "definition sample refutes and bounds" `Quick
            test_serial_sample_covers;
        ] );
      ( "misfit",
        [
          Fixed_seed.qtest ~seed ~count:300
            "run_all never raises on a misfit container"
            arb_case prop_run_all_on_misfit;
          Alcotest.test_case "run_all on DE, 1x1 to 17x17" `Quick
            test_run_all_de_small_chips;
        ] );
    ]
