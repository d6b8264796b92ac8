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

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let inst ?precedence boxes =
  Packing.Instance.make ?precedence ~boxes:(Array.of_list boxes) ()

let box3 w h d = Box.make3 ~w ~h ~duration:d
let cont3 w h t = Container.make3 ~w ~h ~t_max:t

(* Engine-free reference options: no stage-1 bounds, no node-level
   engine checks. The heuristic stays on (its witnesses are validated),
   so only the exact search core decides. *)
let reference =
  {
    Solver.default_options with
    use_bounds = false;
    node_bounds = Solver.Realize_never;
  }

let contains haystack needle =
  let nl = String.length needle and l = String.length haystack in
  let rec go i = i + nl <= l && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Random small instances: n <= 6, extents <= 3, containers <= 5^3.    *)
(* ------------------------------------------------------------------ *)

let arb_case =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 6 in
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
      let* cw = int_range 2 5 and* ch = int_range 2 5 and* ct = int_range 2 5 in
      return (dims, List.filter_map Fun.id arcs, (cw, ch, ct)))
  in
  QCheck.make gen ~print:(fun (dims, arcs, (cw, ch, ct)) ->
      Format.asprintf "boxes=%s arcs=%s cont=%dx%dx%d"
        (String.concat ","
           (List.map (fun (w, h, d) -> Printf.sprintf "%dx%dx%d" w h d) dims))
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) arcs))
        cw ch ct)

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

(* [clique-time] is built on the same serialization graph as
   [exclusion_duration], plus the precedence arcs, so the engine's time
   lower bound never falls below the bare exclusion clique. *)
let prop_time_lower_bound_covers_exclusion case =
  let i = case_instance case in
  let _, _, (cw, ch, _) = case in
  let c = cont3 cw ch 1 in
  Engine.time_lower_bound (Engine.create ()) i c
  >= Engine.exclusion_duration i c

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
(* Oriented (node-level) checks                                        *)
(* ------------------------------------------------------------------ *)

let test_check_oriented_uses_arcs () =
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
  match Engine.check_oriented e i c ~sequencing:seq with
  | Engine.Infeasible _ -> ()
  | _ -> Alcotest.fail "oriented chain 3+3 must refute t_max = 5"

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

let () =
  Alcotest.run "bounds engine"
    [
      ( "soundness",
        [
          qtest ~count:150 "Infeasible agrees with exact solver" arb_case
            prop_infeasible_agrees;
          qtest ~count:100 "Lower_bound below optimum" arb_case
            prop_lower_bound_sound;
          qtest ~count:100 "time_lower_bound below optimum" arb_case
            prop_time_lower_bound_sound;
          qtest ~count:200 "time_lower_bound covers exclusion clique"
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
          Alcotest.test_case "check_oriented uses arcs" `Quick
            test_check_oriented_uses_arcs;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "derived extents saturate" `Quick
            test_derived_extents_saturate;
        ] );
      ( "time-slice",
        [
          qtest ~count:300 "never refutes a guillotine tiling" arb_tiling
            prop_time_slice_sound;
          Alcotest.test_case "u298 refuted at the root" `Quick
            test_u298_refuted_by_slice;
          Alcotest.test_case "u83 tiling found at zero slack" `Quick
            test_u83_zero_slack_tiling;
        ] );
      ( "misfit",
        [
          qtest ~count:300 "run_all never raises on a misfit container"
            arb_case prop_run_all_on_misfit;
          Alcotest.test_case "run_all on DE, 1x1 to 17x17" `Quick
            test_run_all_de_small_chips;
        ] );
    ]
