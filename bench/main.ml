(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Sec. 5) and runs the ablation studies listed in
   DESIGN.md.

   Usage:
     dune exec bench/main.exe            # every target except smoke
     dune exec bench/main.exe -- table1 table2 fig7
     dune exec bench/main.exe -- ablation-baseline ablation-rules ablation-stages
     dune exec bench/main.exe -- rect scaling
     dune exec bench/main.exe -- parallel   # strong scaling, BENCH_parallel.json
     dune exec bench/main.exe -- bounds     # engine off vs on, BENCH_bounds.json
     dune exec bench/main.exe -- ddim       # d=2 strip and d=4, BENCH_ddim.json
     dune exec bench/main.exe -- smoke      # parallel + bounds on small sets
     dune exec bench/main.exe -- bechamel   # timing micro-benchmarks only

   Every duration is read from one monotonic clock ([wall], on
   [Packing.Clock]); speed claims come from benchmark/run.exe, not from
   here. The absolute CPU times differ from the paper's SUN Ultra 30
   (1997 hardware); EXPERIMENTS.md records both and compares the
   shapes. *)

let wall f =
  let t0 = Packing.Clock.now () in
  let r = f () in
  (r, Packing.Clock.since t0)

let verdict = Packing.Opp_solver.outcome_name

(* ------------------------------------------------------------------ *)
(* Table 1: DE benchmark, BMP for T in {6, 13, 14}                     *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let de = Benchmarks.De.instance in
  Format.printf "@.== Table 1: DE benchmark, minimal chip per time budget ==@.";
  Format.printf "   T   chip (ours)   chip (paper)   CPU-time (ours)@.";
  List.iter
    (fun (t_max, expected) ->
      let result, dt = wall (fun () -> Packing.Problems.minimize_base de ~t_max) in
      match result with
      | Packing.Problems.Infeasible
      | Packing.Problems.Feasible_incumbent _
      | Packing.Problems.Unknown _ -> Format.printf "  %3d  impossible@." t_max
      | Packing.Problems.Optimal { value; _ } ->
        Format.printf "  %3d  %dx%-10d %dx%-12d %.3f s%s@." t_max value value
          expected expected dt
          (if value = expected then "" else "   MISMATCH"))
    Benchmarks.De.table1

(* ------------------------------------------------------------------ *)
(* Table 2: video codec, BMP at the minimal latency                    *)
(* ------------------------------------------------------------------ *)

let table2 () =
  let codec = Benchmarks.Video_codec.instance in
  let h_exp, t_exp = Benchmarks.Video_codec.table2 in
  Format.printf "@.== Table 2: video codec ==@.";
  let result, dt =
    wall (fun () -> Packing.Problems.minimize_base codec ~t_max:t_exp)
  in
  (match result with
  | Packing.Problems.Optimal { value; _ } ->
    Format.printf "  T = %d: chip %dx%d (paper %dx%d), CPU-time %.3f s%s@."
      t_exp value value h_exp h_exp dt
      (if value = h_exp then "" else "   MISMATCH")
  | _ -> Format.printf "  impossible?!@.");
  (* The paper also reports that T = 59 is the smallest feasible latency
     and that no chip below 64x64 works at all. *)
  let spp, dt2 =
    wall (fun () -> Packing.Problems.minimize_time codec ~w:64 ~h:64)
  in
  (match spp with
  | Packing.Problems.Optimal { value; _ } ->
    Format.printf "  SPP on 64x64: T = %d (paper %d), %.3f s@." value t_exp dt2
  | _ -> Format.printf "  SPP on 64x64: impossible?!@.");
  let infeasible_63, dt3 =
    wall (fun () ->
        match
          Packing.Opp_solver.solve codec
            (Geometry.Container.make3 ~w:63 ~h:63 ~t_max:200)
        with
        | Packing.Opp_solver.Infeasible, _ -> true
        | _ -> false)
  in
  Format.printf "  63x63 infeasible at any latency: %b, %.3f s@." infeasible_63
    dt3

(* ------------------------------------------------------------------ *)
(* Fig. 7: Pareto fronts with and without precedence constraints       *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  Format.printf "@.== Fig. 7: DE Pareto fronts (chip size vs. makespan) ==@.";
  let show label inst =
    let front, dt =
      wall (fun () -> Packing.Problems.pareto_front inst ~h_min:16 ~h_max:48)
    in
    Format.printf "  %s (%.3f s):@." label dt;
    List.iter
      (fun (h, t) -> Format.printf "    %2dx%-2d -> %2d cycles@." h h t)
      front.Packing.Problems.points
  in
  show "with precedence (solid)" Benchmarks.De.instance;
  show "without precedence (dashed)" Benchmarks.De.instance_without_precedence

(* ------------------------------------------------------------------ *)
(* Ablation A: packing classes vs. naive geometric branch and bound    *)
(* ------------------------------------------------------------------ *)

let search_only =
  {
    Packing.Opp_solver.default_options with
    use_bounds = false;
    use_heuristic = false;
  }

let ablation_baseline () =
  Format.printf
    "@.== Ablation A: packing-class search vs. geometric enumeration ==@.";
  Format.printf
    "  instance              verdict     packing nodes   geometric nodes@.";
  Format.printf
    "  (both solvers run search-only; \"timeout\" = budget exhausted — the\n\
    \   full pipeline settles every case via bounds or the heuristic)@.";
  let cases =
    [
      ( "DE 17x17x12",
        Benchmarks.De.instance,
        Geometry.Container.make3 ~w:17 ~h:17 ~t_max:12 );
      ( "DE 16x16x14",
        Benchmarks.De.instance,
        Geometry.Container.make3 ~w:16 ~h:16 ~t_max:14 );
      ( "DE 32x32x6",
        Benchmarks.De.instance,
        Geometry.Container.make3 ~w:32 ~h:32 ~t_max:6 );
    ]
    @ List.map
        (fun seed ->
          let inst =
            Benchmarks.Generate.random ~seed ~n:6 ~max_extent:4 ~max_duration:3
              ~arc_probability:0.2 ()
          in
          ( Printf.sprintf "random seed %d" seed,
            inst,
            Geometry.Container.make3 ~w:6 ~h:6 ~t_max:6 ))
        [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun (name, inst, container) ->
      let limited = { search_only with node_limit = Some 300_000 } in
      let outcome, stats =
        Packing.Opp_solver.solve ~options:limited inst container
      in
      let base_outcome, base_stats =
        Baseline.Geometric_bb.solve ~node_limit:1_000_000 inst container
      in
      let base_note =
        match base_outcome with
        | Baseline.Geometric_bb.Timeout -> " (gave up)"
        | Baseline.Geometric_bb.Feasible _ | Baseline.Geometric_bb.Infeasible -> ""
      in
      Format.printf "  %-20s  %-10s %13d  %15d%s@." name (verdict outcome)
        stats.Packing.Opp_solver.nodes base_stats.Baseline.Geometric_bb.nodes
        base_note)
    cases

(* ------------------------------------------------------------------ *)
(* Ablation B: contribution of each propagation family                 *)
(* ------------------------------------------------------------------ *)

let ablation_rules () =
  Format.printf "@.== Ablation B: propagation families (DE, 17x17x12) ==@.";
  Format.printf "  configuration              verdict     nodes      time@.";
  let de = Benchmarks.De.instance in
  let container = Geometry.Container.make3 ~w:17 ~h:17 ~t_max:12 in
  let run name off =
    let options =
      { search_only with rules = off; node_limit = Some 1_000_000 }
    in
    let (outcome, stats), dt =
      wall (fun () -> Packing.Opp_solver.solve ~options de container)
    in
    Format.printf "  %-26s %-10s %7d  %8.3f s@." name (verdict outcome)
      stats.Packing.Opp_solver.nodes dt
  in
  let open Packing.Recorder in
  run "all rules" [];
  run "no C2 chain cliques" [ C2 ];
  run "no C4 cycle rule" [ C4 ];
  run "no D1/D2 implications" [ Implications ];
  run "no capacity cliques" [ Capacity ];
  run "bare (C3 + width only)" [ C2; C4; Implications; Capacity ]

(* ------------------------------------------------------------------ *)
(* Ablation C: stages 1 and 2 (bounds, heuristic)                      *)
(* ------------------------------------------------------------------ *)

let ablation_stages () =
  Format.printf "@.== Ablation C: bounds and heuristic stages (DE, BMP) ==@.";
  Format.printf "  configuration        T=6          T=13         T=14@.";
  let de = Benchmarks.De.instance in
  let run name options =
    (* Budget each solve so a disabled stage cannot hang the bench; a
       budget hit surfaces as "gave up". *)
    let options = { options with Packing.Opp_solver.node_limit = Some 400_000 } in
    Format.printf "  %-18s" name;
    List.iter
      (fun (t_max, _) ->
        let result, dt =
          wall (fun () -> Packing.Problems.minimize_base ~options de ~t_max)
        in
        match result with
        | Packing.Problems.Optimal { value; _ } ->
          Format.printf "  %2d (%0.2fs)" value dt
        | Packing.Problems.Infeasible -> Format.printf "  -- (%0.2fs)" dt
        | Packing.Problems.Feasible_incumbent _ | Packing.Problems.Unknown _ ->
          Format.printf "  ?? (%0.2fs)" dt)
      Benchmarks.De.table1;
    Format.printf "@."
  in
  run "full pipeline" Packing.Opp_solver.default_options;
  run "no bounds"
    { Packing.Opp_solver.default_options with use_bounds = false };
  run "no heuristic"
    { Packing.Opp_solver.default_options with use_heuristic = false };
  run "search only" search_only


(* ------------------------------------------------------------------ *)
(* Extension: rectangular chips (beyond the paper's quadratic base)    *)
(* ------------------------------------------------------------------ *)

let rect () =
  Format.printf
    "@.== Extension: rectangular chip area minimization (DE) ==@.";
  Format.printf "   T   square chip   area   best rectangle   area@.";
  let de = Benchmarks.De.instance in
  List.iter
    (fun (t_max, _) ->
      let square = Packing.Problems.minimize_base de ~t_max in
      let rect = Packing.Problems.minimize_area_rect de ~t_max in
      match (square, rect) with
      | ( Packing.Problems.Optimal { value = s; _ },
          Packing.Problems.Optimal { value = w, h; _ } ) ->
        Format.printf "  %3d   %dx%-8d %5d   %dx%-12d %5d@." t_max s s (s * s)
          w h (w * h)
      | _ -> Format.printf "  %3d   impossible@." t_max)
    Benchmarks.De.table1

(* ------------------------------------------------------------------ *)
(* Extension: scaling on parametric DFG families                       *)
(* ------------------------------------------------------------------ *)

let scaling () =
  Format.printf "@.== Extension: scaling on parametric DFG families ==@.";
  Format.printf "  instance         tasks   SPP on 32x32        time@.";
  let run inst =
    let (result, dt) =
      wall (fun () -> Packing.Problems.minimize_time inst ~w:32 ~h:32)
    in
    (match result with
    | Packing.Problems.Optimal { value; _ } ->
      Format.printf "  %-16s %5d   T = %-12d %8.3f s@."
        (Packing.Instance.name inst)
        (Packing.Instance.count inst)
        value dt
    | _ ->
      Format.printf "  %-16s %5d   misfit@."
        (Packing.Instance.name inst)
        (Packing.Instance.count inst))
  in
  List.iter run
    [
      Benchmarks.Dfg.fir ~taps:2;
      Benchmarks.Dfg.fir ~taps:4;
      Benchmarks.Dfg.fir ~taps:6;
      Benchmarks.Dfg.fir ~taps:8;
      Benchmarks.Dfg.chain ~length:6;
      Benchmarks.Dfg.chain ~length:10;
      Benchmarks.Dfg.independent ~n:6;
      Benchmarks.Dfg.independent ~n:9;
      Benchmarks.Dfg.butterfly ~stages:2;
    ]

(* ------------------------------------------------------------------ *)
(* The one measurement loop                                            *)
(* ------------------------------------------------------------------ *)

let completed = function Packing.Opp_solver.Timeout -> false | _ -> true

(* One measured configuration: its run and the best result so far. *)
type 'a cell = {
  run : unit -> Packing.Opp_solver.outcome * 'a;
  mutable best : (Packing.Opp_solver.outcome * 'a) option;
  mutable best_s : float; (* wall time of [best] *)
}

let cell run = { run; best = None; best_s = infinity }
let best c = Option.get c.best

(* One run of [c]. A completed run replaces a slower best. A run that
   hits its budget (deadline or node cap) is kept only as the first
   run, and it pins the cell there: running it again would burn the
   same budget for the same number. *)
let step c () =
  match c.best with
  | Some (o, _) when not (completed o) -> ()
  | prev ->
    let (o, r), s = wall c.run in
    if Option.is_none prev || (completed o && s < c.best_s) then begin
      c.best <- Some (o, r);
      c.best_s <- s
    end

(* Interleaved rounds: every configuration of every case runs once per
   round in round-robin order, so cache/frequency drift spreads evenly
   across configurations instead of biasing whichever ran last. *)
let measure ~rounds cases =
  for round = 1 to rounds do
    List.iter
      (fun (name, steps) ->
        List.iter (fun step -> step ()) steps;
        if round = 1 then Format.printf "  [round 1] %-28s done@." name)
      cases
  done

let geomean = function
  | [] -> None
  | xs ->
    Some
      (exp
         (List.fold_left (fun a x -> a +. log x) 0.0 xs
         /. float (List.length xs)))

(* ------------------------------------------------------------------ *)
(* The one JSON writer                                                 *)
(* ------------------------------------------------------------------ *)

module T = Packing.Telemetry

let fixed fmt x = T.Raw (Printf.sprintf fmt x)
let fixed_opt fmt = Option.fold ~none:T.Null ~some:(fixed fmt)

(* Writes the object [fields] to [file], laying out every list of
   records one record per line so the BENCH files diff per case. *)
let write_json file fields =
  let value = function
    | T.List (T.Obj _ :: _ as rows) ->
      "[\n" ^ String.concat ",\n" (List.map T.to_string rows) ^ "\n]"
    | v -> T.to_string v
  in
  let field (k, v) = T.to_string (T.String k) ^ ":" ^ value v in
  let oc = open_out file in
  output_string oc ("{" ^ String.concat "," (List.map field fields) ^ "}\n");
  close_out oc;
  Format.printf "  wrote %s@." file

(* ------------------------------------------------------------------ *)
(* Parallel solver: sequential vs jobs in {2,4,8}, written to          *)
(* BENCH_parallel.json                                                 *)
(* ------------------------------------------------------------------ *)

(* Each sequential stage-3 search lands either in the 1-60 s band (so
   a real speedup ratio can be measured) or demonstrably beyond it
   (reported as a lower bound). Seed s21 is kept as the regression
   sentinel: under the old static root split it ran at 0.097x because
   one arm held nearly the whole tree; the work-stealing kernel keeps
   worker 0 on the exact sequential order, so the pathology is gone by
   construction. *)
let parallel_cases () =
  let case name ~seed ~n ~max_extent ~arc_probability (w, h, t) =
    ( name,
      Benchmarks.Generate.random ~seed ~n ~max_extent ~max_duration:3
        ~arc_probability (),
      Geometry.Container.make3 ~w ~h ~t_max:t )
  in
  [
    case "random s101 n10 7x7x8" ~seed:101 ~n:10 ~max_extent:4
      ~arc_probability:0.15 (7, 7, 8);
    case "random s293 n10 6x6x7" ~seed:293 ~n:10 ~max_extent:3
      ~arc_probability:0.15 (6, 6, 7);
    case "random s307 n10 6x6x7" ~seed:307 ~n:10 ~max_extent:3
      ~arc_probability:0.15 (6, 6, 7);
    case "random s241 n9 6x6x7" ~seed:241 ~n:9 ~max_extent:3
      ~arc_probability:0.15 (6, 6, 7);
    case "random s21 n9 7x7x7" ~seed:21 ~n:9 ~max_extent:4
      ~arc_probability:0.15 (7, 7, 7);
    case "random s5 n11 8x8x8" ~seed:5 ~n:11 ~max_extent:4
      ~arc_probability:0.1 (8, 8, 8);
    case "random s199 n11 8x8x8" ~seed:199 ~n:11 ~max_extent:4
      ~arc_probability:0.15 (8, 8, 8);
  ]

let parallel_bench ~budget_s ~rounds ~jobs_levels cases =
  Format.printf
    "@.== Parallel: strong scaling, jobs in {%s} (stage-3 search only, %.0f s \
     budget per run, interleaved best of %d) ==@."
    (String.concat "," (List.map string_of_int jobs_levels))
    budget_s rounds;
  let budgeted () =
    { search_only with deadline = Some (Packing.Clock.after budget_s) }
  in
  let cells =
    List.map
      (fun (name, inst, cont) ->
        let seq =
          cell (fun () ->
              Packing.Opp_solver.solve ~options:(budgeted ()) inst cont)
        in
        let par =
          List.map
            (fun jobs ->
              cell (fun () ->
                  let r =
                    Packing.Parallel_solver.solve ~options:(budgeted ()) ~jobs
                      inst cont
                  in
                  (r.Packing.Parallel_solver.outcome, r)))
            jobs_levels
        in
        (name, seq, par))
      cases
  in
  measure ~rounds
    (List.map (fun (name, seq, par) -> (name, step seq :: List.map step par))
       cells);
  (* Two speedup views per cell. Wall speedup is what this machine
     measured; on a box with fewer cores than [jobs] the domains
     time-share one core and it cannot exceed ~1x. Model speedup
     [seq_nodes / busiest-worker nodes] is the wall-clock ratio on a
     machine with >= jobs real cores (the critical path is the busiest
     worker), and it correctly punishes starvation: an idle worker
     does not shrink anyone's node count. Acceptance tracks the model
     number; the JSON records both plus the core count so readers can
     re-derive. *)
  Format.printf
    "  instance                 jobs      seq        par     wall    model  \
     steals  agree@.";
  let rows =
    List.concat_map
      (fun (name, seq, par) ->
        let so, ss = best seq in
        List.map2
          (fun jobs pc ->
            let po, (r : Packing.Parallel_solver.report) = best pc in
            let busiest, donated =
              List.fold_left
                (fun (mn, don) (w : Packing.Parallel_solver.worker_report) ->
                  ( max mn w.stats.Packing.Opp_solver.nodes,
                    don + w.work.Packing.Telemetry.donated ))
                (0, 0) r.workers
            in
            let both = completed so && completed po in
            let agree = (not both) || verdict so = verdict po in
            let wall_speedup =
              if pc.best_s > 0.0 then seq.best_s /. pc.best_s else 0.0
            in
            let model_speedup =
              float_of_int ss.Packing.Opp_solver.nodes
              /. float_of_int (max 1 busiest)
            in
            Format.printf
              "  %-24s %4d %8.3f s %8.3f s %6.2fx %7.2fx %7d  %b%s%s@." name
              jobs seq.best_s pc.best_s wall_speedup model_speedup r.steals
              agree
              (if agree then "" else "  MISMATCH")
              (if both then "" else "  (budget hit: bounds)");
            ( jobs,
              (if both then Some model_speedup else None),
              T.Obj
                [
                  ("instance", T.String name);
                  ("jobs", T.Int jobs);
                  ("seq_s", T.seconds seq.best_s);
                  ("par_s", T.seconds pc.best_s);
                  ("wall_speedup", fixed "%.3f" wall_speedup);
                  ("model_speedup", fixed "%.3f" model_speedup);
                  ("seq_nodes", T.Int ss.nodes);
                  ("par_nodes", T.Int r.stats.nodes);
                  ("max_worker_nodes", T.Int busiest);
                  ("tasks", T.Int r.tasks);
                  ("steals", T.Int r.steals);
                  ("donated", T.Int donated);
                  ("both_completed", T.Bool both);
                  ("seq_outcome", T.String (verdict so));
                  ("par_outcome", T.String (verdict po));
                ] ))
          jobs_levels par)
      cells
  in
  let geomeans =
    List.map
      (fun jobs ->
        let speedups =
          List.filter_map
            (fun (j, m, _) -> if j = jobs then m else None)
            rows
        in
        let g = geomean speedups in
        Format.printf "  geomean model speedup at jobs=%d: %s (%d cells)@." jobs
          (match g with Some g -> Printf.sprintf "%.2fx" g | None -> "n/a")
          (List.length speedups);
        (string_of_int jobs, fixed_opt "%.3f" g))
      jobs_levels
  in
  let no_below =
    List.fold_left
      (fun acc (_, m, _) -> Option.fold ~none:acc ~some:(Float.min acc) m)
      infinity rows
  in
  let no_below = if no_below = infinity then 0.0 else no_below in
  Format.printf "  minimum model speedup across all cells: %.2fx@." no_below;
  write_json "BENCH_parallel.json"
    [
      ("hardware_cores", T.Int (Domain.recommended_domain_count ()));
      ("jobs_sweep", T.List (List.map (fun j -> T.Int j) jobs_levels));
      ("budget_s", fixed "%.0f" budget_s);
      ("rounds", T.Int rounds);
      ( "note",
        T.String
          (Printf.sprintf
             "search-only stage 3; interleaved best-of-%d wall times; \
              budget-pinned cells measured once; wall_speedup is wall-clock \
              on this machine and cannot exceed ~1x when hardware_cores < \
              jobs (domains time-share); model_speedup = seq_nodes / \
              busiest-worker nodes is the wall ratio on >= jobs real cores \
              and is the acceptance metric; speedups are bounds when \
              both_completed is false"
             rounds) );
      ("geomean_model_speedup", T.Obj geomeans);
      ("no_instance_below", fixed "%.3f" no_below);
      ("cases", T.List (List.map (fun (_, _, row) -> row) rows));
    ]

(* ------------------------------------------------------------------ *)
(* Bound engine: stage-3 search with root and node bounds on vs       *)
(* off, written to BENCH_bounds.json                                   *)
(* ------------------------------------------------------------------ *)

(* Two deliberately different regimes:

   - the calibrated feasible searches of the parallel sweep, where
     pairwise propagation subsumes the bound certificates — measuring
     that the engine hooks cost nothing;
   - near-critical volume instances (many small boxes, no pairwise
     spatial exclusion, total volume barely over capacity): the family
     the paper's volume/DFF bounds exist for. Pairwise propagation is
     blind there — the raw search exhausts an enormous tree while the
     engine refutes the root outright. *)
let bounds_cases () =
  let small_boxes name n (bw, bh, bd) extra (w, h, t) =
    ( name,
      Packing.Instance.make
        ~boxes:
          (Array.of_list
             (List.init n (fun _ -> Geometry.Box.make3 ~w:bw ~h:bh ~duration:bd)
             @ extra))
        (),
      Geometry.Container.make3 ~w ~h ~t_max:t )
  in
  let pebble = [ Geometry.Box.make3 ~w:1 ~h:1 ~duration:1 ] in
  (* s101 s293 s307 s241 s21 *)
  List.filteri (fun i _ -> i < 5) (parallel_cases ())
  @ [
      small_boxes "nine 2x2x2 4x4x4" 9 (2, 2, 2) [] (4, 4, 4);
      small_boxes "ten 2x2x2 + pebble 4x4x5" 10 (2, 2, 2) pebble (4, 4, 5);
      small_boxes "13 2x2x2 + pebble 5x5x4" 13 (2, 2, 2) pebble (5, 5, 4);
    ]

(* [node_limit] caps every run: it keeps the off side of the
   engine-refutable cases deterministic (nodes, not seconds) and the
   whole sweep bounded. *)
let bounds_bench ~node_limit ~rounds cases =
  Format.printf
    "@.== Bounds: engine off vs on (stage-3 search, %d-node cap per run, \
     interleaved best of %d) ==@."
    node_limit rounds;
  (* Off: no engine anywhere. On: the full integration — stage-1 root
     check plus the throttled node-level energetic check. Heuristic off
     on both sides so only the search and the bounds are measured. *)
  let off_options =
    {
      search_only with
      Packing.Opp_solver.node_limit = Some node_limit;
      node_bounds = Packing.Opp_solver.Realize_never;
    }
  in
  let on_options =
    {
      search_only with
      Packing.Opp_solver.use_bounds = true;
      node_limit = Some node_limit;
      node_bounds = Packing.Opp_solver.Realize_adaptive;
    }
  in
  let cells =
    List.map
      (fun (name, inst, cont) ->
        let solve options () = Packing.Opp_solver.solve ~options inst cont in
        (name, cell (solve off_options), cell (solve on_options)))
      cases
  in
  measure ~rounds
    (List.map (fun (name, off, on) -> (name, [ step off; step on ])) cells);
  Format.printf
    "  instance                        off               on              \
     nodes   time@.";
  let rows =
    List.map
      (fun (name, off, on) ->
        let off_o, off_s = best off and on_o, on_s = best on in
        let off_n = off_s.Packing.Opp_solver.nodes
        and on_n = on_s.Packing.Opp_solver.nodes in
        (* +1 smoothing lets a 0-node root refutation enter the geomean;
           when only the off side hit its cap the ratio is an upper
           bound on the true one (off would only grow), so counting it
           is conservative in the direction we report. *)
        let node_ratio =
          if completed on_o && off_n > 0 then
            Some (float_of_int (on_n + 1) /. float_of_int (off_n + 1))
          else None
        in
        let time_ratio =
          if completed off_o && completed on_o && off.best_s > 0.0 then
            Some (on.best_s /. off.best_s)
          else None
        in
        let show fmt r =
          match r with Some r -> Printf.sprintf fmt r | None -> "n/a"
        in
        Format.printf "  %-28s %9d %-8s %9d %-8s %8s  %5s@." name off_n
          (verdict off_o) on_n (verdict on_o)
          (show "%.2g" node_ratio)
          (show "%.2f" time_ratio);
        let side o n s extra =
          T.Obj
            ([
               ("outcome", T.String (verdict o));
               ("nodes", T.Int n);
               ("elapsed_s", T.seconds s);
             ]
            @ extra)
        in
        ( node_ratio,
          T.Obj
            [
              ("instance", T.String name);
              ("off", side off_o off_n off.best_s []);
              ( "on",
                side on_o on_n on.best_s
                  [ ("bounds", T.bounds_to_json on_s.bounds) ] );
              ("node_ratio", fixed_opt "%.3e" node_ratio);
              ( "node_ratio_is_bound",
                T.Bool (node_ratio <> None && not (completed off_o)) );
              ("time_ratio", fixed_opt "%.4f" time_ratio);
            ] ))
      cells
  in
  let g = geomean (List.filter_map fst rows) in
  (match g with
  | Some g -> Format.printf "  geometric-mean node ratio (on/off): %.3g@." g
  | None -> Format.printf "  (no measurable pair: node ratios omitted)@.");
  write_json "BENCH_bounds.json"
    [
      ("node_limit", T.Int node_limit);
      ("rounds", T.Int rounds);
      ( "note",
        T.String
          (Printf.sprintf
             "search-only stage 3, sequential, heuristic off; off = no \
              engine (no stage-1, node_bounds never), on = stage-1 root \
              check + adaptive node energetic; nodes deterministic, time = \
              interleaved best of %d runs, node-capped runs measured once; \
              node_ratio uses +1 smoothing and is an upper bound when the \
              off side hit the node cap"
             rounds) );
      ("geomean_node_ratio", fixed_opt "%.4e" g);
      ("cases", T.List (List.map snd rows));
    ]

(* CI smoke of both sweeps: cases that finish in about a second each
   way under small budgets, one bounds case engine-refutable, just to
   exercise the harness and the JSON shape. *)
let smoke () =
  parallel_bench ~budget_s:5.0 ~rounds:1 ~jobs_levels:[ 2; 4 ]
    (List.filter
       (fun (name, _, _) ->
         name = "random s293 n10 6x6x7" || name = "random s241 n9 6x6x7")
       (parallel_cases ()));
  bounds_bench ~node_limit:200_000 ~rounds:1
    (List.map
       (fun seed ->
         ( Printf.sprintf "random s%d n6 6x6x6" seed,
           Benchmarks.Generate.random ~seed ~n:6 ~max_extent:4 ~max_duration:3
             ~arc_probability:0.2 (),
           Geometry.Container.make3 ~w:6 ~h:6 ~t_max:6 ))
       [ 1; 2 ]
    @ [
        ( "six 2x2x2 3x3x5",
          Packing.Instance.make
            ~boxes:
              (Array.init 6 (fun _ -> Geometry.Box.make3 ~w:2 ~h:2 ~duration:2))
            (),
          Geometry.Container.make3 ~w:3 ~h:3 ~t_max:5 );
      ])

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table / figure         *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let de = Benchmarks.De.instance in
  let codec = Benchmarks.Video_codec.instance in
  let t_table1 =
    Test.make ~name:"table1/de-bmp"
      (Staged.stage (fun () ->
           List.iter
             (fun (t_max, _) ->
               ignore (Packing.Problems.minimize_base de ~t_max))
             Benchmarks.De.table1))
  in
  let t_table2 =
    Test.make ~name:"table2/codec-bmp"
      (Staged.stage (fun () ->
           ignore (Packing.Problems.minimize_base codec ~t_max:59)))
  in
  let t_fig7 =
    Test.make ~name:"fig7/pareto-both"
      (Staged.stage (fun () ->
           ignore (Packing.Problems.pareto_front de ~h_min:16 ~h_max:48);
           ignore
             (Packing.Problems.pareto_front
                Benchmarks.De.instance_without_precedence ~h_min:16 ~h_max:48)))
  in
  let t_opp_search =
    Test.make ~name:"opp/de-17x17x12-search"
      (Staged.stage (fun () ->
           ignore
             (Packing.Opp_solver.solve ~options:search_only de
                (Geometry.Container.make3 ~w:17 ~h:17 ~t_max:12))))
  in
  [ t_table1; t_table2; t_fig7; t_opp_search ]

(* ------------------------------------------------------------------ *)
(* Dimension-generic workloads: 2D strip packing with order arcs and   *)
(* d=4 instances vs. the geometric baseline, written to BENCH_ddim.json *)
(* ------------------------------------------------------------------ *)


(* Smallest extent along [axis] the geometric enumeration proves
   feasible, walking up from 1 (all its probes below are infeasibility
   proofs, so the first feasible extent is the optimum). *)
let ddim_baseline_min_extent inst ~axis ~base ~node_limit =
  let rec walk e nodes =
    if e > 64 then (None, nodes)
    else
      let cont = Geometry.Container.with_extent base axis e in
      let outcome, (st : Baseline.Geometric_bb.stats) =
        Baseline.Geometric_bb.solve ~node_limit inst cont
      in
      let nodes = nodes + st.nodes + st.positions_tried in
      match outcome with
      | Baseline.Geometric_bb.Feasible _ -> (Some e, nodes)
      | Baseline.Geometric_bb.Infeasible -> walk (e + 1) nodes
      | Baseline.Geometric_bb.Timeout -> (None, nodes)
  in
  walk 1 0


let ddim_bench () =
  Format.printf "@.== Dimension-generic workloads (d=2 strip, d=4) ==@.";
  let solve_one (name, inst, axis, base) =
    let probe_nodes = ref 0 in
    let on_probe (p : Packing.Problems.probe) =
      probe_nodes := !probe_nodes + p.Packing.Problems.nodes
    in
    let result, dt =
      wall (fun () ->
          Packing.Problems.minimize_extent ~on_probe inst ~axis ~base)
    in
    let optimum =
      match result with
      | Packing.Problems.Optimal { value; _ } -> Some value
      | _ -> None
    in
    let (base_opt, base_nodes), base_dt =
      wall (fun () ->
          ddim_baseline_min_extent inst ~axis ~base ~node_limit:5_000_000)
    in
    let agree =
      match (optimum, base_opt) with
      | Some a, Some b -> Some (a = b)
      | _ -> None
    in
    Format.printf
      "  %-26s optimum %-4s baseline %-4s %s  %6d vs %8d nodes  (%.3f s vs \
       %.3f s)@."
      name
      (match optimum with Some v -> string_of_int v | None -> "?")
      (match base_opt with Some v -> string_of_int v | None -> "?")
      (match agree with
      | Some true -> "agree"
      | Some false -> "DISAGREE"
      | None -> "  -  ")
      !probe_nodes base_nodes dt base_dt;
    let opt f = Option.fold ~none:T.Null ~some:f in
    T.Obj
      [
        ("instance", T.String name);
        ("dim", T.Int (Packing.Instance.dim inst));
        ("axis", T.Int axis);
        ("n", T.Int (Packing.Instance.count inst));
        ("optimum", opt (fun v -> T.Int v) optimum);
        ("baseline_optimum", opt (fun v -> T.Int v) base_opt);
        ("agree", opt (fun b -> T.Bool b) agree);
        ("engine_nodes", T.Int !probe_nodes);
        ("baseline_nodes", T.Int base_nodes);
        ("engine_elapsed_s", T.seconds dt);
        ("baseline_elapsed_s", T.seconds base_dt);
      ]
  in
  (* 2D strip packing with a reading-order constraint on axis 0:
     guillotine pieces of a w x h sheet, minimized along axis 1 over a
     width-w strip. *)
  let strip_cases =
    List.map
      (fun seed ->
        let inst, _ =
          Benchmarks.Generate.guillotine ~order_axes:[ 0 ] ~seed
            ~container:(Geometry.Container.make [| 6; 10 |])
            ~cuts:7 ~arc_probability:0.4 ()
        in
        ( Printf.sprintf "strip2d s%d n%d" seed (Packing.Instance.count inst),
          inst,
          1,
          Geometry.Container.make [| 6; 1 |] ))
      [ 11; 12; 13; 14; 15; 16 ]
  in
  (* d=4 feasible-by-construction instances, minimized along the
     objective axis. *)
  let d4_cases =
    List.map
      (fun seed ->
        let inst, _ =
          Benchmarks.Generate.guillotine ~seed
            ~container:(Geometry.Container.make [| 2; 2; 2; 5 |])
            ~cuts:6 ~arc_probability:0.3 ()
        in
        ( Printf.sprintf "hyper4d s%d n%d" seed (Packing.Instance.count inst),
          inst,
          3,
          Geometry.Container.make [| 2; 2; 2; 1 |] ))
      [ 21; 22; 23; 24; 25; 26 ]
  in
  Format.printf "  -- d=2 strip with axis-0 order --@.";
  let strip_rows = List.map solve_one strip_cases in
  Format.printf "  -- d=4 --@.";
  let d4_rows = List.map solve_one d4_cases in
  write_json "BENCH_ddim.json"
    [
      ( "note",
        T.String
          "dimension-generic workloads: optima cross-checked against the \
           geometric enumeration baseline" );
      ("strip2d", T.List strip_rows);
      ("d4", T.List d4_rows);
    ]

let run_bechamel () =
  let open Bechamel in
  Format.printf "@.== Bechamel timings (monotonic clock per run) ==@.";
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
            Format.printf "  %-28s %12.3f ms/run (r²=%s)@." name
              (ns /. 1e6)
              (match Analyze.OLS.r_square est with
              | Some r -> Printf.sprintf "%.3f" r
              | None -> "n/a")
          | _ -> Format.printf "  %-28s (no estimate)@." name)
        results)
    (bechamel_tests ())

(* ------------------------------------------------------------------ *)

let () =
  let known =
    [
      ("table1", table1);
      ("table2", table2);
      ("fig7", fig7);
      ("ablation-baseline", ablation_baseline);
      ("ablation-rules", ablation_rules);
      ("ablation-stages", ablation_stages);
      ("rect", rect);
      ("scaling", scaling);
      ( "parallel",
        fun () ->
          parallel_bench ~budget_s:60.0 ~rounds:3 ~jobs_levels:[ 2; 4; 8 ]
            (parallel_cases ()) );
      ("ddim", ddim_bench);
      ( "bounds",
        fun () ->
          bounds_bench ~node_limit:2_000_000 ~rounds:3 (bounds_cases ()) );
      ("bechamel", run_bechamel);
      ("smoke", smoke);
    ]
  in
  (* [smoke] repeats [parallel] and [bounds] on small sets, so the
     default sweep leaves it out. *)
  let default = List.filter (fun n -> n <> "smoke") (List.map fst known) in
  let args = List.tl (Array.to_list Sys.argv) in
  let selected =
    if args = [] then default
    else begin
      List.iter
        (fun a ->
          if not (List.mem_assoc a known) then begin
            Format.eprintf "unknown bench %s; known: %s@." a
              (String.concat " " (List.map fst known));
            exit 1
          end)
        args;
      args
    end
  in
  List.iter (fun name -> (List.assoc name known) ()) selected
