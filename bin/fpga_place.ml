(* fpga_place: command-line front end for the packing-class placement
   engine. See `fpga_place --help` and the instance format documented in
   Fpga.Instance_io. *)

open Cmdliner

let ( let* ) = Result.bind

(* Every subcommand body is a thunk returning [Ok exit_code] or
   [Error msg], and [run] is the one place that reports an error:
   `error: <msg>` on stderr, exit code 1. The library rejects bad input
   by raising (Failure from the parsers, Invalid_argument from the
   generators and constructors), and file or socket I/O raises Sys_error
   or Unix_error; each is reported the same way. *)
let run body =
  let fail msg =
    Format.eprintf "error: %s@." msg;
    1
  in
  match body () with
  | Ok code -> code
  | Error msg -> fail msg
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) -> fail msg
  | exception Unix.Unix_error (e, fn, _) ->
    fail (fn ^ ": " ^ Unix.error_message e)

let command name ~doc body = Cmd.v (Cmd.info name ~doc) Term.(const run $ body)

(* The one reader and the one writer for files named on the command
   line. A failure raises Sys_error with the path in its message. *)
let with_path path f =
  try f () with
  | Sys_error msg when not (String.starts_with ~prefix:path msg) ->
    raise (Sys_error (path ^ ": " ^ msg))

let read_file path f = with_path path (fun () -> In_channel.with_open_bin path f)

let write_file path f =
  with_path path (fun () -> Out_channel.with_open_text path f)

let read_instance path =
  Fpga.Instance_io.parse (read_file path In_channel.input_all)

let chip_conv =
  let parse s =
    match String.split_on_char 'x' (String.lowercase_ascii s) with
    | [ w; h ] -> (
      match (int_of_string_opt w, int_of_string_opt h) with
      | Some w, Some h when w > 0 && h > 0 -> Ok (Fpga.Chip.create ~w ~h)
      | _ -> Error (`Msg "expected WxH with positive integers"))
    | _ -> Error (`Msg "expected WxH, e.g. 32x32")
  in
  let print fmt c = Format.fprintf fmt "%dx%d" (Fpga.Chip.width c) (Fpga.Chip.height c) in
  Arg.conv (parse, print)

(* E0xE1x...xE(d-1): a container extent tuple of any dimension. *)
let dims_conv =
  let parse s =
    let parts = String.split_on_char 'x' (String.lowercase_ascii s) in
    let ints = List.map int_of_string_opt parts in
    if parts <> [] && List.for_all (function Some e -> e > 0 | None -> false) ints
    then Ok (Array.of_list (List.map Option.get ints))
    else Error (`Msg "expected positive extents, e.g. 8x6x14")
  in
  let print fmt a =
    Format.fprintf fmt "%s"
      (String.concat "x" (Array.to_list (Array.map string_of_int a)))
  in
  Arg.conv (parse, print)

let container_opt =
  Arg.(value & opt (some dims_conv) None
       & info [ "container" ] ~docv:"E0x..xE(d-1)"
           ~doc:"Target container extents, one per instance axis — the \
                 dimension-generic alternative to --chip/--time. Overrides \
                 the file's `container` line.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.")

let chip_opt =
  Arg.(value & opt (some chip_conv) None
       & info [ "chip" ] ~docv:"WxH" ~doc:"Target chip, overriding the file.")

let time_opt =
  Arg.(value & opt (some int) None
       & info [ "time" ] ~docv:"T" ~doc:"Makespan budget, overriding the file.")

let render_flag =
  Arg.(value & flag & info [ "render" ] ~doc:"Render chip occupancy over time.")

let quiet_flag =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Print only the verdict/optimum.")

let checked exts v = Result.map (fun () -> v) (Geometry.Box.check_volume exts)

let resolve_chip io chip =
  match chip with
  | Some c -> checked [| Fpga.Chip.width c; Fpga.Chip.height c |] c
  | None -> (
    match io.Fpga.Instance_io.chip with
    | Some c -> Ok c
    | None -> Error "no chip: pass --chip WxH or add a `chip` line to the file")

let resolve_time io = function
  | Some t -> Ok t
  | None -> (
    match io.Fpga.Instance_io.t_max with
    | Some t -> Ok t
    | None -> Error "no time budget: pass --time T or add a `time` line")

(* The chip and the makespan budget together span the space-time
   container, so their product passes the same volume check. *)
let resolve_chip_time io chip time =
  match (resolve_chip io chip, resolve_time io time) with
  | Error m, _ | _, Error m -> Error m
  | Ok c, Ok t ->
    checked [| Fpga.Chip.width c; Fpga.Chip.height c; t |] (c, t)

(* Resolve the target container for a dimension-generic subcommand:
   --container, then the file's `container` line, then (3-dimensional
   instances only) the chip/time surface. *)
let resolve_container io ~chip ~time container_arg =
  let inst = io.Fpga.Instance_io.instance in
  let d = Packing.Instance.dim inst in
  let of_extents exts =
    if Array.length exts <> d then
      Error
        (Printf.sprintf "container has %d extents but the instance is %d-dimensional"
           (Array.length exts) d)
    else checked exts (`Container (Geometry.Container.make exts))
  in
  match container_arg with
  | Some exts -> of_extents exts
  | None -> (
    match io.Fpga.Instance_io.container with
    | Some c ->
      if Geometry.Container.dim c <> d then
        Error "the file's container dimension does not match its tasks"
      else Ok (`Container c)
    | None ->
      if d = 3 then
        Result.map (fun ct -> `Chip ct) (resolve_chip_time io chip time)
      else
        Error
          "no container: pass --container E0x..xE(d-1) or add a `container` \
           line to the file")

let container_of_target = function
  | `Chip (chip, t_max) -> Fpga.Chip.container chip ~t_max
  | `Container c -> c

(* The instance plus the chip and makespan budget a 3-dimensional
   subcommand runs against. *)
let read_chip_time file chip time =
  let io = read_instance file in
  let* chip, t_max = resolve_chip_time io chip time in
  Ok (io.Fpga.Instance_io.instance, chip, t_max)

(* Label + origin tuple per task, for instances outside the 3-dimensional
   chip surface (no Gantt/occupancy rendering there). *)
let show_placement_ddim ~quiet inst placement =
  if not quiet then begin
    Format.printf "placement:@.";
    for i = 0 to Packing.Instance.count inst - 1 do
      let o = Geometry.Placement.origin placement i in
      Format.printf "  %-8s at (%s)@."
        (Packing.Instance.label inst i)
        (String.concat ","
           (Array.to_list (Array.map string_of_int o)))
    done
  end

let pp_container fmt c =
  Format.fprintf fmt "%s"
    (String.concat "x"
       (List.init (Geometry.Container.dim c) (fun k ->
            string_of_int (Geometry.Container.extent c k))))

let show_placement ~quiet ~render inst chip t_max placement =
  if not quiet then begin
    Format.printf "schedule:@.";
    for i = 0 to Packing.Instance.count inst - 1 do
      let o = Geometry.Placement.origin placement i in
      Format.printf "  %-8s at (%d,%d) cycles [%d,%d)@."
        (Packing.Instance.label inst i)
        o.(0) o.(1) o.(2)
        (o.(2) + Packing.Instance.duration inst i)
    done;
    Format.printf "%s@." (Geometry.Render.gantt placement);
    if render then
      Format.printf "%s@."
        (Geometry.Render.timeline placement
           ~container:(Fpga.Chip.container chip ~t_max))
  end

let svg_opt =
  Arg.(value & opt (some string) None
       & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG storyboard of the schedule.")

let write_svg inst chip t_max placement = function
  | None -> ()
  | Some path ->
    let svg =
      Geometry.Svg.storyboard placement
        ~container:(Fpga.Chip.container chip ~t_max)
        ~labels:(Packing.Instance.label inst)
        ()
    in
    write_file path (fun oc -> output_string oc svg);
    Format.printf "wrote %s@." path

let jobs_opt =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the search; 1 runs sequentially, N > 1 \
                 runs a work-stealing pool: each domain donates alternative \
                 branches from shallow nodes of its subtree and steals the \
                 shallowest available subtree from the fullest victim when \
                 dry.")

let time_limit_opt =
  Arg.(value & opt (some float) None
       & info [ "time-limit" ] ~docv:"S"
           ~doc:"Wall-clock budget in seconds; an expired budget reports a \
                 timeout (exit code 3), never a wrong verdict.")

let stats_opt =
  Arg.(value & opt (some (enum [ ("json", `Json) ])) None
       & info [ "stats" ] ~docv:"FMT"
           ~doc:"Print solver statistics in the given format (only: json). \
                 With --jobs > 1 the report includes per-worker counters.")

let node_bounds_opt =
  let policies =
    Packing.Opp_solver.
      [ ("adaptive", Realize_adaptive); ("always", Realize_always);
        ("never", Realize_never) ]
  in
  Arg.(value & opt (enum policies) Packing.Opp_solver.Realize_adaptive
       & info [ "node-bounds" ] ~docv:"POLICY"
           ~doc:"Throttle for the in-search bound-engine check on the \
                 committed time arcs of the current node: adaptive \
                 (default; check only once enough pairs are decided, with \
                 exponential backoff on silent verdicts), always (every \
                 node), or never (root bounds only). The engine emits exact \
                 certificates, so the verdict is identical under every \
                 policy; only the search speed changes.")

let trace_opt =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a structured search trace. A .json suffix writes \
                 Chrome trace-event format (load in chrome://tracing or \
                 Perfetto); any other name writes JSONL, one event per line \
                 (see `trace-summary`).")

let progress_opt =
  Arg.(value & opt ~vopt:(Some 1.0) (some float) None
       & info [ "progress" ] ~docv:"SECONDS"
           ~doc:"Print a live progress heartbeat to stderr (nodes/s, depth, \
                 decided fraction, bracket) every $(docv) seconds \
                 (default 1.0 when the flag is given bare).")

let heartbeat_line (p : Packing.Telemetry.progress) =
  let b = Buffer.create 96 in
  Printf.bprintf b
    "[%7.1fs] %d nodes (%.0f/s) depth %d decided %.1f%% trail %d" p.elapsed_s
    p.nodes p.nodes_per_s p.max_depth
    (100.0 *. p.decided_fraction)
    p.trail_length;
  (match p.bracket with
  | Some (lo, hi) -> Printf.bprintf b " bracket [%d,%d]" lo hi
  | None -> ());
  (match p.gap with Some g -> Printf.bprintf b " gap %d" g | None -> ());
  Buffer.contents b

(* Heartbeats may fire concurrently from every domain of a parallel
   solve; route them through one serialized writer so lines never
   splice (the same funnel the serve subcommand uses for JSONL). *)
let stderr_writer = lazy (Service.Writer.of_channel stderr)

(* --trace: a live trace when the flag names a file, and the writer that
   saves it once the run is done (events stay in memory until then). *)
let trace_term =
  let make = function
    | None -> (Packing.Trace.null, ignore)
    | Some path ->
      let trace = Packing.Trace.create () in
      let write () =
        write_file path (fun oc ->
            if Filename.check_suffix path ".json" then
              Packing.Trace.write_chrome trace oc
            else Packing.Trace.write_jsonl trace oc);
        Format.eprintf "wrote %s@." path
      in
      (trace, write)
  in
  Term.(const make $ trace_opt)

let cadence flag = function
  | Some s when not (s > 0.0) -> Error (flag ^ " must be positive")
  | Some s when s = Float.infinity -> Error (flag ^ " must be finite")
  | c -> Ok c

(* What the search flags resolve to: solver options carrying the
   deadline (counted from argument parsing), the throttles and the
   --trace/--progress hooks; the worker count; the --stats format; and
   [finish], which writes the trace. *)
type search = {
  options : Packing.Opp_solver.options;
  jobs : int;
  stats : [ `Json ] option;
  finish : unit -> unit;
}

let search_term node_bounds =
  let make node_bounds jobs time_limit stats (trace, finish) progress =
    let defaults = Packing.Opp_solver.default_options in
    let heartbeat p =
      Service.Writer.line (Lazy.force stderr_writer) (heartbeat_line p)
    in
    let* progress = cadence "--progress" progress in
    let options =
      {
        defaults with
        node_bounds;
        trace;
        deadline = Option.map Packing.Clock.after time_limit;
        progress_interval_s =
          Option.value progress ~default:defaults.progress_interval_s;
        on_heartbeat = Option.map (fun _ -> heartbeat) progress;
      }
    in
    Ok { options; jobs; stats; finish }
  in
  Term.(const make $ node_bounds $ jobs_opt $ time_limit_opt $ stats_opt
        $ trace_term $ progress_opt)

let search = search_term node_bounds_opt

let print_json stats json =
  match stats with Some `Json -> Format.printf "%s@." (json ()) | None -> ()

let no_heuristic_flag =
  Arg.(value & flag
       & info [ "no-heuristic" ]
           ~doc:"Skip the stage-2 construction heuristic and go straight to \
                 the branch-and-bound search (useful with --trace to record \
                 search events on instances the heuristic would settle).")

let solve_cmd =
  let body file chip time container_arg render quiet svg s no_heuristic () =
    let* s = s in
    let io = read_instance file in
    let* target = resolve_container io ~chip ~time container_arg in
    let inst = io.Fpga.Instance_io.instance in
    let container = container_of_target target in
    let options =
      if no_heuristic then
        { s.options with Packing.Opp_solver.use_heuristic = false }
      else s.options
    in
    let r = Packing.Parallel_solver.solve ~options ~jobs:s.jobs inst container in
    let st = r.Packing.Parallel_solver.stats in
    print_json s.stats (fun () ->
        if r.jobs > 1 then Packing.Parallel_solver.report_to_json r
        else Packing.Opp_solver.stats_to_json st);
    let pp_report fmt =
      if r.jobs > 1 then
        Format.fprintf fmt "%d jobs, %d tasks, %d steals, %a" r.jobs r.tasks
          r.steals Packing.Opp_solver.pp_stats st
      else Packing.Opp_solver.pp_stats fmt st
    in
    s.finish ();
    match r.outcome with
    | Packing.Opp_solver.Feasible p ->
      (match target with
      | `Chip (chip, t_max) ->
        Format.printf "feasible on %a within %d cycles (%t)@."
          Fpga.Chip.pp chip t_max pp_report;
        show_placement ~quiet ~render inst chip t_max p;
        write_svg inst chip t_max p svg
      | `Container c ->
        Format.printf "feasible in %a (%t)@." pp_container c pp_report;
        show_placement_ddim ~quiet inst p);
      Ok 0
    | Packing.Opp_solver.Infeasible ->
      Format.printf "infeasible (%t)@." pp_report;
      Ok 2
    | Packing.Opp_solver.Timeout ->
      Format.printf "timeout (%t)@." pp_report;
      Ok 3
  in
  let doc = "Decide feasibility of a placement (FeasAT&FindS)." in
  command "solve" ~doc
    Term.(const body $ file_arg $ chip_opt $ time_opt $ container_opt
          $ render_flag $ quiet_flag $ svg_opt $ search $ no_heuristic_flag)

(* Collect the probe trace for --stats json; the returned callback is
   handed to the Problems driver as [on_probe]. *)
let probe_collector () =
  let acc = ref [] in
  let on_probe p = acc := p :: !acc in
  ((fun () -> List.rev !acc), on_probe)

(* One-line JSON for an anytime minimization: status, value/bounds, and
   the per-probe trace. *)
let anytime_stats_json ~problem result probes =
  let open Packing.Telemetry in
  let fields =
    match result with
    | Packing.Problems.Optimal { value; _ } -> [ ("value", Int value) ]
    | Packing.Problems.Feasible_incumbent
        { incumbent = { value; _ }; lower_bound; gap } ->
      [ ("value", Int value); ("lower_bound", Int lower_bound); ("gap", Int gap) ]
    | Packing.Problems.Infeasible -> []
    | Packing.Problems.Unknown { lower_bound } ->
      [ ("lower_bound", Int lower_bound) ]
  in
  to_string
    (Obj
       ([
          ("problem", String problem);
          ("status", String (Packing.Problems.status_string result));
        ]
       @ fields
       @ [
           ("probes", List (List.map Packing.Problems.probe_json probes));
           ( "bounds",
             bounds_to_json
               (List.fold_left
                  (fun acc (p : Packing.Problems.probe) ->
                    add_bound_counters acc p.Packing.Problems.bounds)
                  [] probes) );
         ]))

(* Run an anytime minimization and report it: min-time, min-extent and
   min-area differ only in the wording and in [show], the placement
   printer. The optimum reads "minimal <noun> <scope>: <value v>",
   infeasibility "no <noun> works: <overflow>", and a budget cut before
   any <witness> was found names the proven lower bound on <measure>. *)
let anytime ~problem s ~noun ~scope ~value ~overflow ~witness ~measure ~show
    minimize =
  let* s = s in
  let probes, on_probe = probe_collector () in
  let result = minimize ~options:s.options ~jobs:s.jobs ~on_probe in
  s.finish ();
  print_json s.stats (fun () -> anytime_stats_json ~problem result (probes ()));
  match result with
  | Packing.Problems.Optimal { value = v; placement } ->
    Format.printf "minimal %s %s: %s@." noun scope (value v);
    show v placement;
    Ok 0
  | Packing.Problems.Feasible_incumbent
      { incumbent = { value = v; placement }; lower_bound; gap } ->
    Format.printf
      "budget exhausted: best %s found %s: %s (proven lower bound %d, gap \
       %d)@."
      noun scope (value v) lower_bound gap;
    show v placement;
    Ok 3
  | Packing.Problems.Infeasible ->
    Format.printf "no %s works: %s@." noun overflow;
    Ok 2
  | Packing.Problems.Unknown { lower_bound } ->
    Format.printf "budget exhausted before any %s was found (%s >= %d)@."
      witness measure lower_bound;
    Ok 3

let min_time_cmd =
  let body file chip render quiet s () =
    let io = read_instance file in
    let* chip = resolve_chip io chip in
    let inst = io.Fpga.Instance_io.instance in
    anytime ~problem:"min-time" s ~noun:"makespan"
      ~scope:(Format.asprintf "on %a" Fpga.Chip.pp chip)
      ~value:(Printf.sprintf "%d cycles")
      ~overflow:"a task overflows the chip" ~witness:"schedule"
      ~measure:"makespan"
      ~show:(fun t_max -> show_placement ~quiet ~render inst chip t_max)
      (fun ~options ~jobs ~on_probe ->
        Packing.Problems.minimize_time ~options ~jobs ~on_probe inst
          ~w:(Fpga.Chip.width chip) ~h:(Fpga.Chip.height chip))
  in
  let doc = "Minimize the makespan on a fixed chip (MinT&FindS / SPP)." in
  command "min-time" ~doc
    Term.(const body $ file_arg $ chip_opt $ render_flag $ quiet_flag $ search)

let min_extent_cmd =
  let axis_opt =
    Arg.(value & opt (some int) None
         & info [ "axis" ] ~docv:"K"
             ~doc:"Axis whose extent to minimize (default: the instance's \
                   objective axis). With a 2-dimensional instance and axis 1 \
                   this is open-ended strip packing.")
  in
  let body file chip time container_arg axis quiet s () =
    let io = read_instance file in
    let inst = io.Fpga.Instance_io.instance in
    let d = Packing.Instance.dim inst in
    let axis = Option.value axis ~default:(Packing.Instance.objective_axis inst) in
    if axis < 0 || axis >= d then
      Error (Printf.sprintf "axis %d out of range for a %d-dimensional instance" axis d)
    else
      (* The base's extent along the minimized axis is ignored, so the
         3-dimensional chip surface needs no time budget when the time
         axis itself is being minimized. *)
      let time = if time = None && d = 3 && axis = 2 then Some 1 else time in
      let* target = resolve_container io ~chip ~time container_arg in
      let base = container_of_target target in
      anytime ~problem:"min-extent" s ~noun:"extent"
        ~scope:(Printf.sprintf "along axis %d" axis) ~value:string_of_int
        ~overflow:"a task overflows the base cross-section"
        ~witness:"placement" ~measure:"extent"
        ~show:(fun _ -> show_placement_ddim ~quiet inst)
        (fun ~options ~jobs ~on_probe ->
          Packing.Problems.minimize_extent ~options ~jobs ~on_probe inst ~axis
            ~base)
  in
  let doc =
    "Minimize the container extent along one axis (dimension-generic \
     MinT&FindS; strip packing when the instance is 2-dimensional)."
  in
  command "min-extent" ~doc
    Term.(const body $ file_arg $ chip_opt $ time_opt $ container_opt $ axis_opt
          $ quiet_flag $ search)

let min_area_cmd =
  let body file time render quiet s () =
    let io = read_instance file in
    let* t_max = resolve_time io time in
    let inst = io.Fpga.Instance_io.instance in
    anytime ~problem:"min-area" s ~noun:"chip"
      ~scope:(Printf.sprintf "for %d cycles" t_max)
      ~value:(fun v -> Printf.sprintf "%dx%d" v v)
      ~overflow:(Printf.sprintf "the critical path exceeds %d cycles" t_max)
      ~witness:"chip" ~measure:"side"
      ~show:(fun side ->
        show_placement ~quiet ~render inst (Fpga.Chip.square side) t_max)
      (fun ~options ~jobs ~on_probe ->
        Packing.Problems.minimize_base ~options ~jobs ~on_probe inst ~t_max)
  in
  let doc = "Minimize a quadratic chip for a time budget (MinA&FindS / BMP)." in
  command "min-area" ~doc
    Term.(const body $ file_arg $ time_opt $ render_flag $ quiet_flag $ search)

let pareto_cmd =
  let h_min_arg =
    Arg.(value & opt int 1 & info [ "h-min" ] ~docv:"H" ~doc:"Smallest chip size.")
  in
  let h_max_arg =
    Arg.(required & opt (some int) None
         & info [ "h-max" ] ~docv:"H" ~doc:"Largest chip size.")
  in
  let no_prec =
    Arg.(value & flag
         & info [ "no-precedence" ]
             ~doc:"Drop the precedence constraints (dashed curve of Fig. 7).")
  in
  let sweep_axis_opt =
    Arg.(value & opt (some int) None
         & info [ "sweep-axis" ] ~docv:"K"
             ~doc:"Sweep the extent of axis $(docv) between --h-min and \
                   --h-max instead of the quadratic chip side; requires \
                   --min-axis and a base container (--container or a \
                   `container` line).")
  in
  let min_axis_opt =
    Arg.(value & opt (some int) None
         & info [ "min-axis" ] ~docv:"K"
             ~doc:"Axis whose extent to minimize at each sweep step (with \
                   --sweep-axis).")
  in
  let body file h_min h_max no_prec sweep_axis min_axis container_arg quiet s
      () =
    let* () =
      if h_min < 1 then Error (Printf.sprintf "--h-min %d is below 1" h_min)
      else if h_min > h_max then
        Error (Printf.sprintf "--h-min %d exceeds --h-max %d" h_min h_max)
      else Ok ()
    in
    let io = read_instance file in
    let inst = io.Fpga.Instance_io.instance in
    let inst = if no_prec then Packing.Instance.without_precedence inst else inst in
    let* ({ options; jobs; _ } as s) = s in
    let probes, on_probe = probe_collector () in
    let* { Packing.Problems.points; complete } =
      match (sweep_axis, min_axis) with
      | None, None ->
        Ok (Packing.Problems.pareto_front ~options ~jobs ~on_probe inst ~h_min ~h_max)
      | Some sweep, Some minimize ->
        let d = Packing.Instance.dim inst in
        if sweep < 0 || sweep >= d || minimize < 0 || minimize >= d then
          Error (Printf.sprintf "axes must lie in 0..%d for this instance" (d - 1))
        else if sweep = minimize then Error "--sweep-axis and --min-axis must differ"
        else
          (* A 3-dimensional instance falls back to the chip surface. *)
          let* target = resolve_container io ~chip:None ~time:None container_arg in
          Ok
            (Packing.Problems.pareto_front_axes ~options ~jobs ~on_probe inst
               ~sweep ~minimize ~lo:h_min ~hi:h_max
               ~base:(container_of_target target))
      | _ -> Error "--sweep-axis and --min-axis must be given together"
    in
    s.finish ();
    print_json s.stats (fun () ->
        let open Packing.Telemetry in
        to_string
          (Obj
             [
               ("problem", String "pareto");
               ("complete", Bool complete);
               ("points", List (List.map (fun (h, t) -> List [ Int h; Int t ]) points));
               ("probes", List (List.map Packing.Problems.probe_json (probes ())));
             ]));
    (match sweep_axis with
    | None ->
      if not quiet then Format.printf "chip  makespan@.";
      List.iter (fun (h, t) -> Format.printf "%dx%d  %d@." h h t) points
    | Some sweep ->
      let minimize = Option.value min_axis ~default:(-1) in
      if not quiet then Format.printf "axis%d  axis%d@." sweep minimize;
      List.iter (fun (s, e) -> Format.printf "%d  %d@." s e) points);
    if complete then Ok 0
    else begin
      Format.printf
        "(budget exhausted: the front may be missing or overstating points)@.";
      Ok 3
    end
  in
  let doc = "Compute the chip-size/makespan Pareto front (paper Fig. 7)." in
  (* pareto runs the default throttle: it has no --node-bounds. *)
  let search =
    search_term (Term.const Packing.Opp_solver.Realize_adaptive)
  in
  command "pareto" ~doc
    Term.(const body $ file_arg $ h_min_arg $ h_max_arg $ no_prec
          $ sweep_axis_opt $ min_axis_opt $ container_opt $ quiet_flag $ search)

(* simulate and vcd: solve with default options and hand the placement
   to [k]; without one, report infeasible (exit 2) or timeout (exit 3). *)
let with_placement ~what file chip time k () =
  let* inst, chip, t_max = read_chip_time file chip time in
  match Packing.Opp_solver.solve inst (Fpga.Chip.container chip ~t_max) with
  | Packing.Opp_solver.Feasible p, _ -> Ok (k inst chip p)
  | Packing.Opp_solver.Infeasible, _ ->
    Format.printf "infeasible: nothing to %s@." what;
    Ok 2
  | Packing.Opp_solver.Timeout, _ ->
    Format.printf "timeout@.";
    Ok 3

let simulate_cmd =
  let body file chip time =
    with_placement ~what:"simulate" file chip time (fun inst chip p ->
        let report = Fpga.Simulator.run inst p ~chip in
        Format.printf "%a@." Fpga.Simulator.pp_report report;
        if report.Fpga.Simulator.ok then 0 else 2)
  in
  let doc = "Solve, then replay the placement on the chip simulator." in
  command "simulate" ~doc Term.(const body $ file_arg $ chip_opt $ time_opt)

let check_cmd =
  let schedule_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"SCHEDULE" ~doc:"Schedule file (start/place lines).")
  in
  let body file schedule_file chip time render quiet () =
    let* inst, chip, t_max = read_chip_time file chip time in
    let entries =
      Fpga.Schedule_io.parse inst (read_file schedule_file In_channel.input_all)
    in
    (* Fully positioned schedules are validated directly; start times
       alone go through the FixedS solver. *)
    match Fpga.Schedule_io.placement_of inst entries with
    | Some p ->
      let violations =
        Geometry.Placement.check p ~container:(Fpga.Chip.container chip ~t_max)
          ~precedes:(Packing.Instance.precedes inst)
      in
      if violations = [] then begin
        Format.printf "placement is feasible@.";
        show_placement ~quiet ~render inst chip t_max p;
        Ok 0
      end
      else begin
        List.iter
          (Format.printf "violation: %a@." Geometry.Placement.pp_violation)
          violations;
        Ok 2
      end
    | None -> (
      let schedule = Fpga.Schedule_io.schedule_array inst entries in
      match
        Packing.Problems.feasible_fixed_schedule inst ~w:(Fpga.Chip.width chip)
          ~h:(Fpga.Chip.height chip) ~t_max ~schedule
      with
      | Some p ->
        Format.printf "schedule is realizable@.";
        show_placement ~quiet ~render inst chip t_max p;
        Ok 0
      | None ->
        Format.printf "schedule is NOT realizable on %a within %d cycles@."
          Fpga.Chip.pp chip t_max;
        Ok 2)
  in
  let doc =
    "Check a schedule file against a chip (FeasA&FixedS); `place` lines are \
     validated geometrically, `start` lines trigger the 2D placement search."
  in
  command "check" ~doc
    Term.(const body $ file_arg $ schedule_arg $ chip_opt $ time_opt
          $ render_flag $ quiet_flag)

let bounds_cmd =
  let body file chip time stats () =
    let* inst, chip, t_max = read_chip_time file chip time in
    let container = Fpga.Chip.container chip ~t_max in
    let engine = Packing.Bound_engine.create () in
    let verdicts =
      Packing.Bound_engine.run_all engine
        ~refute:(Packing.Opp_solver.slice_refuter ()) inst container
    in
    Packing.Recorder.flush (Packing.Bound_engine.recorder engine);
    Format.printf "volume: %d of %d cells-cycles@."
      (Packing.Instance.total_volume inst)
      (Geometry.Container.volume container);
    Format.printf "critical path: %d of %d cycles@."
      (Packing.Instance.critical_path inst)
      t_max;
    List.iter
      (fun (name, v) ->
        Format.printf "%-14s %a@." name Packing.Bound_engine.pp_verdict v)
      verdicts;
    let refuted =
      List.exists
        (fun (_, v) ->
          match v with
          | Packing.Bound_engine.Infeasible _ -> true
          | Packing.Bound_engine.Lower_bound _
          | Packing.Bound_engine.Inconclusive -> false)
        verdicts
    in
    print_json stats (fun () ->
        let open Packing.Telemetry in
        to_string
          (Obj
             [
               ("problem", String "bounds");
               ( "verdicts",
                 Obj
                   (List.map
                      (fun (name, v) -> (name, Packing.Bound_engine.verdict_json v))
                      verdicts) );
               ("bounds", bounds_to_json (Packing.Bound_engine.counters engine));
             ]));
    if refuted then begin
      Format.printf "verdict: infeasible@.";
      Ok 2
    end
    else begin
      Format.printf "verdict: bounds are silent, a search is needed@.";
      Ok 0
    end
  in
  let doc = "Evaluate the stage-1 lower bounds without searching." in
  command "bounds" ~doc
    Term.(const body $ file_arg $ chip_opt $ time_opt $ stats_opt)

let knapsack_cmd =
  let body file chip time () =
    let* inst, chip, t_max = read_chip_time file chip time in
    (* Value = computation volume: prefer keeping the heavy work. *)
    let value i = Geometry.Box.volume (Packing.Instance.box inst i) in
    match
      Packing.Knapsack.solve inst (Fpga.Chip.container chip ~t_max) ~value
    with
    | None ->
      Format.printf "no non-empty selection fits@.";
      Ok 2
    | Some { Packing.Knapsack.value; selected; _ } ->
      Format.printf "best selection (value %d):" value;
      List.iter
        (fun i -> Format.printf " %s" (Packing.Instance.label inst i))
        selected;
      Format.printf "@.";
      Ok 0
  in
  let doc =
    "Select the most valuable packable subset of tasks (orthogonal knapsack)."
  in
  command "knapsack" ~doc Term.(const body $ file_arg $ chip_opt $ time_opt)

let vcd_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the VCD here.")
  in
  let body file chip time out =
    with_placement ~what:"dump" file chip time (fun inst chip p ->
        let vcd = Fpga.Vcd.of_placement inst p ~chip in
        (match out with
        | None -> print_string vcd
        | Some path ->
          write_file path (fun oc -> output_string oc vcd);
          Format.printf "wrote %s@." path);
        0)
  in
  let doc = "Solve, then dump the schedule as a VCD waveform." in
  command "vcd" ~doc Term.(const body $ file_arg $ chip_opt $ time_opt $ out_arg)

let ilp_cmd =
  let emit_flag =
    Arg.(value & flag & info [ "emit" ] ~doc:"Print the LP model itself.")
  in
  let body file chip time emit () =
    let* inst, chip, t_max = read_chip_time file chip time in
    let container = Fpga.Chip.container chip ~t_max in
    let size = Baseline.Ilp_model.size_of inst container in
    Format.printf "grid 0-1 model: %a@." Baseline.Ilp_model.pp_size size;
    if emit then print_string (Baseline.Ilp_model.to_lp inst container);
    Ok 0
  in
  let doc =
    "Show (or emit) the grid-indexed 0-1 ILP model the paper argues against."
  in
  command "ilp" ~doc Term.(const body $ file_arg $ chip_opt $ time_opt $ emit_flag)

let trace_summary_cmd =
  let trace_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:"JSONL trace file written by --trace.")
  in
  let body file () =
    let* s =
      Result.map_error (fun msg -> file ^ ": " ^ msg)
        (read_file file Packing.Trace.Summary.of_channel)
    in
    Format.printf "%a@?" Packing.Trace.Summary.pp s;
    Ok 0
  in
  let doc =
    "Summarize a JSONL search trace: per-phase, per-bound and per-worker \
     time breakdowns, rule conflicts, probes, and incumbent history."
  in
  command "trace-summary" ~doc Term.(const body $ trace_arg)

let serve_cmd =
  let serve_jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains draining the request stream; with N > 1 \
                   responses appear in completion order (match them by id).")
  in
  let cache_size =
    Arg.(value & opt int 1024
         & info [ "cache-size" ] ~docv:"N"
             ~doc:"Result-cache capacity in entries (LRU eviction); 0 holds \
                   no cache, so every request reaches the solver.")
  in
  let max_nodes =
    Arg.(value & opt (some int) None
         & info [ "max-nodes" ] ~docv:"N"
             ~doc:"Server-side cap on per-request node budgets; request \
                   budgets are clamped to it.")
  in
  let max_time =
    Arg.(value & opt (some float) None
         & info [ "max-time" ] ~docv:"S"
             ~doc:"Server-side cap on per-request wall-clock budgets, \
                   seconds; doubles as the default budget for requests that \
                   name none.")
  in
  let solver_jobs =
    Arg.(value & opt int 1
         & info [ "solver-jobs" ] ~docv:"N"
             ~doc:"Default solver domains per request (a request's own \
                   \"jobs\" field overrides it).")
  in
  let heartbeat =
    Arg.(value & opt ~vopt:(Some 1.0) (some float) None
         & info [ "heartbeat" ] ~docv:"SECONDS"
             ~doc:"Stream heartbeat and incumbent event lines \
                   ({\"ev\":\"heartbeat\"|\"incumbent\"}) on this cadence \
                   (default 1.0 when the flag is given bare).")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Serve a TCP socket on 127.0.0.1:$(docv) (one connection \
                   at a time, same protocol and shared cache) instead of \
                   stdin/stdout.")
  in
  let metrics_port =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ] ~docv:"PORT"
             ~doc:"Expose process metrics on 127.0.0.1:$(docv): every \
                   connection receives one Prometheus text-format \
                   exposition and is closed.")
  in
  let metrics_snapshot =
    Arg.(value & opt (some string) None
         & info [ "metrics-snapshot" ] ~docv:"FILE"
             ~doc:"Append a JSONL metrics snapshot line to $(docv) on the \
                   heartbeat cadence (1.0 s unless --heartbeat says \
                   otherwise), plus one final snapshot at shutdown.")
  in
  let body serve_jobs cache_size max_nodes max_time solver_jobs
      heartbeat port metrics_port metrics_snapshot stats () =
    let* heartbeat = cadence "--heartbeat" heartbeat in
    let* max_time = cadence "--max-time" max_time in
    let* () =
      let max_jobs = Packing.Parallel_solver.max_jobs in
      match max_nodes with
      | Some n when n <= 0 -> Error "--max-nodes must be positive"
      | _ when solver_jobs < 1 || solver_jobs > max_jobs ->
        Error (Printf.sprintf "--solver-jobs must lie in 1..%d" max_jobs)
      | _ when cache_size < 0 -> Error "--cache-size must not be negative"
      | _ -> Ok ()
    in
    (* The serve loop always runs with a live metrics registry — the
       "metrics" request op, the exposition port, and the snapshot dump
       all read it. Installed before [create] so the server and cache
       mint live handles. *)
    Packing.Metrics.set_default (Packing.Metrics.create ());
    let config =
      {
        Service.Server.jobs = serve_jobs;
        cache_capacity = cache_size;
        max_nodes;
        max_time_s = max_time;
        heartbeat_s = heartbeat;
        solver_jobs;
      }
    in
    let server = Service.Server.create ~config () in
    (match metrics_port with
    | Some p -> ignore (Service.Server.serve_metrics ~port:p)
    | None -> ());
    let stop_dump =
      match metrics_snapshot with
      | Some path ->
        Some
          (Service.Server.start_metrics_dump ~path
             ~interval_s:(Option.value heartbeat ~default:1.0))
      | None -> None
    in
    (match port with
    | Some port -> Service.Server.serve_tcp server ~port
    | None ->
      let w = Service.Writer.of_channel stdout in
      Service.Server.serve_channel server w stdin;
      (match stats with
      | Some `Json ->
        Service.Writer.line w
          (Packing.Telemetry.to_string (Service.Server.stats_json server))
      | None -> ()));
    (match stop_dump with Some stop -> stop () | None -> ());
    Ok 0
  in
  let doc =
    "Run the placement service: a JSONL request loop (stdin/stdout, or TCP \
     with --port) multiplexing solve/min-time/min-area requests over a \
     domain pool, with a canonicalization-keyed result cache in front of \
     the solver. With --stats json, a final {\"ev\":\"stats\"} line reports \
     request and cache counters at EOF. Process metrics are always \
     collected; scrape them with --metrics-port, dump them with \
     --metrics-snapshot, or send {\"op\":\"metrics\"} on the request \
     stream."
  in
  command "serve" ~doc
    Term.(const body $ serve_jobs $ cache_size $ max_nodes
          $ max_time $ solver_jobs $ heartbeat $ port $ metrics_port
          $ metrics_snapshot $ stats_opt)

let metrics_summary_cmd =
  let metrics_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"A Prometheus text exposition (as scraped from \
                   --metrics-port) or a JSONL snapshot file (as written by \
                   --metrics-snapshot).")
  in
  let body file () =
    let text = read_file file In_channel.input_all in
    (* A snapshot file renders its freshest snapshot: the last line
       whose [metrics] is a string (a line cut off by a killed server
       does not parse). A file with no such line is an exposition. *)
    let exposition =
      List.fold_left
        (fun last line ->
          match Packing.Telemetry.of_string line with
          | Ok j ->
            Option.value ~default:last
              (Option.bind
                 (Packing.Telemetry.member "metrics" j)
                 Packing.Telemetry.to_string_opt)
          | Error _ -> last)
        text
        (String.split_on_char '\n' text)
    in
    let* s =
      Result.map_error (fun msg -> file ^ ": " ^ msg)
        (match Packing.Metrics.of_prometheus exposition with
         | Ok [] -> Error "no metrics"
         | r -> r)
    in
    Format.printf "%a@?" Packing.Metrics.pp_table s;
    Ok 0
  in
  let doc =
    "Render a metrics file as a human table: counters and gauges with \
     their labels, histograms with count, sum and bucket-resolution \
     p50/p99. Accepts both exposition and snapshot formats."
  in
  command "metrics-summary" ~doc Term.(const body $ metrics_arg)

let export_cmd =
  let which =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME"
             ~doc:
               "Benchmark name ($(b,de) or $(b,codec)), or a path to an \
                instance file to parse and re-print (round-trip check: v1 \
                files re-print byte-identically).")
  in
  let body which () =
    let builtin instance ~side ~t_max =
      {
        Fpga.Instance_io.instance;
        chip = Some (Fpga.Chip.square side);
        t_max = Some t_max;
        container = None;
      }
    in
    let io =
      match which with
      | "de" -> builtin Benchmarks.De.instance ~side:32 ~t_max:14
      | "codec" -> builtin Benchmarks.Video_codec.instance ~side:64 ~t_max:59
      | file -> read_instance file
    in
    print_string (Fpga.Instance_io.print io);
    Ok 0
  in
  let doc = "Print a built-in benchmark or an instance file." in
  command "export" ~doc Term.(const body $ which)

let online_cmd =
  let file_opt =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"Instance file; every task arrives at time 0 (see \
                   --stagger). Omit it and pass --generate N for a \
                   synthetic arrival stream.")
  in
  let policies =
    [ ("first", Fpga.Online.First_fit); ("best", Fpga.Online.Best_fit);
      ("worst", Fpga.Online.Worst_fit) ]
  in
  let policy_opt =
    Arg.(value & opt (enum policies) Fpga.Online.Best_fit
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Fit policy over the maximal-empty-rectangle manager: \
                   first (bottom-left), best or worst fit (default: best).")
  in
  let compaction_flag =
    Arg.(value & flag
         & info [ "compaction" ]
             ~doc:"Enable cost-aware defragmentation: when a task cannot be \
                   placed, re-pack the running modules bottom-left — but \
                   commit only when the modeled wait-time saved exceeds the \
                   reconfiguration cost of the moved modules, and never \
                   without placing the blocked task.")
  in
  let move_delay_opt =
    Arg.(value & opt int 1
         & info [ "move-delay" ] ~docv:"N"
             ~doc:"Extra cycles charged per moved module during a \
                   compaction, on top of the --reconfig-model load time.")
  in
  let reconfig_conv =
    let parse s =
      let cost kind model n =
        match int_of_string_opt n with
        | Some n when n >= 0 -> Ok (model n)
        | _ -> Error (`Msg (Printf.sprintf "expected %s:N with N >= 0" kind))
      in
      match String.split_on_char ':' (String.lowercase_ascii s) with
      | [ ("constant" as k); n ] -> cost k (fun n -> Fpga.Reconfig.Constant n) n
      | [ ("column" as k); n ] -> cost k (fun n -> Fpga.Reconfig.Per_column n) n
      | [ ("cell" as k); n ] -> cost k (fun n -> Fpga.Reconfig.Per_cell n) n
      | _ -> Error (`Msg "expected constant:N, column:N or cell:N")
    in
    let print fmt m = Format.fprintf fmt "%a" Fpga.Reconfig.pp m in
    Arg.conv (parse, print)
  in
  let reconfig_opt =
    Arg.(value & opt reconfig_conv (Fpga.Reconfig.Constant 0)
         & info [ "reconfig-model" ] ~docv:"MODEL"
             ~doc:"Configuration-load cost model for moved modules: \
                   constant:N, column:N (per occupied column) or cell:N \
                   (per cell). Default constant:0.")
  in
  let generate_opt =
    Arg.(value & opt (some int) None
         & info [ "generate" ] ~docv:"N"
             ~doc:"Generate a synthetic stream of N tasks instead of \
                   reading FILE (chip defaults to 32x32 unless --chip).")
  in
  let seed_opt =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S" ~doc:"Stream generator seed.")
  in
  let load_opt =
    Arg.(value & opt float 1.0
         & info [ "load" ] ~docv:"L"
             ~doc:"Offered load of the generated stream: mean area x \
                   duration work per time unit over the chip capacity.")
  in
  let max_extent_opt =
    Arg.(value & opt int 8
         & info [ "max-extent" ] ~docv:"E"
             ~doc:"Maximum footprint side of generated tasks.")
  in
  let max_duration_opt =
    Arg.(value & opt int 12
         & info [ "max-duration" ] ~docv:"D"
             ~doc:"Maximum duration of generated tasks.")
  in
  let arc_probability_opt =
    Arg.(value & opt float 0.1
         & info [ "arc-probability" ] ~docv:"P"
             ~doc:"Probability that a generated task depends on recent \
                   predecessors.")
  in
  let stagger_opt =
    Arg.(value & opt int 0
         & info [ "stagger" ] ~docv:"T"
             ~doc:"With FILE: task i arrives at i*T instead of 0.")
  in
  let body file chip policy compaction move_delay reconfig generate seed load
      max_extent max_duration arc_probability stagger stats (trace, write_trace)
      quiet () =
    let* chip, r =
      match (file, generate) with
      | None, None -> Error "pass an instance FILE or --generate N"
      | Some f, _ ->
        let io = read_instance f in
        let* chip = resolve_chip io chip in
        let inst = io.Fpga.Instance_io.instance in
        let arrivals =
          List.init (Packing.Instance.count inst) (fun i ->
              { Fpga.Online.task = i; arrival_time = i * stagger })
        in
        Ok
          ( chip,
            Fpga.Online.run ~policy ~reconfig ~trace inst arrivals ~chip
              ~compaction ~move_delay )
      | None, Some n ->
        let chip = Option.value chip ~default:(Fpga.Chip.square 32) in
        let tasks =
          Benchmarks.Generate.arrival_stream ~seed ~n ~chip ~load ~max_extent
            ~max_duration ~arc_probability ()
        in
        Ok
          ( chip,
            Fpga.Online.run_stream ~policy ~reconfig ~trace tasks ~chip
              ~compaction ~move_delay )
    in
    let {
      Fpga.Online.placed;
      rejected;
      never_arrived;
      deferrals;
      compactions;
      moved_tasks;
      move_cycles;
      makespan;
      utilization;
      latency;
      events = _;
      placement = _;
    } =
      r
    in
    if not quiet then begin
      Format.printf "placed %d, rejected %d, never arrived %d (of %d tasks)@."
        placed rejected never_arrived
        (placed + rejected + never_arrived);
      Format.printf "makespan %d, utilization %.1f%%, deferrals %d@." makespan
        (100.0 *. utilization) deferrals;
      Format.printf "compactions %d (moved %d modules, %d cycles charged)@."
        compactions moved_tasks move_cycles;
      Format.printf
        "placement latency: p50 %.1f us, p99 %.1f us, max %.1f us (%d \
         samples)@."
        latency.Fpga.Online.p50_us latency.Fpga.Online.p99_us
        latency.Fpga.Online.max_us latency.Fpga.Online.samples
    end;
    print_json stats (fun () ->
        let open Packing.Telemetry in
        let policy_name = fst (List.find (fun (_, p) -> p = policy) policies) in
        to_string
          (Obj
             [
               ("problem", String "online");
               ("policy", String policy_name);
               ( "chip",
                 String
                   (Printf.sprintf "%dx%d" (Fpga.Chip.width chip)
                      (Fpga.Chip.height chip)) );
               ("compaction", Bool compaction);
               ("move_delay", Int move_delay);
               ("online", Fpga.Online.to_json r);
             ]));
    write_trace ();
    Ok (if rejected = 0 && never_arrived = 0 then 0 else 2)
  in
  let doc =
    "Run the online placement manager over an arrival stream (from an \
     instance file or --generate) and report placements, rejections, \
     utilization and per-placement latency."
  in
  command "online" ~doc
    Term.(const body $ file_opt $ chip_opt $ policy_opt $ compaction_flag
          $ move_delay_opt $ reconfig_opt $ generate_opt $ seed_opt $ load_opt
          $ max_extent_opt $ max_duration_opt $ arc_probability_opt
          $ stagger_opt $ stats_opt $ trace_term $ quiet_flag)

let () =
  let doc =
    "Optimal FPGA module placement with temporal precedence constraints \
     (packing-class branch and bound, after Fekete, Köhler and Teich, DATE \
     2001)."
  in
  let info = Cmd.info "fpga_place" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            solve_cmd;
            check_cmd;
            min_time_cmd;
            min_extent_cmd;
            min_area_cmd;
            pareto_cmd;
            simulate_cmd;
            bounds_cmd;
            knapsack_cmd;
            vcd_cmd;
            ilp_cmd;
            export_cmd;
            serve_cmd;
            online_cmd;
            trace_summary_cmd;
            metrics_summary_cmd;
          ]))
