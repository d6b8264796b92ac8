(* Runs one workload (or all four, each in its own child process),
   prints a run header and every metric by name with its unit, and ends
   with one JSON line: {"correct", "attempted", "failed", "metrics"}.
   Exits 1 when a check failed. See README.md. *)

open Fpga_bench

let usage =
  "run.exe [--workload NAME | NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
   workloads: serve-unique serve-repeat online-small online-defrag (default: all)"

(* The commit of the checkout, or "unknown" outside a git work tree;
   git is not allowed to look above the current directory. *)
let commit () =
  match
    let out, w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let env =
      Array.append
        [| "GIT_CEILING_DIRECTORIES=" ^ Filename.dirname (Sys.getcwd ()) |]
        (Unix.environment ())
    in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close w; Unix.close null)
        (fun () ->
          Unix.create_process_env "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] env
            Unix.stdin w null)
    in
    let ic = Unix.in_channel_of_descr out in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with
  | c -> c
  | exception Unix.Unix_error _ -> "unknown"

let header ~workload ~seed ~seconds ~trace =
  [
    ("commit", commit ());
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("clock", Clock.name);
    ("workload", workload);
    ("seed", string_of_int seed);
    ("seconds", Printf.sprintf "%g" seconds);
    ("trace", if trace then "1" else "0");
  ]

let print_fields prefix fields =
  print_string prefix;
  List.iter (fun (k, v) -> Printf.printf " %s=%s" k v) fields;
  print_newline ()

(* One record per run in benchmark/runs/<workload>.jsonl when run from
   the root of the checkout. *)
let store ~workload fields result_line =
  if Sys.file_exists "benchmark" && Sys.is_directory "benchmark" then begin
    let dir = Filename.concat "benchmark" "runs" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc =
      open_out_gen [ Open_append; Open_creat ] 0o644
        (Filename.concat dir (workload ^ ".jsonl"))
    in
    Printf.fprintf oc {|{"header": {%s}, "result": %s}|}
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) fields))
      result_line;
    output_char oc '\n';
    close_out oc
  end

let run_one (w : Workload.t) ~seed ~seconds ~trace =
  let head = header ~workload:w.Workload.name ~seed ~seconds ~trace in
  print_fields "# run" head;
  let o = w.Workload.run ~size:Workload.Full ~seed ~seconds ~trace in
  let counts = List.map (fun (k, v) -> (k, string_of_int v)) o.Report.counts in
  print_fields "# work" counts;
  print_fields "# probe"
    [
      ("slices", string_of_int (Probe.slices ()));
      ("slowdown", Printf.sprintf "%.3f" (Probe.median_slowdown ()));
    ];
  let metrics = Report.resolve ~trace o in
  List.iter
    (fun ((k : Report.metric), v) -> Printf.printf "%-34s %16s %s\n" k.name (Report.number v) k.unit)
    metrics;
  List.iter (Printf.printf "# check failed: %s\n") o.Report.reasons;
  let correct = Report.correct o in
  let line =
    Report.json_line ~correct ~attempted:o.Report.attempted ~failed:o.Report.failed
      (List.map (fun ((k : Report.metric), v) -> (k.name, k.unit, v)) metrics)
  in
  (try store ~workload:w.Workload.name (head @ counts) line
   with Sys_error e -> prerr_endline ("run record not stored: " ^ e));
  print_endline line;
  exit (if correct then 0 else 1)

(* Each workload in its own process, so heap and GC numbers are its
   own. Exits 1 when any of them failed. *)
let run_all ~seed ~seconds ~trace =
  let failed =
    List.filter
      (fun (w : Workload.t) ->
        let pid =
          Unix.create_process Sys.executable_name
            [|
              Sys.executable_name; "--workload"; w.Workload.name; "--seed"; string_of_int seed;
              "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
            |]
            Unix.stdin Unix.stdout Unix.stderr
        in
        snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
      Workload.all
  in
  List.iter (fun (w : Workload.t) -> Printf.printf "# %s failed\n" w.Workload.name) failed;
  exit (if failed = [] then 0 else 1)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 30.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one workload (default: all)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  run whole passes for about S seconds (default 30)");
      ("--trace", Arg.Set_int trace, "0|1  1 reports the per-layer metrics instead (default 0)");
    ]
    (fun w -> workload := w)
    usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 and seed = !seed and seconds = Float.max 0.0 !seconds in
  match !workload with
  | "all" -> run_all ~seed ~seconds ~trace
  | name -> (
    match Workload.find name with
    | Some w -> run_one w ~seed ~seconds ~trace
    | None ->
      prerr_endline ("unknown workload " ^ name ^ "\n" ^ usage);
      exit 2)
