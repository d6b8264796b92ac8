type size = Full | Tiny

type t = {
  name : string;
  run : size:size -> seed:int -> seconds:float -> trace:bool -> Report.outcome;
}

(* The traced run also reports the slowdown the probe saw. *)
let probed run ~size ~seed ~seconds ~trace =
  let o = run ~size ~seed ~seconds ~trace in
  if not trace then o
  else { o with Report.values = o.Report.values @ [ ("probe.slowdown", Probe.median_slowdown ()) ] }

let serve (w : Serve.workload) ~tiny =
  {
    name = w.Serve.name;
    run =
      probed (fun ~size ~seed ~seconds ~trace ->
          let count = match size with Full -> None | Tiny -> Some tiny in
          Serve.run ?count w ~seed ~seconds ~trace);
  }

let online (w : Online.workload) =
  {
    name = w.Online.name;
    run =
      probed (fun ~size ~seed ~seconds ~trace ->
          let size = match size with Full -> None | Tiny -> Some (2, 200) in
          Online.run ?size w ~seed ~seconds ~trace);
  }

let all =
  [
    serve Serve.unique ~tiny:6;
    serve Serve.repeat ~tiny:300;
    online Online.small;
    online Online.defrag;
  ]

let find name = List.find_opt (fun w -> w.name = name) all
