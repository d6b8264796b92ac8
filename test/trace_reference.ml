(* Reference copy of the Chrome trace-event sink as it was written
   before its arguments were derived from the JSONL fields: every event
   kind's name, category and argument list spelled out by hand, and the
   node-span unwinding written twice. It reads the worker streams in
   registration order, each in emission order, where the sink reads
   the trace's internals. The trace tests export the same traces
   through it and through [Packing.Trace.write_chrome] and require the
   same bytes. *)

module Trace = Packing.Trace
module Telemetry = Packing.Telemetry
open Trace

let verdict_fields = function
  | Bv_infeasible detail ->
    [
      ("verdict", Telemetry.String "infeasible");
      ("certificate", Telemetry.String detail);
    ]
  | Bv_lower_bound l ->
    [
      ("verdict", Telemetry.String "lower_bound");
      ("lower_bound", Telemetry.Int l);
    ]
  | Bv_inconclusive -> [ ("verdict", Telemetry.String "inconclusive") ]

let node_depth_limit = 16

let us ts = Telemetry.Raw (Printf.sprintf "%.1f" (ts *. 1e6))

let chrome_event ~name ~cat ~ph ~ts ~tid ?dur ?(extra = []) ?(args = []) () =
  Telemetry.Obj
    ([
       ("name", Telemetry.String name);
       ("cat", Telemetry.String cat);
       ("ph", Telemetry.String ph);
       ("ts", us ts);
       ("pid", Telemetry.Int 1);
       ("tid", Telemetry.Int tid);
     ]
    @ (match dur with Some d -> [ ("dur", us d) ] | None -> [])
    @ extra
    @ match args with [] -> [] | _ -> [ ("args", Telemetry.Obj args) ])

(* [streams]: (worker, events) per stream, in registration order. *)
let write_chrome (streams : (int * event list) list) oc =
  let emit_first = ref true in
  let emit j =
    if !emit_first then emit_first := false else output_string oc ",\n";
    output_string oc (Telemetry.to_string j)
  in
  output_string oc "{\"traceEvents\":[\n";
  emit
    (chrome_event ~name:"process_name" ~cat:"__metadata" ~ph:"M" ~ts:0.0 ~tid:0
       ~args:[ ("name", Telemetry.String "fpga_place") ]
       ());
  List.iter
    (fun (worker, _) ->
      emit
        (chrome_event ~name:"thread_name" ~cat:"__metadata" ~ph:"M" ~ts:0.0
           ~tid:worker
           ~args:
             [ ("name", Telemetry.String (Printf.sprintf "worker %d" worker)) ]
           ()))
    streams;
  List.iter
    (fun (worker, events) ->
      let tid = worker in
      let open_nodes = ref [] in
      let last_ts = ref 0.0 in
      let close_span ~until (depth, t0, node) =
        if depth <= node_depth_limit then
          emit
            (chrome_event ~name:"node" ~cat:"search" ~ph:"X" ~ts:t0 ~tid
               ~dur:(max 0.0 (until -. t0))
               ~args:
                 [ ("node", Telemetry.Int node); ("depth", Telemetry.Int depth) ]
               ())
      in
      let instant ~name ~cat ~ts args =
        emit
          (chrome_event ~name ~cat ~ph:"i" ~ts ~tid
             ~extra:[ ("s", Telemetry.String "t") ]
             ~args ())
      in
      List.iter
        (fun e ->
          last_ts := e.ts;
          match e.kind with
          | Node_enter { node; depth } ->
            let rec unwind = function
              | (d, _, _) :: tl when d >= depth ->
                close_span ~until:e.ts (List.hd !open_nodes);
                open_nodes := tl;
                unwind tl
              | rest -> rest
            in
            open_nodes := unwind !open_nodes;
            open_nodes := (depth, e.ts, node) :: !open_nodes
          | Node_close { depth; _ } ->
            let rec unwind = function
              | (d, _, _) :: tl when d >= depth ->
                close_span ~until:e.ts (List.hd !open_nodes);
                open_nodes := tl;
                unwind tl
              | rest -> rest
            in
            open_nodes := unwind !open_nodes
          | Decision { dim; u; v; depth } ->
            if depth <= node_depth_limit then
              instant ~name:"decision" ~cat:"search" ~ts:e.ts
                [
                  ("depth", Telemetry.Int depth);
                  ("dim", Telemetry.Int dim);
                  ("u", Telemetry.Int u);
                  ("v", Telemetry.Int v);
                ]
          | Rule_fire { rule; detail } ->
            instant ~name:("rule:" ^ rule) ~cat:"rule" ~ts:e.ts
              [ ("detail", Telemetry.String detail) ]
          | Bound_call { bound; verdict; dur_s } ->
            emit
              (chrome_event ~name:("bound:" ^ bound) ~cat:"bound" ~ph:"X"
                 ~ts:(max 0.0 (e.ts -. dur_s))
                 ~tid ~dur:dur_s ~args:(verdict_fields verdict) ())
          | Realize { success; dur_s } ->
            emit
              (chrome_event ~name:"realize" ~cat:"realize" ~ph:"X"
                 ~ts:(max 0.0 (e.ts -. dur_s))
                 ~tid ~dur:dur_s
                 ~args:[ ("success", Telemetry.Bool success) ]
                 ())
          | Incumbent { objective } ->
            instant ~name:"incumbent" ~cat:"incumbent" ~ts:e.ts
              [ ("objective", Telemetry.Int objective) ]
          | Probe { extents; verdict; nodes; dur_s; bracket; _ } ->
            let label =
              "probe "
              ^ String.concat "x"
                  (Array.to_list (Array.map string_of_int extents))
            in
            emit
              (chrome_event ~name:label ~cat:"probe" ~ph:"X"
                 ~ts:(max 0.0 (e.ts -. dur_s))
                 ~tid ~dur:dur_s
                 ~args:
                   ([
                      ("verdict", Telemetry.String verdict);
                      ("nodes", Telemetry.Int nodes);
                    ]
                   @
                   match bracket with
                   | Some (lo, hi) ->
                     [
                       ( "bracket",
                         Telemetry.List [ Telemetry.Int lo; Telemetry.Int hi ]
                       );
                     ]
                   | None -> [])
                 ())
          | Claim { index } ->
            instant ~name:"claim" ~cat:"parallel" ~ts:e.ts
              [ ("index", Telemetry.Int index) ]
          | Steal { victim; depth } ->
            instant ~name:"steal" ~cat:"parallel" ~ts:e.ts
              [ ("victim", Telemetry.Int victim); ("depth", Telemetry.Int depth) ]
          | Donate { depth } ->
            instant ~name:"donate" ~cat:"parallel" ~ts:e.ts
              [ ("depth", Telemetry.Int depth) ]
          | Cancel { reason } ->
            instant ~name:"cancel" ~cat:"parallel" ~ts:e.ts
              [ ("reason", Telemetry.String reason) ]
          | Phase { phase; dur_s } ->
            emit
              (chrome_event ~name:phase ~cat:"phase" ~ph:"X"
                 ~ts:(max 0.0 (e.ts -. dur_s))
                 ~tid ~dur:dur_s ())
          | Online_op { op; task; sim_time; dur_s } ->
            let args =
              [ ("task", Telemetry.Int task); ("sim_time", Telemetry.Int sim_time) ]
            in
            if dur_s > 0.0 then
              emit
                (chrome_event ~name:("online:" ^ op) ~cat:"online" ~ph:"X"
                   ~ts:(max 0.0 (e.ts -. dur_s))
                   ~tid ~dur:dur_s ~args ())
            else instant ~name:("online:" ^ op) ~cat:"online" ~ts:e.ts args
          | Progress p ->
            emit
              (chrome_event ~name:"nodes_per_s" ~cat:"progress" ~ph:"C"
                 ~ts:e.ts ~tid
                 ~args:
                   [
                     ( "nodes_per_s",
                       Telemetry.Raw (Printf.sprintf "%.1f" p.nodes_per_s) );
                   ]
                 ());
            emit
              (chrome_event ~name:"decided_fraction" ~cat:"progress" ~ph:"C"
                 ~ts:e.ts ~tid
                 ~args:
                   [
                     ( "decided",
                       Telemetry.Raw (Printf.sprintf "%.4f" p.decided_fraction)
                     );
                   ]
                 ()))
        events;
      List.iter (fun sp -> close_span ~until:!last_ts sp) !open_nodes)
    streams;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"
