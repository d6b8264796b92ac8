(* Structured search-trace recorder: ring-buffered per-domain event
   streams with monotonic timestamps and two export sinks (JSONL,
   Chrome trace-event).

   Design constraints, in order:
   - [null] must cost nothing: [emit] matches on the handle first and
     returns on [Null] without touching the clock, and callers on hot
     paths test [enabled] before building the event.
   - Full-rate recording must stay cheap: one clock read plus one
     ring store per event, no locking on the emit path (streams are
     strictly single-writer, one per domain).
   - Export happens after the solving domains are joined, so readers
     never race writers. *)

type bound_verdict =
  | Bv_infeasible of string (* certificate detail *)
  | Bv_lower_bound of int
  | Bv_inconclusive

type kind =
  | Node_enter of { node : int; depth : int }
  | Node_close of { depth : int; conflicts : int }
  | Decision of { depth : int; dim : int; u : int; v : int }
  | Rule_fire of { rule : string; detail : string }
  | Bound_call of { bound : string; verdict : bound_verdict; dur_s : float }
  | Realize of { success : bool; dur_s : float }
  | Incumbent of { objective : int }
  | Probe of {
      extents : int array;
      verdict : string;
      nodes : int;
      dur_s : float;
      budget_nodes_left : int option;
      budget_s_left : float option;
      bracket : (int * int) option;
    }
  | Claim of { index : int }
  | Steal of { victim : int; depth : int }
  | Donate of { depth : int }
  | Cancel of { reason : string }
  | Phase of { phase : string; dur_s : float }
  | Progress of Telemetry.progress
  | Online_op of { op : string; task : int; sim_time : int; dur_s : float }

type event = { ts : float; kind : kind }

(* One stream per domain. Only the owning domain appends; [appended]
   past [Array.length buf] means the ring wrapped and the oldest
   events were overwritten. *)
type stream = {
  worker : int; (* domain id *)
  buf : event array;
  mutable appended : int;
}

type active = { epoch : Clock.t; streams : stream list Atomic.t }

type t = Null | Active of active

let null = Null
let capacity = 1 lsl 18

let create () = Active { epoch = Clock.now (); streams = Atomic.make [] }

let enabled = function Null -> false | Active _ -> true

let dummy_event = { ts = 0.0; kind = Cancel { reason = "" } }

let rec find_stream id = function
  | [] -> raise_notrace Not_found
  | s :: tl -> if s.worker = id then s else find_stream id tl

(* The emitting domain's stream, registered on its first event. A
   registration races only other registrations (compare-and-set retry):
   a stream is only ever appended to by its own domain. Finding an
   existing stream allocates nothing. *)
let stream a =
  let id = (Domain.self () :> int) in
  match find_stream id (Atomic.get a.streams) with
  | s -> s
  | exception Not_found ->
    let s = { worker = id; buf = Array.make capacity dummy_event; appended = 0 } in
    let rec register () =
      let old = Atomic.get a.streams in
      match find_stream id old with
      | s' -> s'
      | exception Not_found ->
        if Atomic.compare_and_set a.streams old (s :: old) then s
        else register ()
    in
    register ()

let append a s kind =
  s.buf.(s.appended mod capacity) <- { ts = Clock.since a.epoch; kind };
  s.appended <- s.appended + 1

(* --- emit point ---------------------------------------------------- *)

let emit t kind = match t with Null -> () | Active a -> append a (stream a) kind

(* --- reading back ------------------------------------------------ *)

let dropped = function
  | Null -> 0
  | Active a ->
    List.fold_left
      (fun acc s -> acc + max 0 (s.appended - capacity))
      0 (Atomic.get a.streams)

let stream_events s =
  let kept = min s.appended capacity in
  let first = s.appended - kept in
  List.init kept (fun i ->
      let e = s.buf.((first + i) mod capacity) in
      (s.worker, e))

let events = function
  | Null -> []
  | Active a ->
    let all =
      List.concat_map stream_events (List.rev (Atomic.get a.streams))
    in
    List.stable_sort
      (fun (_, e1) (_, e2) -> Float.compare e1.ts e2.ts)
      all

(* --- JSONL sink -------------------------------------------------- *)

let ev_name = function
  | Node_enter _ -> "node_enter"
  | Node_close _ -> "node_close"
  | Decision _ -> "decision"
  | Rule_fire _ -> "rule_fire"
  | Bound_call _ -> "bound_call"
  | Realize _ -> "realize"
  | Incumbent _ -> "incumbent"
  | Probe _ -> "probe"
  | Claim _ -> "claim"
  | Steal _ -> "steal"
  | Donate _ -> "donate"
  | Cancel _ -> "cancel"
  | Phase _ -> "phase"
  | Progress _ -> "progress"
  | Online_op _ -> "online"

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

let kind_fields = function
  | Node_enter { node; depth } ->
    [ ("node", Telemetry.Int node); ("depth", Telemetry.Int depth) ]
  | Node_close { depth; conflicts } ->
    [ ("depth", Telemetry.Int depth); ("conflicts", Telemetry.Int conflicts) ]
  | Decision { depth; dim; u; v } ->
    [
      ("depth", Telemetry.Int depth);
      ("dim", Telemetry.Int dim);
      ("u", Telemetry.Int u);
      ("v", Telemetry.Int v);
    ]
  | Rule_fire { rule; detail } ->
    [ ("rule", Telemetry.String rule); ("detail", Telemetry.String detail) ]
  | Bound_call { bound; verdict; dur_s } ->
    (("bound", Telemetry.String bound) :: verdict_fields verdict)
    @ [ ("dur_s", Telemetry.seconds dur_s) ]
  | Realize { success; dur_s } ->
    [ ("success", Telemetry.Bool success); ("dur_s", Telemetry.seconds dur_s) ]
  | Incumbent { objective } -> [ ("objective", Telemetry.Int objective) ]
  | Probe { extents; verdict; nodes; dur_s; budget_nodes_left; budget_s_left;
            bracket } ->
    [
      ( "container",
        Telemetry.List
          (Array.to_list (Array.map (fun e -> Telemetry.Int e) extents)) );
      ("verdict", Telemetry.String verdict);
      ("nodes", Telemetry.Int nodes);
      ("dur_s", Telemetry.seconds dur_s);
      ( "budget_nodes_left",
        match budget_nodes_left with
        | Some n -> Telemetry.Int n
        | None -> Telemetry.Null );
      ( "budget_s_left",
        match budget_s_left with
        | Some x -> Telemetry.seconds x
        | None -> Telemetry.Null );
      ( "bracket",
        match bracket with
        | Some (lo, hi) -> Telemetry.List [ Telemetry.Int lo; Telemetry.Int hi ]
        | None -> Telemetry.Null );
    ]
  | Claim { index } -> [ ("index", Telemetry.Int index) ]
  | Steal { victim; depth } ->
    [ ("victim", Telemetry.Int victim); ("depth", Telemetry.Int depth) ]
  | Donate { depth } -> [ ("depth", Telemetry.Int depth) ]
  | Cancel { reason } -> [ ("reason", Telemetry.String reason) ]
  | Phase { phase; dur_s } ->
    [ ("phase", Telemetry.String phase); ("dur_s", Telemetry.seconds dur_s) ]
  | Progress p -> [ ("progress", Telemetry.progress_to_json p) ]
  | Online_op { op; task; sim_time; dur_s } ->
    [
      ("op", Telemetry.String op);
      ("task", Telemetry.Int task);
      ("sim_time", Telemetry.Int sim_time);
      ("dur_s", Telemetry.seconds dur_s);
    ]

let event_json ~worker ~ts kind =
  Telemetry.Obj
    (("ev", Telemetry.String (ev_name kind))
    :: ("ts", Telemetry.seconds ts)
    :: ("w", Telemetry.Int worker)
    :: kind_fields kind)

let iter_jsonl t f =
  let evs = events t in
  f
    (Telemetry.to_string
       (Telemetry.Obj
          [
            ("ev", Telemetry.String "trace_start");
            ("version", Telemetry.Int 1);
            ("events", Telemetry.Int (List.length evs));
            ("dropped", Telemetry.Int (dropped t));
          ]));
  List.iter
    (fun (worker, e) -> f (Telemetry.to_string (event_json ~worker ~ts:e.ts e.kind)))
    evs

let write_jsonl t oc =
  iter_jsonl t (fun line ->
      output_string oc line;
      output_char oc '\n')

(* --- Chrome trace-event sink ------------------------------------- *)

(* Emits the JSON object format ({"traceEvents": [...]}) understood by
   chrome://tracing and Perfetto. Timestamps are microseconds; every
   worker stream is one thread track. An event's args are its JSONL
   fields less [dur_s] and the field its name already carries
   ([chrome_view]); a kind with a duration is an "X" (complete) span
   ending at its timestamp, the rest are instants ("i"). Two cases are
   written by hand: nodes become spans from enter to close, down to
   depth [node_depth_limit] (deeper decisions are left out too), and a
   progress snapshot becomes two counters ("C"). *)

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

(* How a kind renders: its category, its name, its duration when it is
   a span, and the JSONL fields its args leave out besides [dur_s] and
   nulls: the one its name carries, and a probe's budgets. *)
let chrome_view = function
  | Decision _ -> ("search", "decision", None, [])
  | Rule_fire { rule; _ } -> ("rule", "rule:" ^ rule, None, [ "rule" ])
  | Bound_call { bound; dur_s; _ } ->
    ("bound", "bound:" ^ bound, Some dur_s, [ "bound" ])
  | Realize { dur_s; _ } -> ("realize", "realize", Some dur_s, [])
  | Incumbent _ -> ("incumbent", "incumbent", None, [])
  | Probe { extents; dur_s; _ } ->
    ( "probe",
      "probe "
      ^ String.concat "x" (Array.to_list (Array.map string_of_int extents)),
      Some dur_s,
      [ "container"; "budget_nodes_left"; "budget_s_left" ] )
  | (Claim _ | Steal _ | Donate _ | Cancel _) as k ->
    ("parallel", ev_name k, None, [])
  | Phase { phase; dur_s } -> ("phase", phase, Some dur_s, [ "phase" ])
  | Online_op { op; dur_s; _ } ->
    ( "online",
      "online:" ^ op,
      (if dur_s > 0.0 then Some dur_s else None),
      [ "op" ] )
  | Node_enter _ | Node_close _ | Progress _ ->
    invalid_arg "Trace.chrome_view: nodes and progress render by hand"

let write_chrome t oc =
  let emit_first = ref true in
  let emit j =
    if !emit_first then emit_first := false else output_string oc ",\n";
    output_string oc (Telemetry.to_string j)
  in
  let metadata ~name ~tid value =
    emit
      (chrome_event ~name ~cat:"__metadata" ~ph:"M" ~ts:0.0 ~tid
         ~args:[ ("name", Telemetry.String value) ]
         ())
  in
  output_string oc "{\"traceEvents\":[\n";
  metadata ~name:"process_name" ~tid:0 "fpga_place";
  let streams =
    match t with Null -> [] | Active a -> List.rev (Atomic.get a.streams)
  in
  List.iter
    (fun s ->
      metadata ~name:"thread_name" ~tid:s.worker
        (Printf.sprintf "worker %d" s.worker))
    streams;
  List.iter
    (fun s ->
      let tid = s.worker in
      (* Stack of open node spans: (depth, enter_ts, node). Ring
         overwrites can orphan enters or closes; an enter or close at
         depth d closes every open span at >= d, at the latest
         timestamp that is still consistent. *)
      let open_nodes = ref [] in
      let last_ts = ref 0.0 in
      let close_span ~until (depth, t0, node) =
        if depth <= node_depth_limit then
          emit
            (chrome_event ~name:"node" ~cat:"search" ~ph:"X" ~ts:t0 ~tid
               ~dur:(max 0.0 (until -. t0))
               ~args:(kind_fields (Node_enter { node; depth }))
               ())
      in
      let rec unwind ~depth ts =
        match !open_nodes with
        | ((d, _, _) as span) :: tl when d >= depth ->
          close_span ~until:ts span;
          open_nodes := tl;
          unwind ~depth ts
        | _ -> ()
      in
      let counter ~name ~ts key value =
        emit
          (chrome_event ~name ~cat:"progress" ~ph:"C" ~ts ~tid
             ~args:[ (key, Telemetry.Raw value) ]
             ())
      in
      List.iter
        (fun (_, e) ->
          last_ts := e.ts;
          match e.kind with
          | Node_enter { node; depth } ->
            unwind ~depth e.ts;
            open_nodes := (depth, e.ts, node) :: !open_nodes
          | Node_close { depth; _ } -> unwind ~depth e.ts
          | Decision { depth; _ } when depth > node_depth_limit -> ()
          | Progress p ->
            counter ~name:"nodes_per_s" ~ts:e.ts "nodes_per_s"
              (Printf.sprintf "%.1f" p.nodes_per_s);
            counter ~name:"decided_fraction" ~ts:e.ts "decided"
              (Printf.sprintf "%.4f" p.decided_fraction)
          | kind -> (
            let cat, name, span, left_out = chrome_view kind in
            let args =
              List.filter
                (fun (k, v) ->
                  v <> Telemetry.Null && not (List.mem k ("dur_s" :: left_out)))
                (kind_fields kind)
            in
            match span with
            | Some dur ->
              emit
                (chrome_event ~name ~cat ~ph:"X"
                   ~ts:(max 0.0 (e.ts -. dur))
                   ~tid ~dur ~args ())
            | None ->
              emit
                (chrome_event ~name ~cat ~ph:"i" ~ts:e.ts ~tid
                   ~extra:[ ("s", Telemetry.String "t") ]
                   ~args ())))
        (stream_events s);
      List.iter (fun span -> close_span ~until:!last_ts span) !open_nodes)
    streams;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"

(* --- summary ----------------------------------------------------- *)

module Summary = struct
  type per_worker = {
    events : int;
    nodes : int;
    max_depth : int;
    first_ts : float;
    last_ts : float;
    bound_time_s : float;
    claims : int;
    steals : int;
  }

  type t = {
    events : int;
    dropped : int;
    workers : (int * per_worker) list;
    bounds : Telemetry.bound_counters;
    phases : (string * float) list;
    rules_fired : (string * int) list;
    online_ops : (string * (int * float)) list;
    incumbents : (float * int) list;
    probes : int;
    probe_time_s : float;
    realize_time_s : float;
    nodes : int;
    max_depth : int;
    span_s : float;
  }

  let empty_worker =
    {
      events = 0;
      nodes = 0;
      max_depth = 0;
      first_ts = Float.infinity;
      last_ts = 0.0;
      bound_time_s = 0.0;
      claims = 0;
      steals = 0;
    }

  let bump assoc key f init =
    let cur = Option.value (List.assoc_opt key !assoc) ~default:init in
    assoc := (key, f cur) :: List.remove_assoc key !assoc

  (* Fold one parsed JSONL line into the accumulators. Unknown event
     names are counted but otherwise ignored, so the schema can grow
     without breaking old summaries. *)
  let of_lines lines =
    let open Telemetry in
    let str j k = Option.bind (member k j) to_string_opt in
    let num j k = Option.bind (member k j) to_float_opt in
    let int_f j k = Option.bind (member k j) to_int_opt in
    let dropped = ref 0 in
    let events = ref 0 in
    let workers = ref [] in
    let bounds = ref [] in
    let phases = ref [] in
    let rules = ref [] in
    let online_ops = ref [] in
    let incumbents = ref [] in
    let probes = ref 0 in
    let probe_time = ref 0.0 in
    let realize_time = ref 0.0 in
    let nodes = ref 0 in
    let max_depth = ref 0 in
    let t_min = ref Float.infinity in
    let t_max = ref 0.0 in
    let line_no = ref 0 in
    let err = ref None in
    List.iter
      (fun line ->
        incr line_no;
        if !err = None && String.trim line <> "" then
          match of_string line with
          | Error msg ->
            err := Some (Printf.sprintf "line %d: %s" !line_no msg)
          | Ok j -> (
            match str j "ev" with
            | None -> err := Some (Printf.sprintf "line %d: no \"ev\" field" !line_no)
            | Some "trace_start" ->
              dropped :=
                !dropped + Option.value (int_f j "dropped") ~default:0
            | Some ev ->
              incr events;
              let w = Option.value (int_f j "w") ~default:0 in
              let ts = Option.value (num j "ts") ~default:0.0 in
              if ts < !t_min then t_min := ts;
              if ts > !t_max then t_max := ts;
              let dur = Option.value (num j "dur_s") ~default:0.0 in
              let upd f = bump workers w f empty_worker in
              upd (fun pw ->
                  {
                    pw with
                    events = pw.events + 1;
                    first_ts = Float.min pw.first_ts ts;
                    last_ts = Float.max pw.last_ts ts;
                  });
              (match ev with
              | "node_enter" ->
                incr nodes;
                let d = Option.value (int_f j "depth") ~default:0 in
                if d > !max_depth then max_depth := d;
                upd (fun pw ->
                    {
                      pw with
                      nodes = pw.nodes + 1;
                      max_depth = max pw.max_depth d;
                    })
              | "bound_call" ->
                let name = Option.value (str j "bound") ~default:"?" in
                let pruned = str j "verdict" = Some "infeasible" in
                bump bounds name
                  (fun c ->
                    {
                      Telemetry.calls = c.Telemetry.calls + 1;
                      time_s = c.Telemetry.time_s +. dur;
                      prunes = (c.Telemetry.prunes + if pruned then 1 else 0);
                    })
                  Telemetry.zero_bound;
                upd (fun pw -> { pw with bound_time_s = pw.bound_time_s +. dur })
              | "phase" ->
                let name = Option.value (str j "phase") ~default:"?" in
                bump phases name (fun x -> x +. dur) 0.0
              | "rule_fire" ->
                let name = Option.value (str j "rule") ~default:"?" in
                bump rules name (fun x -> x + 1) 0
              | "incumbent" ->
                let obj = Option.value (int_f j "objective") ~default:0 in
                incumbents := (ts, obj) :: !incumbents
              | "probe" ->
                incr probes;
                probe_time := !probe_time +. dur
              | "realize" -> realize_time := !realize_time +. dur
              | "claim" -> upd (fun pw -> { pw with claims = pw.claims + 1 })
              | "steal" -> upd (fun pw -> { pw with steals = pw.steals + 1 })
              | "online" ->
                (* Online-placement operations (place / defer / compact /
                   reject) aggregate per op: count and total duration. *)
                let name = Option.value (str j "op") ~default:"?" in
                bump online_ops name
                  (fun (n, t) -> (n + 1, t +. dur))
                  (0, 0.0)
              | _ -> ())))
      lines;
    match !err with
    | Some msg -> Error msg
    | None ->
      Ok
        {
          events = !events;
          dropped = !dropped;
          workers =
            List.sort (fun (a, _) (b, _) -> compare a b) !workers;
          bounds = List.rev !bounds;
          phases = List.rev !phases;
          rules_fired = List.rev !rules;
          online_ops =
            List.sort (fun (a, _) (b, _) -> compare a b) !online_ops;
          incumbents = List.rev !incumbents;
          probes = !probes;
          probe_time_s = !probe_time;
          realize_time_s = !realize_time;
          nodes = !nodes;
          max_depth = !max_depth;
          span_s = (if !t_max > !t_min then !t_max -. !t_min else 0.0);
        }

  let of_channel ic =
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    of_lines (List.rev !lines)

  let pp fmt s =
    Format.fprintf fmt "events: %d (%d dropped), span %.3f s@." s.events
      s.dropped s.span_s;
    Format.fprintf fmt "nodes: %d, max depth %d@." s.nodes s.max_depth;
    if s.probes > 0 then
      Format.fprintf fmt "probes: %d (%.3f s total)@." s.probes s.probe_time_s;
    if s.realize_time_s > 0.0 then
      Format.fprintf fmt "realization: %.3f s total@." s.realize_time_s;
    if s.phases <> [] then begin
      Format.fprintf fmt "per-phase time:@.";
      List.iter
        (fun (name, t) -> Format.fprintf fmt "  %-24s %10.6f s@." name t)
        s.phases
    end;
    if s.bounds <> [] then begin
      Format.fprintf fmt "per-bound time:@.";
      Format.fprintf fmt "  %-16s %8s %12s %8s@." "bound" "calls" "time_s"
        "prunes";
      List.iter
        (fun (name, c) ->
          Format.fprintf fmt "  %-16s %8d %12.6f %8d@." name
            c.Telemetry.calls c.Telemetry.time_s c.Telemetry.prunes)
        s.bounds
    end;
    if s.rules_fired <> [] then begin
      Format.fprintf fmt "rule conflicts:@.";
      List.iter
        (fun (name, n) -> Format.fprintf fmt "  %-24s %8d@." name n)
        s.rules_fired
    end;
    if s.online_ops <> [] then begin
      Format.fprintf fmt "online ops:@.";
      Format.fprintf fmt "  %-16s %8s %12s@." "op" "count" "time_s";
      List.iter
        (fun (name, (n, t)) ->
          Format.fprintf fmt "  %-16s %8d %12.6f@." name n t)
        s.online_ops
    end;
    if s.workers <> [] then begin
      Format.fprintf fmt "per-worker:@.";
      Format.fprintf fmt "  %-8s %8s %8s %6s %10s %12s %7s %7s@." "worker"
        "events" "nodes" "depth" "span_s" "bound_s" "claims" "steals";
      List.iter
        (fun (w, (pw : per_worker)) ->
          Format.fprintf fmt "  %-8d %8d %8d %6d %10.3f %12.6f %7d %7d@." w
            pw.events pw.nodes pw.max_depth
            (if pw.last_ts >= pw.first_ts then pw.last_ts -. pw.first_ts
             else 0.0)
            pw.bound_time_s pw.claims pw.steals)
        s.workers
    end;
    if s.incumbents <> [] then begin
      Format.fprintf fmt "incumbents:@.";
      List.iter
        (fun (ts, obj) -> Format.fprintf fmt "  %10.6f s  objective %d@." ts obj)
        s.incumbents
    end
end
