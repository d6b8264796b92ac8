module T = Packing.Telemetry
module Metrics = Packing.Metrics
module Solver = Packing.Opp_solver
module Problems = Packing.Problems
module Instance = Packing.Instance
module Placement = Geometry.Placement

type config = {
  jobs : int;
  cache_capacity : int;
  max_nodes : int option;
  max_time_s : float option;
  heartbeat_s : float option;
  solver_jobs : int;
}

let default_config =
  {
    jobs = 1;
    cache_capacity = 1024;
    max_nodes = None;
    max_time_s = None;
    heartbeat_s = None;
    solver_jobs = 1;
  }

(* Cached results live in canonical task space; only definitive ones
   are ever stored (see [is_definitive]). *)
type solved =
  | R_feas of Problems.feasibility
  | R_any of int Problems.anytime

type t = {
  config : config;
  cache : solved Result_cache.t option; (* [None] at capacity 0 *)
  lock : Mutex.t;
  mutable requests : int;
  mutable errors : int;
  mutable nodes_total : int;
  (* Request-accounting records behind [stats_json]'s percentiles: the
     latest [latency_window] latency samples, a ring indexed by the
     request count (it grows by doubling up to the window, so a
     short-lived server does not allocate the whole window), and per-op
     request counts. *)
  mutable latencies : float array;
  op_counts : (string, int) Hashtbl.t;
  (* Process-metrics handles, minted against the default registry at
     [create]; only [account] writes them, besides the in-flight gauge,
     which moves at both ends of a request. The latency histogram is
     split by cache disposition so hit and miss populations stay
     separable in the exposition. [flushed] is the cache's counters as
     [account] last wrote them. *)
  m_registry : Metrics.t;
  m_inflight : Metrics.gauge;
  m_lat_hit : Metrics.histogram;
  m_lat_miss : Metrics.histogram;
  m_req_nodes : Metrics.histogram;
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_evictions : Metrics.counter;
  m_entries : Metrics.gauge;
  mutable flushed : T.cache_counters;
}

(* How many of the latest latency samples [stats_json] summarizes: a
   long-running loop keeps at most this many, whatever its uptime. *)
let latency_window = 65_536

let counters_of = function
  | Some cache -> Result_cache.counters cache
  | None ->
    {
      T.cache_hits = 0;
      cache_misses = 0;
      cache_evictions = 0;
      cache_entries = 0;
      cache_capacity = 0;
    }

let create ?(config = default_config) () =
  let config = { config with jobs = max 1 config.jobs } in
  let m = Metrics.default () in
  let lat label =
    Metrics.histogram m ~help:"Request wall-clock latency"
      ~labels:[ ("cache", label) ]
      "fpga_server_request_seconds"
  in
  let cache =
    if config.cache_capacity > 0 then
      Some (Result_cache.create ~capacity:config.cache_capacity ())
    else None
  in
  let flushed = counters_of cache in
  Metrics.set
    (Metrics.gauge m ~help:"Result cache capacity" "fpga_cache_capacity")
    (float_of_int flushed.T.cache_capacity);
  {
    config;
    cache;
    lock = Mutex.create ();
    requests = 0;
    errors = 0;
    nodes_total = 0;
    latencies = [||];
    op_counts = Hashtbl.create 8;
    m_registry = m;
    m_inflight =
      Metrics.gauge m ~help:"Requests currently being handled"
        "fpga_server_inflight_requests";
    m_lat_hit = lat "hit";
    m_lat_miss = lat "miss";
    m_req_nodes =
      Metrics.histogram m ~help:"Solver nodes spent per request"
        ~buckets:Metrics.node_buckets "fpga_server_request_solver_nodes";
    m_hits =
      Metrics.counter m ~help:"Result cache hits" "fpga_cache_hits_total";
    m_misses =
      Metrics.counter m ~help:"Result cache misses" "fpga_cache_misses_total";
    m_evictions =
      Metrics.counter m ~help:"Result cache evictions"
        "fpga_cache_evictions_total";
    m_entries =
      Metrics.gauge m ~help:"Result cache live entries" "fpga_cache_entries";
    flushed;
  }

type meta = {
  cache_hit : bool;
  nodes : int;
  elapsed_s : float;
  digest : string;
}

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

type op = Op_solve | Op_min_time | Op_min_area

let op_name = function
  | Op_solve -> "solve"
  | Op_min_time -> "min-time"
  | Op_min_area -> "min-area"

(* An op with its parameters resolved. *)
type job =
  | Solve of { w : int; h : int; t_max : int }
  | Min_time of { w : int; h : int }
  | Min_area of { t_max : int }

type request = {
  id : T.json;
  op : op;
  io : Fpga.Instance_io.t;
  job : (job, string) result;  (* or why the op's parameters do not resolve *)
  node_limit : int option;
  time_limit_s : float option;
  req_jobs : int option;
}

(* An op's parameters, each from the request or else the instance text:
   [solve] checks the chip, then the time budget, then their volume;
   [min-time] needs only the chip and [min-area] only the time budget. *)
let resolve op ~chip ~t_max (io : Fpga.Instance_io.t) =
  let chip () =
    match (chip, io.chip) with
    | Some wh, _ -> Ok wh
    | None, Some c -> Ok (Fpga.Chip.width c, Fpga.Chip.height c)
    | None, None ->
      Error "no chip: pass \"chip\":[w,h] or a chip line in the instance"
  and time () =
    match (t_max, io.t_max) with
    | Some t, _ | None, Some t -> Ok t
    | None, None ->
      Error "no time budget: pass \"time\":t or a time line in the instance"
  in
  let ( let* ) = Result.bind in
  match op with
  | Op_solve ->
    let* w, h = chip () in
    let* t_max = time () in
    let* () = Geometry.Box.check_volume [| w; h; t_max |] in
    Ok (Solve { w; h; t_max })
  | Op_min_time -> Result.map (fun (w, h) -> Min_time { w; h }) (chip ())
  | Op_min_area -> Result.map (fun t_max -> Min_area { t_max }) (time ())

let error_response id code msg =
  T.Obj
    [
      ("id", id);
      ("error", T.Obj [ ("code", T.String code); ("message", T.String msg) ]);
    ]

(* Parse a request object. Errors carry the echoed id (when one was
   readable) plus a typed code for the error response. *)
let parse_request json =
  let id = Option.value (T.member "id" json) ~default:T.Null in
  let field k conv = Option.bind (T.member k json) conv in
  let ( let* ) = Result.bind in
  let positive k =
    match field k T.to_int_opt with
    | Some x when x <= 0 -> Error (Printf.sprintf "%S must be positive" k)
    | v -> Ok v
  in
  let parse () =
    let* op =
      match field "op" T.to_string_opt with
      | None -> Error "missing or non-string \"op\""
      | Some "solve" -> Ok Op_solve
      | Some "min-time" -> Ok Op_min_time
      | Some "min-area" -> Ok Op_min_area
      | Some op ->
        Error
          (Printf.sprintf "unknown op %S (known: solve, min-time, min-area)" op)
    in
    let* text =
      Option.to_result (field "instance" T.to_string_opt)
        ~none:"missing or non-string \"instance\""
    in
    let* io =
      try Ok (Fpga.Instance_io.parse text)
      with Failure msg -> Error ("instance: " ^ msg)
    in
    let* chip =
      let malformed = Error "\"chip\" must be [w, h] with positive integers" in
      match T.member "chip" json with
      | None | Some T.Null -> Ok None
      | Some (T.List [ a; b ]) -> (
        match (T.to_int_opt a, T.to_int_opt b) with
        | Some w, Some h when w > 0 && h > 0 -> (
          match Geometry.Box.check_volume [| w; h |] with
          | Ok () -> Ok (Some (w, h))
          | Error m -> Error ("\"chip\": " ^ m))
        | _ -> malformed)
      | Some _ -> malformed
    in
    let* t_max = positive "time" in
    let* node_limit = positive "node_limit" in
    let* req_jobs = positive "jobs" in
    let time_limit_s = field "time_limit_s" T.to_float_opt in
    let max_jobs = Packing.Parallel_solver.max_jobs in
    match (time_limit_s, req_jobs) with
    | Some s, _ when s <= 0.0 -> Error "\"time_limit_s\" must be positive"
    | _, Some j when j > max_jobs ->
      Error (Printf.sprintf "\"jobs\" must be at most %d" max_jobs)
    | _ ->
      let job = resolve op ~chip ~t_max io in
      Ok { id; op; io; job; node_limit; time_limit_s; req_jobs }
  in
  match json with
  | T.Obj _ -> Result.map_error (fun msg -> (id, "bad-request", msg)) (parse ())
  | _ -> Error (T.Null, "parse", "request must be a JSON object")

(* ------------------------------------------------------------------ *)
(* Solving in canonical space                                          *)
(* ------------------------------------------------------------------ *)

let is_definitive = function
  | R_feas (Problems.Sat _ | Problems.Unsat) -> true
  | R_feas Problems.Undecided -> false
  | R_any (Problems.Optimal _ | Problems.Infeasible) -> true
  | R_any (Problems.Feasible_incumbent _ | Problems.Unknown _) -> false

(* Budgets: the request's ask, clamped by the server-side caps; the
   caps double as defaults for requests that name no budget. *)
let min_opt a b =
  match (a, b) with
  | Some x, Some y -> Some (min x y)
  | Some x, None | None, Some x -> Some x
  | None, None -> None

let options_for t req events =
  let node_limit = min_opt req.node_limit t.config.max_nodes in
  let deadline =
    Option.map Packing.Clock.after
      (min_opt req.time_limit_s t.config.max_time_s)
  in
  let base = { Solver.default_options with node_limit; deadline } in
  match t.config.heartbeat_s with
  | None -> base
  | Some interval ->
    {
      base with
      progress_interval_s = interval;
      on_heartbeat =
        Some
          (fun p ->
            Writer.line events
              (T.to_string
                 (T.Obj
                    [
                      ("id", req.id);
                      ("ev", T.String "heartbeat");
                      ("progress", T.progress_to_json p);
                    ])));
    }

(* Per-probe accounting for the minimization drivers: nodes always sum
   into the request's total; feasible probes additionally stream an
   incumbent event when heartbeats are on. *)
let probe_hook t req events nodes_acc =
  fun (p : Problems.probe) ->
    nodes_acc := !nodes_acc + p.Problems.nodes;
    match (t.config.heartbeat_s, p.Problems.verdict) with
    | Some _, `Feasible ->
      Writer.line events
        (T.to_string
           (T.Obj
              [
                ("id", req.id);
                ("ev", T.String "incumbent");
                ( "container",
                  T.List
                    (Array.to_list
                       (Array.map
                          (fun e -> T.Int e)
                          (Geometry.Container.extents p.Problems.target))) );
                ("nodes", T.Int p.Problems.nodes);
              ]))
    | _ -> ()

let solve_request t req job events (canon : Canonical.t) =
  let inst = canon.Canonical.instance in
  let jobs =
    max 1 (Option.value req.req_jobs ~default:t.config.solver_jobs)
  in
  let options = options_for t req events in
  let nodes = ref 0 in
  let on_probe = probe_hook t req events nodes in
  let solved =
    match job with
    | Solve { w; h; t_max } ->
      let container = Geometry.Container.make3 ~w ~h ~t_max in
      let outcome =
        (* One code path for every job count: the work-stealing kernel
           short-circuits [jobs = 1] to the sequential solver with zero
           domain overhead, so the server no longer special-cases it. *)
        let r = Packing.Parallel_solver.solve ~options ~jobs inst container in
        nodes := !nodes + r.Packing.Parallel_solver.stats.Solver.nodes;
        r.Packing.Parallel_solver.outcome
      in
      R_feas
        (match outcome with
        | Solver.Feasible p -> Problems.Sat p
        | Solver.Infeasible -> Problems.Unsat
        | Solver.Timeout -> Problems.Undecided)
    | Min_time { w; h } ->
      R_any (Problems.minimize_time ~options ~jobs ~on_probe inst ~w ~h)
    | Min_area { t_max } ->
      R_any (Problems.minimize_base ~options ~jobs ~on_probe inst ~t_max)
  in
  (solved, !nodes)

(* ------------------------------------------------------------------ *)
(* Response rendering (back in the request's own task space)           *)
(* ------------------------------------------------------------------ *)

let placement_json original placement =
  let n = Instance.count original in
  T.List
    (List.init n (fun i ->
         let o = Placement.origin placement i in
         T.Obj
           [
             ("task", T.String (Instance.label original i));
             ("at", T.List (Array.to_list (Array.map (fun x -> T.Int x) o)));
           ]))

let witness_fields canon ~original placement =
  let restored = Canonical.restore_placement canon ~original placement in
  [
    ("makespan", T.Int (Placement.makespan restored));
    ("placement", placement_json original restored);
  ]

let render req (canon : Canonical.t) solved =
  let original = req.io.Fpga.Instance_io.instance in
  let fields =
    match solved with
    | R_feas (Problems.Sat p) ->
      ("status", T.String "feasible") :: witness_fields canon ~original p
    | R_feas Problems.Unsat -> [ ("status", T.String "infeasible") ]
    | R_feas Problems.Undecided -> [ ("status", T.String "undecided") ]
    | R_any r -> (
      ("status", T.String (Problems.status_string r))
      ::
      (match r with
      | Problems.Optimal { value; placement } ->
        ("value", T.Int value) :: witness_fields canon ~original placement
      | Problems.Feasible_incumbent
          { incumbent = { value; placement }; lower_bound; gap } ->
        ("value", T.Int value)
        :: ("lower_bound", T.Int lower_bound)
        :: ("gap", T.Int gap)
        :: witness_fields canon ~original placement
      | Problems.Infeasible -> []
      | Problems.Unknown { lower_bound } ->
        [ ("lower_bound", T.Int lower_bound) ]))
  in
  T.Obj (("id", req.id) :: ("op", T.String (op_name req.op)) :: fields)

(* ------------------------------------------------------------------ *)
(* The request pipeline                                                *)
(* ------------------------------------------------------------------ *)

let cache_key job (canon : Canonical.t) =
  match job with
  | Solve { w; h; t_max } ->
    Printf.sprintf "solve:%dx%dx%d|%s" w h t_max canon.Canonical.key
  | Min_time { w; h } ->
    Printf.sprintf "min-time:%dx%d|%s" w h canon.Canonical.key
  | Min_area { t_max } ->
    Printf.sprintf "min-area:%d|%s" t_max canon.Canonical.key

let account ?(op = "invalid") ?(cache_hit = false) ?(elapsed_s = 0.0) t ~error
    ~nodes =
  Mutex.protect t.lock (fun () ->
      t.requests <- t.requests + 1;
      if error then t.errors <- t.errors + 1;
      t.nodes_total <- t.nodes_total + nodes;
      let n = Array.length t.latencies in
      if t.requests <= latency_window && t.requests > n then begin
        let bigger = Array.make (min latency_window (max 64 (2 * n))) 0.0 in
        Array.blit t.latencies 0 bigger 0 n;
        t.latencies <- bigger
      end;
      t.latencies.((t.requests - 1) mod latency_window) <- elapsed_s;
      Hashtbl.replace t.op_counts op
        (1 + Option.value (Hashtbl.find_opt t.op_counts op) ~default:0);
      (* The cache's counters are read and their change written under
         the lock, so concurrent requests never write one change twice. *)
      if Metrics.enabled t.m_registry then begin
        Metrics.incr
          (Metrics.counter t.m_registry ~help:"Requests by op and status"
             ~labels:
               [ ("op", op); ("status", (if error then "error" else "ok")) ]
             "fpga_server_requests_total");
        Metrics.observe
          (if cache_hit then t.m_lat_hit else t.m_lat_miss)
          elapsed_s;
        if nodes > 0 then Metrics.observe t.m_req_nodes (float_of_int nodes);
        let c = counters_of t.cache and was = t.flushed in
        Metrics.add t.m_hits (c.T.cache_hits - was.T.cache_hits);
        Metrics.add t.m_misses (c.T.cache_misses - was.T.cache_misses);
        Metrics.add t.m_evictions (c.T.cache_evictions - was.T.cache_evictions);
        Metrics.set t.m_entries (float_of_int c.T.cache_entries);
        t.flushed <- c
      end)

let metrics_text () = Metrics.(to_prometheus (snapshot (default ())))

let handle_request t events req_json =
  let t0 = Packing.Clock.now () in
  Metrics.shift t.m_inflight 1.0;
  let finish ?(op = "invalid") ?(digest = "") ?(cache_hit = false) ?(nodes = 0)
      ~error resp =
    let elapsed_s = Packing.Clock.since t0 in
    account t ~op ~cache_hit ~elapsed_s ~error ~nodes;
    Metrics.shift t.m_inflight (-1.0);
    (resp, { cache_hit; nodes; elapsed_s; digest })
  in
  match T.member "op" req_json with
  | Some (T.String "metrics") ->
    (* Introspection op: answered from the process registry without
       touching the solver pipeline. *)
    let id = Option.value (T.member "id" req_json) ~default:T.Null in
    finish ~op:"metrics" ~error:false
      (T.Obj
         [
           ("id", id);
           ("op", T.String "metrics");
           ("metrics", T.String (metrics_text ()));
         ])
  | _ -> (
  match parse_request req_json with
  | Error (id, code, msg) -> finish ~error:true (error_response id code msg)
  | Ok { id; op; job = Error msg; _ } ->
    finish ~op:(op_name op) ~error:true (error_response id "bad-request" msg)
  | Ok ({ job = Ok job; _ } as req) -> (
    let op = op_name req.op in
    match
      let canon = Canonical.of_instance req.io.Fpga.Instance_io.instance in
      let key = cache_key job canon in
      match Option.bind t.cache (fun c -> Result_cache.find c key) with
      | Some solved ->
        finish ~op ~digest:canon.Canonical.digest ~cache_hit:true ~error:false
          (render req canon solved)
      | None ->
        let solved, nodes = solve_request t req job events canon in
        (match t.cache with
        | Some c when is_definitive solved -> Result_cache.add c key solved
        | _ -> ());
        finish ~op ~digest:canon.Canonical.digest ~nodes ~error:false
          (render req canon solved)
    with
    | result -> result
    | exception (Failure msg | Invalid_argument msg) ->
      finish ~op ~error:true (error_response req.id "bad-request" msg)
    | exception exn ->
      finish ~op ~error:true
        (error_response req.id "internal" (Printexc.to_string exn))))

let handle_line t w line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then ()
  else begin
    let resp =
      match T.of_string line with
      | Error msg ->
        account t ~error:true ~nodes:0;
        error_response T.Null "parse" msg
      | Ok json -> (
        match handle_request t w json with
        | resp, _meta -> resp
        | exception exn ->
          (* handle_request already catches everything it can; this is
             the last-resort belt so the loop never dies *)
          account t ~error:true ~nodes:0;
          error_response T.Null "internal" (Printexc.to_string exn))
    in
    Writer.line w (T.to_string resp)
  end

(* ------------------------------------------------------------------ *)
(* Serving loops                                                       *)
(* ------------------------------------------------------------------ *)

(* Lines the reader may queue per handler domain before it blocks. *)
let queue_per_job = 4

let serve_channel t w ic =
  if t.config.jobs <= 1 then begin
    try
      while true do
        handle_line t w (input_line ic)
      done
    with End_of_file -> ()
  end
  else begin
    (* one reader (this domain), [jobs] handler domains draining a
       shared queue; EOF closes the queue and every worker drains the
       remainder before exiting. The reader blocks while the queue is
       full, so slow handlers push back on the input (a pipe or a TCP
       peer) instead of the whole input moving into memory. *)
    let cap = queue_per_job * t.config.jobs in
    let q = Queue.create () in
    let qlock = Mutex.create () in
    let nonempty = Condition.create () in
    let nonfull = Condition.create () in
    let closed = ref false in
    let next () =
      Mutex.lock qlock;
      while Queue.is_empty q && not !closed do
        Condition.wait nonempty qlock
      done;
      let job = if Queue.is_empty q then None else Some (Queue.pop q) in
      Condition.signal nonfull;
      Mutex.unlock qlock;
      job
    in
    let rec worker () =
      match next () with
      | None -> ()
      | Some line ->
        handle_line t w line;
        worker ()
    in
    let domains =
      Array.init t.config.jobs (fun _ -> Domain.spawn worker)
    in
    (try
       while true do
         let line = input_line ic in
         Mutex.lock qlock;
         while Queue.length q >= cap do
           Condition.wait nonfull qlock
         done;
         Queue.push line q;
         Condition.signal nonempty;
         Mutex.unlock qlock
       done
     with End_of_file -> ());
    Mutex.lock qlock;
    closed := true;
    Condition.broadcast nonempty;
    Mutex.unlock qlock;
    Array.iter Domain.join domains
  end

(* A socket listening on [127.0.0.1:port]; a port clash raises here. *)
let listen ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 8;
  sock

let serve_tcp t ~port =
  let sock = listen ~port in
  while true do
    let fd, _peer = Unix.accept sock in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let w = Writer.of_channel oc in
    (try serve_channel t w ic with Sys_error _ | Unix.Unix_error _ -> ());
    (try flush oc with Sys_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Metrics exposition                                                  *)
(* ------------------------------------------------------------------ *)

(* Prometheus-style scrape endpoint: each connection gets one text
   exposition of the default registry and is closed. The socket is
   bound in the caller (a port clash raises synchronously); the accept
   loop runs on its own domain and never returns. *)
let serve_metrics ~port =
  let sock = listen ~port in
  Domain.spawn (fun () ->
      while true do
        let fd, _peer = Unix.accept sock in
        let oc = Unix.out_channel_of_descr fd in
        (try
           output_string oc (metrics_text ());
           flush oc
         with Sys_error _ | Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done)
  |> ignore

(* Periodic JSONL snapshot dump on the heartbeat cadence, each line
   carrying one exposition as a JSON string. Returns the stop function:
   it joins the dumper and writes one final snapshot so a short-lived
   server still leaves a record. *)
let start_metrics_dump ~path ~interval_s =
  let oc = open_out path in
  let w = Writer.of_channel oc in
  let dump () =
    Writer.line w
      (T.to_string
         (T.Obj
            [
              ("ev", T.String "metrics");
              ("ts", T.seconds (Unix.gettimeofday ()));
              ("metrics", T.String (metrics_text ()));
            ]))
  in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          (* sleep in short slices so stop stays responsive *)
          let next = Packing.Clock.after interval_s in
          while not (Packing.Clock.expired next || Atomic.get stop) do
            Unix.sleepf (Float.min 0.05 (Packing.Clock.remaining next))
          done;
          if not (Atomic.get stop) then dump ()
        done)
  in
  fun () ->
    Atomic.set stop true;
    Domain.join d;
    dump ();
    close_out_noerr oc

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let cache_counters t = counters_of t.cache

let stats_json t =
  let requests, errors, nodes, lat, ops =
    Mutex.protect t.lock (fun () ->
        ( t.requests,
          t.errors,
          t.nodes_total,
          Array.sub t.latencies 0 (min t.requests latency_window),
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.op_counts [] ))
  in
  T.Obj
    [
      ("ev", T.String "stats");
      ("requests", T.Int requests);
      ("errors", T.Int errors);
      ("nodes", T.Int nodes);
      ( "latency",
        T.Obj
          [
            ("samples", T.Int (Array.length lat));
            ("p50_s", T.seconds (T.percentile lat ~p:0.5));
            ("p99_s", T.seconds (T.percentile lat ~p:0.99));
          ] );
      ( "ops",
        T.Obj
          (List.sort compare ops |> List.map (fun (k, v) -> (k, T.Int v))) );
      ("cache", T.cache_to_json (cache_counters t));
    ]
