(* The two serve workloads: a closed loop with one client calling
   [Service.Server.handle_line], and in the traced run a shadow of the
   server's pipeline built from the same public layers, timed span by
   span. *)

module T = Packing.Telemetry
module Instance = Packing.Instance
module Problems = Packing.Problems
module Solver = Packing.Opp_solver
module Metrics = Packing.Metrics
module Placement = Geometry.Placement
module Container = Geometry.Container
module Canonical = Service.Canonical
module Result_cache = Service.Result_cache
module Server = Service.Server
module Generate = Benchmarks.Generate

type op =
  | Solve of { w : int; h : int; t_max : int }
  | Min_time of { w : int; h : int }
  | Min_area of { t_max : int }

type request = {
  id : string;
  cls : int;  (** hot-class index on serve-repeat, -1 for a unique request *)
  op : op;
  instance : Instance.t;
      (** the instance the response's labels index: the request's own, or
          for a hot class its unrelabeled base (labels travel with the
          boxes, so the two agree label for label) *)
  upper : int option;  (** an objective value known to be feasible *)
  line : string;
}

let node_limit = 25_000
let op_name = function Solve _ -> "solve" | Min_time _ -> "min-time" | Min_area _ -> "min-area"

let request_line ~id ~op inst =
  let io =
    { Fpga.Instance_io.instance = inst; chip = None; t_max = None; container = None }
  in
  let chip w h = ("chip", T.List [ T.Int w; T.Int h ]) in
  let params =
    match op with
    | Solve { w; h; t_max } -> [ chip w h; ("time", T.Int t_max) ]
    | Min_time { w; h } -> [ chip w h ]
    | Min_area { t_max } -> [ ("time", T.Int t_max) ]
  in
  T.to_string
    (T.Obj
       ([
          ("id", T.String id);
          ("op", T.String (op_name op));
          ("instance", T.String (Fpga.Instance_io.print io));
        ]
       @ params
       @ [ ("node_limit", T.Int node_limit) ]))

let request ~id ~cls ~op ?upper ?base inst =
  {
    id;
    cls;
    op;
    instance = Option.value base ~default:inst;
    upper;
    line = request_line ~id ~op inst;
  }

(* A uniformly random relabeling: the same problem as another client
   would send it, so it must land on the same canonical key. Labels
   travel with their boxes. *)
let relabel rng inst =
  let n = Instance.count inst in
  let perm = Array.init n Fun.id in
  Stats.shuffle rng perm;
  let pos = Array.make n 0 in
  Array.iteri (fun k o -> pos.(o) <- k) perm;
  Instance.make ~name:(Instance.name inst)
    ~labels:(Array.init n (fun k -> Instance.label inst perm.(k)))
    ~precedence:
      (List.map
         (fun (u, v) -> (pos.(u), pos.(v)))
         (Order.Partial_order.relations (Instance.precedence inst)))
    ~boxes:(Array.init n (fun k -> Instance.box inst perm.(k)))
    ()

(* serve-unique: distinct min-time requests rotating through three
   shapes. About one in ten reaches the search, which dominates the
   run's time, and about 8% exhaust the node budget, which puts p95 on
   that plateau; the rest settle on bounds or the heuristic.
   Which ones reach the search varies so much between random draws that
   a run's throughput would mostly measure the draw, so the instances
   are one fixed pool and the seed relabels and reorders them: every
   seed sends different request text for the same work, and the
   committed answers hold on every seed. Guillotine instances tile
   their 8x8x8 container, so their optimum is at most 8. *)
let unique_requests ~seed ~count =
  let pool = Random.State.make [| 2; 1 |] in
  let rng = Random.State.make [| seed; 1 |] in
  let reqs =
    Array.init count (fun i ->
        let s = Random.State.bits pool in
        let id = Printf.sprintf "u%d" i in
        let min_time ?upper w h inst =
          request ~id ~cls:(-1) ~op:(Min_time { w; h }) ?upper (relabel rng inst)
        in
        let random ~n =
          Generate.random ~seed:s ~n ~max_extent:4 ~max_duration:3 ~arc_probability:0.15 ()
        in
        match i mod 3 with
        | 0 -> min_time 8 8 (random ~n:11)
        | 1 -> min_time 7 7 (random ~n:10)
        | _ ->
          min_time ~upper:8 8 8
            (fst
               (Generate.guillotine ~seed:s
                  ~container:(Container.make3 ~w:8 ~h:8 ~t_max:8)
                  ~cuts:10 ~arc_probability:0.3 ())))
  in
  Stats.shuffle rng reqs;
  reqs

type hot = { name : string; base : Instance.t; hot_op : op }

let hot_classes () =
  let de t_max =
    { name = Printf.sprintf "de-%d" t_max; base = Benchmarks.De.instance;
      hot_op = Min_area { t_max } }
  in
  let chip name base = { name; base; hot_op = Min_time { w = 32; h = 32 } } in
  [|
    de 13;
    de 14;
    { name = "codec-59"; base = Benchmarks.Video_codec.instance;
      hot_op = Min_area { t_max = 59 } };
    chip "fir-6" (Benchmarks.Dfg.fir ~taps:6);
    chip "fir-8" (Benchmarks.Dfg.fir ~taps:8);
    chip "butterfly-2" (Benchmarks.Dfg.butterfly ~stages:2);
    chip "chain-10" (Benchmarks.Dfg.chain ~length:10);
    chip "independent-9" (Benchmarks.Dfg.independent ~n:9);
  |]

(* serve-repeat: 90% relabelings of eight hot classes whose popularity
   falls off as 1/(k+1)^2, 10% unique cheap solve requests. The 1500
   uniques of a pass overflow the 1024-entry LRU, so eviction runs too. *)
let repeat_requests ~seed ~count =
  let rng = Random.State.make [| seed; 2 |] in
  let hot = hot_classes () in
  let weights = Array.init (Array.length hot) (fun k -> 1.0 /. float_of_int ((k + 1) * (k + 1))) in
  let total = Stats.sum weights in
  let pick u =
    let rec go k acc =
      let acc = acc +. (weights.(k) /. total) in
      if u < acc || k = Array.length hot - 1 then k else go (k + 1) acc
    in
    go 0 0.0
  in
  Array.init count (fun i ->
      let id = Printf.sprintf "r%d" i in
      if Random.State.float rng 1.0 < 0.9 then begin
        let k = pick (Random.State.float rng 1.0) in
        let c = hot.(k) in
        request ~id ~cls:k ~op:c.hot_op ~base:c.base (relabel rng c.base)
      end
      else begin
        let inst =
          Generate.random ~seed:(Random.State.bits rng) ~n:6 ~max_extent:6
            ~max_duration:4 ~arc_probability:0.3 ()
        in
        request ~id ~cls:(-1)
          ~op:(Solve { w = 12; h = 12; t_max = Instance.total_duration inst })
          inst
      end)

(* ------------------------------------------------------------------ *)
(* Output checks, independent of the search                            *)
(* ------------------------------------------------------------------ *)

type answer = { status : string; value : int option; definitive : bool }

let answer_string a =
  Printf.sprintf "%s %s" a.status
    (match a.value with Some v -> string_of_int v | None -> "-")

let container_of op value =
  match (op, value) with
  | Solve { w; h; t_max }, _ -> Some (Container.make3 ~w ~h ~t_max)
  | Min_time { w; h }, Some v -> Some (Container.make3 ~w ~h ~t_max:v)
  | Min_area { t_max }, Some v -> Some (Container.make3 ~w:v ~h:v ~t_max)
  | (Min_time _ | Min_area _), None -> None

(* Rebuild the witness from its labels and check it on the request's
   own instance, in the container that op, chip, time and value imply. *)
let check_witness req json value =
  let inst = req.instance in
  let n = Instance.count inst in
  let index = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace index (Instance.label inst i) i
  done;
  let origins = Array.make n [||] in
  let entry = function
    | T.Obj _ as e -> (
      match
        ( Option.bind (T.member "task" e) T.to_string_opt,
          T.member "at" e )
      with
      | Some label, Some (T.List at) -> (
        match Hashtbl.find_opt index label with
        | Some i when origins.(i) = [||] ->
          let at = List.filter_map T.to_int_opt at in
          if List.length at <> Instance.dim inst then Error "bad origin"
          else begin
            origins.(i) <- Array.of_list at;
            Ok ()
          end
        | Some _ -> Error ("task placed twice: " ^ label)
        | None -> Error ("unknown task: " ^ label))
      | _ -> Error "malformed placement entry")
    | _ -> Error "malformed placement entry"
  in
  match T.member "placement" json with
  | Some (T.List entries) -> (
    match
      List.fold_left
        (fun acc e -> Result.bind acc (fun () -> entry e))
        (Ok ()) entries
    with
    | Error e -> Error e
    | Ok () when Array.exists (fun o -> o = [||]) origins ->
      Error "placement misses a task"
    | Ok () -> (
      let p = Placement.make (Instance.boxes inst) origins in
      match container_of req.op value with
      | None -> Error "witness without a value"
      | Some container ->
        if not (Instance.placement_feasible inst ~container p) then
          Error "witness infeasible in the implied container"
        else if
          Option.bind (T.member "makespan" json) T.to_int_opt
          <> Some (Placement.makespan p)
        then Error "makespan disagrees with the witness"
        else Ok ()))
  | _ -> Error "missing placement"

let check_response req line =
  match T.of_string line with
  | Error e -> Error ("unparsable response: " ^ e)
  | Ok json -> (
    let str k = Option.bind (T.member k json) T.to_string_opt in
    let int k = Option.bind (T.member k json) T.to_int_opt in
    let value = int "value" in
    match (T.member "error" json, str "id", str "status") with
    | Some _, _, _ -> Error "error response"
    | None, id, _ when id <> Some req.id -> Error "wrong id"
    | None, _, None -> Error "no status"
    | None, _, Some status -> (
      let known, witness, definitive =
        match (req.op, status) with
        | Solve _, "feasible" -> (true, true, true)
        | Solve _, "infeasible" -> (true, false, true)
        | Solve _, "undecided" -> (true, false, false)
        | (Min_time _ | Min_area _), "optimal" -> (true, true, true)
        | (Min_time _ | Min_area _), "feasible" -> (true, true, false)
        | (Min_time _ | Min_area _), "infeasible" -> (true, false, true)
        | (Min_time _ | Min_area _), "unknown" -> (true, false, false)
        | _ -> (false, false, false)
      in
      let checked = if witness then check_witness req json value else Ok () in
      match checked with
      | Error e -> Error e
      | Ok () ->
        if not known then Error ("unknown status " ^ status)
        else if str "op" <> Some (op_name req.op) then Error "wrong op"
        else
          match (int "lower_bound", value, req.upper) with
          | Some lb, Some v, _ when lb > v -> Error "lower bound above value"
          | _, Some v, Some u when definitive && v > u ->
            Error (Printf.sprintf "optimum %d above the known feasible %d" v u)
          | _ -> Ok { status; value; definitive }))

(* Committed answers: one "<key> <status> <value|->" line each. *)
let parse_expected text =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ key; status; v ] ->
        Some (key, (status, if v = "-" then None else int_of_string_opt v))
      | _ -> None)
    (String.split_on_char '\n' text)

(* What a min-* answer proves about the optimum: [`Range (lo, hi)] that
   one exists within those bounds (a feasible witness of value v proves
   it is at most v), [`Infeasible] that none exists; [`Any] nothing. *)
let optimum_range status value =
  match (status, value) with
  | "optimal", Some v -> `Range (v, v)
  | "feasible", Some v -> `Range (min_int, v)
  | "infeasible", _ -> `Infeasible
  | _ -> `Any

(* The file and the run agree unless together they prove something
   impossible. So a key definitive in only one of them may differ (a
   budget effect), but an optimum above a known witness, a witness below
   a known optimum, or a witness of an infeasible problem may not. *)
let agrees ~expected:(status, value) (a : answer) =
  match (optimum_range status value, optimum_range a.status a.value) with
  | `Any, _ | _, `Any | `Infeasible, `Infeasible -> true
  | `Infeasible, `Range _ | `Range _, `Infeasible -> false
  | `Range (lo, hi), `Range (lo', hi') -> max lo lo' <= min hi hi'

(* ------------------------------------------------------------------ *)
(* The shadow pipeline: the server's order of public calls, one span   *)
(* per layer                                                           *)
(* ------------------------------------------------------------------ *)

type solved = R_feas of Problems.feasibility | R_any of int Problems.anytime

let is_definitive = function
  | R_feas (Problems.Sat _ | Problems.Unsat) | R_any (Problems.Optimal _ | Problems.Infeasible) -> true
  | _ -> false

(* Span slots, in pipeline order. *)
let l_parse = 0 and l_io = 1 and l_canon = 2 and l_cache = 3 and l_problems = 4 and l_render = 5

type shadow = {
  mutable cache : solved Result_cache.t;  (** fresh with each server *)
  spans : float array;
  mutable misses : int;
  mutable probes : int;
  mutable zero_node_misses : int;
  mutable nodes : int;
  mutable budget_hits : int;
  mutable incomplete : int;
}

let fresh_cache () =
  Result_cache.create ~capacity:Server.default_config.Server.cache_capacity ()

let shadow () =
  {
    cache = fresh_cache ();
    spans = Array.make 6 0.0;
    misses = 0;
    probes = 0;
    zero_node_misses = 0;
    nodes = 0;
    budget_hits = 0;
    incomplete = 0;
  }

let cache_key op (canon : Canonical.t) =
  match op with
  | Solve { w; h; t_max } -> Printf.sprintf "solve:%dx%dx%d|%s" w h t_max canon.Canonical.key
  | Min_time { w; h } -> Printf.sprintf "min-time:%dx%d|%s" w h canon.Canonical.key
  | Min_area { t_max } -> Printf.sprintf "min-area:%d|%s" t_max canon.Canonical.key

let solve sh op inst =
  let options = { Solver.default_options with node_limit = Some node_limit } in
  let nodes = ref 0 in
  let on_probe (p : Problems.probe) =
    sh.probes <- sh.probes + 1;
    nodes := !nodes + p.Problems.nodes;
    if p.Problems.verdict = `Timeout then sh.budget_hits <- sh.budget_hits + 1
  in
  let solved =
    match op with
    | Solve { w; h; t_max } ->
      let r =
        Packing.Parallel_solver.solve ~options ~jobs:1 inst
          (Container.make3 ~w ~h ~t_max)
      in
      sh.probes <- sh.probes + 1;
      nodes := !nodes + r.Packing.Parallel_solver.stats.Solver.nodes;
      R_feas
        (match r.Packing.Parallel_solver.outcome with
        | Solver.Feasible p -> Problems.Sat p
        | Solver.Infeasible -> Problems.Unsat
        | Solver.Timeout ->
          sh.budget_hits <- sh.budget_hits + 1;
          Problems.Undecided)
    | Min_time { w; h } -> R_any (Problems.minimize_time ~options ~jobs:1 ~on_probe inst ~w ~h)
    | Min_area { t_max } -> R_any (Problems.minimize_base ~options ~jobs:1 ~on_probe inst ~t_max)
  in
  sh.misses <- sh.misses + 1;
  sh.nodes <- sh.nodes + !nodes;
  if !nodes = 0 then sh.zero_node_misses <- sh.zero_node_misses + 1;
  solved

let render id op canon original solved =
  let witness p =
    let r = Canonical.restore_placement canon ~original p in
    [
      ("makespan", T.Int (Placement.makespan r));
      ( "placement",
        T.List
          (List.init (Instance.count original) (fun i ->
               T.Obj
                 [
                   ("task", T.String (Instance.label original i));
                   ( "at",
                     T.List
                       (Array.to_list
                          (Array.map (fun x -> T.Int x) (Placement.origin r i))) );
                 ])) );
    ]
  in
  let fields =
    match solved with
    | R_feas (Problems.Sat p) -> ("status", T.String "feasible") :: witness p
    | R_feas Problems.Unsat -> [ ("status", T.String "infeasible") ]
    | R_feas Problems.Undecided -> [ ("status", T.String "undecided") ]
    | R_any r -> (
      ("status", T.String (Problems.status_string r))
      ::
      (match r with
      | Problems.Optimal { value; placement } -> ("value", T.Int value) :: witness placement
      | Problems.Feasible_incumbent { incumbent = { value; placement }; lower_bound; gap } ->
        ("value", T.Int value) :: ("lower_bound", T.Int lower_bound) :: ("gap", T.Int gap)
        :: witness placement
      | Problems.Infeasible -> []
      | Problems.Unknown { lower_bound } -> [ ("lower_bound", T.Int lower_bound) ]))
  in
  T.to_string (T.Obj (("id", id) :: ("op", T.String (op_name op)) :: fields))

let shadow_handle sh req =
  let span k f =
    let r, s = Probe.time f in
    sh.spans.(k) <- sh.spans.(k) +. Probe.seconds s;
    r
  in
  match span l_parse (fun () -> T.of_string req.line) with
  | Error e -> e
  | Ok json ->
    let id = Option.value (T.member "id" json) ~default:T.Null in
    let text = Option.value (Option.bind (T.member "instance" json) T.to_string_opt) ~default:"" in
    let io = span l_io (fun () -> Fpga.Instance_io.parse text) in
    let original = io.Fpga.Instance_io.instance in
    let canon = span l_canon (fun () -> Canonical.of_instance original) in
    if not canon.Canonical.complete then sh.incomplete <- sh.incomplete + 1;
    let key = cache_key req.op canon in
    let solved =
      match span l_cache (fun () -> Result_cache.find sh.cache key) with
      | Some solved -> solved
      | None ->
        let solved = span l_problems (fun () -> solve sh req.op canon.Canonical.instance) in
        if is_definitive solved then span l_cache (fun () -> Result_cache.add sh.cache key solved);
        solved
    in
    span l_render (fun () -> render id req.op canon original solved)

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  generate : seed:int -> count:int -> request array;
  count : int;  (** requests per pass at full size *)
  expected : string;
      (** committed answers at full size; they hold on every seed, since
          seeds only relabel the pool and the hot classes *)
  expected_key : request -> string option;  (** its line in that file *)
}

let unique =
  {
    name = "serve-unique";
    generate = unique_requests;
    count = 300;
    expected = Expected_data.serve_unique;
    expected_key = (fun r -> Some r.id);
  }

let repeat =
  let names = Array.map (fun (c : hot) -> c.name) (hot_classes ()) in
  {
    name = "serve-repeat";
    generate = repeat_requests;
    count = 15_000;
    expected = Expected_data.serve_repeat;
    expected_key = (fun r -> if r.cls >= 0 then Some names.(r.cls) else None);
  }

(* Live registries for the traced run: one behind the server, one
   behind the shadow, so both sides pay the same instrumentation and
   the counts come from the server's side alone. *)
let counts_of snapshot =
  let total family label =
    List.fold_left
      (fun acc (f : Metrics.family) ->
        if f.Metrics.name <> family then acc
        else
          List.fold_left
            (fun acc (s : Metrics.sample) ->
              match s.Metrics.value with
              | Metrics.Sample v
                when (match label with None -> true | Some l -> List.mem l s.Metrics.labels) ->
                acc +. v
              | _ -> acc)
            acc f.Metrics.samples)
      0.0 snapshot
  in
  [ ("opp_solver.realize_attempts", total "fpga_solver_realize_attempts_total" None) ]
  @ List.map
      (fun b -> ("bound_engine.calls." ^ b, total "fpga_bounds_calls_total" (Some ("bound", b))))
      Report.bound_names
  @ List.map
      (fun b -> ("bound_engine.prunes." ^ b, total "fpga_bounds_prunes_total" (Some ("bound", b))))
      Report.bound_names
  @ List.map
      (fun r ->
        ("packing_state.conflicts." ^ r, total "fpga_solver_rule_conflicts_total" (Some ("rule", r))))
      Report.rule_names

(* The first pass is checked answer by answer; every later pass must
   repeat it byte for byte. *)
type verdicts = {
  checks : Report.checks;
  expected : (string * (string * int option)) list;
  answers : answer option array;
  digests : Digest.t array;
  classes : (int, answer) Hashtbl.t;
}

let verify w v ~pass i req resp =
  let c = v.checks in
  if pass > 0 then begin
    if Digest.string resp <> v.digests.(i) then
      Report.fail c "%s: response differs from the first pass" req.id
  end
  else begin
    v.digests.(i) <- Digest.string resp;
    match check_response req resp with
    | Error e -> Report.fail c "%s: %s" req.id e
    | Ok a -> (
      v.answers.(i) <- Some a;
      let consistent =
        req.cls < 0
        ||
        match Hashtbl.find_opt v.classes req.cls with
        | None ->
          Hashtbl.replace v.classes req.cls a;
          true
        | Some b -> b.status = a.status && b.value = a.value
      in
      let key = w.expected_key req in
      if not consistent then
        Report.fail c "%s: relabeling of %s answered %s" req.id
          (Option.value key ~default:"?") (answer_string a)
      else
        match Option.bind key (fun k -> List.assoc_opt k v.expected) with
        | Some e when not (agrees ~expected:e a) ->
          Report.fail c "%s: answered %s, expected %s" req.id (answer_string a)
            (answer_string { status = fst e; value = snd e; definitive = true })
        | _ -> ())
  end

let run ?count (w : workload) ~seed ~seconds ~trace =
  let count = Option.value count ~default:w.count in
  let config = { Server.default_config with Server.jobs = 1 } in
  let (reqs, _), setup =
    Stats.setup (fun () -> (w.generate ~seed ~count, Server.create ~config ()))
  in
  let v =
    {
      checks = Report.checks ();
      expected = (if count = w.count then parse_expected w.expected else []);
      answers = Array.make count None;
      digests = Array.make count "";
      classes = Hashtbl.create 8;
    }
  in
  let reg_server = Metrics.create () and reg_shadow = Metrics.create () in
  let with_registry r f =
    Metrics.set_default r;
    Fun.protect f ~finally:(fun () -> Metrics.set_default Metrics.null)
  in
  let sh = shadow () in
  let pass_latencies = ref [] in
  let handled = ref 0.0 and mismatches = ref 0 in
  let minor_words = ref 0.0 and majors = ref 0 in
  let hits = ref 0 and lookups = ref 0 and evictions = ref 0 in
  let retained = ref 0 and peak = ref 0.0 in
  let passes =
    Stats.passes ~seconds setup (fun pass ->
      Gc.full_major ();
      (* Held in a cell, so that dropping it frees the server. *)
      let cell =
        ref
          (Some
             (if not trace then Server.create ~config ()
              else begin
                with_registry reg_shadow (fun () -> sh.cache <- fresh_cache ());
                with_registry reg_server (fun () -> Server.create ~config ())
              end))
      in
      let server () = Option.get !cell in
      let out = ref "" and at = ref 0.0 in
      let sink =
        Service.Writer.of_sink (fun s ->
            at := Probe.now ();
            out := s)
      in
      let sent = Array.make count 0.0 and answered = Array.make count 0.0 in
      (* Latency runs from the call into [handle_line] until the response
         reaches the sink. *)
      let handle i req =
        let s = server () in
        sent.(i) <- Probe.now ();
        Server.handle_line s sink req.line;
        answered.(i) <- !at
      in
      let handle_traced req =
        with_registry reg_server (fun () ->
            let s = server () in
            let m0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
            let (), span = Probe.time (fun () -> Server.handle_line s sink req.line) in
            handled := !handled +. Probe.seconds span;
            minor_words := !minor_words +. (Gc.minor_words () -. m0);
            majors := !majors + (Gc.quick_stat ()).Gc.major_collections - g0)
      in
      let shadowed req = with_registry reg_shadow (fun () -> shadow_handle sh req) in
      Array.iteri
        (fun i req ->
          let before = Service.Writer.lines_written sink in
          if not trace then handle i req
          else begin
            (* Alternate which side goes first, so neither always runs
               on caches the other just warmed. *)
            let r =
              if i mod 2 = 0 then begin
                handle_traced req;
                shadowed req
              end
              else begin
                let r = shadowed req in
                handle_traced req;
                r
              end
            in
            if r <> !out then incr mismatches
          end;
          if Service.Writer.lines_written sink <> before + 1 then
            Report.fail v.checks "%s: expected one response line" req.id
          else verify w v ~pass i req !out)
        reqs;
      let cc = Server.cache_counters (server ()) in
      hits := !hits + cc.T.cache_hits;
      lookups := !lookups + cc.T.cache_hits + cc.T.cache_misses;
      evictions := !evictions + cc.T.cache_evictions;
      if pass = 0 then peak := Stats.heap_peak_mb ();
      if trace && pass = 0 then retained := Stats.retained_words cell;
      if pass > 0 && not trace then
        pass_latencies :=
          Array.init count (fun i -> Probe.seconds (Probe.span sent.(i) answered.(i)))
          :: !pass_latencies)
  in
  (* Every pass sends the same requests to a fresh server, and each
     request's time is read at nominal speed; its median over the timed
     passes filters out what the probe does not, the moments a busy
     machine slows one of them down. *)
  let lat =
    Array.init count (fun i ->
        Stats.median (Array.of_list (List.map (fun a -> a.(i)) !pass_latencies)))
  in
  let definitive =
    Array.fold_left
      (fun n a -> match a with Some { definitive = true; _ } -> n + 1 | _ -> n)
      0 v.answers
  in
  let attempted = passes * count in
  let ms p = 1e3 *. T.percentile lat ~p in
  let values =
    if not trace then
      [
        ("setup_s", Stats.setup_s setup);
        ("throughput", Stats.ratio (float_of_int (Array.length lat)) (Stats.sum lat));
        ("latency_p50_ms", 1e3 *. Stats.median lat);
        ("latency_p95_ms", ms 0.95);
        ("quality", float_of_int definitive /. float_of_int count);
        ("heap_peak_mb", !peak);
      ]
    else begin
      (* Times and counts are per pass; shares do not depend on it. *)
      let per_pass x = x /. float_of_int passes in
      let count x = per_pass (float_of_int x) in
      let wall = !handled in
      let spans = Stats.sum sh.spans in
      let share k = Stats.ratio sh.spans.(k) wall in
      let per_miss x = Stats.ratio (float_of_int x) (float_of_int sh.misses) in
      [
        ("ledger.wall_s", per_pass wall);
        ("ledger.coverage", Stats.ratio spans wall);
        ("ledger.response_mismatch", count !mismatches);
        ("server.glue_share", Stats.ratio (wall -. spans) wall);
        ("telemetry.parse_share", share l_parse);
        ("instance_io.parse_share", share l_io);
        ("canonical.share", share l_canon);
        ("canonical.incomplete", count sh.incomplete);
        ("result_cache.share", share l_cache);
        ("result_cache.hit_ratio", Stats.ratio (float_of_int !hits) (float_of_int !lookups));
        ("result_cache.evictions", count !evictions);
        ("problems.share", share l_problems);
        ("problems.probes_per_miss", per_miss sh.probes);
        ("problems.zero_node_share", per_miss sh.zero_node_misses);
        ("render.share", share l_render);
        ("opp_solver.nodes", count sh.nodes);
        ("opp_solver.nodes_per_s", Stats.ratio (float_of_int sh.nodes) sh.spans.(l_problems));
        ("opp_solver.budget_hits", count sh.budget_hits);
        ("gc.minor_mb_per_op", Stats.mb_of_words !minor_words /. float_of_int attempted);
        ("gc.major_collections", count !majors);
        ("server.retained_mb", Stats.mb_of_words (float_of_int !retained));
      ]
      @ List.map (fun (k, v) -> (k, per_pass v)) (counts_of (Metrics.snapshot reg_server))
    end
  in
  Report.outcome ~attempted v.checks ~counts:[ ("requests", count); ("passes", passes) ] values
