(* Tests for the placement service: the canonicalizer is invariant
   under task relabeling and preserves the optimum, the result cache
   replays byte-identical responses at zero solver nodes, the JSONL
   loop survives malformed and over-budget requests, and concurrent
   workers never splice heartbeat lines. *)

module T = Packing.Telemetry
module Instance = Packing.Instance
module Solver = Packing.Opp_solver
module Problems = Packing.Problems
module Container = Geometry.Container
module Placement = Geometry.Placement
module Canonical = Service.Canonical
module Server = Service.Server
module Writer = Service.Writer
module M = Packing.Metrics

let seed = [| 0x5E55; 2026 |]

(* ------------------------------------------------------------------ *)
(* Helpers: random instances, relabelings, request lines               *)
(* ------------------------------------------------------------------ *)

let random_perm rng n =
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  perm

(* Relabel [inst] by a random permutation: box/label [k] of the result
   is box/label [perm.(k)] of the input, arcs mapped through the
   inverse. Same isomorphism class by construction. *)
let permute_instance rng inst =
  let n = Instance.count inst in
  let perm = random_perm rng n in
  let boxes = Array.init n (fun k -> Instance.box inst perm.(k)) in
  let labels = Array.init n (fun k -> Instance.label inst perm.(k)) in
  let pos = Array.make n 0 in
  Array.iteri (fun k o -> pos.(o) <- k) perm;
  let orders =
    List.init (Instance.dim inst) (fun k ->
        ( k,
          List.map
            (fun (u, v) -> (pos.(u), pos.(v)))
            (Order.Partial_order.relations (Instance.order inst k)) ))
  in
  Instance.make ~name:(Instance.name inst) ~labels ~orders
    ~objective_axis:(Instance.objective_axis inst) ~boxes ()

(* [inst] plus one extra arc on [axis], everything else unchanged. *)
let with_order_arc inst ~axis (u, v) =
  let n = Instance.count inst in
  let orders =
    (axis, [ (u, v) ])
    :: List.init (Instance.dim inst) (fun k ->
           (k, Order.Partial_order.relations (Instance.order inst k)))
  in
  Instance.make ~name:(Instance.name inst)
    ~labels:(Array.init n (Instance.label inst))
    ~orders
    ~objective_axis:(Instance.objective_axis inst)
    ~boxes:(Instance.boxes inst) ()

let arb_case =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* n = int_range 2 6 in
      let* max_extent = int_range 1 3 in
      let* max_duration = int_range 1 3 in
      let* arc_probability = oneofl [ 0.0; 0.25; 0.5 ] in
      let* shuffle_seed = int_range 0 1_000_000 in
      return (seed, n, max_extent, max_duration, arc_probability, shuffle_seed))
  in
  QCheck.make gen ~print:(fun (seed, n, me, md, ap, ss) ->
      Printf.sprintf
        "seed=%d n=%d max_extent=%d max_duration=%d arcs=%.2f shuffle=%d" seed
        n me md ap ss)

let case_instance (seed, n, max_extent, max_duration, arc_probability, _) =
  Benchmarks.Generate.random ~seed ~n ~max_extent ~max_duration
    ~arc_probability ()

let case_rng (_, _, _, _, _, shuffle_seed) =
  Random.State.make [| shuffle_seed |]

let request_line ~id ~op ?chip ?time ?node_limit inst =
  let io =
    { Fpga.Instance_io.instance = inst; chip = None; t_max = None; container = None }
  in
  T.to_string
    (T.Obj
       ([
          ("id", T.String id);
          ("op", T.String op);
          ("instance", T.String (Fpga.Instance_io.print io));
        ]
       @ (match chip with
         | Some (w, h) -> [ ("chip", T.List [ T.Int w; T.Int h ]) ]
         | None -> [])
       @ (match time with Some t -> [ ("time", T.Int t) ] | None -> [])
       @
       match node_limit with
       | Some n -> [ ("node_limit", T.Int n) ]
       | None -> []))

let instance_of_text text =
  (Fpga.Instance_io.parse text).Fpga.Instance_io.instance

let parse_json line =
  match T.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable line %S: %s" line e

let response_id j =
  match T.member "id" j with
  | Some (T.String s) -> Some s
  | _ -> None

let str_field name j =
  match Option.bind (T.member name j) T.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "missing %S in %s" name (T.to_string j)

(* ------------------------------------------------------------------ *)
(* Canonicalizer soundness                                             *)
(* ------------------------------------------------------------------ *)

let prop_canonical_relabeling_invariant case =
  let inst = case_instance case in
  let rng = case_rng case in
  let a = Canonical.of_instance inst in
  let b = Canonical.of_instance (permute_instance rng inst) in
  if a.Canonical.key <> b.Canonical.key then
    QCheck.Test.fail_reportf "keys differ:\n%s\n%s" a.Canonical.key
      b.Canonical.key;
  if a.Canonical.digest <> b.Canonical.digest then
    QCheck.Test.fail_report "digests differ for equal keys";
  (* equal keys must mean structurally identical representatives *)
  let ia = a.Canonical.instance and ib = b.Canonical.instance in
  Instance.boxes ia = Instance.boxes ib
  && Order.Partial_order.relations (Instance.precedence ia)
     = Order.Partial_order.relations (Instance.precedence ib)

(* Satellite of the per-axis order refactor: the cache key must see
   spatial orders. Instances that differ only in an order on a
   non-time axis — or carry the same arc on different axes — must
   never collide, while relabeling invariance still holds for the
   spatially-ordered instance. *)
let prop_spatial_order_distinguishes_key case =
  let inst = case_instance case in
  let n = Instance.count inst in
  QCheck.assume (n >= 2);
  let rng = case_rng case in
  let u = Random.State.int rng n in
  let v = (u + 1 + Random.State.int rng (n - 1)) mod n in
  let base = Canonical.of_instance inst in
  let ax0_inst = with_order_arc inst ~axis:0 (u, v) in
  let ax0 = Canonical.of_instance ax0_inst in
  let ax1 = Canonical.of_instance (with_order_arc inst ~axis:1 (u, v)) in
  if base.Canonical.key = ax0.Canonical.key then
    QCheck.Test.fail_reportf "axis-0 arc %d->%d invisible to the key" u v;
  if base.Canonical.key = ax1.Canonical.key then
    QCheck.Test.fail_reportf "axis-1 arc %d->%d invisible to the key" u v;
  if ax0.Canonical.key = ax1.Canonical.key then
    QCheck.Test.fail_reportf "arc %d->%d on axis 0 collides with axis 1" u v;
  let relabeled = Canonical.of_instance (permute_instance rng ax0_inst) in
  if relabeled.Canonical.key <> ax0.Canonical.key then
    QCheck.Test.fail_report
      "relabeling changed the key of a spatially-ordered instance";
  true

let prop_canonical_optimum_preserved case =
  let inst = case_instance case in
  let canon = (Canonical.of_instance inst).Canonical.instance in
  let value = function
    | Problems.Optimal { Problems.value; _ } -> Some value
    | Problems.Infeasible -> None
    | r ->
      QCheck.Test.fail_reportf "unbudgeted minimize_time returned %s"
        (Problems.status_string r)
  in
  let vo = value (Problems.minimize_time inst ~w:6 ~h:6) in
  let vc = value (Problems.minimize_time canon ~w:6 ~h:6) in
  if vo <> vc then
    QCheck.Test.fail_reportf "optimum changed under canonicalization: %s vs %s"
      (match vo with Some v -> string_of_int v | None -> "infeasible")
      (match vc with Some v -> string_of_int v | None -> "infeasible");
  true

let prop_restore_placement_feasible case =
  let inst = case_instance case in
  let c = Canonical.of_instance inst in
  let t_max = Instance.total_duration inst in
  let container = Container.make3 ~w:6 ~h:6 ~t_max in
  match Solver.solve c.Canonical.instance container with
  | Solver.Feasible p, _ ->
    let restored = Canonical.restore_placement c ~original:inst p in
    Placement.is_feasible restored ~container
      ~precedes:(Instance.precedes inst)
  | (Solver.Infeasible | Solver.Timeout), _ -> true

(* ------------------------------------------------------------------ *)
(* Canonicalizer against its reference copy                            *)
(* ------------------------------------------------------------------ *)

(* Either a random instance of dimension 2..4 with orders on any axes
   and any objective axis, or a member of a symmetric family (FIR,
   butterfly, chain, independent, even cycles); both are relabeled
   before canonicalization. *)
type diff_case =
  | Random_case of {
      seed : int;
      dim : int;
      n : int;
      max_extent : int;
      arc_probability : float;
      objective_axis : int;
      shuffle : int;
    }
  | Family of string * int * int (* family, size, shuffle seed *)

(* Height-2 orders whose comparability graph is a union of even cycles
   (lengths drawn from [seed]). Colour refinement gives every minimal
   task one colour and every maximal task another, though tasks on
   cycles of different lengths lie in different orbits: the tie-break
   search, not refinement, has to tell them apart. *)
let cycles_instance ~seed m =
  let rng = Random.State.make [| seed |] in
  let arcs = ref [] in
  let rec parts start left =
    if left >= 2 then begin
      let k = 2 + Random.State.int rng (left - 1) in
      let k = if k = left - 1 then left else k in
      for i = 0 to k - 1 do
        arcs :=
          (start + i, m + start + i)
          :: (start + i, m + start + ((i + 1) mod k))
          :: !arcs
      done;
      parts (start + k) (left - k)
    end
  in
  parts 0 m;
  Instance.make ~precedence:!arcs
    ~boxes:(Array.make (2 * m) (Geometry.Box.make3 ~w:1 ~h:1 ~duration:1))
    ()

let family_instance ~seed name size =
  match name with
  | "cycles" -> cycles_instance ~seed size
  | "fir" -> Benchmarks.Dfg.fir ~taps:size
  | "butterfly" -> Benchmarks.Dfg.butterfly ~stages:size
  | "chain" -> Benchmarks.Dfg.chain ~length:size
  | _ -> Benchmarks.Dfg.independent ~n:size

let arb_diff_case =
  let gen =
    QCheck.Gen.(
      let random =
        let* seed = int_range 0 1_000_000 in
        let* dim = int_range 2 4 in
        let* n = int_range 1 10 in
        let* max_extent = int_range 1 3 in
        let* arc_probability = oneofl [ 0.0; 0.1; 0.25; 0.5 ] in
        let* objective_axis = int_range 0 (dim - 1) in
        let* shuffle = int_range 0 1_000_000 in
        return
          (Random_case
             { seed; dim; n; max_extent; arc_probability; objective_axis; shuffle })
      in
      let family =
        let* name, size =
          oneof
            [
              map (fun k -> ("fir", k)) (int_range 1 12);
              map (fun k -> ("butterfly", k)) (int_range 1 3);
              map (fun k -> ("chain", k)) (int_range 1 12);
              map (fun k -> ("independent", k)) (int_range 1 20);
              map (fun k -> ("cycles", k)) (int_range 2 9);
            ]
        in
        let* shuffle = int_range 0 1_000_000 in
        return (Family (name, size, shuffle))
      in
      frequency [ (3, random); (1, family) ])
  in
  QCheck.make gen ~print:(function
    | Random_case c ->
      Printf.sprintf "seed=%d dim=%d n=%d max_extent=%d arcs=%.2f objective=%d shuffle=%d"
        c.seed c.dim c.n c.max_extent c.arc_probability c.objective_axis c.shuffle
    | Family (name, size, shuffle) ->
      Printf.sprintf "%s %d shuffle=%d" name size shuffle)

(* The random case's arcs: each forward pair (i, j), i < j, on each axis
   with the given probability, so every axis carries an acyclic order. *)
let diff_instance = function
  | Family (name, size, shuffle) ->
    permute_instance (Random.State.make [| shuffle |])
      (family_instance ~seed:shuffle name size)
  | Random_case c ->
    let base =
      Benchmarks.Generate.random ~dim:c.dim ~seed:c.seed ~n:c.n
        ~max_extent:c.max_extent ~max_duration:c.max_extent ~arc_probability:0.0 ()
    in
    let rng = Random.State.make [| c.seed |] in
    let orders =
      List.init c.dim (fun k ->
          let arcs = ref [] in
          for i = 0 to c.n - 1 do
            for j = i + 1 to c.n - 1 do
              if Random.State.float rng 1.0 < c.arc_probability then
                arcs := (i, j) :: !arcs
            done
          done;
          (k, !arcs))
    in
    permute_instance (Random.State.make [| c.shuffle |])
      (Instance.make ~orders ~objective_axis:c.objective_axis
         ~boxes:(Instance.boxes base) ())

(* Wherever the reference finishes its search, the key, digest, perm and
   canonical instance are the same, and so is the flag. *)
let prop_matches_reference case =
  let inst = diff_instance case in
  let r = Canonical_reference.of_instance inst in
  let c = Canonical.of_instance inst in
  QCheck.assume r.Canonical_reference.complete;
  let differ what = QCheck.Test.fail_reportf "%s differs from the reference" what in
  if c.Canonical.key <> r.Canonical_reference.key then
    QCheck.Test.fail_reportf "key differs:\n%s\nreference %s" c.Canonical.key
      r.Canonical_reference.key;
  if c.Canonical.digest <> r.Canonical_reference.digest then differ "digest";
  if c.Canonical.perm <> r.Canonical_reference.perm then differ "perm";
  if not c.Canonical.complete then differ "complete";
  let ic = c.Canonical.instance and ir = r.Canonical_reference.instance in
  if Instance.boxes ic <> Instance.boxes ir then differ "boxes";
  for k = 0 to Instance.dim ir - 1 do
    if Order.Partial_order.relations (Instance.order ic k)
       <> Order.Partial_order.relations (Instance.order ir k)
    then differ (Printf.sprintf "axis %d order" k)
  done;
  if Instance.name ic <> Instance.name ir
     || Instance.objective_axis ic <> Instance.objective_axis ir
     || List.init (Instance.count ir) (Instance.label ic)
        <> List.init (Instance.count ir) (Instance.label ir)
  then differ "name, objective axis or labels";
  true

(* A 63-task FIR filter: an adder tree with 2^31 automorphisms. Orbit
   pruning finishes the search well inside the work budget, so two
   relabelings share a key. *)
let test_fir32_complete () =
  let inst = Benchmarks.Dfg.fir ~taps:32 in
  let a = Canonical.of_instance (permute_instance (Random.State.make [| 1 |]) inst) in
  let b = Canonical.of_instance (permute_instance (Random.State.make [| 2 |]) inst) in
  Alcotest.(check bool) "first relabeling complete" true a.Canonical.complete;
  Alcotest.(check bool) "second relabeling complete" true b.Canonical.complete;
  Alcotest.(check string) "relabelings share a key" a.Canonical.key b.Canonical.key

(* A 6-stage butterfly (576 tasks) runs out of the work budget: its key
   is sound but not canonical, so relabelings may miss the cache, yet
   they answer alike. *)
let test_butterfly6_budgeted () =
  let inst = Benchmarks.Dfg.butterfly ~stages:6 in
  Alcotest.(check bool) "incomplete" false
    (Canonical.of_instance inst).Canonical.complete;
  let server = Server.create () in
  let events = Writer.of_sink (fun _ -> ()) in
  let answer seed =
    let r, _ =
      Server.handle_request server events
        (parse_json
           (request_line ~id:"b6" ~op:"solve" ~chip:(32, 32) ~time:110
              (permute_instance (Random.State.make [| seed |]) inst)))
    in
    str_field "status" r
  in
  let first = answer 1 in
  Alcotest.(check string) "relabelings answer alike" first (answer 2);
  Alcotest.(check string) "heuristic witness" "feasible" first

(* The digest names a key in logs and metrics: its bytes are pinned. *)
let test_digest_pinned () =
  let c = Canonical.of_instance (Benchmarks.Dfg.chain ~length:3) in
  Alcotest.(check string) "key" "3d3o2|16,1,1,|16,16,2,|16,16,2,@2;0>1;2>0;2>1"
    c.Canonical.key;
  Alcotest.(check string) "digest" "2b2d1abb8309995c" c.Canonical.digest;
  Alcotest.(check string) "DE digest" "1670cdb679d67e71"
    (Canonical.of_instance Benchmarks.De.instance).Canonical.digest

(* ------------------------------------------------------------------ *)
(* Cache correctness: byte-identical warm replay, exact hit counts     *)
(* ------------------------------------------------------------------ *)

(* A shuffled stream mixing unique instances with permuted duplicates.
   Returns the request lines plus the number of requests that share an
   earlier request's cache identity (computed with the same
   canonicalizer, so accidental isomorphisms between "unique" instances
   are counted correctly, not guessed). *)
let duplicate_stream case =
  let rng = case_rng case in
  let uniques =
    List.init 3 (fun i ->
        let seed, n, me, md, ap, _ = case in
        Benchmarks.Generate.random
          ~seed:(seed + (7919 * (i + 1)))
          ~n ~max_extent:me ~max_duration:md ~arc_probability:ap ())
  in
  let base = case_instance case in
  let dups = List.init 3 (fun _ -> permute_instance rng base) in
  let insts = Array.of_list (uniques @ (base :: dups)) in
  for i = Array.length insts - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = insts.(i) in
    insts.(i) <- insts.(j);
    insts.(j) <- tmp
  done;
  let seen = Hashtbl.create 8 in
  let expected_hits = ref 0 in
  Array.iter
    (fun inst ->
      (* op and chip are fixed, so cache identity varies only with the
         canonical key and the per-instance time budget *)
      let k =
        ((Canonical.of_instance inst).Canonical.key,
         Instance.total_duration inst)
      in
      if Hashtbl.mem seen k then incr expected_hits else Hashtbl.add seen k ())
    insts;
  let lines =
    Array.to_list
      (Array.mapi
         (fun i inst ->
           request_line ~id:(Printf.sprintf "r%d" i) ~op:"solve" ~chip:(8, 8)
             ~time:(Instance.total_duration inst) inst)
         insts)
  in
  (lines, !expected_hits)

let run_stream ~cache_capacity lines =
  let config = { Server.default_config with Server.cache_capacity } in
  let server = Server.create ~config () in
  let responses = Hashtbl.create 16 in
  let w =
    Writer.of_sink (fun line ->
        match response_id (parse_json line) with
        | Some id -> Hashtbl.replace responses id line
        | None -> Alcotest.failf "response without id: %s" line)
  in
  List.iter (fun l -> Server.handle_line server w l) lines;
  (responses, Server.cache_counters server)

let prop_warm_replay_byte_identical case =
  let lines, expected_hits = duplicate_stream case in
  let cold, _ = run_stream ~cache_capacity:0 lines in
  let warm, counters =
    run_stream ~cache_capacity:Server.default_config.cache_capacity lines
  in
  if Hashtbl.length cold <> Hashtbl.length warm then
    QCheck.Test.fail_reportf "response counts differ: %d cold vs %d warm"
      (Hashtbl.length cold) (Hashtbl.length warm);
  Hashtbl.iter
    (fun id cold_line ->
      match Hashtbl.find_opt warm id with
      | Some warm_line when String.equal cold_line warm_line -> ()
      | Some warm_line ->
        QCheck.Test.fail_reportf "response for %s differs:\ncold %s\nwarm %s"
          id cold_line warm_line
      | None -> QCheck.Test.fail_reportf "no warm response for %s" id)
    cold;
  if counters.T.cache_hits <> expected_hits then
    QCheck.Test.fail_reportf "expected %d cache hits, counted %d"
      expected_hits counters.T.cache_hits;
  true

(* The acceptance-criterion test: an isomorphic duplicate of an already
   answered request is served from the cache at zero solver nodes, with
   the exact response a cold solve would have produced. *)
let test_hit_path_zero_nodes () =
  let rng = Random.State.make [| 42 |] in
  let inst = Benchmarks.De.instance in
  let server = Server.create () in
  let events = Writer.of_sink (fun _ -> ()) in
  let req inst = parse_json (request_line ~id:"q" ~op:"min-time" ~chip:(17, 17) inst) in
  let r1, m1 = Server.handle_request server events (req inst) in
  let r2, m2 = Server.handle_request server events (req (permute_instance rng inst)) in
  Alcotest.(check bool) "first request misses" false m1.Server.cache_hit;
  Alcotest.(check bool) "first request searches" true (m1.Server.nodes > 0);
  Alcotest.(check bool) "isomorphic duplicate hits" true m2.Server.cache_hit;
  Alcotest.(check int) "hit path costs zero solver nodes" 0 m2.Server.nodes;
  Alcotest.(check string) "same canonical digest" m1.Server.digest
    m2.Server.digest;
  (* both requests carry the duplicate's own labels only through the
     witness; with identical labels the rendered bytes must agree *)
  Alcotest.(check string) "status agrees" (str_field "status" r1)
    (str_field "status" r2);
  Alcotest.(check string) "objective agrees"
    (T.to_string (Option.get (T.member "value" r1)))
    (T.to_string (Option.get (T.member "value" r2)))

(* A request the old non-delay stage 2 left at 15 against a bound of 8:
   the node budget ran out before the search found the witness, so it
   answered [feasible] after the whole budget. Stage 2 now reaches the
   bound itself, and a relabeled copy replays the answer from the
   cache. *)
let test_stage2_settles_budget_plateau () =
  let inst, _ =
    Benchmarks.Generate.guillotine ~seed:876129386
      ~container:(Container.make3 ~w:8 ~h:8 ~t_max:8)
      ~cuts:10 ~arc_probability:0.3 ()
  in
  let server = Server.create () in
  let events = Writer.of_sink (fun _ -> ()) in
  let req inst =
    parse_json
      (request_line ~id:"u170" ~op:"min-time" ~chip:(8, 8) ~node_limit:25000
         inst)
  in
  let r1, m1 = Server.handle_request server events (req inst) in
  Alcotest.(check string) "optimal" "optimal" (str_field "status" r1);
  Alcotest.(check string) "at the root bound" "8"
    (T.to_string (Option.get (T.member "value" r1)));
  Alcotest.(check int) "no search nodes" 0 m1.Server.nodes;
  let rng = Random.State.make [| 170 |] in
  let r2, m2 = Server.handle_request server events (req (permute_instance rng inst)) in
  Alcotest.(check bool) "relabeled copy hits the cache" true m2.Server.cache_hit;
  (* The witness lists tasks in request order; each task keeps its
     position. *)
  let normalized r =
    T.to_string
      (T.Obj
         (List.map
            (function
              | "placement", T.List tasks ->
                ("placement", T.List (List.sort compare tasks))
              | field -> field)
            (match r with T.Obj fields -> fields | _ -> [])))
  in
  Alcotest.(check string) "same response" (normalized r1) (normalized r2)

(* ------------------------------------------------------------------ *)
(* End-to-end JSONL loop: malformed and over-budget requests           *)
(* ------------------------------------------------------------------ *)

let with_request_channel lines f =
  let path = Filename.temp_file "service_test" ".jsonl" in
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      Sys.remove path)
    (fun () -> f ic)

let test_server_loop_survives () =
  let de = Benchmarks.De.instance in
  let lines =
    [
      request_line ~id:"r1" ~op:"solve" ~chip:(17, 17) ~time:13 de;
      "";
      "# comments and blank lines are ignored";
      {|{"id":"bad", this is not json|};
      request_line ~id:"r2" ~op:"min-time" ~chip:(17, 17) de;
      request_line ~id:"r3" ~op:"solve" ~chip:(17, 17) ~time:12 ~node_limit:5
        de;
    ]
  in
  let out = ref [] in
  let w = Writer.of_sink (fun l -> out := l :: !out) in
  let server = Server.create () in
  with_request_channel lines (fun ic -> Server.serve_channel server w ic);
  let responses = List.rev_map parse_json !out in
  Alcotest.(check int) "one line per request, none for noise" 4
    (List.length responses);
  let by_id id =
    match
      List.find_opt (fun j -> response_id j = id) responses
    with
    | Some j -> j
    | None -> Alcotest.failf "no response for %s" (T.to_string (T.Obj []))
  in
  let parse_error =
    List.find_opt (fun j -> T.member "id" j = Some T.Null) responses
  in
  (match parse_error with
  | Some j ->
    let code =
      match Option.bind (T.member "error" j) (T.member "code") with
      | Some (T.String s) -> s
      | _ -> "?"
    in
    Alcotest.(check string) "malformed line gets a typed parse error"
      "parse" code
  | None -> Alcotest.fail "malformed line produced no error response");
  Alcotest.(check string) "solve at the optimum is feasible" "feasible"
    (str_field "status" (by_id (Some "r1")));
  let r2 = by_id (Some "r2") in
  Alcotest.(check string) "min-time is optimal" "optimal"
    (str_field "status" r2);
  Alcotest.(check int) "DE min-time optimum on 17x17" 13
    (match Option.bind (T.member "value" r2) T.to_int_opt with
    | Some v -> v
    | None -> -1);
  Alcotest.(check string) "over-budget request gets a typed undecided"
    "undecided"
    (str_field "status" (by_id (Some "r3")))

(* Extents whose product would wrap are a bad request, never an
   answer: the instance text, the chip field, and the chip together
   with the time budget each pass the shared volume check. *)
let test_volume_overflow_rejected () =
  let huge = 4611686018427387903 in
  let overflow =
    Printf.sprintf "container %d %d 10\nbox a %d %d 5\nbox b 3 3 5\n" huge
      huge huge huge
  in
  let de = Benchmarks.De.instance in
  let lines =
    [
      T.to_string
        (T.Obj
           [
             ("id", T.String "file");
             ("op", T.String "solve");
             ("instance", T.String overflow);
           ]);
      request_line ~id:"chip" ~op:"min-time" ~chip:(huge, 3) de;
      request_line ~id:"time" ~op:"solve" ~chip:(32, 32) ~time:huge de;
      request_line ~id:"ok" ~op:"solve" ~chip:(32, 32) ~time:14 de;
    ]
  in
  let out = ref [] in
  let w = Writer.of_sink (fun l -> out := l :: !out) in
  let server = Server.create () in
  List.iter (Server.handle_line server w) lines;
  let responses = List.rev_map parse_json !out in
  let by_id id =
    match List.find_opt (fun j -> response_id j = Some id) responses with
    | Some j -> j
    | None -> Alcotest.failf "no response for %s" id
  in
  List.iter
    (fun id ->
      let code =
        Option.bind (T.member "error" (by_id id)) (T.member "code")
      in
      Alcotest.(check bool)
        (id ^ " is a bad request") true
        (code = Some (T.String "bad-request")))
    [ "file"; "chip"; "time" ];
  Alcotest.(check string) "in-range sibling still solves" "feasible"
    (str_field "status" (by_id "ok"))

(* Each op resolves the parameters it needs, from the request or the
   instance text, before any work: [solve] checks the chip, then the
   time budget, then their volume; [min-time] needs only the chip and
   [min-area] only the time budget, and once that resolves, a request
   field for the extent the op minimizes is rejected. A rejected
   request still counts under its op. *)
let test_resolution_errors () =
  let inst = instance_of_text "task a 2 2 2\ntask b 1 1 1\n" in
  let huge = 1 lsl 40 in
  let cases =
    [
      ("solve", "neither", None, None);
      ("solve", "no chip", None, Some 5);
      ("solve", "no time", Some (4, 4), None);
      ("solve", "overflow", Some (4, 4), Some huge);
      ("min-time", "no chip", None, Some 5);
      ("min-time", "no time", Some (4, 4), None);
      ("min-time", "unused time", Some (4, 4), Some huge);
      ("min-area", "no chip", None, Some 5);
      ("min-area", "no time", Some (4, 4), None);
      ("min-area", "unused chip", Some (4, 4), Some huge);
    ]
  in
  let no_chip = "no chip: pass \"chip\":[w,h] or a chip line in the instance"
  and no_time =
    "no time budget: pass \"time\":t or a time line in the instance"
  and overflow = "extents 4x4x1099511627776: volume exceeds 2^40"
  and unused_time =
    "min-time takes no \"time\": the makespan is what it minimizes"
  and unused_chip =
    "min-area takes no \"chip\": the chip side is what it minimizes" in
  let expected =
    [
      no_chip; no_chip; no_time; overflow;
      no_chip; "optimal"; unused_time;
      "optimal"; no_time; unused_chip;
    ]
  in
  let out = ref [] in
  let w = Writer.of_sink (fun l -> out := l :: !out) in
  let server = Server.create () in
  List.iter
    (fun (op, case, chip, time) ->
      Server.handle_line server w
        (request_line ~id:(op ^ " " ^ case) ~op ?chip ?time inst))
    cases;
  List.iter2
    (fun (op, case, _, _) (expected, line) ->
      let j = parse_json line in
      let got =
        match Option.bind (T.member "error" j) (T.member "message") with
        | Some (T.String m) -> m
        | _ -> str_field "status" j
      in
      Alcotest.(check string) (op ^ " " ^ case) expected got)
    cases
    (List.combine expected (List.rev !out));
  Alcotest.(check string) "counted under their op"
    {|{"min-area":3,"min-time":3,"solve":4}|}
    (T.to_string (Option.get (T.member "ops" (Server.stats_json server))))

(* A solver-domain count the runtime cannot host is a bad request,
   rejected before anything is allocated, and the next request is still
   answered. A time limit that parses to infinity never expires: the
   min-time probes still reach the optimum. *)
let test_hostile_budgets () =
  let de = Benchmarks.De.instance in
  let with_field field line =
    String.sub line 0 (String.length line - 1) ^ "," ^ field ^ "}"
  in
  let lines =
    [
      with_field {|"jobs":1000000000|}
        (request_line ~id:"jobs" ~op:"min-time" ~chip:(17, 17) de);
      request_line ~id:"ok" ~op:"min-time" ~chip:(17, 17) de;
      with_field {|"time_limit_s":1e999|}
        (request_line ~id:"forever" ~op:"min-time" ~chip:(17, 17) de);
    ]
  in
  let out = ref [] in
  let w = Writer.of_sink (fun l -> out := l :: !out) in
  let server =
    Server.create ~config:{ Server.default_config with cache_capacity = 0 } ()
  in
  List.iter (Server.handle_line server w) lines;
  let responses = List.rev_map parse_json !out in
  let by_id id =
    match List.find_opt (fun j -> response_id j = Some id) responses with
    | Some j -> j
    | None -> Alcotest.failf "no response for %s" id
  in
  Alcotest.(check bool)
    "jobs 10^9 is a bad request" true
    (Option.bind (T.member "error" (by_id "jobs")) (T.member "code")
    = Some (T.String "bad-request"));
  List.iter
    (fun id ->
      let r = by_id id in
      Alcotest.(check string)
        (id ^ " is optimal") "optimal" (str_field "status" r);
      Alcotest.(check (option int))
        (id ^ " reaches the optimum") (Some 13)
        (Option.bind (T.member "value" r) T.to_int_opt))
    [ "ok"; "forever" ]

(* Hostile bytes: valid solve, min-time and min-area lines with a few
   bytes flipped, either in the instance text (the line stays valid
   JSON) or anywhere in the line past its opening brace (so it never
   turns into a blank or comment line). A capped server answers every
   one with exactly one parseable line carrying a status or a [parse] /
   [bad-request] error, and never raises. *)
let hostile_bases =
  let de = Benchmarks.De.instance and codec = Benchmarks.Video_codec.instance in
  [|
    ("solve", Some (17, 17), Some 14, de);
    ("min-time", Some (17, 17), None, de);
    ("min-area", None, Some 14, de);
    ("solve", Some (16, 16), Some 60, codec);
    ("min-time", Some (16, 16), None, codec);
    ("min-area", None, Some 60, codec);
  |]

let flip_bytes s flips ~from =
  let b = Bytes.of_string s in
  let span = Bytes.length b - from in
  List.iter
    (fun (pos, x) ->
      let i = from + (pos mod span) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x)))
    flips;
  Bytes.to_string b

let arb_hostile =
  let gen =
    QCheck.Gen.(
      triple
        (int_bound (Array.length hostile_bases - 1))
        bool
        (list_size (int_range 1 4) (pair nat (int_range 1 255))))
  in
  QCheck.make gen ~print:(fun (base, in_text, flips) ->
      Printf.sprintf "base %d, %s, flips [%s]" base
        (if in_text then "instance text" else "whole line")
        (String.concat "; "
           (List.map (fun (p, x) -> Printf.sprintf "%d^%d" p x) flips)))

let hostile_server =
  lazy
    (Server.create
       ~config:
         {
           Server.default_config with
           max_nodes = Some 2_000;
           max_time_s = Some 0.05;
         }
       ())

let prop_hostile_lines_answered (base, in_text, flips) =
  let op, chip, time, inst = hostile_bases.(base) in
  let line =
    if in_text then
      let io =
        { Fpga.Instance_io.instance = inst; chip = None; t_max = None; container = None }
      in
      let text = flip_bytes (Fpga.Instance_io.print io) flips ~from:0 in
      T.to_string
        (T.Obj
           ([ ("id", T.String "h"); ("op", T.String op); ("instance", T.String text) ]
           @ (match chip with
             | Some (w, h) -> [ ("chip", T.List [ T.Int w; T.Int h ]) ]
             | None -> [])
           @ match time with Some t -> [ ("time", T.Int t) ] | None -> []))
    else flip_bytes (request_line ~id:"h" ~op ?chip ?time inst) flips ~from:1
  in
  let out = ref [] in
  let w = Writer.of_sink (fun l -> out := l :: !out) in
  (match Server.handle_line (Lazy.force hostile_server) w line with
  | () -> ()
  | exception exn ->
    QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string exn) line);
  match !out with
  | [ resp ] -> (
    match T.of_string resp with
    | Error e -> QCheck.Test.fail_reportf "unparseable answer %S: %s" resp e
    | Ok j -> (
      match
        ( T.member "status" j,
          Option.bind (T.member "error" j) (T.member "code") )
      with
      | Some (T.String _), _ -> true
      | _, Some (T.String ("parse" | "bad-request")) -> true
      | _ -> QCheck.Test.fail_reportf "answer %s to %S" resp line))
  | lines ->
    QCheck.Test.fail_reportf "%d lines for %S" (List.length lines) line

(* ------------------------------------------------------------------ *)
(* Writer under concurrency: no spliced heartbeat lines                *)
(* ------------------------------------------------------------------ *)

let test_concurrent_heartbeats_not_interleaved () =
  let rng = Random.State.make [| 7 |] in
  let hard =
    Benchmarks.Generate.random ~seed:3 ~n:10 ~max_extent:4 ~max_duration:3
      ~arc_probability:0.15 ()
  in
  let lines =
    List.init 8 (fun i ->
        request_line
          ~id:(Printf.sprintf "r%d" i)
          ~op:"min-time" ~chip:(6, 6)
          (permute_instance rng hard))
  in
  let config =
    {
      Server.default_config with
      Server.jobs = 4;
      cache_capacity = 0 (* every worker must actually search and emit *);
      heartbeat_s = Some 0.0;
    }
  in
  let server = Server.create ~config () in
  let out = ref [] in
  let w = Writer.of_sink (fun l -> out := l :: !out) in
  with_request_channel lines (fun ic -> Server.serve_channel server w ic);
  let parsed = List.rev_map parse_json !out in
  let heartbeats =
    List.filter
      (fun j ->
        match T.member "ev" j with Some (T.String "heartbeat") -> true | _ -> false)
      parsed
  in
  Alcotest.(check bool)
    (Printf.sprintf "heartbeats were streamed (%d lines total)"
       (List.length parsed))
    true
    (List.length heartbeats > 0);
  let answered =
    List.filter (fun j -> T.member "status" j <> None) parsed
  in
  Alcotest.(check int) "every request answered" 8 (List.length answered)

(* Backpressure: with every handler stuck on a gated sink, the reader
   stops taking lines once the job queue is full, so a non-blocking
   writer on the input pipe soon gets EAGAIN for good. Released, the
   loop answers every line exactly once. *)
let test_serve_backpressure () =
  let n = 10_000 in
  let gate = Atomic.make false in
  let answered = Hashtbl.create n in
  let w =
    Writer.of_sink (fun l ->
        while not (Atomic.get gate) do
          Unix.sleepf 0.001
        done;
        let id = response_id (parse_json l) in
        Hashtbl.replace answered id
          (1 + Option.value (Hashtbl.find_opt answered id) ~default:0))
  in
  let server =
    Server.create ~config:{ Server.default_config with Server.jobs = 2 } ()
  in
  let rd, wr = Unix.pipe () in
  let ic = Unix.in_channel_of_descr rd in
  let loop = Domain.spawn (fun () -> Server.serve_channel server w ic) in
  let line i =
    Printf.sprintf "{\"id\":\"q%05d\",\"op\":\"none\",\"pad\":\"%s\"}\n" i
      (String.make 64 'x')
  in
  (* Write until the pipe has refused every line for half a second. *)
  Unix.set_nonblock wr;
  let written = ref 0 and stalled = ref false and refused_since = ref 0.0 in
  while !written < n && not !stalled do
    let l = line !written in
    match Unix.single_write_substring wr l 0 (String.length l) with
    | _ ->
      incr written;
      refused_since := 0.0
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      let now = Unix.gettimeofday () in
      if !refused_since = 0.0 then refused_since := now
      else if now -. !refused_since > 0.5 then stalled := true;
      Unix.sleepf 0.001
  done;
  let accepted_while_blocked = !written in
  Atomic.set gate true;
  Unix.clear_nonblock wr;
  for i = accepted_while_blocked to n - 1 do
    let l = line i in
    ignore (Unix.write_substring wr l 0 (String.length l))
  done;
  Unix.close wr;
  Domain.join loop;
  close_in ic;
  Alcotest.(check bool)
    (Printf.sprintf "reader stopped at %d of %d lines" accepted_while_blocked n)
    true
    (accepted_while_blocked < n / 2);
  Alcotest.(check int) "every line answered" n (Hashtbl.length answered);
  Alcotest.(check bool) "each exactly once" true
    (Hashtbl.fold (fun _ k ok -> ok && k = 1) answered true)

(* ------------------------------------------------------------------ *)
(* Metrics: the warm-cache run separates hit and miss populations      *)
(* ------------------------------------------------------------------ *)

let counter_total snap name =
  match List.find_opt (fun f -> f.M.name = name) snap with
  | None -> 0.0
  | Some f ->
    List.fold_left
      (fun acc s ->
        match s.M.value with M.Sample v -> acc +. v | M.Buckets _ -> acc)
      0.0 f.M.samples

let histogram_count snap name label =
  match List.find_opt (fun f -> f.M.name = name) snap with
  | None -> 0
  | Some f ->
    List.fold_left
      (fun acc s ->
        if List.mem label s.M.labels then
          match s.M.value with
          | M.Buckets { count; _ } -> acc + count
          | M.Sample _ -> acc
        else acc)
      0 f.M.samples

(* Three unique solves then two isomorphic duplicates: the cache must
   count exactly 2 hits and 3 misses, and the request-latency histogram
   must carry the same split under its cache=hit|miss label — the
   populations an operator would graph to see cache effectiveness. *)
let test_metrics_hit_miss_populations () =
  let registry = M.create () in
  M.set_default registry;
  Fun.protect ~finally:(fun () -> M.set_default M.null) @@ fun () ->
  let server = Server.create () in
  let rng = Random.State.make [| 11 |] in
  let insts =
    List.init 3 (fun i ->
        Benchmarks.Generate.random ~seed:(200 + i) ~n:5 ~max_extent:3
          ~max_duration:3 ~arc_probability:0.2 ())
  in
  let line id inst =
    request_line ~id ~op:"solve" ~chip:(8, 8)
      ~time:(Instance.total_duration inst)
      inst
  in
  let lines =
    List.mapi (fun i inst -> line (Printf.sprintf "u%d" i) inst) insts
    @
    match insts with
    | a :: b :: _ ->
      [ line "d0" (permute_instance rng a); line "d1" (permute_instance rng b) ]
    | _ -> assert false
  in
  let w = Writer.of_sink (fun _ -> ()) in
  List.iter (Server.handle_line server w) lines;
  let snap = M.snapshot registry in
  Alcotest.(check (float 0.0)) "exactly two cache hits" 2.0
    (counter_total snap "fpga_cache_hits_total");
  Alcotest.(check (float 0.0)) "exactly three cache misses" 3.0
    (counter_total snap "fpga_cache_misses_total");
  Alcotest.(check int) "hit latency population" 2
    (histogram_count snap "fpga_server_request_seconds" ("cache", "hit"));
  Alcotest.(check int) "miss latency population" 3
    (histogram_count snap "fpga_server_request_seconds" ("cache", "miss"));
  Alcotest.(check (float 0.0)) "five requests counted by op and status" 5.0
    (counter_total snap "fpga_server_requests_total");
  Alcotest.(check (float 0.0)) "no request left in flight" 0.0
    (counter_total snap "fpga_server_inflight_requests");
  (* the same accounting feeds stats_json's percentiles and op table *)
  let stats = Server.stats_json server in
  let latency =
    match T.member "latency" stats with
    | Some l -> l
    | None -> Alcotest.fail "stats_json has no latency record"
  in
  Alcotest.(check int) "latency sample count" 5
    (Option.value ~default:(-1)
       (Option.bind (T.member "samples" latency) T.to_int_opt));
  let pick name =
    match Option.bind (T.member name latency) T.to_float_opt with
    | Some v -> v
    | None -> Alcotest.failf "stats_json latency has no %s" name
  in
  Alcotest.(check bool) "p50 <= p99" true (pick "p50_s" <= pick "p99_s");
  (match Option.bind (T.member "ops" stats) (T.member "solve") with
  | Some (T.Int 5) -> ()
  | other ->
    Alcotest.failf "ops.solve = %s"
      (match other with Some j -> T.to_string j | None -> "absent"));
  (* the exposition must be well-formed by its own strict parser *)
  (match M.of_prometheus (Server.metrics_text ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "live exposition malformed: %s" e);
  (* and the metrics request op must answer with the same snapshot *)
  let captured = ref None in
  let wm = Writer.of_sink (fun l -> captured := Some l) in
  Server.handle_line server wm {|{"id":"m","op":"metrics"}|};
  match !captured with
  | None -> Alcotest.fail "metrics op produced no response"
  | Some l -> (
    let j = parse_json l in
    match Option.bind (T.member "metrics" j) T.to_string_opt with
    | None -> Alcotest.failf "no metrics string in %s" l
    | Some text -> (
      match M.of_prometheus text with
      | Error e -> Alcotest.failf "metrics op payload rejected: %s" e
      | Ok snap' ->
        Alcotest.(check (float 0.0)) "op snapshot agrees on hits" 2.0
          (counter_total snap' "fpga_cache_hits_total")))

(* [text] with the value of every sample measured in seconds replaced
   by [_]: request latency buckets and sums, and the seconds the solver
   spent in bounds and realizations. *)
let mask_timing text =
  let timed name =
    List.exists
      (fun suffix -> String.ends_with ~suffix name)
      [ "_seconds_bucket"; "_seconds_sum"; "_seconds_total" ]
  in
  String.split_on_char '\n' text
  |> List.map (fun l ->
         let name =
           match String.index_from_opt l 0 '{' with
           | Some i -> String.sub l 0 i
           | None -> (
             match String.index_opt l ' ' with
             | Some i -> String.sub l 0 i
             | None -> l)
         in
         if l <> "" && l.[0] <> '#' && timed name then
           String.sub l 0 (String.rindex l ' ') ^ " _"
         else l)
  |> String.concat "\n"

let pinned_exposition =
  {|# HELP fpga_bounds_calls_total Bound evaluations by bound
# TYPE fpga_bounds_calls_total counter
fpga_bounds_calls_total{bound="clique-space"} 3
fpga_bounds_calls_total{bound="clique-time"} 3
fpga_bounds_calls_total{bound="critical-path"} 3
fpga_bounds_calls_total{bound="dff-time"} 3
fpga_bounds_calls_total{bound="dff-volume"} 3
fpga_bounds_calls_total{bound="energetic"} 8
fpga_bounds_calls_total{bound="misfit"} 3
fpga_bounds_calls_total{bound="time-slice"} 3
fpga_bounds_calls_total{bound="volume"} 3
# HELP fpga_bounds_prunes_total Infeasible verdicts by bound
# TYPE fpga_bounds_prunes_total counter
fpga_bounds_prunes_total{bound="clique-space"} 0
fpga_bounds_prunes_total{bound="clique-time"} 0
fpga_bounds_prunes_total{bound="critical-path"} 0
fpga_bounds_prunes_total{bound="dff-time"} 0
fpga_bounds_prunes_total{bound="dff-volume"} 0
fpga_bounds_prunes_total{bound="energetic"} 0
fpga_bounds_prunes_total{bound="misfit"} 0
fpga_bounds_prunes_total{bound="time-slice"} 0
fpga_bounds_prunes_total{bound="volume"} 0
# HELP fpga_bounds_seconds_total Seconds spent evaluating each bound
# TYPE fpga_bounds_seconds_total counter
fpga_bounds_seconds_total{bound="clique-space"} _
fpga_bounds_seconds_total{bound="clique-time"} _
fpga_bounds_seconds_total{bound="critical-path"} _
fpga_bounds_seconds_total{bound="dff-time"} _
fpga_bounds_seconds_total{bound="dff-volume"} _
fpga_bounds_seconds_total{bound="energetic"} _
fpga_bounds_seconds_total{bound="misfit"} _
fpga_bounds_seconds_total{bound="time-slice"} _
fpga_bounds_seconds_total{bound="volume"} _
# HELP fpga_cache_capacity Result cache capacity
# TYPE fpga_cache_capacity gauge
fpga_cache_capacity 2
# HELP fpga_cache_entries Result cache live entries
# TYPE fpga_cache_entries gauge
fpga_cache_entries 2
# HELP fpga_cache_evictions_total Result cache evictions
# TYPE fpga_cache_evictions_total counter
fpga_cache_evictions_total 1
# HELP fpga_cache_hits_total Result cache hits
# TYPE fpga_cache_hits_total counter
fpga_cache_hits_total 2
# HELP fpga_cache_misses_total Result cache misses
# TYPE fpga_cache_misses_total counter
fpga_cache_misses_total 3
# HELP fpga_server_inflight_requests Requests currently being handled
# TYPE fpga_server_inflight_requests gauge
fpga_server_inflight_requests 0
# HELP fpga_server_request_seconds Request wall-clock latency
# TYPE fpga_server_request_seconds histogram
fpga_server_request_seconds_bucket{cache="hit",le="1e-05"} _
fpga_server_request_seconds_bucket{cache="hit",le="2e-05"} _
fpga_server_request_seconds_bucket{cache="hit",le="4e-05"} _
fpga_server_request_seconds_bucket{cache="hit",le="8e-05"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.00016"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.00032"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.00064"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.00128"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.00256"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.00512"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.01024"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.02048"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.04096"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.08192"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.16384"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.32768"} _
fpga_server_request_seconds_bucket{cache="hit",le="0.65536"} _
fpga_server_request_seconds_bucket{cache="hit",le="1.31072"} _
fpga_server_request_seconds_bucket{cache="hit",le="2.62144"} _
fpga_server_request_seconds_bucket{cache="hit",le="5.24288"} _
fpga_server_request_seconds_bucket{cache="hit",le="10.48576"} _
fpga_server_request_seconds_bucket{cache="hit",le="20.97152"} _
fpga_server_request_seconds_bucket{cache="hit",le="41.94304"} _
fpga_server_request_seconds_bucket{cache="hit",le="83.88608"} _
fpga_server_request_seconds_bucket{cache="hit",le="+Inf"} _
fpga_server_request_seconds_sum{cache="hit"} _
fpga_server_request_seconds_count{cache="hit"} 2
fpga_server_request_seconds_bucket{cache="miss",le="1e-05"} _
fpga_server_request_seconds_bucket{cache="miss",le="2e-05"} _
fpga_server_request_seconds_bucket{cache="miss",le="4e-05"} _
fpga_server_request_seconds_bucket{cache="miss",le="8e-05"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.00016"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.00032"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.00064"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.00128"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.00256"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.00512"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.01024"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.02048"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.04096"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.08192"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.16384"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.32768"} _
fpga_server_request_seconds_bucket{cache="miss",le="0.65536"} _
fpga_server_request_seconds_bucket{cache="miss",le="1.31072"} _
fpga_server_request_seconds_bucket{cache="miss",le="2.62144"} _
fpga_server_request_seconds_bucket{cache="miss",le="5.24288"} _
fpga_server_request_seconds_bucket{cache="miss",le="10.48576"} _
fpga_server_request_seconds_bucket{cache="miss",le="20.97152"} _
fpga_server_request_seconds_bucket{cache="miss",le="41.94304"} _
fpga_server_request_seconds_bucket{cache="miss",le="83.88608"} _
fpga_server_request_seconds_bucket{cache="miss",le="+Inf"} _
fpga_server_request_seconds_sum{cache="miss"} _
fpga_server_request_seconds_count{cache="miss"} 6
# HELP fpga_server_request_solver_nodes Solver nodes spent per request
# TYPE fpga_server_request_solver_nodes histogram
fpga_server_request_solver_nodes_bucket{le="1"} 0
fpga_server_request_solver_nodes_bucket{le="4"} 0
fpga_server_request_solver_nodes_bucket{le="16"} 2
fpga_server_request_solver_nodes_bucket{le="64"} 3
fpga_server_request_solver_nodes_bucket{le="256"} 3
fpga_server_request_solver_nodes_bucket{le="1024"} 3
fpga_server_request_solver_nodes_bucket{le="4096"} 3
fpga_server_request_solver_nodes_bucket{le="16384"} 3
fpga_server_request_solver_nodes_bucket{le="65536"} 3
fpga_server_request_solver_nodes_bucket{le="262144"} 3
fpga_server_request_solver_nodes_bucket{le="1048576"} 3
fpga_server_request_solver_nodes_bucket{le="4194304"} 3
fpga_server_request_solver_nodes_bucket{le="+Inf"} 3
fpga_server_request_solver_nodes_sum 41
fpga_server_request_solver_nodes_count 3
# HELP fpga_server_requests_total Requests by op and status
# TYPE fpga_server_requests_total counter
fpga_server_requests_total{op="invalid",status="error"} 1
fpga_server_requests_total{op="metrics",status="ok"} 1
fpga_server_requests_total{op="solve",status="error"} 1
fpga_server_requests_total{op="solve",status="ok"} 5
# HELP fpga_solver_conflicts_total Search conflicts (refuted nodes)
# TYPE fpga_solver_conflicts_total counter
fpga_solver_conflicts_total 13
# HELP fpga_solver_decisions_total Branch points expanded
# TYPE fpga_solver_decisions_total counter
fpga_solver_decisions_total 39
# HELP fpga_solver_leaves_total Fully decided leaves reached
# TYPE fpga_solver_leaves_total counter
fpga_solver_leaves_total 2
# HELP fpga_solver_nodes_total Search nodes visited
# TYPE fpga_solver_nodes_total counter
fpga_solver_nodes_total 41
# HELP fpga_solver_realize_attempts_total Realization (placement reconstruction) attempts
# TYPE fpga_solver_realize_attempts_total counter
fpga_solver_realize_attempts_total 2
# HELP fpga_solver_realize_seconds_total Seconds spent in realization attempts
# TYPE fpga_solver_realize_seconds_total counter
fpga_solver_realize_seconds_total _
# HELP fpga_solver_rule_conflicts_total Packing-rule conflicts by rule
# TYPE fpga_solver_rule_conflicts_total counter
fpga_solver_rule_conflicts_total{rule="c2"} 11
fpga_solver_rule_conflicts_total{rule="c3"} 0
fpga_solver_rule_conflicts_total{rule="c4"} 0
fpga_solver_rule_conflicts_total{rule="capacity"} 2
fpga_solver_rule_conflicts_total{rule="implications"} 0
fpga_solver_rule_conflicts_total{rule="symmetry"} 0
|}

(* Small solves that reach the search, each definitive. *)
let searching_solves =
  [
    ( "task t0 2 3 2\ntask t1 2 1 1\ntask t2 1 2 3\ntask t3 2 2 2\n\
       task t4 2 1 1\ntask t5 1 2 1\ndep t1 t3\ndep t3 t4\n",
      (4, 4), 4 );
    ( "task t0 1 3 2\ntask t1 3 1 2\ntask t2 2 3 1\ntask t3 2 2 3\n\
       task t4 3 1 2\ndep t0 t1\ndep t0 t4\n",
      (3, 3), 5 );
    ( "task t0 2 2 1\ntask t1 2 2 2\ntask t2 3 1 3\ntask t3 2 1 2\n",
      (3, 3), 4 );
  ]

(* The whole exposition after a fixed mix on a two-entry cache: three
   unique solves that each search a few nodes (the third evicts the
   first), isomorphic repeats of the two still cached (two hits), a
   solve with no chip (a bad request), a line that is not JSON, and a
   metrics request. Every family, help text, label set and value is
   pinned, apart from the values measured in seconds. *)
let test_exposition_pinned () =
  let registry = M.create () in
  M.set_default registry;
  Fun.protect ~finally:(fun () -> M.set_default M.null) @@ fun () ->
  let server =
    Server.create ~config:{ Server.default_config with cache_capacity = 2 } ()
  in
  let rng = Random.State.make [| 12 |] in
  let solve ?(relabel = false) ?(no_chip = false) id (text, chip, time) =
    let inst = instance_of_text text in
    let inst = if relabel then permute_instance rng inst else inst in
    let chip = if no_chip then None else Some chip in
    request_line ~id ~op:"solve" ?chip ~time inst
  in
  let lines =
    List.mapi (fun i s -> solve (Printf.sprintf "u%d" i) s) searching_solves
    @ (match searching_solves with
      | [ a; b; c ] ->
        [
          solve ~relabel:true "d2" c;
          solve ~relabel:true "d1" b;
          solve ~no_chip:true "nochip" a;
        ]
      | _ -> assert false)
    @ [ "this is not json"; {|{"id":"m","op":"metrics"}|} ]
  in
  let w = Writer.of_sink (fun _ -> ()) in
  List.iter (Server.handle_line server w) lines;
  let text = mask_timing (Server.metrics_text ()) in
  Alcotest.(check string) "exposition" pinned_exposition text

(* Four workers over relabeled copies of three searching solves on a
   two-entry cache: whatever order the workers take, once the stream
   ends the registry holds exactly the cache's own counters, and every
   request is counted once by op and status. *)
let test_cache_counters_concurrent () =
  let registry = M.create () in
  M.set_default registry;
  Fun.protect ~finally:(fun () -> M.set_default M.null) @@ fun () ->
  let server =
    Server.create
      ~config:{ Server.default_config with jobs = 4; cache_capacity = 2 }
      ()
  in
  let rng = Random.State.make [| 13 |] in
  let lines =
    List.concat
      (List.init 4 (fun round ->
           List.mapi
             (fun i (text, chip, time) ->
               request_line
                 ~id:(Printf.sprintf "r%d-%d" round i)
                 ~op:"solve" ~chip ~time
                 (permute_instance rng (instance_of_text text)))
             searching_solves))
    @ [ "not json"; {|{"id":"m","op":"metrics"}|} ]
  in
  let w = Writer.of_sink (fun _ -> ()) in
  with_request_channel lines (fun ic -> Server.serve_channel server w ic);
  let snap = M.snapshot registry in
  let c = Server.cache_counters server in
  List.iter
    (fun (family, expected) ->
      Alcotest.(check (float 0.0)) family (float_of_int expected)
        (counter_total snap family))
    [
      ("fpga_cache_hits_total", c.T.cache_hits);
      ("fpga_cache_misses_total", c.T.cache_misses);
      ("fpga_cache_evictions_total", c.T.cache_evictions);
      ("fpga_cache_entries", c.T.cache_entries);
    ];
  Alcotest.(check int) "every line reached the cache or an error"
    (List.length lines)
    (c.T.cache_hits + c.T.cache_misses + 2);
  Alcotest.(check (option int)) "requests_total sums to stats_json requests"
    (Option.bind (T.member "requests" (Server.stats_json server)) T.to_int_opt)
    (Some (int_of_float (counter_total snap "fpga_server_requests_total")))

(* A long-running loop keeps only the latest 65,536 latency samples:
   ten requests past the window still count as requests, but the
   percentile record stops growing. *)
let test_latency_window_bounded () =
  let server = Server.create () in
  let w = Writer.of_sink (fun _ -> ()) in
  for _ = 1 to 65_546 do
    Server.handle_line server w "not json"
  done;
  let stats = Server.stats_json server in
  let int_at path =
    Option.value ~default:(-1)
      (Option.bind
         (List.fold_left
            (fun j k -> Option.bind j (T.member k))
            (Some stats) path)
         T.to_int_opt)
  in
  Alcotest.(check int) "requests" 65_546 (int_at [ "requests" ]);
  Alcotest.(check int) "latency samples" 65_536
    (int_at [ "latency"; "samples" ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service"
    [
      ( "canonical",
        [
          Fixed_seed.qtest ~seed ~count:100 "key invariant under relabeling"
            arb_case prop_canonical_relabeling_invariant;
          Fixed_seed.qtest ~seed ~count:100 "spatial orders distinguish keys"
            arb_case prop_spatial_order_distinguishes_key;
          Fixed_seed.qtest ~seed ~count:25 "optimum preserved" arb_case
            prop_canonical_optimum_preserved;
          Fixed_seed.qtest ~seed ~count:40 "restored witness feasible" arb_case
            prop_restore_placement_feasible;
          Fixed_seed.qtest ~seed ~count:500 "matches the reference copy"
            arb_diff_case prop_matches_reference;
          Alcotest.test_case "FIR-32 canonicalizes completely" `Quick
            test_fir32_complete;
          Alcotest.test_case "butterfly-6 stops at the work budget" `Quick
            test_butterfly6_budgeted;
          Alcotest.test_case "digest bytes pinned" `Quick test_digest_pinned;
        ] );
      ( "cache",
        [
          Fixed_seed.qtest ~seed ~count:12
            "warm replay is byte-identical, hits exact"
            arb_case prop_warm_replay_byte_identical;
          Alcotest.test_case "isomorphic hit costs zero nodes" `Quick
            test_hit_path_zero_nodes;
          Alcotest.test_case "stage 2 settles the budget plateau" `Quick
            test_stage2_settles_budget_plateau;
        ] );
      ( "server",
        [
          Alcotest.test_case "loop survives malformed and over-budget" `Quick
            test_server_loop_survives;
          Alcotest.test_case "volume overflow is a bad request" `Quick
            test_volume_overflow_rejected;
          Alcotest.test_case "hostile jobs and time budgets" `Quick
            test_hostile_budgets;
          Alcotest.test_case "resolution errors pinned" `Quick
            test_resolution_errors;
          Fixed_seed.qtest ~seed ~count:300 "hostile bytes get one typed answer"
            arb_hostile prop_hostile_lines_answered;
          Alcotest.test_case "concurrent heartbeats stay line-atomic" `Quick
            test_concurrent_heartbeats_not_interleaved;
          Alcotest.test_case "latency record keeps a fixed window" `Quick
            test_latency_window_bounded;
          Alcotest.test_case "full job queue pushes back on the reader"
            `Quick test_serve_backpressure;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "warm run separates hit and miss populations"
            `Quick test_metrics_hit_miss_populations;
          Alcotest.test_case "exposition pinned" `Quick test_exposition_pinned;
          Alcotest.test_case "cache counters agree under four workers" `Quick
            test_cache_counters_concurrent;
        ] );
    ]
