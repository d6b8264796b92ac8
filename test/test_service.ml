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

let fixed_rand () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> Random.State.make [| int_of_string s |]
  | None -> Random.State.make [| 0x5E55; 2026 |]

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest ~rand:(fixed_rand ())
    (QCheck.Test.make ~count ~name arb prop)

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

let run_stream ~use_cache lines =
  let config = { Server.default_config with Server.use_cache } in
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
  let cold, _ = run_stream ~use_cache:false lines in
  let warm, counters = run_stream ~use_cache:true lines in
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
    Server.create ~config:{ Server.default_config with use_cache = false } ()
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
      use_cache = false (* every worker must actually search and emit *);
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
    match T.member "metrics" j with
    | None -> Alcotest.failf "no metrics member in %s" l
    | Some payload -> (
      match M.of_json payload with
      | Error e -> Alcotest.failf "metrics op payload rejected: %s" e
      | Ok snap' ->
        Alcotest.(check (float 0.0)) "op snapshot agrees on hits" 2.0
          (counter_total snap' "fpga_cache_hits_total")))

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
          qtest ~count:100 "key invariant under relabeling" arb_case
            prop_canonical_relabeling_invariant;
          qtest ~count:100 "spatial orders distinguish keys" arb_case
            prop_spatial_order_distinguishes_key;
          qtest ~count:25 "optimum preserved" arb_case
            prop_canonical_optimum_preserved;
          qtest ~count:40 "restored witness feasible" arb_case
            prop_restore_placement_feasible;
          qtest ~count:500 "matches the reference copy" arb_diff_case
            prop_matches_reference;
          Alcotest.test_case "FIR-32 canonicalizes completely" `Quick
            test_fir32_complete;
          Alcotest.test_case "butterfly-6 stops at the work budget" `Quick
            test_butterfly6_budgeted;
          Alcotest.test_case "digest bytes pinned" `Quick test_digest_pinned;
        ] );
      ( "cache",
        [
          qtest ~count:12 "warm replay is byte-identical, hits exact"
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
        ] );
    ]
