(* Tests for the graph substrate: undirected/directed kernels, chordality,
   comparability, cliques. *)

module U = Graphlib.Undirected
module D = Graphlib.Digraph
module Chordal = Graphlib.Chordal
module Comparability = Graphlib.Comparability
module Cliques = Graphlib.Cliques

(* ------------------------------------------------------------------ *)
(* Named small graphs                                                  *)
(* ------------------------------------------------------------------ *)

let path n = U.of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))

let cycle n =
  U.of_edges n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let complete n =
  let g = U.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      U.add_edge g u v
    done
  done;
  g

(* Same order and same edge set. *)
let same_graph g h = U.order g = U.order h && U.edges g = U.edges h

let show_pairs sep ps =
  String.concat ", "
    (List.map (fun (u, v) -> Printf.sprintf "%d%s%d" u sep v) ps)

let print_graph g =
  Printf.sprintf "graph(%d){%s}" (U.order g) (show_pairs "-" (U.edges g))

let print_digraph g =
  Printf.sprintf "digraph(%d){%s}" (D.order g) (show_pairs "->" (D.arcs g))

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)
(* ------------------------------------------------------------------ *)

(* A random graph: order 1..10, each edge present with probability ~1/2. *)
let arb_graph =
  let gen =
    QCheck.Gen.(
      sized_size (int_range 1 10) (fun n ->
          let pairs =
            List.concat_map
              (fun u -> List.init (n - u - 1) (fun k -> (u, u + k + 1)))
              (List.init n Fun.id)
          in
          let* picks = flatten_l (List.map (fun p -> pair (return p) bool) pairs) in
          let edges = List.filter_map (fun (p, b) -> if b then Some p else None) picks in
          return (n, edges)))
  in
  QCheck.make gen ~print:(fun (n, es) -> print_graph (U.of_edges n es))

(* A random interval graph built from a random interval model. *)
let arb_interval_graph =
  let gen =
    QCheck.Gen.(
      sized_size (int_range 1 10) (fun n ->
          let* ls = list_repeat n (int_range 0 20) in
          let* lens = list_repeat n (int_range 1 8) in
          let l = Array.of_list ls in
          let len = Array.of_list lens in
          let g = U.create n in
          for u = 0 to n - 1 do
            for v = u + 1 to n - 1 do
              if l.(u) <= l.(v) + len.(v) - 1 && l.(v) <= l.(u) + len.(u) - 1
              then U.add_edge g u v
            done
          done;
          return g))
  in
  QCheck.make gen ~print:print_graph

(* A random DAG: orient random edges from low to high vertex. *)
let arb_dag =
  let gen =
    QCheck.Gen.(
      sized_size (int_range 1 9) (fun n ->
          let pairs =
            List.concat_map
              (fun u -> List.init (n - u - 1) (fun k -> (u, u + k + 1)))
              (List.init n Fun.id)
          in
          let* picks = flatten_l (List.map (fun p -> pair (return p) bool) pairs) in
          let arcs = List.filter_map (fun (p, b) -> if b then Some p else None) picks in
          return (D.of_arcs n arcs)))
  in
  QCheck.make gen ~print:print_digraph

let seed = [| 0x694A; 2026 |]

(* ------------------------------------------------------------------ *)
(* Undirected                                                          *)
(* ------------------------------------------------------------------ *)

let test_undirected_basics () =
  let g = U.create 4 in
  Alcotest.(check int) "order" 4 (U.order g);
  Alcotest.(check int) "size empty" 0 (U.size g);
  U.add_edge g 0 1;
  U.add_edge g 1 0;
  Alcotest.(check int) "idempotent add" 1 (U.size g);
  Alcotest.(check bool) "mem" true (U.mem_edge g 1 0);
  U.remove_edge g 0 1;
  Alcotest.(check int) "removed" 0 (U.size g)

let test_undirected_errors () =
  let g = U.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Undirected.add_edge: self-loop")
    (fun () -> U.add_edge g 1 1);
  Alcotest.check_raises "range" (Invalid_argument "Undirected: vertex out of range")
    (fun () -> U.add_edge g 0 3)

let test_undirected_complement () =
  let g = path 4 in
  let c = U.complement g in
  Alcotest.(check int) "sizes add up" 6 (U.size g + U.size c);
  Alcotest.(check bool) "non-edge becomes edge" true (U.mem_edge c 0 2);
  Alcotest.(check bool) "edge becomes non-edge" false (U.mem_edge c 0 1);
  Alcotest.(check bool) "double complement" true (same_graph g (U.complement c))

let test_undirected_neighbors () =
  let g = U.of_edges 5 [ (0, 3); (0, 1); (3, 4) ] in
  Alcotest.(check (list int)) "sorted" [ 1; 3 ] (U.neighbors g 0);
  Alcotest.(check int) "degree" 2 (U.degree g 3)

(* A stable set of [g] is a clique of its complement. *)
let test_clique_stable () =
  let g = complete 4 in
  let stable g vs = U.is_clique (U.complement g) vs in
  Alcotest.(check bool) "K4 clique" true (U.is_clique g [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "K4 not stable" false (stable g [ 0; 1 ]);
  let e = U.create 4 in
  Alcotest.(check bool) "empty stable" true (stable e [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "singleton is both" true
    (U.is_clique e [ 2 ] && stable g [ 2 ])

let prop_complement_involution (n, es) =
  let g = U.of_edges n es in
  same_graph g (U.complement (U.complement g))

let prop_edge_count (n, es) =
  let g = U.of_edges n es in
  U.size g + U.size (U.complement g) = n * (n - 1) / 2

(* ------------------------------------------------------------------ *)
(* Digraph                                                             *)
(* ------------------------------------------------------------------ *)

let test_digraph_basics () =
  let g = D.create 3 in
  D.add_arc g 0 1;
  D.add_arc g 1 2;
  Alcotest.(check bool) "mem" true (D.mem_arc g 0 1);
  Alcotest.(check bool) "directed" false (D.mem_arc g 1 0);
  Alcotest.(check (list (pair int int))) "arcs" [ (0, 1); (1, 2) ] (D.arcs g);
  D.add_arc g 1 0;
  Alcotest.(check (list (pair int int)))
    "antiparallel arcs" [ (0, 1); (1, 0); (1, 2) ] (D.arcs g)

let test_digraph_topo () =
  let g = D.of_arcs 4 [ (0, 1); (1, 2); (0, 3); (3, 2) ] in
  (match D.topological_order g with
  | None -> Alcotest.fail "dag must have topo order"
  | Some order ->
    let pos = Array.make 4 0 in
    List.iteri (fun i v -> pos.(v) <- i) order;
    List.iter
      (fun (u, v) ->
        Alcotest.(check bool) "arc goes forward" true (pos.(u) < pos.(v)))
      (D.arcs g));
  let c = D.of_arcs 3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check bool) "cycle detected" false (D.is_acyclic c)

let test_digraph_closure () =
  let g = D.of_arcs 4 [ (0, 1); (1, 2); (2, 3) ] in
  D.transitive_closure g;
  Alcotest.(check bool) "0->3" true (D.mem_arc g 0 3);
  Alcotest.(check bool) "transitive" true (D.is_transitive g);
  Alcotest.(check int) "arc count" 6 (D.size g)

let test_digraph_reduction () =
  let g = D.of_arcs 4 [ (0, 1); (1, 2); (2, 3); (0, 2); (0, 3); (1, 3) ] in
  let r = D.transitive_reduction g in
  Alcotest.(check (list (pair int int)))
    "chain remains" [ (0, 1); (1, 2); (2, 3) ] (D.arcs r)

let test_digraph_longest_path () =
  (* Weighted chain 0 -> 1 -> 3, 2 isolated; weights are durations. *)
  let g = D.of_arcs 4 [ (0, 1); (1, 3) ] in
  let weight = function 0 -> 2 | 1 -> 5 | 2 -> 7 | _ -> 1 in
  let d = D.longest_path_lengths g ~weight in
  Alcotest.(check (array int)) "lengths" [| 0; 2; 0; 7 |] d;
  Alcotest.(check int) "critical path" 8 (D.critical_path g ~weight)

let prop_closure_transitive g =
  let h = D.copy g in
  D.transitive_closure h;
  D.is_transitive h

let prop_reduction_same_closure g =
  let r = D.transitive_reduction g in
  let c1 = D.copy g and c2 = D.copy r in
  D.transitive_closure c1;
  D.transitive_closure c2;
  D.order c1 = D.order c2 && D.arcs c1 = D.arcs c2

let prop_topo_respects_arcs g =
  match D.topological_order g with
  | None -> false (* our generated DAGs are always acyclic *)
  | Some order ->
    let pos = Array.make (D.order g) 0 in
    List.iteri (fun i v -> pos.(v) <- i) order;
    List.for_all (fun (u, v) -> pos.(u) < pos.(v)) (D.arcs g)

(* ------------------------------------------------------------------ *)
(* Chordal                                                             *)
(* ------------------------------------------------------------------ *)

let test_chordal_examples () =
  Alcotest.(check bool) "path chordal" true (Chordal.is_chordal (path 5));
  Alcotest.(check bool) "K5 chordal" true (Chordal.is_chordal (complete 5));
  Alcotest.(check bool) "C4 not chordal" false (Chordal.is_chordal (cycle 4));
  Alcotest.(check bool) "C5 not chordal" false (Chordal.is_chordal (cycle 5));
  let c4_plus_chord = U.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] in
  Alcotest.(check bool) "C4+chord chordal" true (Chordal.is_chordal c4_plus_chord)

let test_chordless_cycle_certificate () =
  (match Chordal.find_chordless_cycle (cycle 6) with
  | None -> Alcotest.fail "C6 has a chordless cycle"
  | Some c -> Alcotest.(check int) "length 6" 6 (List.length c));
  Alcotest.(check (option (list int)))
    "chordal graph has none" None
    (Chordal.find_chordless_cycle (complete 4))

let prop_mcs_is_permutation (n, es) =
  let g = U.of_edges n es in
  let order = Chordal.mcs_order g in
  let seen = Array.make n false in
  Array.iter (fun v -> seen.(v) <- true) order;
  Array.for_all Fun.id seen

let prop_chordal_agrees_with_certificate (n, es) =
  let g = U.of_edges n es in
  Chordal.is_chordal g = (Chordal.find_chordless_cycle g = None)

let prop_interval_graphs_chordal g = Chordal.is_chordal g

(* ------------------------------------------------------------------ *)
(* Comparability                                                       *)
(* ------------------------------------------------------------------ *)

let test_comparability_examples () =
  Alcotest.(check bool) "bipartite C4" true (Comparability.is_comparability (cycle 4));
  Alcotest.(check bool) "C5 is not" false (Comparability.is_comparability (cycle 5));
  Alcotest.(check bool) "C6 is" true (Comparability.is_comparability (cycle 6));
  Alcotest.(check bool) "complete" true (Comparability.is_comparability (complete 5));
  Alcotest.(check bool) "path" true (Comparability.is_comparability (path 6))

let test_comparability_c5_complement () =
  (* The complement of C5 is C5 again: still not a comparability graph. *)
  Alcotest.(check bool) "co-C5" false
    (Comparability.is_comparability (U.complement (cycle 5)))

let test_transitive_orientation_examples () =
  (match Comparability.transitive_orientation (cycle 4) with
  | None -> Alcotest.fail "C4 must be orientable"
  | Some d ->
    Alcotest.(check bool) "transitive" true (D.is_transitive d);
    Alcotest.(check bool) "acyclic" true (D.is_acyclic d);
    Alcotest.(check int) "all edges oriented" 4 (D.size d));
  Alcotest.(check bool) "C5 fails" true
    (Comparability.transitive_orientation (cycle 5) = None)

let test_implication_class_triangle_free_path () =
  (* In a path a-b-c the two edges force each other through the
     non-adjacent pair {a,c}: a->b forces c->b. *)
  let g = path 3 in
  let cls = Comparability.implication_class g 0 1 in
  Alcotest.(check bool) "forces 2->1" true (List.mem (2, 1) cls);
  Alcotest.(check int) "class size" 2 (List.length cls)

let prop_orientation_verified (n, es) =
  let g = U.of_edges n es in
  match Comparability.transitive_orientation g with
  | None -> not (Comparability.is_comparability g)
  | Some d ->
    Comparability.is_comparability g && D.is_transitive d && D.is_acyclic d
    && D.size d = U.size g

let prop_interval_complement_comparability g =
  Comparability.is_comparability (U.complement g)

(* ------------------------------------------------------------------ *)
(* Cliques                                                             *)
(* ------------------------------------------------------------------ *)

let test_max_weight_clique_examples () =
  let g = U.of_edges 5 [ (0, 1); (1, 2); (2, 0); (3, 4) ] in
  let w, vs = Cliques.max_weight_clique g ~weight:(fun _ -> 1) in
  Alcotest.(check int) "triangle wins" 3 w;
  Alcotest.(check (list int)) "the triangle" [ 0; 1; 2 ] vs;
  let weight = function 3 -> 10 | 4 -> 10 | _ -> 1 in
  let w, vs = Cliques.max_weight_clique g ~weight in
  Alcotest.(check int) "weights matter" 20 w;
  Alcotest.(check (list int)) "heavy edge" [ 3; 4 ] vs

let test_max_weight_stable_set () =
  let g = path 4 in
  let w, _ = Cliques.max_weight_clique (U.complement g) ~weight:(fun _ -> 1) in
  Alcotest.(check int) "stable set of P4" 2 w

let test_exists_clique_heavier () =
  let g = complete 4 in
  Alcotest.(check bool) "heavier than 3" true
    (Cliques.exists_clique_heavier g ~weight:(fun _ -> 1) ~bound:3);
  Alcotest.(check bool) "not heavier than 4" false
    (Cliques.exists_clique_heavier g ~weight:(fun _ -> 1) ~bound:4)

(* Reference implementation: enumerate all subsets. *)
let brute_force_max_clique g ~weight =
  let n = U.order g in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let vs = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
    if U.is_clique g vs then
      best := max !best (List.fold_left (fun acc v -> acc + weight v) 0 vs)
  done;
  !best

let prop_clique_matches_bruteforce (n, es) =
  let g = U.of_edges n es in
  let weight v = 1 + (v mod 4) in
  fst (Cliques.max_weight_clique g ~weight) = brute_force_max_clique g ~weight

let prop_clique_is_clique (n, es) =
  let g = U.of_edges n es in
  let weight v = 1 + (v mod 4) in
  let w, vs = Cliques.max_weight_clique g ~weight in
  U.is_clique g vs && w = List.fold_left (fun acc v -> acc + weight v) 0 vs

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

module Gen = Generators

let test_generators_families () =
  Alcotest.(check int) "path edges" 4 (U.size (Gen.path 5));
  Alcotest.(check int) "cycle edges" 5 (U.size (Gen.cycle 5));
  Alcotest.(check int) "complete edges" 10 (U.size (Gen.complete 5));
  Alcotest.(check int) "grid edges" 12 (U.size (Gen.grid ~rows:3 ~cols:3));
  Alcotest.check_raises "tiny cycle" (Invalid_argument "Generators.cycle: n < 3")
    (fun () -> ignore (Gen.cycle 2))

let test_generators_deterministic () =
  let a = Gen.random ~seed:42 ~n:8 ~edge_probability:0.5 in
  let b = Gen.random ~seed:42 ~n:8 ~edge_probability:0.5 in
  Alcotest.(check bool) "same graph" true (same_graph a b)

(* Gilmore-Hoffman: an interval graph is chordal and its complement is
   a comparability graph. *)
let prop_random_interval_is_interval seed =
  let g, _ = Gen.random_interval ~seed ~n:8 ~span:15 ~max_len:5 in
  Chordal.is_chordal g && Comparability.is_comparability (U.complement g)

let prop_random_dag_acyclic seed =
  D.is_acyclic (Gen.random_dag ~seed ~n:8 ~arc_probability:0.4)

let () =
  Alcotest.run "graphlib"
    [
      ( "undirected",
        [
          Alcotest.test_case "basics" `Quick test_undirected_basics;
          Alcotest.test_case "errors" `Quick test_undirected_errors;
          Alcotest.test_case "complement" `Quick test_undirected_complement;
          Alcotest.test_case "neighbors" `Quick test_undirected_neighbors;
          Alcotest.test_case "clique/stable" `Quick test_clique_stable;
          Fixed_seed.qtest ~seed ~count:200 "complement involution" arb_graph
            prop_complement_involution;
          Fixed_seed.qtest ~seed ~count:200 "edge counts" arb_graph
            prop_edge_count;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basics;
          Alcotest.test_case "topological order" `Quick test_digraph_topo;
          Alcotest.test_case "closure" `Quick test_digraph_closure;
          Alcotest.test_case "reduction" `Quick test_digraph_reduction;
          Alcotest.test_case "longest path" `Quick test_digraph_longest_path;
          Fixed_seed.qtest ~seed ~count:200 "closure is transitive" arb_dag
            prop_closure_transitive;
          Fixed_seed.qtest ~seed ~count:200 "reduction preserves closure"
            arb_dag prop_reduction_same_closure;
          Fixed_seed.qtest ~seed ~count:200 "topo respects arcs" arb_dag
            prop_topo_respects_arcs;
        ] );
      ( "chordal",
        [
          Alcotest.test_case "examples" `Quick test_chordal_examples;
          Alcotest.test_case "certificates" `Quick test_chordless_cycle_certificate;
          Fixed_seed.qtest ~seed ~count:200 "mcs permutation" arb_graph
            prop_mcs_is_permutation;
          Fixed_seed.qtest ~seed ~count:80 "recognition matches certificate"
            arb_graph prop_chordal_agrees_with_certificate;
          Fixed_seed.qtest ~seed ~count:200 "interval graphs chordal"
            arb_interval_graph prop_interval_graphs_chordal;
        ] );
      ( "generators",
        [
          Alcotest.test_case "families" `Quick test_generators_families;
          Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
          Fixed_seed.qtest ~seed ~count:200 "interval generator"
            (QCheck.int_range 0 5000) prop_random_interval_is_interval;
          Fixed_seed.qtest ~seed ~count:200 "dag generator"
            (QCheck.int_range 0 5000) prop_random_dag_acyclic;
        ] );
      ( "comparability",
        [
          Alcotest.test_case "examples" `Quick test_comparability_examples;
          Alcotest.test_case "co-C5" `Quick test_comparability_c5_complement;
          Alcotest.test_case "orientations" `Quick test_transitive_orientation_examples;
          Alcotest.test_case "implication class" `Quick
            test_implication_class_triangle_free_path;
          Fixed_seed.qtest ~seed ~count:200 "orientation sound+complete"
            arb_graph prop_orientation_verified;
          Fixed_seed.qtest ~seed ~count:200 "interval complement comparability"
            arb_interval_graph prop_interval_complement_comparability;
        ] );
      ( "cliques",
        [
          Alcotest.test_case "max weight clique" `Quick test_max_weight_clique_examples;
          Alcotest.test_case "stable set" `Quick test_max_weight_stable_set;
          Alcotest.test_case "early exit" `Quick test_exists_clique_heavier;
          Fixed_seed.qtest ~seed ~count:100 "matches brute force" arb_graph
            prop_clique_matches_bruteforce;
          Fixed_seed.qtest ~seed ~count:200 "returns a clique" arb_graph
            prop_clique_is_clique;
        ] );
    ]
