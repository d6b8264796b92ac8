(* Tests for partial orders, the oriented edge-state store with D1/D2
   implication closure, and order extension (Theorem 2 machinery). *)

module PO = Order.Partial_order
module OG = Order.Oriented_graph
module Ext = Order.Extension
module D = Graphlib.Digraph

let seed = [| 0x0DE4; 2026 |]

let ok_exn = function
  | Ok () -> ()
  | Error (c : OG.conflict) ->
    Alcotest.failf "unexpected conflict on (%d,%d): %s" (fst c.pair)
      (snd c.pair) c.reason

let expect_conflict = function
  | Ok () -> Alcotest.fail "expected a conflict"
  | Error (_ : OG.conflict) -> ()

(* [arc t u v]: the comparability edge [{u,v}] is oriented [u -> v]. *)
let arc t u v = D.mem_arc (OG.orientation t) u v
let comparable p u v = PO.precedes p u v || PO.precedes p v u
let unoriented t u v = List.mem (u, v) (OG.unoriented_pairs t)

(* ------------------------------------------------------------------ *)
(* Partial orders                                                      *)
(* ------------------------------------------------------------------ *)

let test_po_closure () =
  let p = PO.of_arcs ~n:4 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "direct" true (PO.precedes p 0 1);
  Alcotest.(check bool) "transitive" true (PO.precedes p 0 2);
  Alcotest.(check bool) "not reflexive" false (PO.precedes p 3 3);
  Alcotest.(check bool) "comparable" true (comparable p 2 0);
  Alcotest.(check bool) "incomparable" false (comparable p 0 3)

let test_po_cycle_rejected () =
  Alcotest.check_raises "cycle"
    (Invalid_argument "Partial_order.of_arcs: precedence graph has a cycle")
    (fun () -> ignore (PO.of_arcs ~n:3 [ (0, 1); (1, 2); (2, 0) ]))

let test_po_critical_path () =
  (* Chain 0 -> 1 -> 2 with durations 2, 2, 1 next to an isolated 3. *)
  let p = PO.of_arcs ~n:4 [ (0, 1); (1, 2) ] in
  let duration = function 0 -> 2 | 1 -> 2 | 2 -> 1 | _ -> 4 in
  Alcotest.(check int) "critical path" 5 (PO.critical_path p ~duration);
  Alcotest.(check (array int)) "earliest starts" [| 0; 2; 4; 0 |]
    (PO.earliest_starts p ~duration)

let test_po_covers () =
  let p = PO.of_arcs ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  Alcotest.(check (list (pair int int))) "reduction" [ (0, 1); (1, 2) ]
    (PO.covers p)

let test_po_respects () =
  let p = PO.of_arcs ~n:2 [ (0, 1) ] in
  let duration _ = 3 in
  Alcotest.(check bool) "ok schedule" true (PO.respects p [| 0; 3 |] ~duration);
  Alcotest.(check bool) "overlapping schedule" false
    (PO.respects p [| 0; 2 |] ~duration)

let test_po_antichain () =
  let p = PO.of_arcs ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "antichain" false (comparable p 0 2);
  Alcotest.(check bool) "chain" true (comparable p 0 1);
  Alcotest.(check bool) "chain reversed" true (comparable p 1 0)

(* ------------------------------------------------------------------ *)
(* Oriented graph: basic state machine                                 *)
(* ------------------------------------------------------------------ *)

let test_og_kinds () =
  let t = OG.create 3 in
  Alcotest.(check bool) "unknown" true (OG.kind t 0 1 = OG.Unknown);
  ok_exn (OG.set_component t 0 1);
  Alcotest.(check bool) "component" true (OG.kind t 0 1 = OG.Component);
  Alcotest.(check bool) "symmetric" true (OG.kind t 1 0 = OG.Component);
  expect_conflict (OG.set_comparable t 0 1);
  ok_exn (OG.set_comparable t 1 2);
  expect_conflict (OG.set_component t 1 2)

let test_og_orientation () =
  let t = OG.create 3 in
  ok_exn (OG.force_arc t 2 0);
  Alcotest.(check bool) "arc set" true (arc t 2 0);
  Alcotest.(check bool) "reverse not set" false (arc t 0 2);
  Alcotest.(check bool) "kind comparable" true (OG.kind t 0 2 = OG.Comparable);
  ok_exn (OG.force_arc t 2 0);
  expect_conflict (OG.force_arc t 0 2)

let test_og_undo () =
  let t = OG.create 4 in
  ok_exn (OG.set_component t 0 1);
  let m = OG.mark t in
  ok_exn (OG.force_arc t 1 2);
  ok_exn (OG.set_comparable t 2 3);
  let changed = ref 0 in
  OG.iter_changed_pairs t ~since:m (fun _ _ -> incr changed);
  Alcotest.(check int) "changed pairs" 2 !changed;
  OG.undo_to t m;
  Alcotest.(check bool) "arc gone" true (OG.kind t 1 2 = OG.Unknown);
  Alcotest.(check bool) "kind gone" true (OG.kind t 2 3 = OG.Unknown);
  Alcotest.(check bool) "earlier state kept" true (OG.kind t 0 1 = OG.Component)

(* ------------------------------------------------------------------ *)
(* Oriented graph: D1 / D2 propagation                                 *)
(* ------------------------------------------------------------------ *)

(* Paper Fig. 6 (D1): comparability edges {1,2}, {1,3}, component {2,3}.
   Orienting 1 -> 2 must force 1 -> 3. *)
let test_d1_path_implication () =
  let t = OG.create 4 in
  ok_exn (OG.set_comparable t 1 2);
  ok_exn (OG.set_comparable t 1 3);
  ok_exn (OG.set_component t 2 3);
  ok_exn (OG.force_arc t 1 2);
  ok_exn (OG.propagate t);
  Alcotest.(check bool) "D1 fires" true (arc t 1 3);
  (* And the opposite orientation propagates the opposite way. *)
  let t = OG.create 4 in
  ok_exn (OG.set_comparable t 1 2);
  ok_exn (OG.set_comparable t 1 3);
  ok_exn (OG.set_component t 2 3);
  ok_exn (OG.force_arc t 2 1);
  ok_exn (OG.propagate t);
  Alcotest.(check bool) "D1 fires reversed" true (arc t 3 1)

(* D2: 0 -> 1 -> 2 forces the comparability edge 0 -> 2. *)
let test_d2_transitivity_implication () =
  let t = OG.create 3 in
  ok_exn (OG.force_arc t 0 1);
  ok_exn (OG.force_arc t 1 2);
  ok_exn (OG.propagate t);
  Alcotest.(check bool) "D2 fires" true (arc t 0 2)

(* Transitivity conflict: 0 -> 1 -> 2 with {0,2} a component edge. *)
let test_d2_transitivity_conflict () =
  let t = OG.create 3 in
  ok_exn (OG.set_component t 0 2);
  ok_exn (OG.force_arc t 0 1);
  ok_exn (OG.force_arc t 1 2);
  expect_conflict (OG.propagate t)

(* Paper Fig. 5: C4 of comparability edges around two component
   diagonals. With vertices v1..v4 as 0..3: comparability edges
   {0,1}, {1,2}, {2,3}; component edges {0,2}, {1,3}. The partial order
   0 -> 1 and 2 -> 3 admits no transitive orientation: 0 -> 1 forces
   2 -> 1 (via component {0,2}), and 2 -> 3 forces 2 -> 1 ... both
   endpoints: the conflict appears on edge {1,2} when combined with
   0 -> 1 and 3 ... (orientation chain closes both ways). *)
let test_fig5_path_conflict () =
  let t = OG.create 4 in
  ok_exn (OG.set_comparable t 0 1);
  ok_exn (OG.set_comparable t 1 2);
  ok_exn (OG.set_comparable t 2 3);
  ok_exn (OG.set_component t 0 2);
  ok_exn (OG.set_component t 1 3);
  ok_exn (OG.set_component t 0 3);
  (* Arcs of the given suborder: 0 -> 1 and 3 -> 2. Propagation: 0 -> 1
     with component {0,2} forces ... and 3 -> 2 with component {1,3}
     forces ... — the two cascades orient edge {1,2} in opposite
     directions: a path conflict. *)
  ok_exn (OG.force_arc t 0 1);
  (match OG.propagate t with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "0 -> 1 alone must be consistent");
  match
    match OG.force_arc t 3 2 with
    | Ok () -> OG.propagate t
    | Error _ as e -> e
  with
  | Ok () -> Alcotest.fail "expected a path conflict"
  | Error _ -> ()

(* The same configuration with compatible arcs must succeed. *)
let test_fig5_compatible () =
  let t = OG.create 4 in
  ok_exn (OG.set_comparable t 0 1);
  ok_exn (OG.set_comparable t 1 2);
  ok_exn (OG.set_comparable t 2 3);
  ok_exn (OG.set_component t 0 2);
  ok_exn (OG.set_component t 1 3);
  ok_exn (OG.set_component t 0 3);
  ok_exn (OG.force_arc t 0 1);
  ok_exn (OG.force_arc t 2 3);
  ok_exn (OG.propagate t);
  (* 0 -> 1 forces 2 -> 1; 2 -> 3 forces ... consistent chain. *)
  Alcotest.(check bool) "forced 2 -> 1" true (arc t 2 1);
  Alcotest.(check bool) "forced 2 -> 3 kept" true (arc t 2 3)

(* D1 fires also when the third side becomes a component edge last. *)
let test_d1_component_last () =
  let t = OG.create 3 in
  ok_exn (OG.force_arc t 0 1);
  ok_exn (OG.set_comparable t 0 2);
  ok_exn (OG.propagate t);
  Alcotest.(check bool) "nothing yet" true (unoriented t 0 2);
  ok_exn (OG.set_component t 1 2);
  ok_exn (OG.propagate t);
  Alcotest.(check bool) "now forced 0 -> 2" true (arc t 0 2)

(* ------------------------------------------------------------------ *)
(* Extension                                                           *)
(* ------------------------------------------------------------------ *)

let test_extension_simple () =
  (* Three boxes pairwise comparable: any completion is a total order. *)
  let t = OG.create 3 in
  ok_exn (OG.set_comparable t 0 1);
  ok_exn (OG.set_comparable t 1 2);
  ok_exn (OG.set_comparable t 0 2);
  ok_exn (OG.force_arc t 0 1);
  (match Ext.complete t with
  | None -> Alcotest.fail "total order must complete"
  | Some d ->
    Alcotest.(check bool) "transitive" true (D.is_transitive d);
    Alcotest.(check bool) "respects forced arc" true (D.mem_arc d 0 1));
  (* The store is restored afterwards. *)
  Alcotest.(check bool) "restored" true (unoriented t 1 2)

let test_extension_fig5_infeasible () =
  let t = OG.create 4 in
  ok_exn (OG.set_comparable t 0 1);
  ok_exn (OG.set_comparable t 1 2);
  ok_exn (OG.set_comparable t 2 3);
  ok_exn (OG.set_component t 0 2);
  ok_exn (OG.set_component t 1 3);
  ok_exn (OG.set_component t 0 3);
  ok_exn (OG.force_arc t 0 1);
  ok_exn (OG.force_arc t 3 2);
  Alcotest.(check bool) "no extension" true (Ext.complete t = None)

let test_extension_requires_decided () =
  let t = OG.create 2 in
  Alcotest.check_raises "undecided pairs"
    (Invalid_argument "Extension.complete: undecided pairs remain") (fun () ->
      ignore (Ext.complete t))

let test_extension_coordinates () =
  let d = D.of_arcs 3 [ (0, 1); (1, 2); (0, 2) ] in
  let weight = function 0 -> 2 | 1 -> 3 | _ -> 1 in
  Alcotest.(check (array int)) "longest paths" [| 0; 2; 5 |]
    (Ext.coordinates d ~weight)

(* Property: for a random comparability graph obtained from a random
   partial order, completion succeeds and yields a verified transitive
   orientation extending the forced arcs. *)
let arb_order_graph =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 8 in
      let pairs =
        List.concat_map
          (fun u -> List.init (n - u - 1) (fun k -> (u, u + k + 1)))
          (List.init n Fun.id)
      in
      let* picks = flatten_l (List.map (fun p -> pair (return p) bool) pairs) in
      let arcs = List.filter_map (fun (p, b) -> if b then Some p else None) picks in
      return (n, arcs))
  in
  QCheck.make gen ~print:QCheck.Print.(pair int (list (pair int int)))

let prop_extension_of_order (n, arcs) =
  (* Build the comparability structure of the transitive closure of a
     random order: comparable pairs are the related ones, all other
     pairs are component edges. Forcing a subset of the arcs must
     complete to a transitive orientation. *)
  let p = PO.of_arcs ~n arcs in
  let t = OG.create n in
  let all_ok = ref true in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let r =
        if PO.precedes p u v then OG.force_arc t u v
        else if PO.precedes p v u then OG.force_arc t v u
        else OG.set_component t u v
      in
      if r <> Ok () then all_ok := false
    done
  done;
  !all_ok
  &&
  match OG.propagate t with
  | Error _ -> false
  | Ok () -> (
    match Ext.complete t with
    | None -> false
    | Some d ->
      D.is_transitive d && D.is_acyclic d
      && List.for_all (fun (u, v) -> D.mem_arc d u v) (PO.relations p))

let prop_partial_force_completes (n, arcs) =
  (* Forcing only some arcs (every other one) must still complete. *)
  let p = PO.of_arcs ~n arcs in
  let t = OG.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not (comparable p u v) then ignore (OG.set_component t u v)
      else ignore (OG.set_comparable t u v)
    done
  done;
  List.iteri
    (fun i (u, v) -> if i mod 2 = 0 then ignore (OG.force_arc t u v))
    (PO.relations p);
  match OG.propagate t with
  | Error _ -> false
  | Ok () -> Ext.complete t <> None

let () =
  Alcotest.run "order"
    [
      ( "partial order",
        [
          Alcotest.test_case "closure" `Quick test_po_closure;
          Alcotest.test_case "cycle rejected" `Quick test_po_cycle_rejected;
          Alcotest.test_case "critical path" `Quick test_po_critical_path;
          Alcotest.test_case "covers" `Quick test_po_covers;
          Alcotest.test_case "respects" `Quick test_po_respects;
          Alcotest.test_case "antichain" `Quick test_po_antichain;
        ] );
      ( "oriented graph",
        [
          Alcotest.test_case "kinds" `Quick test_og_kinds;
          Alcotest.test_case "orientation" `Quick test_og_orientation;
          Alcotest.test_case "undo" `Quick test_og_undo;
          Alcotest.test_case "D1 path implication" `Quick test_d1_path_implication;
          Alcotest.test_case "D2 transitivity" `Quick test_d2_transitivity_implication;
          Alcotest.test_case "D2 conflict" `Quick test_d2_transitivity_conflict;
          Alcotest.test_case "Fig. 5 conflict" `Quick test_fig5_path_conflict;
          Alcotest.test_case "Fig. 5 compatible" `Quick test_fig5_compatible;
          Alcotest.test_case "D1 component last" `Quick test_d1_component_last;
        ] );
      ( "extension",
        [
          Alcotest.test_case "simple" `Quick test_extension_simple;
          Alcotest.test_case "Fig. 5 infeasible" `Quick test_extension_fig5_infeasible;
          Alcotest.test_case "requires decided" `Quick test_extension_requires_decided;
          Alcotest.test_case "coordinates" `Quick test_extension_coordinates;
          Fixed_seed.qtest ~seed ~count:200 "orders complete" arb_order_graph
            prop_extension_of_order;
          Fixed_seed.qtest ~seed ~count:200 "partial forcing completes"
            arb_order_graph prop_partial_force_completes;
        ] );
    ]
