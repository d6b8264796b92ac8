(* Tests for intervals, boxes, containers, placements and rendering. *)

module I = Geometry.Interval
module Box = Geometry.Box
module Container = Geometry.Container
module P = Geometry.Placement
module Render = Geometry.Render

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)
(* ------------------------------------------------------------------ *)

let test_interval_basics () =
  let a = I.make ~lo:2 ~len:3 in
  Alcotest.(check int) "hi" 5 (I.hi a);
  Alcotest.(check bool) "contains lo" true (I.contains a 2);
  Alcotest.(check bool) "hi excluded" false (I.contains a 5);
  Alcotest.check_raises "positive length"
    (Invalid_argument "Interval.make: non-positive length") (fun () ->
      ignore (I.make ~lo:0 ~len:0))

let test_interval_overlap () =
  let a = I.make ~lo:0 ~len:3 and b = I.make ~lo:3 ~len:2 in
  Alcotest.(check bool) "touching half-open intervals disjoint" true
    (I.disjoint a b);
  Alcotest.(check bool) "precedes" true (I.precedes a b);
  let c = I.make ~lo:2 ~len:2 in
  Alcotest.(check bool) "overlap" true (I.overlaps a c);
  Alcotest.(check (option (pair int int))) "intersection"
    (Some (2, 1))
    (Option.map (fun i -> ((i : I.t).lo, i.len)) (I.intersection a c))

let test_interval_within () =
  Alcotest.(check bool) "inside" true (I.within (I.make ~lo:0 ~len:5) ~bound:5);
  Alcotest.(check bool) "spills" false (I.within (I.make ~lo:1 ~len:5) ~bound:5);
  Alcotest.(check bool) "negative" false (I.within (I.make ~lo:(-1) ~len:2) ~bound:5)

let arb_interval =
  QCheck.map
    (fun (lo, len) -> I.make ~lo ~len:(1 + abs len mod 10))
    QCheck.(pair (int_range (-10) 10) int)

let prop_overlap_symmetric (a, b) = I.overlaps a b = I.overlaps b a

let prop_overlap_iff_common_point (a, b) =
  let common = ref false in
  for x = min a.I.lo b.I.lo to max (I.hi a) (I.hi b) do
    if I.contains a x && I.contains b x then common := true
  done;
  I.overlaps a b = !common

let prop_precedes_implies_disjoint (a, b) =
  (not (I.precedes a b)) || I.disjoint a b

(* ------------------------------------------------------------------ *)
(* Box / Container                                                     *)
(* ------------------------------------------------------------------ *)

let test_box_basics () =
  let b = Box.make3 ~w:16 ~h:1 ~duration:2 in
  Alcotest.(check int) "dim" 3 (Box.dim b);
  Alcotest.(check int) "x" 16 (Box.extent b 0);
  Alcotest.(check int) "t" 2 (Box.extent b 2);
  Alcotest.(check int) "volume" 32 (Box.volume b);
  Alcotest.check_raises "positive extents"
    (Invalid_argument "Box.make: non-positive extent") (fun () ->
      ignore (Box.make [| 4; 0 |]))

let test_box_check_volume () =
  let ok exts = Box.check_volume exts = Ok () in
  Alcotest.(check bool) "exactly 2^40" true (ok [| 1 lsl 20; 1 lsl 10; 1 lsl 10 |]);
  Alcotest.(check bool) "one past 2^40" false (ok [| (1 lsl 40) + 1 |]);
  Alcotest.(check bool) "product past 2^40" false (ok [| 1 lsl 20; (1 lsl 20) + 1 |]);
  Alcotest.(check bool) "wrapping product" false (ok [| max_int; max_int; 10 |]);
  Alcotest.(check bool) "non-positive" false (ok [| 4; 0 |])

let test_box_rotate () =
  let b = Box.make [| 1; 2; 3 |] in
  let r = Box.rotate b ~axes:[| 2; 0; 1 |] in
  Alcotest.(check (array int)) "rotated" [| 3; 1; 2 |] (Box.extents r);
  Alcotest.check_raises "permutation required"
    (Invalid_argument "Box.rotate: not a permutation") (fun () ->
      ignore (Box.rotate b ~axes:[| 0; 0; 1 |]))

let test_container_fits () =
  let c = Container.make3 ~w:32 ~h:32 ~t_max:10 in
  Alcotest.(check bool) "fits" true (Container.fits c (Box.make3 ~w:32 ~h:16 ~duration:10));
  Alcotest.(check bool) "too long" false
    (Container.fits c (Box.make3 ~w:32 ~h:16 ~duration:11));
  let c' = Container.with_extent c 2 11 in
  Alcotest.(check int) "resized" 11 (Container.extent c' 2);
  Alcotest.(check int) "original untouched" 10 (Container.extent c 2)

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

let two_boxes =
  [| Box.make3 ~w:2 ~h:2 ~duration:2; Box.make3 ~w:2 ~h:2 ~duration:2 |]

let no_prec _ _ = false

let test_placement_feasible () =
  let p = P.make two_boxes [| [| 0; 0; 0 |]; [| 2; 0; 0 |] |] in
  let container = Container.make3 ~w:4 ~h:2 ~t_max:2 in
  Alcotest.(check bool) "side by side" true
    (P.is_feasible p ~container ~precedes:no_prec);
  Alcotest.(check int) "makespan" 2 (P.makespan p)

let test_placement_overlap () =
  let p = P.make two_boxes [| [| 0; 0; 0 |]; [| 1; 1; 0 |] |] in
  let container = Container.make3 ~w:4 ~h:4 ~t_max:4 in
  match P.check p ~container ~precedes:no_prec with
  | [ P.Boxes_overlap (0, 1) ] -> ()
  | vs ->
    Alcotest.failf "expected one overlap, got %a"
      (Fmt.Dump.list P.pp_violation) vs

let test_placement_time_separation () =
  (* Same cells, disjoint execution intervals: feasible (reconfiguration). *)
  let p = P.make two_boxes [| [| 0; 0; 0 |]; [| 0; 0; 2 |] |] in
  let container = Container.make3 ~w:2 ~h:2 ~t_max:4 in
  Alcotest.(check bool) "time-multiplexed" true
    (P.is_feasible p ~container ~precedes:no_prec)

let test_placement_bounds () =
  let p = P.make two_boxes [| [| 0; 0; 0 |]; [| 3; 0; 0 |] |] in
  let container = Container.make3 ~w:4 ~h:2 ~t_max:2 in
  match P.check p ~container ~precedes:no_prec with
  | [ P.Out_of_bounds 1 ] -> ()
  | vs ->
    Alcotest.failf "expected out-of-bounds, got %a"
      (Fmt.Dump.list P.pp_violation) vs

let test_placement_precedence () =
  let precedes u v = u = 0 && v = 1 in
  let ok = P.make two_boxes [| [| 0; 0; 0 |]; [| 0; 0; 2 |] |] in
  let container = Container.make3 ~w:2 ~h:2 ~t_max:4 in
  Alcotest.(check bool) "in order" true (P.is_feasible ok ~container ~precedes);
  let bad = P.make two_boxes [| [| 0; 0; 2 |]; [| 0; 0; 0 |] |] in
  (match P.check bad ~container ~precedes with
  | [ P.Precedence_violated (0, 1) ] -> ()
  | vs ->
    Alcotest.failf "expected precedence violation, got %a"
      (Fmt.Dump.list P.pp_violation) vs);
  (* Simultaneous but spatially disjoint still violates precedence. *)
  let sim = P.make two_boxes [| [| 0; 0; 0 |]; [| 0; 0; 0 |] |] in
  let wide = Container.make3 ~w:8 ~h:2 ~t_max:4 in
  let sim2 = P.make two_boxes [| [| 0; 0; 0 |]; [| 4; 0; 0 |] |] in
  ignore sim;
  match P.check sim2 ~container:wide ~precedes with
  | [ P.Precedence_violated (0, 1) ] -> ()
  | vs ->
    Alcotest.failf "expected precedence violation, got %a"
      (Fmt.Dump.list P.pp_violation) vs

let test_placement_accessors () =
  let p = P.make two_boxes [| [| 1; 0; 3 |]; [| 0; 0; 0 |] |] in
  Alcotest.(check int) "start" 3 (P.start_time p 0);
  Alcotest.(check int) "finish" 5 (P.finish_time p 0);
  let i = P.interval p 0 0 in
  Alcotest.(check int) "interval lo" 1 i.I.lo

(* ------------------------------------------------------------------ *)
(* Render                                                              *)
(* ------------------------------------------------------------------ *)

let test_render_slice () =
  let p = P.make two_boxes [| [| 0; 0; 0 |]; [| 2; 0; 0 |] |] in
  let container = Container.make3 ~w:4 ~h:2 ~t_max:2 in
  Alcotest.(check (list string)) "slice" [ "AABB"; "AABB" ]
    (Render.slice p ~container ~time:0);
  Alcotest.(check (list string)) "after finish" [ "...."; "...." ]
    (Render.slice p ~container ~time:2)

let test_render_gantt () =
  let p = P.make two_boxes [| [| 0; 0; 0 |]; [| 0; 0; 2 |] |] in
  let g = Render.gantt p in
  Alcotest.(check bool) "mentions both boxes" true
    (String.length g > 0
    && String.contains g 'A'
    && String.contains g 'B')

(* Random feasible-by-construction shelf placements stay feasible. *)
let arb_shelf =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* ws = list_repeat n (int_range 1 4) in
      let* ds = list_repeat n (int_range 1 4) in
      return (ws, ds))
  in
  QCheck.make gen

let prop_shelf_feasible (ws, ds) =
  (* Place boxes left to right on one shelf: trivially disjoint in x. *)
  let boxes =
    Array.of_list (List.map2 (fun w d -> Box.make3 ~w ~h:1 ~duration:d) ws ds)
  in
  let x = ref 0 in
  let origins =
    Array.map
      (fun b ->
        let o = [| !x; 0; 0 |] in
        x := !x + Box.extent b 0;
        o)
      boxes
  in
  let container = Container.make3 ~w:(max 1 !x) ~h:1 ~t_max:5 in
  P.is_feasible (P.make boxes origins) ~container ~precedes:no_prec


(* ------------------------------------------------------------------ *)
(* SVG                                                                 *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nl = String.length needle and l = String.length hay in
  let rec go i = i + nl <= l && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_svg_floorplan () =
  let p = P.make two_boxes [| [| 0; 0; 0 |]; [| 2; 0; 0 |] |] in
  let container = Container.make3 ~w:4 ~h:2 ~t_max:2 in
  let svg = Geometry.Svg.floorplan p ~container ~time:0 () in
  Alcotest.(check bool) "svg root" true (contains svg "<svg xmlns=");
  (* Background + two task rectangles. *)
  let rects = ref 0 in
  let i = ref 0 in
  while !i + 5 <= String.length svg do
    if String.sub svg !i 5 = "<rect" then incr rects;
    incr i
  done;
  Alcotest.(check int) "three rectangles" 3 !rects;
  (* After both finish: only the background remains. *)
  let svg = Geometry.Svg.floorplan p ~container ~time:2 () in
  let rects = ref 0 in
  let i = ref 0 in
  while !i + 5 <= String.length svg do
    if String.sub svg !i 5 = "<rect" then incr rects;
    incr i
  done;
  Alcotest.(check int) "only background" 1 !rects

let test_svg_storyboard () =
  let p = P.make two_boxes [| [| 0; 0; 0 |]; [| 0; 0; 2 |] |] in
  let container = Container.make3 ~w:2 ~h:2 ~t_max:4 in
  let svg =
    Geometry.Svg.storyboard p ~container
      ~labels:(fun i -> Printf.sprintf "task<%d>" i)
      ()
  in
  Alcotest.(check bool) "two slices" true
    (contains svg "t = 0" && contains svg "t = 2");
  (* Labels are escaped. *)
  Alcotest.(check bool) "escaped" true (contains svg "task&lt;0&gt;");
  Alcotest.(check bool) "no raw angle" false (contains svg "task<0>")

let () =
  Alcotest.run "geometry"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "overlap" `Quick test_interval_overlap;
          Alcotest.test_case "within" `Quick test_interval_within;
          qtest "overlap symmetric" QCheck.(pair arb_interval arb_interval)
            prop_overlap_symmetric;
          qtest "overlap iff common point" QCheck.(pair arb_interval arb_interval)
            prop_overlap_iff_common_point;
          qtest "precedes implies disjoint" QCheck.(pair arb_interval arb_interval)
            prop_precedes_implies_disjoint;
        ] );
      ( "box/container",
        [
          Alcotest.test_case "box basics" `Quick test_box_basics;
          Alcotest.test_case "box check volume" `Quick test_box_check_volume;
          Alcotest.test_case "box rotate" `Quick test_box_rotate;
          Alcotest.test_case "container fits" `Quick test_container_fits;
        ] );
      ( "placement",
        [
          Alcotest.test_case "feasible" `Quick test_placement_feasible;
          Alcotest.test_case "overlap" `Quick test_placement_overlap;
          Alcotest.test_case "time separation" `Quick test_placement_time_separation;
          Alcotest.test_case "bounds" `Quick test_placement_bounds;
          Alcotest.test_case "precedence" `Quick test_placement_precedence;
          Alcotest.test_case "accessors" `Quick test_placement_accessors;
          qtest "shelf placements feasible" arb_shelf prop_shelf_feasible;
        ] );
      ( "svg",
        [
          Alcotest.test_case "floorplan" `Quick test_svg_floorplan;
          Alcotest.test_case "storyboard" `Quick test_svg_storyboard;
        ] );
      ( "render",
        [
          Alcotest.test_case "slice" `Quick test_render_slice;
          Alcotest.test_case "gantt" `Quick test_render_gantt;
        ] );
    ]
