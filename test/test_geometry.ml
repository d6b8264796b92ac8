(* Tests for boxes, containers, placements and rendering. *)

module Box = Geometry.Box
module Container = Geometry.Container
module P = Geometry.Placement
module Render = Geometry.Render

let seed = [| 0x6E0; 2026 |]

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

let test_container_fits () =
  let c = Container.make3 ~w:32 ~h:32 ~t_max:10 in
  (* A box fits the container iff it is in bounds at the origin. *)
  let fits b =
    P.is_feasible
      (P.make [| b |] [| [| 0; 0; 0 |] |])
      ~container:c
      ~precedes:(fun _ _ -> false)
  in
  Alcotest.(check bool) "fits" true (fits (Box.make3 ~w:32 ~h:16 ~duration:10));
  Alcotest.(check bool) "too long" false
    (fits (Box.make3 ~w:32 ~h:16 ~duration:11));
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
  Alcotest.(check (array int)) "origin" [| 1; 0; 3 |] (P.origin p 0)

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


(* Random placements for the comparison with the reference copy of
   [check]: d in {2, 3, 4}, up to 8 boxes of extents 1..3 in a
   container of 2..5 per axis, origins from -1 to the container's
   extent (so some boxes leave it), and each ordered pair an arc with
   probability 1/4 (so some start before a predecessor finishes). *)
let arb_violations =
  let gen =
    QCheck.Gen.(
      let* d = int_range 2 4 in
      let* cont = array_repeat d (int_range 2 5) in
      let* n = int_range 0 8 in
      let* boxes =
        array_repeat n
          (let* ext = array_repeat d (int_range 1 3) in
           let* org = flatten_a (Array.map (fun c -> int_range (-1) c) cont) in
           return (ext, org))
      in
      let* arcs = array_repeat (n * n) (int_range 1 4) in
      return (cont, boxes, Array.map (fun a -> a = 1) arcs))
  in
  QCheck.make gen ~print:(fun (cont, boxes, _) ->
      let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
      Printf.sprintf "container %s, boxes %s" (ints cont)
        (String.concat " "
           (Array.to_list
              (Array.map
                 (fun (e, o) -> Printf.sprintf "%s@%s" (ints e) (ints o))
                 boxes))))

let violations_of (cont, boxes, arcs) ~check =
  let n = Array.length boxes in
  let p = P.make (Array.map (fun (e, _) -> Box.make e) boxes) (Array.map snd boxes) in
  check p ~container:(Container.make cont) ~precedes:(fun u v -> arcs.((u * n) + v))

let prop_check_matches_reference case =
  violations_of case ~check:P.check
  = violations_of case ~check:Placement_reference.check

let check_seed = [| 0xC4EC; 2026 |]
let check_cases = 1000

(* The compared sample holds every kind of violation, and feasible
   placements too. *)
let test_check_sample_covers () =
  let runs =
    List.map
      (violations_of ~check:P.check)
      (QCheck.Gen.generate ~rand:(Fixed_seed.rand check_seed) ~n:check_cases
         (QCheck.get_gen arb_violations))
  in
  let count p = List.length (List.filter (List.exists p) runs) in
  let out = count (function P.Out_of_bounds _ -> true | _ -> false)
  and overlap = count (function P.Boxes_overlap _ -> true | _ -> false)
  and prec = count (function P.Precedence_violated _ -> true | _ -> false)
  and clean = List.length (List.filter (( = ) []) runs) in
  Alcotest.(check bool)
    (Printf.sprintf "%d out of bounds, %d overlaps, %d precedence, %d feasible"
       out overlap prec clean)
    true
    (out > 0 && overlap > 0 && prec > 0 && clean > 0)

(* ------------------------------------------------------------------ *)
(* SVG                                                                 *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nl = String.length needle and l = String.length hay in
  let rec go i = i + nl <= l && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_svg_storyboard () =
  let p = P.make two_boxes [| [| 0; 0; 0 |]; [| 0; 0; 2 |] |] in
  let container = Container.make3 ~w:2 ~h:2 ~t_max:4 in
  let svg =
    Geometry.Svg.storyboard p ~container
      ~labels:(fun i -> Printf.sprintf "task<%d>" i)
      ()
  in
  Alcotest.(check bool) "svg root" true (contains svg "<svg xmlns=");
  Alcotest.(check bool) "two slices" true
    (contains svg "t = 0" && contains svg "t = 2");
  (* Each slice draws its background and only the task running then;
     the Gantt strip adds one bar per task. *)
  let rects = ref 0 in
  for i = 0 to String.length svg - 5 do
    if String.sub svg i 5 = "<rect" then incr rects
  done;
  Alcotest.(check int) "two backgrounds, two running tasks, two bars" 6 !rects;
  (* Labels are escaped. *)
  Alcotest.(check bool) "escaped" true (contains svg "task&lt;0&gt;");
  Alcotest.(check bool) "no raw angle" false (contains svg "task<0>")

let () =
  Alcotest.run "geometry"
    [
      ( "box/container",
        [
          Alcotest.test_case "box basics" `Quick test_box_basics;
          Alcotest.test_case "box check volume" `Quick test_box_check_volume;
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
          Fixed_seed.qtest ~seed ~count:200 "shelf placements feasible"
            arb_shelf prop_shelf_feasible;
          Fixed_seed.qtest ~seed:check_seed ~count:check_cases
            "check matches the reference copy" arb_violations
            prop_check_matches_reference;
          Alcotest.test_case "reference sample has every violation" `Quick
            test_check_sample_covers;
        ] );
      ( "svg",
        [
          Alcotest.test_case "storyboard" `Quick test_svg_storyboard;
        ] );
      ( "render",
        [
          Alcotest.test_case "slice" `Quick test_render_slice;
          Alcotest.test_case "gantt" `Quick test_render_gantt;
        ] );
    ]
