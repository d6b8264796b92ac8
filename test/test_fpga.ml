(* Tests for the FPGA substrate: chip model, module library,
   reconfiguration cost models, instance IO, and the cycle-accurate
   simulator. *)

module Box = Geometry.Box
module Placement = Geometry.Placement
module Chip = Fpga.Chip
module ML = Fpga.Module_library
module Reconfig = Fpga.Reconfig
module Sim = Fpga.Simulator
module IO = Fpga.Instance_io

let seed = [| 0xF96A; 2026 |]

(* ------------------------------------------------------------------ *)
(* Chip                                                                *)
(* ------------------------------------------------------------------ *)

let test_chip_basics () =
  let c = Chip.create ~w:32 ~h:16 in
  Alcotest.(check int) "cells" 512 (Chip.cells c);
  let container = Chip.container c ~t_max:5 in
  Alcotest.(check (array int)) "chip x time" [| 32; 16; 5 |]
    (Geometry.Container.extents container);
  Alcotest.check_raises "positive" (Invalid_argument "Chip.create: non-positive size")
    (fun () -> ignore (Chip.create ~w:0 ~h:4))

(* ------------------------------------------------------------------ *)
(* Module library                                                      *)
(* ------------------------------------------------------------------ *)

let mul =
  { ML.type_name = "MUL"; width = 16; height = 16; exec_time = 2; reconfig_time = 1 }

let alu =
  { ML.type_name = "ALU"; width = 16; height = 1; exec_time = 1; reconfig_time = 0 }

let test_library_basics () =
  let lib = ML.create [ mul; alu ] in
  Alcotest.(check string) "find" "ALU" (ML.find lib "ALU").ML.type_name;
  Alcotest.check_raises "unknown type" Not_found (fun () ->
      ignore (ML.find lib "FPU"));
  let b = ML.box (ML.find lib "MUL") in
  Alcotest.(check int) "duration includes reconfig" 3 (Box.extent b 2)

let test_library_duplicate () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Module_library.create: duplicate type MUL") (fun () ->
      ignore (ML.create [ mul; mul ]))

let test_library_instantiate () =
  let lib = ML.create [ mul; alu ] in
  let boxes, labels =
    ML.instantiate lib ~tasks:[ ("a", "MUL"); ("b", "ALU"); ("c", "ALU") ]
  in
  Alcotest.(check int) "count" 3 (Array.length boxes);
  Alcotest.(check string) "label" "b" labels.(1);
  Alcotest.(check int) "alu height" 1 (Box.extent boxes.(1) 1)

(* ------------------------------------------------------------------ *)
(* Reconfig                                                            *)
(* ------------------------------------------------------------------ *)

let test_reconfig_models () =
  Alcotest.(check int) "constant" 7 (Reconfig.load_time (Reconfig.Constant 7) ~w:16 ~h:16);
  Alcotest.(check int) "per column" 32 (Reconfig.load_time (Reconfig.Per_column 2) ~w:16 ~h:16);
  Alcotest.(check int) "per cell" 256 (Reconfig.load_time (Reconfig.Per_cell 1) ~w:16 ~h:16)

(* ------------------------------------------------------------------ *)
(* Simulator                                                           *)
(* ------------------------------------------------------------------ *)

let two_tasks ?precedence () =
  Packing.Instance.make ?precedence
    ~boxes:[| Box.make3 ~w:2 ~h:2 ~duration:2; Box.make3 ~w:2 ~h:2 ~duration:2 |]
    ()

let test_simulator_ok () =
  let inst = two_tasks ~precedence:[ (0, 1) ] () in
  let p = Placement.make (Packing.Instance.boxes inst) [| [| 0; 0; 0 |]; [| 0; 0; 2 |] |] in
  let r = Sim.run inst p ~chip:(Chip.create ~w:2 ~h:2) in
  Alcotest.(check bool) "ok" true r.Sim.ok;
  Alcotest.(check int) "makespan" 4 r.Sim.makespan;
  Alcotest.(check int) "reconfigurations" 2 r.Sim.reconfigurations;
  (* Producer hands 2 words (its width) to one consumer: 2 out + 2 in. *)
  Alcotest.(check int) "bus words" 4 r.Sim.bus_words;
  Alcotest.(check int) "busy cells" 16 r.Sim.busy_cell_cycles;
  Alcotest.(check bool) "full utilization" true (r.Sim.utilization = 1.0)

let test_simulator_detects_overlap () =
  let inst = two_tasks () in
  let p = Placement.make (Packing.Instance.boxes inst) [| [| 0; 0; 0 |]; [| 1; 1; 0 |] |] in
  let r = Sim.run inst p ~chip:(Chip.create ~w:4 ~h:4) in
  Alcotest.(check bool) "invalid" false r.Sim.ok;
  Alcotest.(check bool) "mentions cell" true
    (List.exists (fun e -> String.length e > 0) r.Sim.errors)

let test_simulator_detects_bounds () =
  let inst = two_tasks () in
  let p = Placement.make (Packing.Instance.boxes inst) [| [| 0; 0; 0 |]; [| 3; 0; 0 |] |] in
  let r = Sim.run inst p ~chip:(Chip.create ~w:4 ~h:4) in
  Alcotest.(check bool) "invalid" false r.Sim.ok

let test_simulator_detects_precedence () =
  let inst = two_tasks ~precedence:[ (0, 1) ] () in
  let p = Placement.make (Packing.Instance.boxes inst) [| [| 0; 0; 0 |]; [| 2; 0; 0 |] |] in
  let r = Sim.run inst p ~chip:(Chip.create ~w:4 ~h:4) in
  Alcotest.(check bool) "read-out violated" false r.Sim.ok

let test_simulator_memory_profile () =
  (* Producer finishes at 2; consumer starts at 6: result parked for
     4 cycles; peak = width of producer = 3 words. *)
  let inst =
    Packing.Instance.make ~precedence:[ (0, 1) ]
      ~boxes:[| Box.make3 ~w:3 ~h:1 ~duration:2; Box.make3 ~w:1 ~h:1 ~duration:1 |]
      ()
  in
  let p = Placement.make (Packing.Instance.boxes inst) [| [| 0; 0; 0 |]; [| 0; 0; 6 |] |] in
  let r = Sim.run inst p ~chip:(Chip.create ~w:4 ~h:4) in
  Alcotest.(check bool) "ok" true r.Sim.ok;
  Alcotest.(check int) "peak memory" 3 r.Sim.peak_memory_words

let test_simulator_events_ordered () =
  let inst = two_tasks ~precedence:[ (0, 1) ] () in
  let p = Placement.make (Packing.Instance.boxes inst) [| [| 0; 0; 0 |]; [| 0; 0; 2 |] |] in
  let r = Sim.run inst p ~chip:(Chip.create ~w:2 ~h:2) in
  let times = List.map (fun e -> e.Sim.time) r.Sim.events in
  Alcotest.(check (list int)) "chronological" (List.sort compare times) times

(* Any solver-produced placement simulates cleanly. *)
let arb_seed = QCheck.int_range 0 10_000

let prop_solved_placements_simulate seed =
  let container = Geometry.Container.make3 ~w:6 ~h:6 ~t_max:8 in
  let inst, _ =
    Benchmarks.Generate.guillotine ~seed ~container ~cuts:5 ~arc_probability:0.3 ()
  in
  match Packing.Opp_solver.solve inst container with
  | Packing.Opp_solver.Feasible p, _ ->
    let r = Sim.run inst p ~chip:(Chip.create ~w:6 ~h:6) in
    r.Sim.ok
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Instance IO                                                         *)
(* ------------------------------------------------------------------ *)

let sample =
  {|# a tiny instance
name demo
chip 8 8
time 10
module M 4 4 2 1
task a M
task b 2 2 3
dep a b
|}

let test_io_parse () =
  let io = IO.parse sample in
  let inst = io.IO.instance in
  Alcotest.(check string) "name" "demo" (Packing.Instance.name inst);
  Alcotest.(check int) "count" 2 (Packing.Instance.count inst);
  (* module M: exec 2 + reconfig 1 = 3 cycles *)
  Alcotest.(check int) "module duration" 3 (Packing.Instance.duration inst 0);
  Alcotest.(check bool) "dep" true (Packing.Instance.precedes inst 0 1);
  (match io.IO.chip with
  | Some c -> Alcotest.(check int) "chip" 8 (Chip.width c)
  | None -> Alcotest.fail "chip expected");
  Alcotest.(check (option int)) "time" (Some 10) io.IO.t_max

let test_io_errors () =
  let expect_failure text msg_part =
    match IO.parse text with
    | exception Failure msg ->
      if
        not
          (String.length msg >= String.length msg_part
          && String.exists (fun _ -> true) msg)
      then Alcotest.failf "unexpected message %s" msg
    | _ -> Alcotest.failf "expected failure for %s" msg_part
  in
  expect_failure "task a NOPE" "unknown module";
  expect_failure "task a 1 1 1\ntask a 1 1 1" "duplicate";
  expect_failure "task a 1 1 1\ndep a b" "unknown task";
  expect_failure "frobnicate 1" "unknown directive";
  expect_failure "task a 0 1 1" "non-positive";
  expect_failure "" "no tasks";
  expect_failure "task a 1 1 1\ntask b 1 1 1\ndep a b\ndep b a" "cycle"

(* A container and a box whose volumes wrap past max_int used to
   parse, after which the wrapped volumes made the bounds report this
   feasible instance (run a, then b) infeasible. The 100x100 analogue
   is the same shape in range. *)
let test_io_volume_overflow () =
  let shape side =
    Printf.sprintf "container %d %d 10\nbox a %d %d 5\nbox b 3 3 5\n" side
      side side side
  in
  (match IO.parse (shape 4611686018427387903) with
  | exception Failure msg ->
    Alcotest.(check string) "typed error"
      "line 1: extents 4611686018427387903x4611686018427387903x10: volume \
       exceeds 2^40"
      msg
  | _ -> Alcotest.fail "overflowing extents parsed");
  (match IO.parse "box a 1 1 1\nbox b 1048576 1048576 2\n" with
  | exception Failure msg ->
    Alcotest.(check string) "box past 2^40"
      "line 2: extents 1048576x1048576x2: volume exceeds 2^40" msg
  | _ -> Alcotest.fail "box past 2^40 parsed");
  (match IO.parse "chip 1048576 1048576\ntime 2\ntask a 1 1 1\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "chip x time past 2^40 parsed");
  let io = IO.parse (shape 100) in
  match io.IO.container with
  | None -> Alcotest.fail "container expected"
  | Some c -> (
    match Packing.Opp_solver.solve io.IO.instance c with
    | Packing.Opp_solver.Feasible _, _ -> ()
    | _ -> Alcotest.fail "100x100 analogue should be feasible")

let test_io_roundtrip () =
  let io = IO.parse sample in
  let io2 = IO.parse (IO.print io) in
  let i1 = io.IO.instance and i2 = io2.IO.instance in
  Alcotest.(check int) "count" (Packing.Instance.count i1) (Packing.Instance.count i2);
  for i = 0 to Packing.Instance.count i1 - 1 do
    Alcotest.(check string) "label" (Packing.Instance.label i1 i)
      (Packing.Instance.label i2 i);
    Alcotest.(check bool) "box" true
      (Box.equal (Packing.Instance.box i1 i) (Packing.Instance.box i2 i))
  done;
  Alcotest.(check bool) "precedence" true
    (Packing.Instance.precedes i2 0 1)

(* parse ∘ print is the identity on every instance the generators can
   produce: same labels, boxes, and (transitively closed) precedence. *)
let prop_io_roundtrip_id seed =
  let n = 1 + (seed mod 9) in
  let i1 =
    Benchmarks.Generate.random ~seed ~n ~max_extent:5 ~max_duration:4
      ~arc_probability:0.3 ()
  in
  let io1 =
    {
      IO.instance = i1;
      chip = (if seed mod 3 = 0 then Some (Chip.create ~w:7 ~h:5) else None);
      t_max = (if seed mod 2 = 0 then Some (4 + (seed mod 7)) else None);
      container = None;
    }
  in
  let io2 = IO.parse (IO.print io1) in
  let i2 = io2.IO.instance in
  Packing.Instance.name i1 = Packing.Instance.name i2
  && Packing.Instance.count i1 = Packing.Instance.count i2
  && List.for_all
       (fun i ->
         Packing.Instance.label i1 i = Packing.Instance.label i2 i
         && Box.equal (Packing.Instance.box i1 i) (Packing.Instance.box i2 i))
       (List.init (Packing.Instance.count i1) Fun.id)
  && List.for_all
       (fun i ->
         List.for_all
           (fun j ->
             Packing.Instance.precedes i1 i j = Packing.Instance.precedes i2 i j)
           (List.init (Packing.Instance.count i1) Fun.id))
       (List.init (Packing.Instance.count i1) Fun.id)
  && (match (io1.IO.chip, io2.IO.chip) with
     | Some a, Some b -> Chip.width a = Chip.width b && Chip.height a = Chip.height b
     | None, None -> true
     | _ -> false)
  && io1.IO.t_max = io2.IO.t_max

let test_io_de_roundtrip () =
  let io =
    {
      IO.instance = Benchmarks.De.instance;
      chip = Some (Chip.square 32);
      t_max = Some 14;
      container = None;
    }
  in
  let io2 = IO.parse (IO.print io) in
  Alcotest.(check int) "11 tasks" 11 (Packing.Instance.count io2.IO.instance);
  (* Transitive closure survives: v1 precedes v5 through v3, v4. *)
  Alcotest.(check bool) "closure" true (Packing.Instance.precedes io2.IO.instance 0 4)

let test_io_v1_byte_compat () =
  (* A 3D time-objective instance without spatial orders must print in
     the legacy v1 grammar byte-for-byte (no dim/objective/box lines),
     and print must be a fixpoint of parse ∘ print. *)
  let io = IO.parse sample in
  let printed = IO.print io in
  Alcotest.(check string) "pinned legacy surface"
    "name demo\nchip 8 8\ntime 10\ntask a 4 4 3\ntask b 2 2 3\ndep a b\n"
    printed;
  Alcotest.(check string) "print is a fixpoint" printed
    (IO.print (IO.parse printed))

let sample_v2 =
  {|# 2D strip with a reading-order arc
dim 2
name strip
container 8 1
box a 3 2
box b 2 4
order 0 a b
|}

let test_io_v2_parse_print () =
  let io = IO.parse sample_v2 in
  let inst = io.IO.instance in
  Alcotest.(check int) "dim" 2 (Packing.Instance.dim inst);
  Alcotest.(check int) "objective defaults to last axis" 1
    (Packing.Instance.objective_axis inst);
  (match io.IO.container with
  | Some c ->
    Alcotest.(check int) "container width" 8 (Geometry.Container.extent c 0)
  | None -> Alcotest.fail "container expected");
  Alcotest.(check bool) "axis-0 order" true
    (Order.Partial_order.precedes (Packing.Instance.order inst 0) 0 1);
  Alcotest.(check bool) "no objective-axis order" false
    (Packing.Instance.precedes inst 0 1);
  let printed = IO.print io in
  Alcotest.(check string) "v2 print is a fixpoint" printed
    (IO.print (IO.parse printed))

let test_io_v2_errors () =
  let expect_failure text =
    match IO.parse text with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "expected failure for %S" text
  in
  (* dimension-dependent directives before/against dim *)
  expect_failure "box a 1 1\ndim 2";
  expect_failure "dim 2\nbox a 1 1 1";
  expect_failure "dim 2\nchip 4 4\nbox a 1 1";
  expect_failure "dim 2\nbox a 1 1\norder 2 a a";
  expect_failure "dim 2\ncontainer 4\nbox a 1 1";
  expect_failure "dim 2\nobjective 5\nbox a 1 1"

(* parse ∘ print is the identity on d-dimensional instances with
   per-axis orders: labels, boxes, every axis's order relation, and
   the container all survive. *)
let prop_io_v2_roundtrip_id seed =
  let dim = 2 + (seed mod 3) in
  let container =
    Geometry.Container.make (Array.init dim (fun k -> 4 + ((seed + k) mod 3)))
  in
  let i1, _ =
    Benchmarks.Generate.guillotine
      ~order_axes:(List.init dim Fun.id)
      ~seed ~container ~cuts:4 ~arc_probability:0.4 ()
  in
  let io1 =
    {
      IO.instance = i1;
      chip = None;
      t_max = None;
      container = (if seed mod 2 = 0 then Some container else None);
    }
  in
  let io2 = IO.parse (IO.print io1) in
  let i2 = io2.IO.instance in
  let n = Packing.Instance.count i1 in
  Packing.Instance.name i1 = Packing.Instance.name i2
  && Packing.Instance.dim i2 = dim
  && Packing.Instance.count i2 = n
  && List.for_all
       (fun i ->
         Packing.Instance.label i1 i = Packing.Instance.label i2 i
         && Box.equal (Packing.Instance.box i1 i) (Packing.Instance.box i2 i))
       (List.init n Fun.id)
  && List.for_all
       (fun k ->
         List.for_all
           (fun i ->
             List.for_all
               (fun j ->
                 Order.Partial_order.precedes (Packing.Instance.order i1 k) i j
                 = Order.Partial_order.precedes (Packing.Instance.order i2 k) i j)
               (List.init n Fun.id))
           (List.init n Fun.id))
       (List.init dim Fun.id)
  &&
  match (io1.IO.container, io2.IO.container) with
  | Some a, Some b ->
    List.for_all
      (fun k -> Geometry.Container.extent a k = Geometry.Container.extent b k)
      (List.init dim Fun.id)
  | None, None -> true
  | _ -> false


(* ------------------------------------------------------------------ *)
(* VCD export                                                          *)
(* ------------------------------------------------------------------ *)

let test_vcd_structure () =
  let inst = two_tasks ~precedence:[ (0, 1) ] () in
  let p = Placement.make (Packing.Instance.boxes inst) [| [| 0; 0; 0 |]; [| 0; 0; 2 |] |] in
  let vcd = Fpga.Vcd.of_placement inst p ~chip:(Chip.create ~w:2 ~h:2) in
  let contains needle =
    let nl = String.length needle and l = String.length vcd in
    let rec go i = i + nl <= l && (String.sub vcd i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "timescale" true (contains "$timescale 1ns $end");
  Alcotest.(check bool) "wire for t0" true (contains " t0 ");
  Alcotest.(check bool) "occupancy vector" true (contains "occupied_cells");
  Alcotest.(check bool) "time marker" true (contains "#0\n");
  Alcotest.(check bool) "final time" true (contains "#4\n")

let test_vcd_value_changes () =
  let inst = two_tasks () in
  let p = Placement.make (Packing.Instance.boxes inst) [| [| 0; 0; 0 |]; [| 2; 0; 0 |] |] in
  let vcd = Fpga.Vcd.of_placement inst p ~chip:(Chip.create ~w:4 ~h:2) in
  (* Both tasks rise at #0 and fall at #2; occupancy 8 then 0. *)
  let lines = String.split_on_char '\n' vcd in
  Alcotest.(check bool) "rise" true (List.mem "1!" lines && List.mem "1\"" lines);
  Alcotest.(check bool) "fall" true (List.mem "0!" lines && List.mem "0\"" lines)


(* ------------------------------------------------------------------ *)
(* Free-space manager                                                  *)
(* ------------------------------------------------------------------ *)

module FS = Fpga.Free_space

let test_fs_basic () =
  let t = FS.create ~w:4 ~h:4 in
  Alcotest.(check int) "one MER" 1 (FS.mer_count t);
  Alcotest.(check int) "free" 16 (FS.free_area t);
  FS.place t ~id:0 ~x:0 ~y:0 ~w:2 ~h:2;
  Alcotest.(check int) "free after place" 12 (FS.free_area t);
  Alcotest.(check int) "used" 4 ((FS.width t * FS.height t) - FS.free_area t);
  (* Residuals of the single split: the right strip and the top strip. *)
  Alcotest.(check bool) "right strip is a MER" true
    (List.mem (2, 0, 2, 4) (FS.mers t));
  Alcotest.(check bool) "top strip is a MER" true
    (List.mem (0, 2, 4, 2) (FS.mers t));
  (match FS.find t ~policy:FS.Best_fit ~w:2 ~h:2 with
  | Some _ -> ()
  | None -> Alcotest.fail "2x2 must fit");
  Alcotest.(check (option (pair int int))) "3x3 does not fit" None
    (FS.find t ~policy:FS.First_fit ~w:3 ~h:3);
  FS.remove t ~id:0;
  Alcotest.(check int) "whole chip again" 1 (FS.mer_count t);
  Alcotest.(check bool) "full MER" true (List.mem (0, 0, 4, 4) (FS.mers t))

(* [place] refuses a footprint that meets a live module, whether it
   covers it, sits inside it or clips a corner, and leaves the manager
   as it was. *)
let test_fs_place_rejects_overlap () =
  let t = FS.create ~w:6 ~h:6 in
  FS.place t ~id:0 ~x:2 ~y:2 ~w:2 ~h:2;
  let mers = FS.mers t in
  List.iter
    (fun (x, y, w, h) ->
      Alcotest.check_raises
        (Printf.sprintf "overlap at (%d,%d) %dx%d" x y w h)
        (Invalid_argument "Free_space.place: footprint overlaps a module")
        (fun () -> FS.place t ~id:1 ~x ~y ~w ~h))
    [ (0, 0, 6, 6); (2, 2, 1, 1); (3, 3, 2, 2); (1, 1, 2, 2); (0, 3, 3, 1) ];
  Alcotest.(check bool) "MERs unchanged" true (FS.mers t = mers);
  Alcotest.(check int) "free area unchanged" 32 (FS.free_area t);
  FS.place t ~id:1 ~x:4 ~y:2 ~w:2 ~h:2;
  Alcotest.(check int) "flush neighbour fits" 28 (FS.free_area t)

(* Reference implementation: enumerate every maximal empty rectangle of
   an occupancy bitmap by brute force. Emptiness is read off a prefix-sum
   table, so larger chips stay cheap. *)
let brute_mers grid ~w ~h =
  let sum = Array.make_matrix (h + 1) (w + 1) 0 in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      sum.(y + 1).(x + 1) <-
        (if grid.(y).(x) then 1 else 0)
        + sum.(y).(x + 1) + sum.(y + 1).(x) - sum.(y).(x)
    done
  done;
  let rect_empty x y rw rh =
    sum.(y + rh).(x + rw) - sum.(y).(x + rw) - sum.(y + rh).(x) + sum.(y).(x)
    = 0
  in
  let rects = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      for rh = 1 to h - y do
        for rw = 1 to w - x do
          if rect_empty x y rw rh then
            let extendable =
              (x > 0 && rect_empty (x - 1) y (rw + 1) rh)
              || (y > 0 && rect_empty x (y - 1) rw (rh + 1))
              || (x + rw < w && rect_empty x y (rw + 1) rh)
              || (y + rh < h && rect_empty x y rw (rh + 1))
            in
            if not extendable then rects := (x, y, rw, rh) :: !rects
        done
      done
    done
  done;
  List.sort_uniq compare !rects

(* A manager driven side by side with an occupancy bitmap. *)
type fs_model = {
  fs : FS.t;
  grid : bool array array;
  mutable live : (int * (int * int * int * int)) list;
  mutable next_id : int;
}

let fs_model ~w ~h =
  {
    fs = FS.create ~w ~h;
    grid = Array.make_matrix h w false;
    live = [];
    next_id = 0;
  }

let copy_model m =
  { m with fs = FS.copy m.fs; grid = Array.map Array.copy m.grid }

let paint m v (x, y, bw, bh) =
  for yy = y to y + bh - 1 do
    for xx = x to x + bw - 1 do
      m.grid.(yy).(xx) <- v
    done
  done

(* The manager's MERs and free area agree with the bitmap. *)
let model_agrees m =
  let w = FS.width m.fs and h = FS.height m.fs in
  List.sort compare (FS.mers m.fs) = brute_mers m.grid ~w ~h
  && FS.free_area m.fs
     = Array.fold_left
         (fun acc row ->
           Array.fold_left (fun a c -> if c then a else a + 1) acc row)
         0 m.grid

(* Fit selection by definition: over the sorted MER list, the first MER
   minimizing (policy key, y, x) among those that host [w * h]. *)
let reference_find mers ~policy ~w ~h =
  let key (x, y, mw, mh) =
    match policy with
    | FS.First_fit -> (0, y, x)
    | FS.Best_fit -> (mw * mh, y, x)
    | FS.Worst_fit -> (-(mw * mh), y, x)
  in
  List.fold_left
    (fun best ((x, y, mw, mh) as m) ->
      if mw < w || mh < h then best
      else
        match best with
        | Some (k, _) when k <= key m -> best
        | _ -> Some (key m, (x, y)))
    None mers
  |> Option.map snd

(* Bottom-left placement read straight off the occupancy bitmap, with
   no MERs: the lowest (y, x) origin where a [bw * bh] footprint covers
   only free cells. *)
let bottom_left grid ~w ~h ~bw ~bh =
  let fits x y =
    let ok = ref true in
    for yy = y to y + bh - 1 do
      for xx = x to x + bw - 1 do
        if grid.(yy).(xx) then ok := false
      done
    done;
    !ok
  in
  let rec scan x y =
    if y + bh > h then None
    else if x + bw > w then scan 0 (y + 1)
    else if fits x y then Some (x, y)
    else scan (x + 1) y
  in
  scan 0 0

(* Place a module of extents up to [max_extent] under a random policy
   where [find] puts it. False when [find] disagrees with
   [reference_find], when first fit disagrees with the bitmap's
   bottom-left position, or when [find] finds no room and [room bw bh]
   says there is. *)
let model_place rng m ~max_extent ~room =
  let w = FS.width m.fs and h = FS.height m.fs in
  let bw = 1 + Random.State.int rng max_extent
  and bh = 1 + Random.State.int rng max_extent in
  let policy =
    match Random.State.int rng 3 with
    | 0 -> FS.First_fit
    | 1 -> FS.Best_fit
    | _ -> FS.Worst_fit
  in
  let got = FS.find m.fs ~policy ~w:bw ~h:bh in
  got = reference_find (FS.mers m.fs) ~policy ~w:bw ~h:bh
  && FS.find m.fs ~policy:FS.First_fit ~w:bw ~h:bh
     = bottom_left m.grid ~w ~h ~bw ~bh
  &&
  match got with
  | None -> not (room bw bh)
  | Some (x, y) ->
    let id = m.next_id in
    m.next_id <- id + 1;
    FS.place m.fs ~id ~x ~y ~w:bw ~h:bh;
    paint m true (x, y, bw, bh);
    m.live <- (id, (x, y, bw, bh)) :: m.live;
    true

(* Retire a random live module. *)
let model_remove rng m =
  let k = Random.State.int rng (List.length m.live) in
  let id, rect = List.nth m.live k in
  FS.remove m.fs ~id;
  paint m false rect;
  m.live <- List.filter (fun (i, _) -> i <> id) m.live

(* One random step: a [model_place] that checks "no room" against the
   brute-force MERs, or the retirement of a random live module. *)
let model_step rng m ~max_extent =
  let w = FS.width m.fs and h = FS.height m.fs in
  if m.live = [] || Random.State.bool rng then
    model_place rng m ~max_extent ~room:(fun bw bh ->
        List.exists
          (fun (_, _, rw, rh) -> rw >= bw && rh >= bh)
          (brute_mers m.grid ~w ~h))
  else begin
    model_remove rng m;
    true
  end

(* [steps] random steps, checking the manager against brute force after
   every one. *)
let model_walk rng m ~steps ~max_extent =
  let ok = ref true in
  for _ = 1 to steps do
    if !ok then ok := model_step rng m ~max_extent && model_agrees m
  done;
  !ok

(* Incremental MER maintenance matches the brute-force enumeration
   after every place/remove of a random workload. *)
let prop_fs_matches_brute_force seed =
  model_walk (Random.State.make [| seed |]) (fs_model ~w:6 ~h:6) ~steps:30
    ~max_extent:3

(* The same on a non-square chip with longer walks: more obstacles, so
   the compressed grid of [remove] has uneven columns and rows. *)
let prop_fs_non_square_brute_force seed =
  model_walk (Random.State.make [| seed |]) (fs_model ~w:11 ~h:9) ~steps:120
    ~max_extent:4

(* The regime of the online workloads: a 32x32 chip with extents up
   to 8, where two steps in three try to place, so the chip fills and
   stays fragmented and a freed footprint's box is a small part of it.
   Brute force checks the MERs after every retirement. That also
   checks what the placements before it left: [remove] recomputes only
   near the freed footprint, so a wrong MER elsewhere stays. A failed
   [find] needs no
   brute-force check: first fit agreeing with the bitmap's bottom-left
   position already shows there is no room. *)
let prop_fs_fragmented_brute_force seed =
  let rng = Random.State.make [| seed |] in
  let m = fs_model ~w:32 ~h:32 in
  let ok = ref true in
  for _ = 1 to 400 do
    if !ok then
      ok :=
        if m.live = [] || Random.State.int rng 3 > 0 then
          model_place rng m ~max_extent:8 ~room:(fun _ _ -> false)
        else begin
          model_remove rng m;
          model_agrees m
        end
  done;
  !ok

(* A copy shares no mutable state with its original: mutating the copy
   leaves the original's MERs, modules and free area as they were, and
   both keep matching brute force as each one moves on. *)
let prop_fs_copy_independent seed =
  let rng = Random.State.make [| seed |] in
  let m = fs_model ~w:9 ~h:7 in
  model_walk rng m ~steps:25 ~max_extent:3
  &&
  let c = copy_model m in
  let mers = FS.mers m.fs and occ = FS.occupied m.fs in
  let free = FS.free_area m.fs in
  model_walk rng c ~steps:25 ~max_extent:3
  && FS.mers m.fs = mers
  && FS.occupied m.fs = occ
  && FS.free_area m.fs = free
  && model_agrees m
  && model_walk rng m ~steps:25 ~max_extent:3
  && model_agrees c

(* [fits] answers every footprint up to one cell past the chip exactly
   as [find] does under each policy, and as the brute-force MERs do. *)
let fits_agrees m =
  let w = FS.width m.fs and h = FS.height m.fs in
  let brute = brute_mers m.grid ~w ~h in
  let ok = ref true in
  for bw = 1 to w + 1 do
    for bh = 1 to h + 1 do
      let fits = FS.fits m.fs ~w:bw ~h:bh in
      if
        fits
        <> List.exists (fun (_, _, rw, rh) -> rw >= bw && rh >= bh) brute
        || List.exists
             (fun policy -> fits <> (FS.find m.fs ~policy ~w:bw ~h:bh <> None))
             [ FS.First_fit; FS.Best_fit; FS.Worst_fit ]
      then ok := false
    done
  done;
  !ok

(* The same after every step of a random walk, and on a copy taken
   after the original built its table: the copy shares that table, and
   moving either one on must not leave the other answering from it. *)
let prop_fs_fits_agrees seed =
  let rng = Random.State.make [| seed |] in
  let walk m =
    let ok = ref true in
    for _ = 1 to 20 do
      if !ok then ok := model_step rng m ~max_extent:4 && fits_agrees m
    done;
    !ok
  in
  let m = fs_model ~w:8 ~h:7 in
  walk m
  &&
  let c = copy_model m in
  fits_agrees c && walk c && fits_agrees m && walk m && fits_agrees c

(* [cap] is the height bound [fits] reads: for every width and height
   up to one cell past the chip, [fits] holds exactly when the width is
   on the chip and the height is at most [cap] at that width. *)
let cap_agrees fs =
  let w = FS.width fs and h = FS.height fs in
  let ok = ref (FS.cap fs ~w:(w + 1) = 0) in
  for bw = 1 to w + 1 do
    for bh = 1 to h + 1 do
      if FS.fits fs ~w:bw ~h:bh <> (bw <= w && bh <= FS.cap fs ~w:bw) then
        ok := false
    done
  done;
  !ok

(* The same after every step of a random walk, and on a copy and its
   original as both move on. *)
let prop_fs_cap_agrees seed =
  let rng = Random.State.make [| seed |] in
  let walk m =
    let ok = ref true in
    for _ = 1 to 20 do
      if !ok then ok := model_step rng m ~max_extent:4 && cap_agrees m.fs
    done;
    !ok
  in
  let m = fs_model ~w:9 ~h:6 in
  walk m
  &&
  let c = copy_model m in
  cap_agrees c.fs && walk c && cap_agrees m.fs && walk m && cap_agrees c.fs

(* Modules flush against every side and corner of the chip: each step
   matches brute force, and retiring them all restores the single
   full-chip MER. *)
let test_fs_flush_edges () =
  let m = fs_model ~w:8 ~h:6 in
  let modules =
    [
      (0, 0, 2, 2); (6, 0, 2, 2); (0, 4, 2, 2); (6, 4, 2, 2);
      (3, 0, 2, 1); (3, 5, 2, 1); (0, 2, 1, 2); (7, 2, 1, 2);
    ]
  in
  List.iteri
    (fun id ((x, y, w, h) as r) ->
      FS.place m.fs ~id ~x ~y ~w ~h;
      paint m true r;
      Alcotest.(check bool) (Printf.sprintf "place %d matches brute force" id)
        true (model_agrees m))
    modules;
  List.iteri
    (fun id r ->
      FS.remove m.fs ~id;
      paint m false r;
      Alcotest.(check bool) (Printf.sprintf "remove %d matches brute force" id)
        true (model_agrees m))
    modules;
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "single full-chip MER"
    [ ((0, 0), (8, 6)) ]
    (List.map (fun (x, y, w, h) -> ((x, y), (w, h))) (FS.mers m.fs))

(* ------------------------------------------------------------------ *)
(* Online placement                                                    *)
(* ------------------------------------------------------------------ *)

module Online = Fpga.Online

let online_inst boxes precedence =
  Packing.Instance.make ~precedence ~boxes:(Array.of_list boxes) ()

let test_online_basic () =
  (* Two 2x2 tasks arriving together on a 4x2 chip: both start at 0. *)
  let inst =
    online_inst [ Box.make3 ~w:2 ~h:2 ~duration:3; Box.make3 ~w:2 ~h:2 ~duration:3 ] []
  in
  let r =
    Online.run inst
      [ { Online.task = 0; arrival_time = 0 }; { Online.task = 1; arrival_time = 0 } ]
      ~chip:(Chip.create ~w:4 ~h:2) ~compaction:false ~move_delay:0
  in
  Alcotest.(check int) "both placed" 2 r.Online.placed;
  Alcotest.(check int) "makespan" 3 r.Online.makespan;
  (match r.Online.placement with
  | None -> Alcotest.fail "full placement expected"
  | Some p ->
    Alcotest.(check bool) "valid" true
      (Placement.is_feasible p ~container:(Geometry.Container.make3 ~w:4 ~h:2 ~t_max:3)
         ~precedes:(Packing.Instance.precedes inst)))

let test_online_defer () =
  (* The second task must wait for space. *)
  let inst =
    online_inst [ Box.make3 ~w:2 ~h:2 ~duration:3; Box.make3 ~w:2 ~h:2 ~duration:2 ] []
  in
  let r =
    Online.run inst
      [ { Online.task = 0; arrival_time = 0 }; { Online.task = 1; arrival_time = 1 } ]
      ~chip:(Chip.create ~w:2 ~h:2) ~compaction:false ~move_delay:0
  in
  Alcotest.(check int) "both placed" 2 r.Online.placed;
  Alcotest.(check int) "second waits until 3" 5 r.Online.makespan;
  Alcotest.(check bool) "a deferral happened" true
    (List.exists (function Online.Deferred _ -> true | _ -> false) r.Online.events)

let test_online_rejects_oversize () =
  let inst = online_inst [ Box.make3 ~w:5 ~h:1 ~duration:1 ] [] in
  let r =
    Online.run inst [ { Online.task = 0; arrival_time = 0 } ]
      ~chip:(Chip.create ~w:4 ~h:4) ~compaction:false ~move_delay:0
  in
  Alcotest.(check int) "rejected" 1 r.Online.rejected;
  Alcotest.(check int) "nothing placed" 0 r.Online.placed

let test_online_precedence () =
  let inst =
    online_inst
      [ Box.make3 ~w:2 ~h:2 ~duration:2; Box.make3 ~w:2 ~h:2 ~duration:2 ]
      [ (0, 1) ]
  in
  let r =
    Online.run inst
      [ { Online.task = 0; arrival_time = 0 }; { Online.task = 1; arrival_time = 0 } ]
      ~chip:(Chip.create ~w:4 ~h:4) ~compaction:false ~move_delay:0
  in
  Alcotest.(check int) "both placed" 2 r.Online.placed;
  (* The consumer waits for the producer even though space is free. *)
  Alcotest.(check int) "serialized" 4 r.Online.makespan

(* Three 1x1 tasks pack contiguously into columns 0..2 of a 4x1 chip,
   so the 2-wide arrival is blocked only until they retire and the chip
   never fragments: enabling compaction must not make the run worse. *)
let test_online_compaction_never_worse_unfragmented () =
  let inst =
    online_inst
      [
        Box.make3 ~w:1 ~h:1 ~duration:10;
        Box.make3 ~w:1 ~h:1 ~duration:10;
        Box.make3 ~w:1 ~h:1 ~duration:10;
        Box.make3 ~w:2 ~h:1 ~duration:2;
      ]
      []
  in
  let arrivals =
    [
      { Online.task = 0; arrival_time = 0 };
      { Online.task = 1; arrival_time = 0 };
      { Online.task = 2; arrival_time = 0 };
      { Online.task = 3; arrival_time = 1 };
    ]
  in
  let no_compact =
    Online.run inst arrivals ~chip:(Chip.create ~w:4 ~h:1) ~compaction:false
      ~move_delay:0
  in
  let with_compact =
    Online.run inst arrivals ~chip:(Chip.create ~w:4 ~h:1) ~compaction:true
      ~move_delay:1
  in
  Alcotest.(check bool) "compaction not worse" true
    (with_compact.Online.makespan <= no_compact.Online.makespan);
  Alcotest.(check int) "all placed" 4 with_compact.Online.placed

let test_online_duplicate_arrival () =
  let inst = online_inst [ Box.make3 ~w:1 ~h:1 ~duration:1 ] [] in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Online.run: duplicate arrival") (fun () ->
      ignore
        (Online.run inst
           [ { Online.task = 0; arrival_time = 0 }; { Online.task = 0; arrival_time = 1 } ]
           ~chip:(Chip.create ~w:2 ~h:2) ~compaction:false ~move_delay:0))

let mk w h duration arrival preds = { Online.w; h; duration; arrival; preds }

(* Tasks absent from the arrival list are accounted for, and tasks
   depending on them are rejected, not silently dropped. *)
let test_online_never_arrived () =
  let inst =
    online_inst
      [
        Box.make3 ~w:1 ~h:1 ~duration:1;
        Box.make3 ~w:1 ~h:1 ~duration:1;
        Box.make3 ~w:1 ~h:1 ~duration:1;
      ]
      [ (1, 2) ]
  in
  (* task 1 is missing from the arrivals; task 2 depends on it *)
  let r =
    Online.run inst
      [ { Online.task = 0; arrival_time = 0 }; { Online.task = 2; arrival_time = 0 } ]
      ~chip:(Chip.create ~w:4 ~h:4) ~compaction:false ~move_delay:0
  in
  Alcotest.(check int) "placed" 1 r.Online.placed;
  Alcotest.(check int) "never arrived" 1 r.Online.never_arrived;
  Alcotest.(check int) "dependent rejected" 1 r.Online.rejected;
  Alcotest.(check int) "counts add up" 3
    (r.Online.placed + r.Online.rejected + r.Online.never_arrived)

(* The [--stats json] payload of a report, byte for byte: key order,
   [%.4f] utilization and [%.2f] latencies. *)
let test_online_json_bytes () =
  let r =
    {
      Online.events = [];
      makespan = 1389;
      placed = 9_990;
      rejected = 7;
      never_arrived = 3;
      deferrals = 7264;
      compactions = 51;
      moved_tasks = 77;
      move_cycles = 154;
      utilization = 0.920349;
      latency = { samples = 9_990; p50_us = 3.104; p99_us = 14.0751; max_us = 99.9 };
      placement = None;
    }
  in
  Alcotest.(check string) "online json"
    "{\"tasks\":10000,\"placements\":9990,\"rejections\":7,\"never_arrived\":3,\
     \"deferrals\":7264,\"compactions\":51,\"moved_tasks\":77,\
     \"move_cycles\":154,\"makespan\":1389,\"utilization\":0.9203,\
     \"latency_samples\":9990,\"latency_p50_us\":3.10,\
     \"latency_p99_us\":14.08,\"latency_max_us\":99.90}"
    (Packing.Telemetry.to_string (Online.to_json r))

(* Repacking B and C on a full-width-minus-one chip cannot make room
   for the 2-wide arrival: the transactional compaction must roll back
   and charge nothing. *)
let test_online_compaction_rollback () =
  let tasks =
    [| mk 1 1 1 0 []; mk 1 1 10 0 []; mk 1 1 10 0 []; mk 2 1 1 1 [] |]
  in
  let r =
    Online.run_stream tasks ~chip:(Chip.create ~w:3 ~h:1) ~compaction:true
      ~move_delay:1
  in
  Alcotest.(check int) "all placed eventually" 4 r.Online.placed;
  Alcotest.(check int) "no compaction committed" 0 r.Online.compactions;
  Alcotest.(check int) "no cycles charged" 0 r.Online.move_cycles;
  (* identical outcome to the compaction-off run *)
  let off =
    Online.run_stream tasks ~chip:(Chip.create ~w:3 ~h:1) ~compaction:false
      ~move_delay:1
  in
  Alcotest.(check int) "same makespan as off" off.Online.makespan
    r.Online.makespan

(* Same stream on a 4-wide chip: after the first module retires, the
   free cells are split x=0 / x=3; sliding B and C left makes the
   2-wide arrival fit, so the compaction commits and is paid for. *)
let test_online_compaction_commit () =
  let tasks =
    [| mk 1 1 1 0 []; mk 1 1 10 0 []; mk 1 1 10 0 []; mk 2 1 1 1 [] |]
  in
  let r =
    Online.run_stream tasks ~chip:(Chip.create ~w:4 ~h:1) ~compaction:true
      ~move_delay:1
  in
  Alcotest.(check int) "all placed" 4 r.Online.placed;
  Alcotest.(check int) "one compaction" 1 r.Online.compactions;
  Alcotest.(check int) "two modules moved" 2 r.Online.moved_tasks;
  Alcotest.(check int) "move delay charged per module" 2 r.Online.move_cycles;
  Alcotest.(check bool) "wide task placed at its arrival" true
    (List.exists
       (function
         | Online.Placed { task = 3; time = 1; _ } -> true
         | _ -> false)
       r.Online.events);
  List.iter
    (function
      | Online.Compacted { enabled; _ } ->
        Alcotest.(check bool) "compaction enabled a placement" true (enabled >= 1)
      | _ -> ())
    r.Online.events

let policy_of = function
  | 0 -> Online.First_fit
  | 1 -> Online.Best_fit
  | _ -> Online.Worst_fit

let arb_policy_seed = QCheck.(pair (int_range 0 2) (int_range 0 9_999))

(* Structural invariants of any run, for every policy: accounting adds
   up, deferral events are deduplicated, no two tasks overlap in space
   while overlapping in time, and arrivals/precedence gate starts. *)
let prop_stream_invariants (p, seed) =
  let chip = Chip.create ~w:8 ~h:8 in
  let tasks =
    Benchmarks.Generate.arrival_stream ~seed ~n:40 ~chip ~load:1.5
      ~max_extent:4 ~max_duration:6 ~arc_probability:0.2 ()
  in
  let r =
    Online.run_stream ~policy:(policy_of p) tasks ~chip ~compaction:false
      ~move_delay:0
  in
  let n = Array.length tasks in
  let start = Array.make n (-1) and px = Array.make n 0 and py = Array.make n 0 in
  List.iter
    (function
      | Online.Placed { task; x; y; time } ->
        start.(task) <- time;
        px.(task) <- x;
        py.(task) <- y
      | _ -> ())
    r.Online.events;
  let placed i = start.(i) >= 0 in
  let finish i = start.(i) + tasks.(i).Online.duration in
  let ids = List.init n Fun.id in
  let lat = r.Online.latency in
  r.Online.placed + r.Online.rejected + r.Online.never_arrived = n
  && lat.Online.samples = r.Online.placed
  && lat.Online.p50_us <= lat.Online.p99_us
  && lat.Online.p99_us <= lat.Online.max_us
  && (let seen = Hashtbl.create 16 in
      List.for_all
        (function
          | Online.Deferred { task; _ } ->
            if Hashtbl.mem seen task then false
            else begin
              Hashtbl.add seen task ();
              true
            end
          | _ -> true)
        r.Online.events)
  && List.for_all
       (fun i ->
         (not (placed i))
         || start.(i) >= tasks.(i).Online.arrival
            && List.for_all
                 (fun pr -> placed pr && start.(i) >= finish pr)
                 tasks.(i).Online.preds)
       ids
  && List.for_all
       (fun i ->
         List.for_all
           (fun j ->
             i >= j
             || (not (placed i && placed j))
             || start.(i) >= finish j
             || start.(j) >= finish i
             || px.(i) + tasks.(i).Online.w <= px.(j)
             || px.(j) + tasks.(j).Online.w <= px.(i)
             || py.(i) + tasks.(i).Online.h <= py.(j)
             || py.(j) + tasks.(j).Online.h <= py.(i))
           ids)
       ids

(* Rejection is layout-independent (oversize footprints and doomed
   successors only), so every fit policy rejects the same set. *)
let prop_policies_agree_on_rejection seed =
  let chip = Chip.create ~w:8 ~h:8 in
  let tasks =
    Benchmarks.Generate.arrival_stream ~seed ~n:30 ~chip ~load:1.5
      ~max_extent:4 ~max_duration:5 ~arc_probability:0.3 ()
  in
  let tasks =
    Array.mapi
      (fun i t -> if i mod 7 = 3 then { t with Online.w = 9 } else t)
      tasks
  in
  let rejected_set p =
    let r =
      Online.run_stream ~policy:p tasks ~chip ~compaction:false ~move_delay:0
    in
    List.sort compare
      (List.filter_map
         (function Online.Rejected { task } -> Some task | _ -> None)
         r.Online.events)
  in
  let reference = rejected_set Online.First_fit in
  reference <> []
  && List.for_all
       (fun p -> rejected_set p = reference)
       [ Online.Best_fit; Online.Worst_fit ]

(* With everything available at time 0 and no moves, any online
   makespan is lower-bounded by the exact compile-time optimum. *)
let prop_online_at_least_optimum seed =
  let container = Geometry.Container.make3 ~w:6 ~h:6 ~t_max:30 in
  let inst, _ =
    Benchmarks.Generate.guillotine ~seed ~container ~cuts:5 ~arc_probability:0.3 ()
  in
  let arrivals =
    List.init (Packing.Instance.count inst) (fun i ->
        { Online.task = i; arrival_time = 0 })
  in
  match Packing.Problems.minimize_time inst ~w:6 ~h:6 with
  | Packing.Problems.Optimal { value; _ } ->
    List.for_all
      (fun policy ->
        let r =
          Online.run ~policy inst arrivals ~chip:(Chip.create ~w:6 ~h:6)
            ~compaction:false ~move_delay:0
        in
        r.Online.placed < Packing.Instance.count inst
        || r.Online.makespan >= value)
      [ Online.First_fit; Online.Best_fit; Online.Worst_fit ]
  | _ -> false

(* The cost-aware trigger never charges move cycles without a committed
   compaction, and every committed compaction enabled a placement. *)
let prop_defrag_never_wasted (p, seed) =
  let chip = Chip.create ~w:8 ~h:8 in
  let tasks =
    Benchmarks.Generate.arrival_stream ~seed ~n:40 ~chip ~load:2.5
      ~max_extent:5 ~max_duration:8 ~arc_probability:0.1 ()
  in
  let r =
    Online.run_stream ~policy:(policy_of p) ~reconfig:(Reconfig.Constant 1)
      tasks ~chip ~compaction:true ~move_delay:2
  in
  List.for_all
    (function
      | Online.Compacted { enabled; moved; _ } -> enabled >= 1 && moved <> []
      | _ -> true)
    r.Online.events
  && (r.Online.move_cycles = 0 || r.Online.compactions > 0)
  && (r.Online.compactions = 0 || r.Online.move_cycles > 0)

(* Event pins: the event list of three 3000-task streams (32x32 chip,
   load 1.0, seed 5, as `online --generate 3000 --seed 5` draws them),
   rendered one event per line and hashed. The digests were read before
   the scheduler's backlog was kept sorted and its failing fits answered
   from the free-space reach table, so any change to the event order,
   positions, deferral targets or compaction choices shows here. *)
let render_event = function
  | Online.Placed { task; x; y; time } ->
    Printf.sprintf "P %d %d %d %d" task x y time
  | Online.Deferred { task; until } -> Printf.sprintf "D %d %d" task until
  | Online.Compacted { moved; time; cost; enabled } ->
    Printf.sprintf "C %s %d %d %d"
      (String.concat "," (List.map string_of_int moved))
      time cost enabled
  | Online.Rejected { task } -> Printf.sprintf "R %d" task

let pinned_stream ~max_extent ~max_duration =
  let chip = Chip.square 32 in
  ( chip,
    Benchmarks.Generate.arrival_stream ~seed:5 ~n:3000 ~chip ~load:1.0
      ~max_extent ~max_duration ~arc_probability:0.1 () )

let events_digest ~policy ~compaction ~max_extent ~max_duration =
  let chip, tasks = pinned_stream ~max_extent ~max_duration in
  let r =
    Online.run_stream ~policy ~reconfig:(Reconfig.Per_column 1) tasks ~chip
      ~compaction ~move_delay:2
  in
  ( r,
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (List.map render_event r.Online.events))) )

let test_online_pin_defrag () =
  let r, d =
    events_digest ~policy:Online.Best_fit ~compaction:true ~max_extent:24
      ~max_duration:40
  in
  Alcotest.(check int) "commits" 27 r.Online.compactions;
  Alcotest.(check string) "events digest" "3e9220904a33d7ceda0bb0ba58c67da4" d

let test_online_pin_large_no_compaction () =
  List.iter
    (fun (policy, name, want) ->
      let _, d =
        events_digest ~policy ~compaction:false ~max_extent:24
          ~max_duration:40
      in
      Alcotest.(check string) (name ^ " events digest") want d)
    [
      (Online.First_fit, "first fit", "f8eae8d07266d6cbee0ac7932820bbeb");
      (Online.Worst_fit, "worst fit", "c02056e418c399b1d26fa178bced861b");
    ]

let test_online_pin_small () =
  let _, d =
    events_digest ~policy:Online.Best_fit ~compaction:false ~max_extent:8
      ~max_duration:12
  in
  Alcotest.(check string) "events digest" "c38f164c01b6762912b956361b5d6d2b" d

(* Acceptance at traffic scale: one 10^4-task stream of small modules
   (32x32 chip, load 1.0, seed 42) under every fit policy, plus best fit
   with cost-aware compaction. Best fit dominates bottom-left first fit,
   compaction never pays move cycles without enabling a placement, and
   on the stream's 9-task prefix released at time 0 the exact
   compile-time optimum lower-bounds the online best-fit makespan. *)
let test_online_traffic_acceptance () =
  let chip = Chip.square 32 in
  let tasks =
    Benchmarks.Generate.arrival_stream ~seed:42 ~n:10_000 ~chip ~load:1.0
      ~max_extent:8 ~max_duration:12 ~arc_probability:0.1 ()
  in
  let run policy compaction =
    Online.run_stream ~policy ~reconfig:(Reconfig.Per_column 1) tasks ~chip
      ~compaction ~move_delay:2
  in
  let first = run Online.First_fit false and best = run Online.Best_fit false in
  let runs =
    [ first; best; run Online.Best_fit true; run Online.Worst_fit false ]
  in
  Alcotest.(check bool)
    "best fit dominates first fit" true
    (best.Online.rejected < first.Online.rejected
    || best.Online.rejected = first.Online.rejected
       && best.Online.utilization > first.Online.utilization);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "move cycles only with a compaction" true
        (r.Online.move_cycles = 0 || r.Online.compactions > 0);
      List.iter
        (function
          | Online.Compacted { enabled; _ } ->
            Alcotest.(check bool) "compaction enabled a placement" true
              (enabled >= 1)
          | _ -> ())
        r.Online.events)
    runs;
  let k = 9 in
  let prefix =
    Packing.Instance.make ~name:"stream-prefix-9"
      ~precedence:
        (List.concat
           (List.init k (fun i ->
                List.filter_map
                  (fun p -> if p < k then Some (p, i) else None)
                  tasks.(i).Online.preds)))
      ~boxes:
        (Array.init k (fun i ->
             Geometry.Box.make3 ~w:tasks.(i).Online.w ~h:tasks.(i).Online.h
               ~duration:tasks.(i).Online.duration))
      ()
  in
  let optimum =
    match Packing.Problems.minimize_time prefix ~w:32 ~h:32 with
    | Packing.Problems.Optimal { value; _ } -> value
    | _ -> Alcotest.fail "prefix optimum not proven"
  in
  let online_best =
    Online.run ~policy:Online.Best_fit prefix
      (List.init k (fun i -> { Online.task = i; arrival_time = 0 }))
      ~chip ~compaction:false ~move_delay:0
  in
  Alcotest.(check bool)
    "optimum <= online best fit" true
    (optimum <= online_best.Online.makespan)

(* Random streams for the comparison with the frozen scheduler in
   [Online_reference]: small chips, every policy, compaction on and
   off, both reconfiguration models, precedence chains, and some tasks
   that never arrive or are larger than the chip. The second draw seeds
   those last two. *)
let online_reference_seed = [| 0x0DF9; 2026 |]
let online_reference_cases = 1_000

type stream_case = {
  stream_seed : int;
  cw : int;
  ch : int;
  n : int;
  load : float;
  max_extent : int;
  max_duration : int;
  arcs : float;
  policy : int;
  compaction : bool;
  per_column : bool;
  load_cost : int;
  move_delay : int;
}

(* Cases drawn on chips with sides in [sides], with [tasks] tasks and
   compaction drawn by [compaction]. *)
let arb_stream ~sides:(side_lo, side_hi) ~tasks:(n_lo, n_hi) ~compaction =
  let gen =
    QCheck.Gen.(
      let* stream_seed = int_range 0 999_999 in
      let* cw = int_range side_lo side_hi and* ch = int_range side_lo side_hi in
      let* n = int_range n_lo n_hi in
      let* load = oneofl [ 0.5; 1.0; 2.0; 3.0 ] in
      let* max_extent = int_range 1 (max cw ch) in
      let* max_duration = int_range 1 10 in
      let* arcs = oneofl [ 0.0; 0.1; 0.3; 0.5 ] in
      let* policy = int_range 0 2 in
      let* compaction = compaction in
      let* per_column = bool in
      let* load_cost = int_range 0 2 and* move_delay = int_range 0 3 in
      return
        {
          stream_seed; cw; ch; n; load; max_extent; max_duration; arcs;
          policy; compaction; per_column; load_cost; move_delay;
        })
  in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf
        "seed=%d chip=%dx%d n=%d load=%g extent<=%d duration<=%d arcs=%g \
         policy=%d compaction=%b %s:%d move_delay=%d"
        c.stream_seed c.cw c.ch c.n c.load c.max_extent c.max_duration c.arcs
        c.policy c.compaction
        (if c.per_column then "column" else "constant")
        c.load_cost c.move_delay)

let arb_stream_case =
  arb_stream ~sides:(3, 10) ~tasks:(5, 60)
    ~compaction:QCheck.Gen.(map (fun c -> c > 0) (int_range 0 2))

(* Long backlogs on large chips, compaction always on: many areas hold
   pending tasks at once, so a pass jumps far between them. *)
let long_reference_cases = 100

let arb_long_stream_case =
  arb_stream ~sides:(16, 32) ~tasks:(200, 600) ~compaction:(QCheck.Gen.return true)

let stream_of c =
  let chip = Chip.create ~w:c.cw ~h:c.ch in
  let tasks =
    Benchmarks.Generate.arrival_stream ~seed:c.stream_seed ~n:c.n ~chip
      ~load:c.load ~max_extent:c.max_extent ~max_duration:c.max_duration
      ~arc_probability:c.arcs ()
  in
  let rng = Random.State.make [| c.stream_seed; 7 |] in
  let tasks =
    Array.map
      (fun (t : Online.task) ->
        match Random.State.int rng 25 with
        | 0 -> { t with Online.arrival = max_int }
        | 1 -> { t with Online.w = c.cw + 1 }
        | 2 -> { t with Online.h = c.ch + 1 }
        | _ -> t)
      tasks
  in
  (chip, tasks)

let stream_events c =
  let chip, tasks = stream_of c in
  let policy = policy_of c.policy in
  let reconfig =
    if c.per_column then Reconfig.Per_column c.load_cost
    else Reconfig.Constant c.load_cost
  in
  let r =
    Online.run_stream ~policy ~reconfig tasks ~chip ~compaction:c.compaction
      ~move_delay:c.move_delay
  in
  ( r.Online.events,
    Online_reference.run_stream ~policy ~reconfig tasks ~chip
      ~compaction:c.compaction ~move_delay:c.move_delay )

(* A pass that skips the tasks that can neither be placed nor trigger a
   compaction makes the same decisions as one that attempts them all. *)
let prop_online_matches_reference c =
  let got, want = stream_events c in
  got = want

(* Streams shaped like the defrag benchmark: large, long tasks on a
   32x32 chip, best fit, compaction on. Blocked arrivals pile up into a
   deep backlog, so proposals are rebuilt over and over for running
   sets that differ by a module or two: the case the proposal's resumed
   prefix serves, which the long-backlog cases (durations up to 10)
   rarely reach. The second draw is the stream length. *)
let defrag_reference_cases = 20

let arb_defrag_stream =
  QCheck.make
    QCheck.Gen.(pair (int_range 0 999_999) (int_range 1_000 2_000))
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)

let prop_defrag_matches_reference (seed, n) =
  let chip = Chip.square 32 in
  let tasks =
    Benchmarks.Generate.arrival_stream ~seed ~n ~chip ~load:1.0 ~max_extent:24
      ~max_duration:40 ~arc_probability:0.1 ()
  in
  let policy = Online.Best_fit and reconfig = Reconfig.Per_column 1 in
  let got =
    (Online.run_stream ~policy ~reconfig tasks ~chip ~compaction:true
       ~move_delay:2)
      .Online.events
  in
  let want =
    Online_reference.run_stream ~policy ~reconfig tasks ~chip ~compaction:true
      ~move_delay:2
  in
  let rec first_difference k = function
    | [], [] -> true
    | g :: got, w :: want when g = w -> first_difference (k + 1) (got, want)
    | got, want ->
      let show = function [] -> "end of events" | e :: _ -> render_event e in
      QCheck.Test.fail_reportf "event %d: got %s, reference %s" k (show got)
        (show want)
  in
  first_difference 0 (got, want)

(* A compaction weighed in a pass that still holds doomed tasks. Task 0
   is wider than the 4x5 chip and rejected at time 0, which dooms 1, 5
   and 6; best fit leaves 2 where the 4x1 task 3 has no row. Moving 2
   costs 1 cycle and enables only 3 before 2 retires at time 1, so the
   proposal is declined. The pass that rejects the doomed tasks weighs
   it again, once 1's rejection has cleared that verdict: 5 and 6 fit
   the proposal too, but they are not blocked, so it is declined
   again. *)
let test_online_doomed_not_blocked () =
  let chip = Chip.create ~w:4 ~h:5 in
  let task ?(preds = []) w h duration =
    { Online.w; h; duration; arrival = 0; preds }
  in
  let tasks =
    [|
      task 5 5 1; task ~preds:[ 0 ] 4 5 1; task 2 2 1; task 4 1 2; task 2 3 3;
      task ~preds:[ 0 ] 1 1 1; task ~preds:[ 0 ] 1 1 1;
    |]
  in
  let reconfig = Reconfig.Constant 0 in
  let r =
    Online.run_stream ~policy:Online.Best_fit ~reconfig tasks ~chip
      ~compaction:true ~move_delay:1
  in
  Alcotest.(check (list string))
    "events"
    [ "R 0"; "P 4 0 0 0"; "P 2 0 3 0"; "R 1"; "R 5"; "R 6"; "D 3 1"; "P 3 0 3 1" ]
    (List.map render_event r.Online.events);
  Alcotest.(check bool)
    "reference events" true
    (r.Online.events
    = Online_reference.run_stream ~policy:Online.Best_fit ~reconfig tasks ~chip
        ~compaction:true ~move_delay:1)

(* The sample is not vacuous: it commits compactions, rejects tasks,
   rejects some because a predecessor was rejected, and holds tasks
   larger than the chip. *)
let test_online_reference_sample_covers () =
  let cases =
    QCheck.Gen.generate ~rand:(Fixed_seed.rand online_reference_seed)
      ~n:online_reference_cases (QCheck.get_gen arb_stream_case)
  in
  let commits = ref 0 and rejections = ref 0 and doomed = ref 0 in
  let oversize = ref 0 in
  List.iter
    (fun c ->
      let _, tasks = stream_of c in
      let events, _ = stream_events c in
      let rejected = Array.make (Array.length tasks) false in
      List.iter
        (function
          | Online.Compacted _ -> incr commits
          | Online.Rejected { task } ->
            incr rejections;
            rejected.(task) <- true
          | _ -> ())
        events;
      Array.iteri
        (fun i (t : Online.task) ->
          if t.w > c.cw || t.h > c.ch then incr oversize;
          if rejected.(i) && List.exists (fun p -> rejected.(p)) t.preds then
            incr doomed)
        tasks)
    cases;
  Alcotest.(check bool)
    (Printf.sprintf
       "%d commits, %d rejections, %d after a rejected predecessor, %d \
        oversize tasks"
       !commits !rejections !doomed !oversize)
    true
    (!commits > 0 && !rejections > 0 && !doomed > 0 && !oversize > 0)

(* Online placements that report a full placement are geometrically
   feasible. *)
let prop_online_placements_valid seed =
  let container = Geometry.Container.make3 ~w:6 ~h:6 ~t_max:50 in
  let inst, _ =
    Benchmarks.Generate.guillotine ~seed ~container ~cuts:5 ~arc_probability:0.2 ()
  in
  let arrivals =
    List.init (Packing.Instance.count inst) (fun i ->
        { Online.task = i; arrival_time = i mod 3 })
  in
  let r =
    Online.run inst arrivals ~chip:(Chip.create ~w:6 ~h:6) ~compaction:false
      ~move_delay:0
  in
  match r.Online.placement with
  | None -> r.Online.placed < Packing.Instance.count inst
  | Some p ->
    Placement.is_feasible p
      ~container:(Geometry.Container.make3 ~w:6 ~h:6 ~t_max:(max 1 r.Online.makespan))
      ~precedes:(Packing.Instance.precedes inst)


(* ------------------------------------------------------------------ *)
(* Schedule IO                                                         *)
(* ------------------------------------------------------------------ *)

module SIO = Fpga.Schedule_io

let sched_inst =
  Packing.Instance.make
    ~labels:[| "a"; "b" |]
    ~precedence:[ (0, 1) ]
    ~boxes:[| Box.make3 ~w:2 ~h:2 ~duration:2; Box.make3 ~w:2 ~h:2 ~duration:2 |]
    ()

let test_schedule_parse () =
  let entries = SIO.parse sched_inst "start a 0\nplace b 2 1 0  # done\n" in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  let b = List.nth entries 1 in
  Alcotest.(check int) "b start" 2 b.SIO.start;
  Alcotest.(check (option (pair int int))) "b position" (Some (1, 0)) b.SIO.position;
  Alcotest.(check (array int)) "schedule array" [| 0; 2 |]
    (SIO.schedule_array sched_inst entries)

let test_schedule_parse_errors () =
  let fails text =
    match SIO.parse sched_inst text with
    | exception Failure _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown label" true (fails "start zz 0");
  Alcotest.(check bool) "duplicate" true (fails "start a 0\nstart a 1");
  Alcotest.(check bool) "negative" true (fails "start a -1");
  Alcotest.(check bool) "bad directive" true (fails "begin a 0");
  Alcotest.(check bool) "missing task" true
    (match SIO.schedule_array sched_inst (SIO.parse sched_inst "start a 0") with
     | exception Failure _ -> true
     | _ -> false)

let () =
  Alcotest.run "fpga"
    [
      ( "chip",
        [ Alcotest.test_case "basics" `Quick test_chip_basics ] );
      ( "module library",
        [
          Alcotest.test_case "basics" `Quick test_library_basics;
          Alcotest.test_case "duplicate" `Quick test_library_duplicate;
          Alcotest.test_case "instantiate" `Quick test_library_instantiate;
        ] );
      ( "reconfig",
        [ Alcotest.test_case "models" `Quick test_reconfig_models ] );
      ( "simulator",
        [
          Alcotest.test_case "ok run" `Quick test_simulator_ok;
          Alcotest.test_case "detects overlap" `Quick test_simulator_detects_overlap;
          Alcotest.test_case "detects bounds" `Quick test_simulator_detects_bounds;
          Alcotest.test_case "detects precedence" `Quick
            test_simulator_detects_precedence;
          Alcotest.test_case "memory profile" `Quick test_simulator_memory_profile;
          Alcotest.test_case "events ordered" `Quick test_simulator_events_ordered;
          Fixed_seed.qtest ~seed ~count:40 "solved placements simulate" arb_seed
            prop_solved_placements_simulate;
        ] );
      ( "free space",
        [
          Alcotest.test_case "basics" `Quick test_fs_basic;
          Fixed_seed.qtest ~seed ~count:80 "matches brute force" arb_seed
            prop_fs_matches_brute_force;
          Fixed_seed.qtest ~seed ~count:50 ~long_factor:20
            "non-square chip matches brute force"
            arb_seed prop_fs_non_square_brute_force;
          Fixed_seed.qtest ~seed ~count:10 ~long_factor:20
            "fragmented 32x32 chip matches brute force"
            arb_seed prop_fs_fragmented_brute_force;
          Fixed_seed.qtest ~seed ~count:50 ~long_factor:20 "copy is independent"
            arb_seed prop_fs_copy_independent;
          Fixed_seed.qtest ~seed ~count:50 ~long_factor:20
            "fits agrees with find and brute force"
            arb_seed prop_fs_fits_agrees;
          Fixed_seed.qtest ~seed ~count:50 ~long_factor:20
            "cap is the fits bound" arb_seed prop_fs_cap_agrees;
          Alcotest.test_case "modules flush with the chip edges" `Quick
            test_fs_flush_edges;
          Alcotest.test_case "place rejects overlap" `Quick
            test_fs_place_rejects_overlap;
        ] );
      ( "online",
        [
          Alcotest.test_case "basic" `Quick test_online_basic;
          Alcotest.test_case "defer" `Quick test_online_defer;
          Alcotest.test_case "rejects oversize" `Quick test_online_rejects_oversize;
          Alcotest.test_case "precedence" `Quick test_online_precedence;
          Alcotest.test_case "compaction not worse, unfragmented" `Quick
            test_online_compaction_never_worse_unfragmented;
          Alcotest.test_case "duplicate arrival" `Quick test_online_duplicate_arrival;
          Alcotest.test_case "never arrived" `Quick test_online_never_arrived;
          Alcotest.test_case "stats json bytes" `Quick test_online_json_bytes;
          Alcotest.test_case "compaction rollback" `Quick
            test_online_compaction_rollback;
          Alcotest.test_case "compaction commit" `Quick
            test_online_compaction_commit;
          Fixed_seed.qtest ~seed ~count:60 "placements valid" arb_seed
            prop_online_placements_valid;
          Fixed_seed.qtest ~seed ~count:60 "stream invariants" arb_policy_seed
            prop_stream_invariants;
          Fixed_seed.qtest ~seed ~count:40 "policies agree on rejection"
            arb_seed prop_policies_agree_on_rejection;
          Fixed_seed.qtest ~seed ~count:30 "online at least optimum" arb_seed
            prop_online_at_least_optimum;
          Fixed_seed.qtest ~seed ~count:60 "defrag never wasted" arb_policy_seed
            prop_defrag_never_wasted;
          Alcotest.test_case "events pinned: defrag stream" `Quick
            test_online_pin_defrag;
          Alcotest.test_case "events pinned: first and worst fit" `Quick
            test_online_pin_large_no_compaction;
          Alcotest.test_case "events pinned: small modules" `Quick
            test_online_pin_small;
          Alcotest.test_case "traffic-scale acceptance" `Quick
            test_online_traffic_acceptance;
          Fixed_seed.qtest ~seed:online_reference_seed
            ~count:online_reference_cases "events match the reference copy"
            arb_stream_case prop_online_matches_reference;
          Alcotest.test_case "reference sample commits and rejects" `Quick
            test_online_reference_sample_covers;
          Alcotest.test_case "doomed tasks are not blocked" `Quick
            test_online_doomed_not_blocked;
          Fixed_seed.qtest ~seed:online_reference_seed
            ~count:long_reference_cases "long backlogs match the reference copy"
            arb_long_stream_case prop_online_matches_reference;
          Fixed_seed.qtest ~seed:online_reference_seed
            ~count:defrag_reference_cases
            "defrag-shaped streams match the reference copy" arb_defrag_stream
            prop_defrag_matches_reference;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "structure" `Quick test_vcd_structure;
          Alcotest.test_case "value changes" `Quick test_vcd_value_changes;
        ] );
      ( "schedule io",
        [
          Alcotest.test_case "parse" `Quick test_schedule_parse;
          Alcotest.test_case "errors" `Quick test_schedule_parse_errors;
        ] );
      ( "instance io",
        [
          Alcotest.test_case "parse" `Quick test_io_parse;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "volume overflow rejected" `Quick
            test_io_volume_overflow;
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "DE roundtrip" `Quick test_io_de_roundtrip;
          Fixed_seed.qtest ~seed ~count:200 "parse/print identity" arb_seed
            prop_io_roundtrip_id;
          Alcotest.test_case "v1 byte compat" `Quick test_io_v1_byte_compat;
          Alcotest.test_case "v2 parse/print" `Quick test_io_v2_parse_print;
          Alcotest.test_case "v2 errors" `Quick test_io_v2_errors;
          Fixed_seed.qtest ~seed ~count:200
            "v2 parse/print identity (d in {2,3,4})" arb_seed
            prop_io_v2_roundtrip_id;
        ] );
    ]
