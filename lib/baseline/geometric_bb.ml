module Box = Geometry.Box
module Container = Geometry.Container
module Placement = Geometry.Placement
module PO = Order.Partial_order

type outcome =
  | Feasible of Geometry.Placement.t
  | Infeasible
  | Timeout

type stats = {
  nodes : int;
  positions_tried : int;
}

(* All subset sums of the box extents along one axis, capped by the
   container extent — the normal positions. *)
let normal_positions inst ~axis ~cap =
  let reachable = Array.make (cap + 1) false in
  reachable.(0) <- true;
  for i = 0 to Packing.Instance.count inst - 1 do
    let e = Packing.Instance.extent inst i axis in
    for s = cap downto 0 do
      if reachable.(s) && s + e <= cap then reachable.(s + e) <- true
    done
  done;
  let acc = ref [] in
  for s = cap downto 0 do
    if reachable.(s) then acc := s :: !acc
  done;
  !acc

exception Done of Placement.t
exception Limit

let solve ?node_limit inst cont =
  let n = Packing.Instance.count inst in
  let d = Packing.Instance.dim inst in
  if Container.dim cont <> d then
    invalid_arg "Geometric_bb.solve: container dimension mismatch";
  let nodes = ref 0 and positions = ref 0 in
  let orders = Packing.Instance.orders inst in
  let p = Packing.Instance.precedence inst in
  let order =
    (* Topological order of the objective-axis precedence DAG;
       incomparable tasks by decreasing volume (harder first). Other
       axes' orders prune through the per-axis earliest offsets and the
       leaf validation. *)
    let base = List.init n Fun.id in
    let vol i = Box.volume (Packing.Instance.box inst i) in
    let cmp a b =
      if PO.precedes p a b then -1
      else if PO.precedes p b a then 1
      else compare (vol b, a) (vol a, b)
    in
    List.stable_sort cmp base
  in
  let positions_for axis =
    normal_positions inst ~axis ~cap:(Container.extent cont axis)
  in
  let axis_positions = Array.init d positions_for in
  let placed_origin = Array.make n [||] in
  let placed = Array.make n false in
  let overlaps i coord j =
    let o = placed_origin.(j) in
    let e k task = Packing.Instance.extent inst task k in
    let all = ref true in
    for k = 0 to d - 1 do
      if not (coord.(k) < o.(k) + e k j && o.(k) < coord.(k) + e k i) then
        all := false
    done;
    !all
  in
  let check_limit () =
    match node_limit with
    | Some limit when !nodes + !positions > limit -> raise Limit
    | _ -> ()
  in
  let rec go = function
    | [] ->
      let placement =
        Placement.make (Packing.Instance.boxes inst) (Array.copy placed_origin)
      in
      if Packing.Instance.placement_feasible inst ~container:cont placement
      then raise (Done placement)
    | i :: rest ->
      incr nodes;
      check_limit ();
      (* Per-axis earliest anchor: a placed predecessor in axis [k]'s
         order must finish along [k] before task [i] starts there. *)
      let earliest = Array.make d 0 in
      Array.iteri
        (fun k ord ->
          for j = 0 to n - 1 do
            if placed.(j) && PO.precedes ord j i then
              earliest.(k) <-
                max earliest.(k)
                  (placed_origin.(j).(k) + Packing.Instance.extent inst j k)
          done)
        orders;
      let coord = Array.make d 0 in
      (* Enumerate anchors axis-major from the last axis down, so the
         3-dimensional case walks (t, y, x) exactly as before. *)
      let rec enum k =
        if k < 0 then begin
          incr positions;
          if !positions land 0xfff = 0 then check_limit ();
          let free = ref true in
          for j = 0 to n - 1 do
            if placed.(j) && overlaps i coord j then free := false
          done;
          if !free then begin
            placed_origin.(i) <- Array.copy coord;
            placed.(i) <- true;
            go rest;
            placed.(i) <- false
          end
        end
        else
          let e = Packing.Instance.extent inst i k in
          List.iter
            (fun c ->
              if c >= earliest.(k) && c + e <= Container.extent cont k then begin
                coord.(k) <- c;
                enum (k - 1)
              end)
            axis_positions.(k)
      in
      enum (d - 1)
  in
  let finish outcome = (outcome, { nodes = !nodes; positions_tried = !positions }) in
  try
    go order;
    finish Infeasible
  with
  | Done placement -> finish (Feasible placement)
  | Limit -> finish Timeout
