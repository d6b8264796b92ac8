module Box = Geometry.Box
module PO = Order.Partial_order

type t = {
  name : string;
  boxes : Box.t array;
  labels : string array;
  orders : PO.t array; (* one partial order per dimension *)
  objective_axis : int;
}

(* ["t" ^ string_of_int i], without the C call that formats [i]. *)
let default_label i =
  let rec len x = if x < 10 then 2 else 1 + len (x / 10) in
  let b = Bytes.make (len i) 't' in
  let rec fill p x =
    Bytes.unsafe_set b p (Char.unsafe_chr (48 + (x mod 10)));
    if x >= 10 then fill (p - 1) (x / 10)
  in
  fill (Bytes.length b - 1) i;
  Bytes.unsafe_to_string b

let make ?(name = "instance") ?labels ?(precedence = []) ?(orders = [])
    ?objective_axis ~boxes () =
  let n = Array.length boxes in
  if n = 0 then invalid_arg "Instance.make: no tasks";
  let d = Box.dim boxes.(0) in
  Array.iter
    (fun b ->
      if Box.dim b <> d then invalid_arg "Instance.make: mixed dimensions")
    boxes;
  let objective_axis =
    match objective_axis with
    | None -> d - 1
    | Some a ->
      if a < 0 || a >= d then
        invalid_arg "Instance.make: objective axis out of range";
      a
  in
  let labels =
    match labels with
    | None -> Array.init n default_label
    | Some l ->
      if Array.length l <> n then invalid_arg "Instance.make: label arity";
      Array.copy l
  in
  let per_axis = Array.make d [] in
  List.iter
    (fun (k, arcs) ->
      if k < 0 || k >= d then invalid_arg "Instance.make: order axis out of range";
      per_axis.(k) <- per_axis.(k) @ arcs)
    orders;
  (* The legacy [precedence] arcs are the order on the objective axis. *)
  per_axis.(objective_axis) <- per_axis.(objective_axis) @ precedence;
  let orders =
    Array.mapi
      (fun k arcs ->
        try PO.of_arcs ~n arcs
        with Invalid_argument m ->
          (* The objective axis re-raises unprefixed: that is the legacy
             [precedence] surface whose messages callers pin. *)
          if k = objective_axis then invalid_arg m
          else invalid_arg (Printf.sprintf "Instance.make: axis %d: %s" k m))
      per_axis
  in
  { name; boxes = Array.copy boxes; labels; orders; objective_axis }

let relabel t ~name perm =
  let n = Array.length t.boxes in
  let boxes = Array.make n t.boxes.(0) in
  Array.iteri (fun i b -> boxes.(perm.(i)) <- b) t.boxes;
  {
    name;
    boxes;
    labels = Array.init n default_label;
    orders = Array.map (fun o -> PO.relabel o perm) t.orders;
    objective_axis = t.objective_axis;
  }

let name t = t.name
let count t = Array.length t.boxes
let dim t = Box.dim t.boxes.(0)
let objective_axis t = t.objective_axis
let box t i = t.boxes.(i)
let boxes t = Array.copy t.boxes
let label t i = t.labels.(i)
let extent t i k = Box.extent t.boxes.(i) k
let duration t i = extent t i t.objective_axis
let order t k = t.orders.(k)
let orders t = Array.copy t.orders
let precedence t = t.orders.(t.objective_axis)
let precedes t u v = PO.precedes t.orders.(t.objective_axis) u v

let ordered_axes t =
  List.filter
    (fun k -> PO.size t.orders.(k) > 0)
    (List.init (dim t) Fun.id)

let without_precedence t =
  {
    t with
    orders = Array.map (fun o -> PO.empty ~n:(PO.ground o)) t.orders;
    name = t.name ^ " (no order)";
  }

let total_volume t = Array.fold_left (fun acc b -> acc + Box.volume b) 0 t.boxes

let critical_path_axis t k =
  PO.critical_path t.orders.(k) ~duration:(fun i -> extent t i k)

let critical_path t = critical_path_axis t t.objective_axis

let total_duration t =
  let acc = ref 0 in
  for i = 0 to count t - 1 do
    acc := !acc + duration t i
  done;
  !acc

(* Complete feasibility of a placement against this instance: inside the
   container, pairwise disjoint in some axis, and every per-axis order
   arc realized as disjointness in its own axis. [Placement.is_feasible]
   hardwires the precedence check to the last axis, so the order checks
   run here instead. *)
let placement_feasible t ~container p =
  Geometry.Placement.is_feasible p ~container ~precedes:(fun _ _ -> false)
  &&
  let ok = ref true in
  Array.iteri
    (fun k ord ->
      List.iter
        (fun (u, v) ->
          let ou = Geometry.Placement.origin p u
          and ov = Geometry.Placement.origin p v in
          if ou.(k) + extent t u k > ov.(k) then ok := false)
        (PO.relations ord))
    t.orders;
  !ok

let pp fmt t =
  Format.fprintf fmt "@[<v>%s: %d tasks, dim %d@ " t.name (count t) (dim t);
  Array.iteri
    (fun i b -> Format.fprintf fmt "  %s: %a@ " t.labels.(i) Box.pp b)
    t.boxes;
  Format.fprintf fmt "  precedence: %d relations" (PO.size (precedence t));
  List.iter
    (fun k ->
      if k <> t.objective_axis then
        Format.fprintf fmt "@   axis %d: %d relations" k (PO.size t.orders.(k)))
    (ordered_axes t);
  Format.fprintf fmt "@]"
