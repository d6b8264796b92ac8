module OG = Order.Oriented_graph

exception No_extension

let of_state state =
  let inst = Packing_state.instance state in
  let cont = Packing_state.container state in
  let d = Instance.dim inst in
  for k = 0 to d - 1 do
    if OG.unknown_pairs (Packing_state.dimension state k) <> [] then
      invalid_arg "Reconstruct.of_state: undecided pairs remain"
  done;
  let orientation k =
    match Order.Extension.complete (Packing_state.dimension state k) with
    | Some dk -> dk
    | None -> raise No_extension
  in
  match Array.init d orientation with
  | exception No_extension -> None
  | ds ->
    let coords =
      Array.init d (fun k ->
          Order.Extension.coordinates ds.(k) ~weight:(fun i ->
              Instance.extent inst i k))
    in
    let origins =
      Array.init (Instance.count inst) (fun i ->
          Array.init d (fun k -> coords.(k).(i)))
    in
    let placement = Geometry.Placement.make (Instance.boxes inst) origins in
    if Instance.placement_feasible inst ~container:cont placement then
      Some placement
    else None
