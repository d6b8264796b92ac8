module Container = Geometry.Container

type result = {
  value : int;
  selected : int list;
  placement : Geometry.Placement.t;
}

let sub_instance inst selected =
  let selected = Array.of_list selected in
  let index_of = Hashtbl.create 16 in
  Array.iteri (fun j i -> Hashtbl.add index_of i j) selected;
  let boxes = Array.map (Instance.box inst) selected in
  let labels = Array.map (Instance.label inst) selected in
  let precedence =
    List.filter_map
      (fun (u, v) ->
        match (Hashtbl.find_opt index_of u, Hashtbl.find_opt index_of v) with
        | Some a, Some b -> Some (a, b)
        | _ -> None)
      (Order.Partial_order.relations (Instance.precedence inst))
  in
  Instance.make
    ~name:(Instance.name inst ^ "-selection")
    ~labels ~precedence ~boxes ()

let solve ?options inst cont ~value =
  let n = Instance.count inst in
  for i = 0 to n - 1 do
    if value i < 0 then invalid_arg "Knapsack.solve: negative value"
  done;
  let p = Instance.precedence inst in
  (* Topological processing order, high value first among incomparable
     tasks, so good incumbents appear early. *)
  let order =
    List.stable_sort
      (fun a b ->
        if Order.Partial_order.precedes p a b then -1
        else if Order.Partial_order.precedes p b a then 1
        else compare (value b, a) (value a, b))
      (List.init n Fun.id)
  in
  let best = ref None in
  let best_value = ref 0 in
  (* One bound engine for the whole selection search: a certificate on a
     sub-instance refutes it (and, by monotonicity, every extension)
     without paying for a solver call. The solve behind a surviving
     selection skips its own stage-1 re-check. *)
  let o = Option.value options ~default:Opp_solver.default_options in
  let engine, probe_options =
    if o.Opp_solver.use_bounds then
      ( Some (Bound_engine.create ~trace:o.Opp_solver.trace ()),
        { o with Opp_solver.use_bounds = false } )
    else (None, o)
  in
  let feasible selection =
    match selection with
    | [] -> None
    | _ -> (
      let sub = sub_instance inst (List.sort compare selection) in
      let refuted =
        match engine with
        | None -> false
        | Some e -> (
          match Bound_engine.check e sub cont with
          | Bound_engine.Infeasible _ -> true
          | Bound_engine.Lower_bound _ | Bound_engine.Inconclusive -> false)
      in
      if refuted then None
      else
        match Opp_solver.solve ~options:probe_options sub cont with
        | Opp_solver.Feasible placement, _ -> Some placement
        | Opp_solver.Infeasible, _ | Opp_solver.Timeout, _ -> None)
  in
  (* DFS over down-closed selections. [selection] holds chosen original
     indices; [chosen] marks them; [rest] is the tail of [order];
     [rest_value] bounds the attainable gain. *)
  let chosen = Array.make n false in
  let rec go selection sel_value sel_volume rest rest_value =
    if sel_value + rest_value > !best_value then
      match rest with
      | [] ->
        (* Every inclusion updates the incumbent on the spot, so a full
           prefix has nothing left to do here. *)
        ()
      | i :: tail ->
        let preds_ok =
          List.for_all
            (fun u -> (not (Order.Partial_order.precedes p u i)) || chosen.(u))
            (List.init n Fun.id)
        in
        let vol = Geometry.Box.volume (Instance.box inst i) in
        (* Include i (only if its producers are in and volume allows). *)
        if preds_ok && sel_volume + vol <= Container.volume cont then begin
          chosen.(i) <- true;
          (* Incremental pruning: an infeasible partial selection stays
             infeasible under any extension (packing is monotone). *)
          (match feasible (i :: selection) with
          | Some placement ->
            if sel_value + value i > !best_value then begin
              best_value := sel_value + value i;
              best :=
                Some
                  {
                    value = sel_value + value i;
                    selected = List.sort compare (i :: selection);
                    placement;
                  }
            end;
            go (i :: selection) (sel_value + value i) (sel_volume + vol) tail
              (rest_value - value i)
          | None -> ());
          chosen.(i) <- false
        end;
        (* Exclude i. *)
        go selection sel_value sel_volume tail (rest_value - value i)
  in
  let total_value = List.fold_left (fun acc i -> acc + value i) 0 order in
  go [] 0 0 order total_value;
  Option.iter (fun e -> Recorder.flush (Bound_engine.recorder e)) engine;
  !best
