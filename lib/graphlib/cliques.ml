(* Branch-and-bound over candidate lists: at each step either take the
   first candidate (restricting candidates to its neighbors) or skip it.
   Pruning: current weight + total candidate weight <= best. *)

let check_weights g ~weight =
  for v = 0 to Undirected.order g - 1 do
    if weight v < 0 then invalid_arg "Cliques: negative weight"
  done

let search g ~weight ~stop_above =
  check_weights g ~weight;
  let n = Undirected.order g in
  let best_w = ref 0 in
  let best_set = ref [] in
  let stopped = ref false in
  let by_degree =
    List.sort
      (fun a b -> compare (Undirected.degree g b) (Undirected.degree g a))
      (List.init n Fun.id)
  in
  let total = List.fold_left (fun acc v -> acc + weight v) 0 by_degree in
  let rec go current current_w candidates candidates_w =
    if !stopped then ()
    else begin
      if current_w > !best_w then begin
        best_w := current_w;
        best_set := current;
        match stop_above with
        | Some bound when current_w > bound -> stopped := true
        | _ -> ()
      end;
      match candidates with
      | [] -> ()
      | v :: rest ->
        if current_w + candidates_w > !best_w then begin
          (* Take v. *)
          let nbrs, nbrs_w =
            List.fold_left
              (fun (acc, w) u ->
                if Undirected.mem_edge g v u then (u :: acc, w + weight u)
                else (acc, w))
              ([], 0) rest
          in
          go (v :: current) (current_w + weight v) (List.rev nbrs) nbrs_w;
          (* Skip v. *)
          go current current_w rest (candidates_w - weight v)
        end
    end
  in
  go [] 0 by_degree total;
  (!best_w, List.sort compare !best_set)

let max_weight_clique g ~weight = search g ~weight ~stop_above:None

let exists_clique_heavier g ~weight ~bound =
  let w, _ = search g ~weight ~stop_above:(Some bound) in
  w > bound
