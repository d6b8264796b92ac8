module OG = Oriented_graph
module D = Graphlib.Digraph

let verify og d =
  let n = OG.order og in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      match OG.kind og u v with
      | OG.Comparable ->
        let fwd = D.mem_arc d u v and bwd = D.mem_arc d v u in
        if fwd = bwd then ok := false
      | OG.Component | OG.Unknown ->
        if D.mem_arc d u v || D.mem_arc d v u then ok := false
    done
  done;
  !ok && D.is_transitive d && D.is_acyclic d

let complete og =
  if OG.unknown_pairs og <> [] then
    invalid_arg "Extension.complete: undecided pairs remain";
  let base = OG.mark og in
  (* Depth-first completion. Theorem 2 guarantees that when the initial
     propagation succeeds, free implication classes can be oriented
     either way, so in practice the first branch succeeds; backtracking
     keeps the procedure complete. *)
  let rec go () =
    match OG.propagate og with
    | Error _ -> false
    | Ok () -> (
      match OG.unoriented_pairs og with
      | [] -> true
      | (u, v) :: _ ->
        let m = OG.mark og in
        let try_dir a b =
          match OG.force_arc og a b with
          | Error _ ->
            OG.undo_to og m;
            false
          | Ok () ->
            go ()
            || begin
                 OG.undo_to og m;
                 false
               end
        in
        try_dir u v || try_dir v u)
  in
  let result =
    if go () then
      let d = OG.orientation og in
      if verify og d then Some d else None
    else None
  in
  OG.undo_to og base;
  result

let coordinates d ~weight = D.longest_path_lengths d ~weight
