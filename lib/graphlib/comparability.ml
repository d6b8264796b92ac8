(* Directed edges are encoded as [a * n + b] for bookkeeping. *)

let implication_class_in g a b =
  if not (Undirected.mem_edge g a b) then
    invalid_arg "Comparability.implication_class: not an edge";
  let n = Undirected.order g in
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push u v =
    let key = (u * n) + v in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add (u, v) queue
    end
  in
  push a b;
  let acc = ref [] in
  while not (Queue.is_empty queue) do
    let u, v = Queue.pop queue in
    acc := (u, v) :: !acc;
    (* (u,v) Γ (u,c) when {v,c} is a non-edge. *)
    List.iter
      (fun c -> if c <> v && not (Undirected.mem_edge g v c) then push u c)
      (Undirected.neighbors g u);
    (* (u,v) Γ (d,v) when {u,d} is a non-edge. *)
    List.iter
      (fun d -> if d <> u && not (Undirected.mem_edge g u d) then push d v)
      (Undirected.neighbors g v)
  done;
  (List.rev !acc, seen)

let implication_class g a b = fst (implication_class_in g a b)

let class_is_consistent n (cls, seen) =
  List.for_all (fun (u, v) -> not (Hashtbl.mem seen ((v * n) + u))) cls

let is_comparability g =
  let n = Undirected.order g in
  let classified = Hashtbl.create 64 in
  let ok = ref true in
  Undirected.iter_edges
    (fun u v ->
      if !ok && not (Hashtbl.mem classified ((u * n) + v)) then begin
        let (cls, _) as icls = implication_class_in g u v in
        if not (class_is_consistent n icls) then ok := false
        else
          List.iter
            (fun (a, b) ->
              Hashtbl.replace classified ((a * n) + b) ();
              Hashtbl.replace classified ((b * n) + a) ())
            cls
      end)
    g;
  !ok

let verify_orientation g d =
  let ok = ref true in
  Undirected.iter_edges
    (fun u v ->
      let fwd = Digraph.mem_arc d u v and bwd = Digraph.mem_arc d v u in
      if fwd = bwd then ok := false)
    g;
  !ok
  && Digraph.size d = Undirected.size g
  && Digraph.is_transitive d
  && Digraph.is_acyclic d

let transitive_orientation g =
  let n = Undirected.order g in
  let remaining = Undirected.copy g in
  let d = Digraph.create n in
  let failed = ref false in
  (* Classical TRO scheme (Golumbic, Algorithm 5.2): orient an arbitrary
     implication class of the remaining graph, remove its underlying
     edges, repeat. For comparability graphs any choice sequence yields
     a transitive orientation; we verify the result regardless. *)
  let rec step () =
    if !failed then ()
    else
      match Undirected.edges remaining with
      | [] -> ()
      | (a, b) :: _ ->
        let (cls, _) as icls = implication_class_in remaining a b in
        if not (class_is_consistent n icls) then failed := true
        else begin
          List.iter
            (fun (u, v) ->
              Digraph.add_arc d u v;
              Undirected.remove_edge remaining u v)
            cls;
          step ()
        end
  in
  step ();
  if !failed then None else if verify_orientation g d then Some d else None
