type t = {
  n : int;
  adj : bool array array;
}

let create n =
  if n < 0 then invalid_arg "Undirected.create: negative order";
  { n; adj = Array.make_matrix n n false }

let order g = g.n

let check g u =
  if u < 0 || u >= g.n then invalid_arg "Undirected: vertex out of range"

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Undirected.add_edge: self-loop";
  g.adj.(u).(v) <- true;
  g.adj.(v).(u) <- true

let remove_edge g u v =
  check g u;
  check g v;
  g.adj.(u).(v) <- false;
  g.adj.(v).(u) <- false

let mem_edge g u v =
  check g u;
  check g v;
  g.adj.(u).(v)

let neighbors g u =
  check g u;
  let rec loop v acc =
    if v < 0 then acc
    else loop (v - 1) (if g.adj.(u).(v) then v :: acc else acc)
  in
  loop (g.n - 1) []

let degree g u =
  check g u;
  let d = ref 0 in
  for v = 0 to g.n - 1 do
    if g.adj.(u).(v) then incr d
  done;
  !d

let fold_edges f g acc =
  let acc = ref acc in
  for u = 0 to g.n - 1 do
    for v = u + 1 to g.n - 1 do
      if g.adj.(u).(v) then acc := f u v !acc
    done
  done;
  !acc

let iter_edges f g =
  for u = 0 to g.n - 1 do
    for v = u + 1 to g.n - 1 do
      if g.adj.(u).(v) then f u v
    done
  done

let size g = fold_edges (fun _ _ k -> k + 1) g 0

let edges g = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) g [])

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let copy g = { n = g.n; adj = Array.map Array.copy g.adj }

let complement g =
  let c = create g.n in
  for u = 0 to g.n - 1 do
    for v = u + 1 to g.n - 1 do
      if not g.adj.(u).(v) then add_edge c u v
    done
  done;
  c

let is_clique g vs =
  let vs = Array.of_list vs in
  let m = Array.length vs in
  let ok = ref true in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      if not (mem_edge g vs.(i) vs.(j)) then ok := false
    done
  done;
  !ok

