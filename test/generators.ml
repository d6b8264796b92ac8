open Graphlib

let path n = Undirected.of_edges n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: n < 3";
  Undirected.of_edges n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let complete n =
  let g = Undirected.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Undirected.add_edge g u v
    done
  done;
  g

let grid ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Generators.grid: empty";
  let g = Undirected.create (rows * cols) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let v = (r * cols) + c in
      if c + 1 < cols then Undirected.add_edge g v (v + 1);
      if r + 1 < rows then Undirected.add_edge g v (v + cols)
    done
  done;
  g

let random ~seed ~n ~edge_probability =
  let rng = Random.State.make [| seed |] in
  let g = Undirected.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < edge_probability then
        Undirected.add_edge g u v
    done
  done;
  g

let random_interval ~seed ~n ~span ~max_len =
  if span < 0 || max_len <= 0 then invalid_arg "Generators.random_interval";
  let rng = Random.State.make [| seed |] in
  let l = Array.init n (fun _ -> Random.State.int rng (span + 1)) in
  let len = Array.init n (fun _ -> 1 + Random.State.int rng max_len) in
  let r = Array.init n (fun i -> l.(i) + len.(i) - 1) in
  let g = Undirected.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if l.(u) <= r.(v) && l.(v) <= r.(u) then Undirected.add_edge g u v
    done
  done;
  (g, (l, r))

let random_dag ~seed ~n ~arc_probability =
  let rng = Random.State.make [| seed |] in
  let d = Digraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < arc_probability then Digraph.add_arc d u v
    done
  done;
  d
