type t = {
  n : int;
  adj : bool array array; (* adj.(u).(v) = arc u -> v *)
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative order";
  { n; adj = Array.make_matrix n n false }

let order g = g.n

let check g u =
  if u < 0 || u >= g.n then invalid_arg "Digraph: vertex out of range"

let add_arc g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Digraph.add_arc: self-loop";
  g.adj.(u).(v) <- true

let mem_arc g u v =
  check g u;
  check g v;
  g.adj.(u).(v)

let successors g u =
  check g u;
  let rec loop v acc =
    if v < 0 then acc
    else loop (v - 1) (if g.adj.(u).(v) then v :: acc else acc)
  in
  loop (g.n - 1) []

let predecessors g v =
  check g v;
  let rec loop u acc =
    if u < 0 then acc
    else loop (u - 1) (if g.adj.(u).(v) then u :: acc else acc)
  in
  loop (g.n - 1) []

let arcs g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    for v = g.n - 1 downto 0 do
      if g.adj.(u).(v) then acc := (u, v) :: !acc
    done
  done;
  !acc

let size g = List.length (arcs g)

let of_arcs n l =
  let g = create n in
  List.iter (fun (u, v) -> add_arc g u v) l;
  g

let copy g = { n = g.n; adj = Array.map Array.copy g.adj }

let relabel g perm =
  let h = create g.n in
  for u = 0 to g.n - 1 do
    let row = g.adj.(u) and row' = h.adj.(perm.(u)) in
    for v = 0 to g.n - 1 do
      if row.(v) then row'.(perm.(v)) <- true
    done
  done;
  h

let is_antisymmetric g =
  let ok = ref true in
  for u = 0 to g.n - 1 do
    for v = u + 1 to g.n - 1 do
      if g.adj.(u).(v) && g.adj.(v).(u) then ok := false
    done
  done;
  !ok

let is_transitive g =
  let ok = ref true in
  for u = 0 to g.n - 1 do
    for v = 0 to g.n - 1 do
      if g.adj.(u).(v) then
        for w = 0 to g.n - 1 do
          if g.adj.(v).(w) && u <> w && not g.adj.(u).(w) then ok := false
        done
    done
  done;
  !ok

(* Kahn's algorithm; returns the order or None on a cycle. *)
let topological_order g =
  let indeg = Array.make g.n 0 in
  for u = 0 to g.n - 1 do
    for v = 0 to g.n - 1 do
      if g.adj.(u).(v) then indeg.(v) <- indeg.(v) + 1
    done
  done;
  let queue = Queue.create () in
  for v = 0 to g.n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let out = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    out := u :: !out;
    incr count;
    for v = 0 to g.n - 1 do
      if g.adj.(u).(v) then begin
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue
      end
    done
  done;
  if !count = g.n then Some (List.rev !out) else None

let is_acyclic g = topological_order g <> None

let transitive_closure g =
  for k = 0 to g.n - 1 do
    for u = 0 to g.n - 1 do
      if g.adj.(u).(k) then
        for v = 0 to g.n - 1 do
          if g.adj.(k).(v) && u <> v then g.adj.(u).(v) <- true
        done
    done
  done

let transitive_reduction g =
  if not (is_acyclic g) then
    invalid_arg "Digraph.transitive_reduction: graph has a cycle";
  let closure = copy g in
  transitive_closure closure;
  let red = copy closure in
  (* An arc u->v is redundant iff some intermediate w has u->w->v in the
     closure. *)
  for u = 0 to g.n - 1 do
    for v = 0 to g.n - 1 do
      if closure.adj.(u).(v) then
        for w = 0 to g.n - 1 do
          if closure.adj.(u).(w) && closure.adj.(w).(v) then
            red.adj.(u).(v) <- false
        done
    done
  done;
  red

let longest_path_lengths g ~weight =
  match topological_order g with
  | None -> invalid_arg "Digraph.longest_path_lengths: graph has a cycle"
  | Some order ->
    let d = Array.make g.n 0 in
    let process u =
      for v = 0 to g.n - 1 do
        if g.adj.(u).(v) then d.(v) <- max d.(v) (d.(u) + weight u)
      done
    in
    List.iter process order;
    d

let critical_path g ~weight =
  let d = longest_path_lengths g ~weight in
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := max !best (d.(v) + weight v)
  done;
  if g.n = 0 then 0 else !best

let equal g h =
  g.n = h.n
  &&
  let same = ref true in
  for u = 0 to g.n - 1 do
    for v = 0 to g.n - 1 do
      if g.adj.(u).(v) <> h.adj.(u).(v) then same := false
    done
  done;
  !same

let pp fmt g =
  Format.fprintf fmt "digraph(%d){%a}" g.n
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       (fun fmt (u, v) -> Format.fprintf fmt "%d->%d" u v))
    (arcs g)
