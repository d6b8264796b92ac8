module Digraph = Graphlib.Digraph

type t = Digraph.t (* transitively closed DAG *)

let of_arcs ~n arcs =
  let g = Digraph.of_arcs n arcs in
  if not (Digraph.is_acyclic g) then
    invalid_arg "Partial_order.of_arcs: precedence graph has a cycle";
  Digraph.transitive_closure g;
  g

let empty ~n = Digraph.create n

(* Renaming the elements of a closed order keeps it closed and acyclic,
   so neither check reruns. *)
let relabel = Digraph.relabel
let size = Digraph.size
let ground = Digraph.order
let precedes p u v = Digraph.mem_arc p u v
let relations = Digraph.arcs
let covers p = Digraph.arcs (Digraph.transitive_reduction p)
let critical_path p ~duration = Digraph.critical_path p ~weight:duration
let earliest_starts p ~duration = Digraph.longest_path_lengths p ~weight:duration

let respects p schedule ~duration =
  let ok = ref true in
  List.iter
    (fun (u, v) ->
      if schedule.(u) + duration u > schedule.(v) then ok := false)
    (relations p);
  !ok
