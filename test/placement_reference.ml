(* Reference copy of [Geometry.Placement.check] as it was written
   before the allocation-free rewrite: one half-open interval
   [(lo, hi)] per box, pair and axis, every axis of a pair tested, and
   [precedes] asked about every ordered pair. The geometry tests run
   random placements through it and through [Placement.check] and
   require the same violations in the same order. *)

module Box = Geometry.Box
module Container = Geometry.Container
module Placement = Geometry.Placement

(* Box [i]'s occupied interval [[lo, hi)] along axis [k]. *)
let interval p i k =
  let lo = (Placement.origin p i).(k) in
  (lo, lo + Box.extent (Placement.box p i) k)

let within (lo, hi) ~bound = 0 <= lo && hi <= bound
let disjoint (lo, hi) (lo', hi') = hi <= lo' || hi' <= lo

let check p ~container ~precedes =
  let n = Placement.count p in
  let d = Container.dim container in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  for i = 0 to n - 1 do
    if Box.dim (Placement.box p i) <> d then
      invalid_arg "Placement.check: dimension mismatch with container";
    let inside = ref true in
    for k = 0 to d - 1 do
      if
        not
          (within (interval p i k) ~bound:(Container.extent container k))
      then inside := false
    done;
    if not !inside then add (Placement.Out_of_bounds i)
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let disjoint_somewhere = ref false in
      for k = 0 to d - 1 do
        if disjoint (interval p i k) (interval p j k) then
          disjoint_somewhere := true
      done;
      if not !disjoint_somewhere then add (Placement.Boxes_overlap (i, j))
    done
  done;
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if
        u <> v && precedes u v
        && Placement.start_time p v < Placement.finish_time p u
      then add (Placement.Precedence_violated (u, v))
    done
  done;
  List.rev !violations
