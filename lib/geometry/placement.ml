type t = {
  boxes : Box.t array;
  origins : int array array;
}

let make boxes origins =
  if Array.length boxes <> Array.length origins then
    invalid_arg "Placement.make: box/origin count mismatch";
  Array.iteri
    (fun i o ->
      if Array.length o <> Box.dim boxes.(i) then
        invalid_arg "Placement.make: origin arity mismatch")
    origins;
  { boxes = Array.copy boxes; origins = Array.map Array.copy origins }

let count p = Array.length p.boxes
let box p i = p.boxes.(i)
let origin p i = Array.copy p.origins.(i)

let time_axis p i = Box.dim p.boxes.(i) - 1
let start_time p i = p.origins.(i).(time_axis p i)
let finish_time p i = start_time p i + Box.extent p.boxes.(i) (time_axis p i)

let makespan p =
  let best = ref 0 in
  for i = 0 to count p - 1 do
    best := max !best (finish_time p i)
  done;
  !best

type violation =
  | Out_of_bounds of int
  | Boxes_overlap of int * int
  | Precedence_violated of int * int

(* Reads origins and extents directly: no interval is built, a pair
   stops at its first separating axis, and [precedes] is asked only
   about pairs whose times conflict. The violations and their order are
   those of the plain per-axis definition. *)
let check p ~container ~precedes =
  let n = count p in
  let d = Container.dim container in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  for i = 0 to n - 1 do
    let b = p.boxes.(i) and o = p.origins.(i) in
    if Box.dim b <> d then
      invalid_arg "Placement.check: dimension mismatch with container";
    let k = ref 0 in
    while
      !k < d
      && o.(!k) >= 0
      && o.(!k) + Box.extent b !k <= Container.extent container !k
    do
      incr k
    done;
    if !k < d then add (Out_of_bounds i)
  done;
  for i = 0 to n - 1 do
    let bi = p.boxes.(i) and oi = p.origins.(i) in
    for j = i + 1 to n - 1 do
      let bj = p.boxes.(j) and oj = p.origins.(j) in
      let k = ref 0 in
      while
        !k < d
        && oi.(!k) < oj.(!k) + Box.extent bj !k
        && oj.(!k) < oi.(!k) + Box.extent bi !k
      do
        incr k
      done;
      if !k = d then add (Boxes_overlap (i, j))
    done
  done;
  for u = 0 to n - 1 do
    let finish = finish_time p u in
    for v = 0 to n - 1 do
      if u <> v && start_time p v < finish && precedes u v then
        add (Precedence_violated (u, v))
    done
  done;
  List.rev !violations

let is_feasible p ~container ~precedes = check p ~container ~precedes = []

let pp_violation fmt = function
  | Out_of_bounds i -> Format.fprintf fmt "box %d out of bounds" i
  | Boxes_overlap (i, j) -> Format.fprintf fmt "boxes %d and %d overlap" i j
  | Precedence_violated (u, v) ->
    Format.fprintf fmt "task %d starts before its predecessor %d finishes" v u
