type t = int array

let make extents =
  if Array.length extents = 0 then invalid_arg "Container.make: zero dimension";
  Array.iter
    (fun e -> if e <= 0 then invalid_arg "Container.make: non-positive extent")
    extents;
  Array.copy extents

let make3 ~w ~h ~t_max = make [| w; h; t_max |]
let dim = Array.length

let extent c k =
  if k < 0 || k >= Array.length c then invalid_arg "Container.extent: bad axis";
  c.(k)

let extents = Array.copy
let volume c = Array.fold_left Box.mul_sat 1 c

let with_extent c k e =
  if k < 0 || k >= Array.length c then
    invalid_arg "Container.with_extent: bad axis";
  if e <= 0 then invalid_arg "Container.with_extent: non-positive extent";
  let c' = Array.copy c in
  c'.(k) <- e;
  c'
