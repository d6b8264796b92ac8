type t = int array

let make extents =
  if Array.length extents = 0 then invalid_arg "Box.make: zero dimension";
  Array.iter
    (fun e -> if e <= 0 then invalid_arg "Box.make: non-positive extent")
    extents;
  Array.copy extents

let make3 ~w ~h ~duration = make [| w; h; duration |]
let dim = Array.length

let extent b k =
  if k < 0 || k >= Array.length b then invalid_arg "Box.extent: bad axis";
  b.(k)

let extents = Array.copy
let volume b = Array.fold_left ( * ) 1 b

let max_volume = 1 lsl 40
let mul_sat a b = if a <> 0 && b > max_int / a then max_int else a * b

let check_volume exts =
  (* [e > max_volume / v] is [v * e > max_volume] without the product *)
  let rec go v k =
    if k = Array.length exts then Ok ()
    else if exts.(k) <= 0 then Error "non-positive extent"
    else if exts.(k) > max_volume / v then
      Error
        (Printf.sprintf "extents %s: volume exceeds 2^40"
           (String.concat "x" (Array.to_list (Array.map string_of_int exts))))
    else go (v * exts.(k)) (k + 1)
  in
  go 1 0

let rotate b ~axes =
  let d = Array.length b in
  if Array.length axes <> d then invalid_arg "Box.rotate: wrong arity";
  let seen = Array.make d false in
  Array.iter
    (fun a ->
      if a < 0 || a >= d || seen.(a) then
        invalid_arg "Box.rotate: not a permutation";
      seen.(a) <- true)
    axes;
  Array.map (fun a -> b.(a)) axes

let equal = ( = )

let pp fmt b =
  Format.fprintf fmt "%a"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_char fmt 'x')
       Format.pp_print_int)
    (Array.to_list b)
