type model =
  | Constant of int
  | Per_column of int
  | Per_cell of int

let load_time model ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Reconfig.load_time: non-positive size";
  match model with
  | Constant c -> c
  | Per_column c -> c * w
  | Per_cell c -> c * w * h

let pp fmt = function
  | Constant c -> Format.fprintf fmt "constant %d cycles" c
  | Per_column c -> Format.fprintf fmt "%d cycles per column" c
  | Per_cell c -> Format.fprintf fmt "%d cycles per cell" c
