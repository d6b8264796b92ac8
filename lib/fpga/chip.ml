type t = {
  w : int;
  h : int;
}

let create ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Chip.create: non-positive size";
  { w; h }

let width t = t.w
let height t = t.h
let cells t = t.w * t.h
let square s = create ~w:s ~h:s
let container t ~t_max = Geometry.Container.make3 ~w:t.w ~h:t.h ~t_max

let pp fmt t = Format.fprintf fmt "%dx%d cells" t.w t.h
