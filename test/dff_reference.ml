(* Reference copy of the two DFF enumerations as they were written
   before the tabulated rewrite: one closure per transform, a
   [Printf.sprintf] description for each, and every combination of the
   Cartesian product evaluated from scratch, task by task. The bounds
   tests run the same inputs through it and through
   [Packing.Bound_engine.dff_volume] and [dff_time] and require the
   same verdicts, certificate text included. *)

module Engine = Packing.Bound_engine
module Container = Geometry.Container
module Instance = Packing.Instance

let mul_sat a b =
  if a lor b < 1 lsl 31 then a * b else Geometry.Box.mul_sat a b

let f_eps ~eps ~w_max w =
  if w > w_max - eps then w_max else if w < eps then 0 else w

let u_k ~k ~w_max w =
  if (k + 1) * w mod w_max = 0 then k * w else w_max * ((k + 1) * w / w_max)

type transform = {
  describe : string;
  apply : int -> int;
  target : int;
}

let axis_transforms inst container axis =
  let w_max = Container.extent container axis in
  let epss =
    List.sort_uniq compare
      (List.concat
         (List.init (Instance.count inst) (fun i ->
              let e = Instance.extent inst i axis in
              List.filter
                (fun x -> x > 0 && 2 * x <= w_max)
                [ e; w_max - e; w_max / 2 ])))
  in
  let f_transforms =
    List.map
      (fun eps ->
        {
          describe = Printf.sprintf "f_eps(%d)" eps;
          apply = (fun w -> f_eps ~eps ~w_max w);
          target = w_max;
        })
      epss
  in
  let u_transforms =
    List.init 4 (fun j ->
        let k = j + 1 in
        {
          describe = Printf.sprintf "u^(%d)" k;
          apply = (fun w -> u_k ~k ~w_max w);
          target = k * w_max;
        })
  in
  { describe = "id"; apply = Fun.id; target = w_max }
  :: (f_transforms @ u_transforms)

let transformed_volume_exceeded inst choice =
  let d = Instance.dim inst in
  let cap = ref 1 in
  for k = 0 to d - 1 do
    cap := mul_sat !cap choice.(k).target
  done;
  let n = Instance.count inst in
  let left = ref !cap and i = ref 0 in
  while !cap < max_int && !left >= 0 && !i < n do
    let v = ref 1 in
    for k = 0 to d - 1 do
      v := !v * choice.(k).apply (Instance.extent inst !i k)
    done;
    left := !left - !v;
    incr i
  done;
  !left < 0

let dff_volume_exceeded inst container =
  let d = Instance.dim inst in
  let per_axis = Array.init d (fun k -> axis_transforms inst container k) in
  let choice = Array.make d (List.hd per_axis.(0)) in
  let found = ref None in
  let rec enumerate k =
    if !found <> None then ()
    else if k = d then begin
      if transformed_volume_exceeded inst choice then
        found :=
          Some
            (String.concat " * "
               (List.mapi
                  (fun i tr -> Printf.sprintf "%s on axis %d" tr.describe i)
                  (Array.to_list choice)))
    end
    else
      List.iter
        (fun tr ->
          if !found = None then begin
            choice.(k) <- tr;
            enumerate (k + 1)
          end)
        per_axis.(k)
  in
  enumerate 0;
  !found

let dff_volume inst container =
  if Option.is_some (Engine.misfit inst container) then Engine.Inconclusive
  else
    match dff_volume_exceeded inst container with
    | Some descr -> Engine.Infeasible { bound = "dff-volume"; detail = descr }
    | None -> Engine.Inconclusive

let dff_time inst container =
  let n = Instance.count inst in
  let ta = Instance.objective_axis inst in
  let spatial =
    Array.of_list
      (List.filter (fun k -> k <> ta) (List.init (Instance.dim inst) Fun.id))
  in
  let ns = Array.length spatial in
  if ns = 0 || Option.is_some (Engine.misfit inst container) then
    Engine.Inconclusive
  else begin
    let per_axis =
      Array.map (fun k -> axis_transforms inst container k) spatial
    in
    let choice = Array.make ns (List.hd per_axis.(0)) in
    let best = ref 0 in
    let limit = (max_int - 1) / max 1 (Instance.total_duration inst) in
    let rec enumerate k =
      if k = ns then begin
        let base = ref 1 in
        for m = 0 to ns - 1 do
          base := mul_sat !base choice.(m).target
        done;
        if !base <= limit then begin
          let total = ref 0 in
          for i = 0 to n - 1 do
            let a = ref (Instance.duration inst i) in
            for m = 0 to ns - 1 do
              a := !a * choice.(m).apply (Instance.extent inst i spatial.(m))
            done;
            total := !total + !a
          done;
          let lb = if !total <= 0 then 0 else ((!total - 1) / !base) + 1 in
          if lb > !best then best := lb
        end
      end
      else
        List.iter
          (fun tr ->
            choice.(k) <- tr;
            enumerate (k + 1))
          per_axis.(k)
    in
    enumerate 0;
    let lb = !best in
    if lb > Container.extent container ta then
      Engine.Infeasible
        {
          bound = "dff-time";
          detail = "DFF-transformed volume per time slice exceeds the chip area";
        }
    else if lb > 0 then Engine.Lower_bound lb
    else Engine.Inconclusive
  end
