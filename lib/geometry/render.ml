let symbols = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

let symbol i = symbols.[i mod String.length symbols]

(* The widest line either chart draws: a chip wider or taller than
   this gets no timeline, and a longer schedule gets a gantt column per
   several cycles, so the output stays bounded whatever the extents. *)
let max_width = 100

let slice p ~container ~time =
  let w = Container.extent container 0 and h = Container.extent container 1 in
  let grid = Array.make_matrix h w '.' in
  for i = 0 to Placement.count p - 1 do
    if
      Placement.start_time p i <= time
      && time < Placement.finish_time p i
    then begin
      let o = Placement.origin p i in
      let b = Placement.box p i in
      for y = o.(1) to o.(1) + Box.extent b 1 - 1 do
        for x = o.(0) to o.(0) + Box.extent b 0 - 1 do
          if y >= 0 && y < h && x >= 0 && x < w then grid.(y).(x) <- symbol i
        done
      done
    end
  done;
  Array.to_list (Array.map (fun row -> String.init w (Array.get row)) grid)

let change_points p =
  let times = ref [] in
  for i = 0 to Placement.count p - 1 do
    times := Placement.start_time p i :: !times
  done;
  List.sort_uniq compare !times

let timeline p ~container =
  let w = Container.extent container 0 and h = Container.extent container 1 in
  if w > max_width || h > max_width then
    Printf.sprintf "(no timeline: the %dx%d chip exceeds %d cells a side)\n" w
      h max_width
  else begin
    let buf = Buffer.create 256 in
    List.iter
      (fun t ->
        Buffer.add_string buf (Printf.sprintf "-- t=%d --\n" t);
        List.iter
          (fun row ->
            Buffer.add_string buf row;
            Buffer.add_char buf '\n')
          (slice p ~container ~time:t))
      (change_points p);
    Buffer.contents buf
  end

let gantt p =
  let n = Placement.count p in
  let span = Placement.makespan p in
  (* Column [c] covers cycles [c * per, (c + 1) * per). *)
  let per = if span <= max_width then 1 else ((span - 1) / max_width) + 1 in
  let buf = Buffer.create 256 in
  for i = 0 to n - 1 do
    let s = Placement.start_time p i and f = Placement.finish_time p i in
    Buffer.add_string buf (Printf.sprintf "%3d |" i);
    for c = 0 to (span - 1) / per do
      Buffer.add_char buf
        (if s < (c + 1) * per && c * per < f then symbol i else ' ')
    done;
    Buffer.add_string buf (Printf.sprintf "| [%d,%d)\n" s f)
  done;
  if per > 1 then
    Buffer.add_string buf (Printf.sprintf "    (one column per %d cycles)\n" per);
  Buffer.contents buf
