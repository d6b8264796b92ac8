(* Qualitative palette (ColorBrewer Set3-ish), cycled by task index. *)
let palette =
  [|
    "#8dd3c7"; "#ffffb3"; "#bebada"; "#fb8072"; "#80b1d3"; "#fdb462";
    "#b3de69"; "#fccde5"; "#d9d9d9"; "#bc80bd"; "#ccebc5"; "#ffed6f";
  |]

let color i = palette.(i mod Array.length palette)

let cell = 12 (* pixels per chip cell *)
let pad = 14

let default_label i = string_of_int i

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let running p i time =
  Placement.start_time p i <= time && time < Placement.finish_time p i

(* One chip slice drawn with its top-left corner at (ox, oy). *)
let slice_group buf p ~container ~time ~labels ~ox ~oy =
  let w = Container.extent container 0 and h = Container.extent container 1 in
  Buffer.add_string buf
    (Printf.sprintf
       "<rect x='%d' y='%d' width='%d' height='%d' fill='#fafafa' \
        stroke='#333'/>\n"
       ox oy (w * cell) (h * cell));
  for i = 0 to Placement.count p - 1 do
    if running p i time then begin
      let o = Placement.origin p i in
      let b = Placement.box p i in
      let bw = Box.extent b 0 * cell and bh = Box.extent b 1 * cell in
      let x = ox + (o.(0) * cell) and y = oy + (o.(1) * cell) in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x='%d' y='%d' width='%d' height='%d' fill='%s' \
            stroke='#555'/>\n"
           x y bw bh (color i));
      Buffer.add_string buf
        (Printf.sprintf
           "<text x='%d' y='%d' font-size='10' font-family='sans-serif' \
            text-anchor='middle' dominant-baseline='middle'>%s</text>\n"
           (x + (bw / 2))
           (y + (bh / 2))
           (esc (labels i)))
    end
  done

let document ~width ~height body =
  Printf.sprintf
    "<svg xmlns='http://www.w3.org/2000/svg' width='%d' height='%d' \
     viewBox='0 0 %d %d'>\n%s</svg>\n"
    width height width height body

let change_points p =
  let times = ref [] in
  for i = 0 to Placement.count p - 1 do
    times := Placement.start_time p i :: !times
  done;
  List.sort_uniq compare !times

let storyboard p ~container ?(labels = default_label) () =
  let w = Container.extent container 0 and h = Container.extent container 1 in
  let n = Placement.count p in
  let span = max 1 (Placement.makespan p) in
  let times = change_points p in
  let slice_w = (w * cell) + pad in
  let slice_h = (h * cell) + pad + 16 in
  let buf = Buffer.create 4096 in
  List.iteri
    (fun idx time ->
      let ox = pad + (idx * slice_w) in
      Buffer.add_string buf
        (Printf.sprintf
           "<text x='%d' y='%d' font-size='11' \
            font-family='sans-serif'>t = %d</text>\n"
           ox (pad - 3) time);
      slice_group buf p ~container ~time ~labels ~ox ~oy:pad)
    times;
  (* Gantt strip below the slices. *)
  let gantt_y = pad + slice_h in
  let row = 14 in
  let gantt_w = max 1 (List.length times) * slice_w - pad in
  let px t = pad + (t * gantt_w / span) in
  for i = 0 to n - 1 do
    let y = gantt_y + (i * row) in
    let s = Placement.start_time p i and f = Placement.finish_time p i in
    Buffer.add_string buf
      (Printf.sprintf
         "<rect x='%d' y='%d' width='%d' height='%d' fill='%s' \
          stroke='#555'/>\n"
         (px s) y
         (max 2 (px f - px s))
         (row - 3) (color i));
    Buffer.add_string buf
      (Printf.sprintf
         "<text x='%d' y='%d' font-size='10' font-family='sans-serif' \
          dominant-baseline='middle'>%s</text>\n"
         (px f + 4)
         (y + (row / 2))
         (esc (labels i)))
  done;
  let width = pad + (List.length times * slice_w) + pad in
  let height = gantt_y + (n * row) + pad in
  document ~width ~height (Buffer.contents buf)
