module Instance = Packing.Instance

type entry = {
  task : int;
  start : int;
  position : (int * int) option;
}

let fail line fmt =
  Printf.ksprintf (fun s -> failwith (Printf.sprintf "line %d: %s" line s)) fmt

let int_of line s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail line "expected an integer, got %S" s

let index_of inst line label =
  let n = Instance.count inst in
  let rec go i =
    if i >= n then fail line "unknown task %s" label
    else if Instance.label inst i = label then i
    else go (i + 1)
  in
  go 0

let parse inst text =
  let entries = ref [] in
  let seen = Hashtbl.create 16 in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      let words =
        List.filter (fun w -> w <> "")
          (String.split_on_char ' '
             (String.map (function '\t' | '\r' -> ' ' | c -> c) line))
      in
      let add task start position =
        if Hashtbl.mem seen task then fail lineno "duplicate task";
        if start < 0 then fail lineno "negative start time";
        Hashtbl.add seen task ();
        entries := { task; start; position } :: !entries
      in
      match words with
      | [] -> ()
      | [ "start"; label; t ] ->
        add (index_of inst lineno label) (int_of lineno t) None
      | [ "place"; label; t; x; y ] ->
        add (index_of inst lineno label) (int_of lineno t)
          (Some (int_of lineno x, int_of lineno y))
      | w :: _ -> fail lineno "unknown directive %s" w)
    (String.split_on_char '\n' text);
  List.rev !entries

let schedule_array inst entries =
  let n = Instance.count inst in
  let schedule = Array.make n (-1) in
  List.iter (fun e -> schedule.(e.task) <- e.start) entries;
  Array.iteri
    (fun i s ->
      if s < 0 then
        failwith
          (Printf.sprintf "no start time for task %s" (Instance.label inst i)))
    schedule;
  schedule

let placement_of inst entries =
  let n = Instance.count inst in
  let origins = Array.make n None in
  List.iter
    (fun e ->
      match e.position with
      | Some (x, y) -> origins.(e.task) <- Some [| x; y; e.start |]
      | None -> ())
    entries;
  if Array.for_all Option.is_some origins then
    Some
      (Geometry.Placement.make (Instance.boxes inst)
         (Array.map Option.get origins))
  else None
