module Box = Geometry.Box
module Container = Geometry.Container

type t = {
  instance : Packing.Instance.t;
  chip : Chip.t option;
  t_max : int option;
  container : Container.t option;
}

let fail line fmt =
  Printf.ksprintf (fun s -> failwith (Printf.sprintf "line %d: %s" line s)) fmt

let int_of line s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail line "expected an integer, got %S" s

let check_volume line exts =
  match Box.check_volume exts with Ok () -> () | Error m -> fail line "%s" m

let parse text =
  let name = ref "instance" in
  let chip = ref None in
  let t_max = ref None in
  let dim = ref 3 in
  let dim_fixed = ref false in
  (* latched once a directive depends on the dimension *)
  let objective = ref None in
  let container = ref None in
  let modules : (string, Module_library.module_type) Hashtbl.t =
    Hashtbl.create 8
  in
  let tasks = ref [] in
  (* (label, box) in reverse order *)
  let deps = ref [] in
  let orders = ref [] in
  (* (lineno, axis, a, b) in reverse order *)
  let need_dim lineno d =
    if !dim <> d then
      fail lineno "directive needs a %d-dimensional instance (dim is %d)" d !dim;
    dim_fixed := true
  in
  let extents_of lineno words =
    if List.length words <> !dim then
      fail lineno "expected %d extents, got %d" !dim (List.length words);
    dim_fixed := true;
    Array.of_list (List.map (int_of lineno) words)
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      let words =
        List.filter (fun w -> w <> "") (String.split_on_char ' '
          (String.map (function '\t' | '\r' -> ' ' | c -> c) line))
      in
      match words with
      | [] -> ()
      | [ "name"; n ] -> name := n
      | [ "dim"; d ] ->
        if !dim_fixed then
          fail lineno "dim must precede every dimension-dependent directive";
        let d = int_of lineno d in
        if d < 1 then fail lineno "dim must be positive";
        dim := d
      | [ "objective"; k ] ->
        let k = int_of lineno k in
        if k < 0 || k >= !dim then
          fail lineno "objective axis %d out of range for dim %d" k !dim;
        dim_fixed := true;
        objective := Some k
      | "container" :: rest ->
        if !container <> None then fail lineno "duplicate container";
        let exts = extents_of lineno rest in
        check_volume lineno exts;
        container := Some (Container.make exts)
      | [ "chip"; w; h ] ->
        need_dim lineno 3;
        let w = int_of lineno w and h = int_of lineno h in
        check_volume lineno [| w; h |];
        chip := Some (Chip.create ~w ~h)
      | [ "time"; t ] ->
        need_dim lineno 3;
        t_max := Some (int_of lineno t)
      | "module" :: type_name :: w :: h :: exec :: rest ->
        need_dim lineno 3;
        let reconfig_time =
          match rest with
          | [] -> 0
          | [ r ] -> int_of lineno r
          | _ -> fail lineno "too many fields for module"
        in
        if Hashtbl.mem modules type_name then
          fail lineno "duplicate module type %s" type_name;
        let width = int_of lineno w and height = int_of lineno h in
        let exec_time = int_of lineno exec in
        check_volume lineno [| width; height; exec_time |];
        if reconfig_time < 0 || reconfig_time > Box.max_volume then
          fail lineno "reconfiguration time out of range";
        check_volume lineno [| width; height; exec_time + reconfig_time |];
        Hashtbl.add modules type_name
          { Module_library.type_name; width; height; exec_time; reconfig_time }
      | [ "task"; label; type_name ] -> (
        need_dim lineno 3;
        match Hashtbl.find_opt modules type_name with
        | None -> fail lineno "unknown module type %s" type_name
        | Some mt ->
          if List.mem_assoc label !tasks then
            fail lineno "duplicate task %s" label;
          tasks := (label, Module_library.box mt) :: !tasks)
      | [ "task"; label; w; h; d ] ->
        need_dim lineno 3;
        if List.mem_assoc label !tasks then fail lineno "duplicate task %s" label;
        let exts = [| int_of lineno w; int_of lineno h; int_of lineno d |] in
        check_volume lineno exts;
        tasks := (label, Box.make exts) :: !tasks
      | "box" :: label :: rest ->
        if List.mem_assoc label !tasks then fail lineno "duplicate task %s" label;
        let exts = extents_of lineno rest in
        check_volume lineno exts;
        tasks := (label, Box.make exts) :: !tasks
      | [ "dep"; a; b ] -> deps := (lineno, a, b) :: !deps
      | [ "order"; axis; a; b ] ->
        let k = int_of lineno axis in
        if k < 0 || k >= !dim then
          fail lineno "order axis %d out of range for dim %d" k !dim;
        dim_fixed := true;
        orders := (lineno, k, a, b) :: !orders
      | w :: _ -> fail lineno "unknown directive %s" w)
    lines;
  let tasks = List.rev !tasks in
  if tasks = [] then failwith "no tasks in instance";
  (match (!chip, !t_max) with
  | Some c, Some t -> (
    match Box.check_volume [| Chip.width c; Chip.height c; t |] with
    | Ok () -> ()
    | Error m -> failwith ("chip and time: " ^ m))
  | _ -> ());
  let labels = Array.of_list (List.map fst tasks) in
  let boxes = Array.of_list (List.map snd tasks) in
  let index_of line label =
    let rec go i = function
      | [] -> fail line "unknown task %s in dep" label
      | (l, _) :: rest -> if l = label then i else go (i + 1) rest
    in
    go 0 tasks
  in
  let precedence =
    List.rev_map (fun (line, a, b) -> (index_of line a, index_of line b)) !deps
  in
  let per_axis_orders =
    List.rev_map
      (fun (line, k, a, b) -> (k, [ (index_of line a, index_of line b) ]))
      !orders
  in
  (match !container with
  | Some c when Container.dim c <> !dim ->
    failwith
      (Printf.sprintf "container has %d extents but dim is %d"
         (Container.dim c) !dim)
  | _ -> ());
  let instance =
    try
      Packing.Instance.make ~name:!name ~labels ~precedence
        ~orders:per_axis_orders ?objective_axis:!objective ~boxes ()
    with Invalid_argument m -> failwith m
  in
  { instance; chip = !chip; t_max = !t_max; container = !container }

(* An instance the v1 grammar can express: 3-dimensional, objective on
   the time axis, no spatial orders, no explicit container. *)
let v1_representable t =
  let inst = t.instance in
  Packing.Instance.dim inst = 3
  && Packing.Instance.objective_axis inst = 2
  && List.for_all (fun k -> k = 2) (Packing.Instance.ordered_axes inst)
  && t.container = None

let print t =
  let inst = t.instance in
  let buf = Buffer.create 256 in
  if v1_representable t then begin
    Buffer.add_string buf
      (Printf.sprintf "name %s\n" (Packing.Instance.name inst));
    (match t.chip with
    | Some c ->
      Buffer.add_string buf
        (Printf.sprintf "chip %d %d\n" (Chip.width c) (Chip.height c))
    | None -> ());
    (match t.t_max with
    | Some tm -> Buffer.add_string buf (Printf.sprintf "time %d\n" tm)
    | None -> ());
    for i = 0 to Packing.Instance.count inst - 1 do
      Buffer.add_string buf
        (Printf.sprintf "task %s %d %d %d\n"
           (Packing.Instance.label inst i)
           (Packing.Instance.extent inst i 0)
           (Packing.Instance.extent inst i 1)
           (Packing.Instance.duration inst i))
    done;
    List.iter
      (fun (u, v) ->
        Buffer.add_string buf
          (Printf.sprintf "dep %s %s\n"
             (Packing.Instance.label inst u)
             (Packing.Instance.label inst v)))
      (Order.Partial_order.covers (Packing.Instance.precedence inst))
  end
  else begin
    let d = Packing.Instance.dim inst in
    Buffer.add_string buf (Printf.sprintf "dim %d\n" d);
    if Packing.Instance.objective_axis inst <> d - 1 then
      Buffer.add_string buf
        (Printf.sprintf "objective %d\n" (Packing.Instance.objective_axis inst));
    Buffer.add_string buf
      (Printf.sprintf "name %s\n" (Packing.Instance.name inst));
    (match t.container with
    | Some c ->
      Buffer.add_string buf "container";
      for k = 0 to d - 1 do
        Buffer.add_string buf (Printf.sprintf " %d" (Container.extent c k))
      done;
      Buffer.add_char buf '\n'
    | None -> ());
    for i = 0 to Packing.Instance.count inst - 1 do
      Buffer.add_string buf
        (Printf.sprintf "box %s" (Packing.Instance.label inst i));
      for k = 0 to d - 1 do
        Buffer.add_string buf
          (Printf.sprintf " %d" (Packing.Instance.extent inst i k))
      done;
      Buffer.add_char buf '\n'
    done;
    List.iter
      (fun k ->
        List.iter
          (fun (u, v) ->
            Buffer.add_string buf
              (Printf.sprintf "order %d %s %s\n" k
                 (Packing.Instance.label inst u)
                 (Packing.Instance.label inst v)))
          (Order.Partial_order.covers (Packing.Instance.order inst k)))
      (Packing.Instance.ordered_axes inst)
  end;
  Buffer.contents buf
