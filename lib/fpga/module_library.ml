type module_type = {
  type_name : string;
  width : int;
  height : int;
  exec_time : int;
  reconfig_time : int;
}

type t = (string, module_type) Hashtbl.t

let create types =
  let table = Hashtbl.create 16 in
  List.iter
    (fun mt ->
      if mt.width <= 0 || mt.height <= 0 || mt.exec_time <= 0 then
        invalid_arg "Module_library.create: non-positive geometry";
      if mt.reconfig_time < 0 then
        invalid_arg "Module_library.create: negative reconfiguration time";
      if Hashtbl.mem table mt.type_name then
        invalid_arg
          (Printf.sprintf "Module_library.create: duplicate type %s"
             mt.type_name);
      Hashtbl.add table mt.type_name mt)
    types;
  table

let find t name =
  match Hashtbl.find_opt t name with
  | Some mt -> mt
  | None -> raise Not_found

let box mt =
  Geometry.Box.make3 ~w:mt.width ~h:mt.height
    ~duration:(mt.exec_time + mt.reconfig_time)

let instantiate t ~tasks =
  let boxes =
    Array.of_list
      (List.map (fun (_, type_name) -> box (find t type_name)) tasks)
  in
  let labels = Array.of_list (List.map fst tasks) in
  (boxes, labels)

