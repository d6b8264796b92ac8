module Container = Geometry.Container
module Digraph = Graphlib.Digraph

type certificate = { bound : string; detail : string }

type verdict =
  | Infeasible of certificate
  | Lower_bound of int
  | Inconclusive

let certificate_json c =
  Telemetry.Obj
    [ ("bound", Telemetry.String c.bound); ("detail", Telemetry.String c.detail) ]

let verdict_json = function
  | Infeasible c ->
    Telemetry.Obj
      [ ("verdict", Telemetry.String "infeasible"); ("certificate", certificate_json c) ]
  | Lower_bound t ->
    Telemetry.Obj
      [ ("verdict", Telemetry.String "lower_bound"); ("time", Telemetry.Int t) ]
  | Inconclusive -> Telemetry.Obj [ ("verdict", Telemetry.String "inconclusive") ]

let pp_verdict fmt = function
  | Infeasible c -> Format.fprintf fmt "infeasible (%s: %s)" c.bound c.detail
  | Lower_bound t -> Format.fprintf fmt "time lower bound %d" t
  | Inconclusive -> Format.fprintf fmt "inconclusive"

(* ------------------------------------------------------------------ *)
(* Primitive bound families                                            *)
(* ------------------------------------------------------------------ *)

let volume_exceeded inst container =
  Instance.total_volume inst > Container.volume container

let misfit inst container =
  let d = Instance.dim inst in
  let bad = ref None in
  for i = Instance.count inst - 1 downto 0 do
    let fits = ref true in
    for k = 0 to d - 1 do
      if Instance.extent inst i k > Container.extent container k then
        fits := false
    done;
    if not !fits then bad := Some i
  done;
  !bad

let critical_path_exceeded inst container =
  Instance.critical_path inst
  > Container.extent container (Instance.time_axis inst)

(* The serialization graph along [axis]: two tasks are adjacent when
   they overflow the container in every other axis, so no placement can
   overlap them along [axis] as well — they must be disjoint there.
   [also] adds pairs that another argument already separates. This is
   the one builder behind every exclusion-clique bound. *)
let serialization_graph ?(also = fun _ _ -> false) inst container ~axis =
  let n = Instance.count inst in
  let d = Instance.dim inst in
  let g = Graphlib.Undirected.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let excl = ref true in
      for k = 0 to d - 1 do
        if
          k <> axis
          && Instance.extent inst i k + Instance.extent inst j k
             <= Container.extent container k
        then excl := false
      done;
      if !excl || also i j then Graphlib.Undirected.add_edge g i j
    done
  done;
  g

(* A clique of the serialization graph lines up along [axis], so its
   heaviest total extent there is a lower bound on that extent. *)
let exclusion_extent ?also inst container ~axis =
  fst
    (Graphlib.Cliques.max_weight_clique
       (serialization_graph ?also inst container ~axis)
       ~weight:(fun i -> Instance.extent inst i axis))

let exclusion_duration inst container =
  exclusion_extent inst container ~axis:(Instance.objective_axis inst)

let f_eps ~eps ~w_max w =
  if eps <= 0 || 2 * eps > w_max then invalid_arg "Bound_engine.f_eps: bad eps";
  if w < 0 || w > w_max then invalid_arg "Bound_engine.f_eps: w out of range";
  if w > w_max - eps then w_max else if w < eps then 0 else w

let u_k ~k ~w_max w =
  if k < 1 then invalid_arg "Bound_engine.u_k: k < 1";
  if w < 0 || w > w_max then invalid_arg "Bound_engine.u_k: w out of range";
  if (k + 1) * w mod w_max = 0 then k * w else w_max * ((k + 1) * w / w_max)

(* A per-axis transformation: a DFF applied to the box extents along one
   axis, with the corresponding transformed container extent. A product
   of DFFs across axes preserves packability (Fekete & Schepers), so an
   overflow of the composed transformed volume disproves the packing. *)
type transform = {
  describe : string;
  apply : int -> int; (* transformed box extent along this axis *)
  target : int; (* transformed container extent along this axis *)
}

let identity_transform w_max = { describe = "id"; apply = Fun.id; target = w_max }

let axis_transforms inst container axis =
  let w_max = Container.extent container axis in
  let epss =
    (* Thresholds where the f_eps behaviour changes are the distinct
       box extents; testing those (clamped to w_max/2) is exhaustive
       up to equivalence. *)
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
  identity_transform w_max :: (f_transforms @ u_transforms)

let transformed_volume_exceeded inst choice =
  let d = Instance.dim inst in
  let total = ref 0 in
  for i = 0 to Instance.count inst - 1 do
    let v = ref 1 in
    for k = 0 to d - 1 do
      v := !v * choice.(k).apply (Instance.extent inst i k)
    done;
    total := !total + !v
  done;
  let cap = ref 1 in
  for k = 0 to d - 1 do
    cap := !cap * choice.(k).target
  done;
  !total > !cap

let dff_volume_exceeded inst container =
  let d = Instance.dim inst in
  let per_axis = Array.init d (fun k -> axis_transforms inst container k) in
  let choice = Array.make d (List.hd per_axis.(0)) in
  let found = ref None in
  (* Enumerate the Cartesian product of per-axis transforms (identity
     included), cheapest combinations first by construction order. *)
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

(* ------------------------------------------------------------------ *)
(* Shared helpers for the registered bounds                            *)
(* ------------------------------------------------------------------ *)

(* "Time" below means the objective axis of the instance: the bounds
   bound the container extent needed along it, whatever its position.
   The remaining axes play the spatial role. *)
let time_cap inst container =
  Container.extent container (Instance.objective_axis inst)

(* Product of the container's spatial extents: the chip area available
   in every time slice (1 for purely temporal, d = 1 instances). *)
let base_area inst container =
  let ta = Instance.objective_axis inst in
  let a = ref 1 in
  for k = 0 to Instance.dim inst - 1 do
    if k <> ta then a := !a * Container.extent container k
  done;
  !a

let footprint inst i =
  let ta = Instance.objective_axis inst in
  let a = ref 1 in
  for k = 0 to Instance.dim inst - 1 do
    if k <> ta then a := !a * Instance.extent inst i k
  done;
  !a

let ceil_div a b = if a <= 0 then 0 else (a + b - 1) / b

(* Turn a proven time lower bound into a verdict against a container:
   exceeding the time extent is an infeasibility certificate. *)
let time_bound_verdict ~name ~detail inst container lb =
  if lb > time_cap inst container then
    Infeasible { bound = name; detail }
  else if lb > 0 then Lower_bound lb
  else Inconclusive

let sequencing_of_instance inst =
  Digraph.of_arcs (Instance.count inst)
    (Order.Partial_order.relations (Instance.precedence inst))

(* ------------------------------------------------------------------ *)
(* Registered bounds                                                   *)
(* ------------------------------------------------------------------ *)

(* Every bound takes the instance, the container, and a sequencing
   digraph of committed time-axis arcs. For root calls the sequencing is
   the precedence order; at a search node it is the current transitive
   orientation of the time dimension, which contains the precedence arcs
   plus every branching decision — any arc holds in every completion of
   the node, so the dynamic bounds refute whole subtrees. *)
type entry = {
  name : string;
  dynamic : bool; (* worth re-running at search nodes *)
  run : Instance.t -> Container.t -> seq:Digraph.t -> verdict;
}

let run_misfit inst container ~seq:_ =
  match misfit inst container with
  | Some i ->
    Infeasible
      {
        bound = "misfit";
        detail = Printf.sprintf "task %d does not fit the container" i;
      }
  | None -> Inconclusive

let run_volume inst container ~seq:_ =
  if volume_exceeded inst container then
    Infeasible
      { bound = "volume"; detail = "total volume exceeds the container" }
  else
    (* ceil(volume / base area) time slices are needed just to hold the
       total volume, whatever the schedule. *)
    let lb = ceil_div (Instance.total_volume inst) (base_area inst container) in
    time_bound_verdict ~name:"volume"
      ~detail:"volume per time slice exceeds the chip area" inst container lb

let run_critical_path inst container ~seq =
  (* Static per-axis chains first: any non-objective axis carrying an
     order needs its heaviest chain to fit that axis's extent. (Empty
     orders — every legacy 3D instance — skip this in O(1) per axis.) *)
  let axis_overflow =
    List.find_opt
      (fun k ->
        k <> Instance.objective_axis inst
        && Instance.critical_path_axis inst k > Container.extent container k)
      (Instance.ordered_axes inst)
  in
  match axis_overflow with
  | Some k ->
    Infeasible
      {
        bound = "critical-path";
        detail =
          Printf.sprintf "an ordered chain exceeds the container along axis %d"
            k;
      }
  | None ->
    if not (Digraph.is_acyclic seq) then Inconclusive
    else
      let lb = Digraph.critical_path seq ~weight:(Instance.duration inst) in
      time_bound_verdict ~name:"critical-path"
        ~detail:"an oriented chain exceeds the time bound" inst container lb

(* Serialization clique along the time axis: two tasks must be disjoint
   in time when they overflow the container in every spatial axis, and
   also when the sequencing digraph already orders them. The max-weight
   clique of that union graph (weight = duration) must fit the time
   extent; with the precedence arcs alone this already dominates both
   the legacy exclusion clique and the critical path. *)
let run_clique_time inst container ~seq =
  let lb =
    exclusion_extent inst container ~axis:(Instance.objective_axis inst)
      ~also:(fun i j -> Digraph.mem_arc seq i j || Digraph.mem_arc seq j i)
  in
  time_bound_verdict ~name:"clique-time"
    ~detail:"a serialization clique exceeds the time bound" inst container lb

(* Per-spatial-axis serialization clique: pairs that overflow the
   container in every axis except [k] (time included) must be disjoint
   along [k], so a clique of such pairs needs extents summing within the
   container's [k]-extent. *)
let run_clique_space inst container ~seq:_ =
  let overflows k =
    k <> Instance.objective_axis inst
    && Graphlib.Cliques.exists_clique_heavier
         (serialization_graph inst container ~axis:k)
         ~weight:(fun i -> Instance.extent inst i k)
         ~bound:(Container.extent container k)
  in
  match List.find_opt overflows (List.init (Instance.dim inst) Fun.id) with
  | Some k ->
    Infeasible
      {
        bound = "clique-space";
        detail =
          Printf.sprintf
            "a serialization clique exceeds the container along axis %d" k;
      }
  | None -> Inconclusive

let run_dff_volume inst container ~seq:_ =
  match dff_volume_exceeded inst container with
  | Some descr -> Infeasible { bound = "dff-volume"; detail = descr }
  | None -> Inconclusive

(* DFF time bound: transform the spatial axes only (identity on time).
   Products of per-axis DFFs preserve packability, so every transformed
   packing still needs ceil(sum_i area'_i * d_i / base') time slices. *)
let run_dff_time inst container ~seq:_ =
  let ta = Instance.objective_axis inst in
  let n = Instance.count inst in
  let spatial =
    Array.of_list
      (List.filter (fun k -> k <> ta) (List.init (Instance.dim inst) Fun.id))
  in
  let ns = Array.length spatial in
  if ns = 0 then Inconclusive
  else begin
    let per_axis =
      Array.map (fun k -> axis_transforms inst container k) spatial
    in
    let choice = Array.make ns (List.hd per_axis.(0)) in
    let best = ref 0 in
    let rec enumerate k =
      if k = ns then begin
        let base = ref 1 in
        for m = 0 to ns - 1 do
          base := !base * choice.(m).target
        done;
        let total = ref 0 in
        for i = 0 to n - 1 do
          let a = ref (Instance.duration inst i) in
          for m = 0 to ns - 1 do
            a := !a * choice.(m).apply (Instance.extent inst i spatial.(m))
          done;
          total := !total + !a
        done;
        let lb = ceil_div !total !base in
        if lb > !best then best := lb
      end
      else
        List.iter
          (fun tr ->
            choice.(k) <- tr;
            enumerate (k + 1))
          per_axis.(k)
    in
    enumerate 0;
    time_bound_verdict ~name:"dff-time"
      ~detail:"DFF-transformed volume per time slice exceeds the chip area"
      inst container !best
  end

(* Energetic reasoning (cumulative-scheduling style): inside a window
   [t1, t2), task [i] with earliest start [est_i] and latest finish
   [lft_i] must occupy at least
   max(0, min(d_i, t2-t1, est_i + d_i - t1, t2 - (lft_i - d_i)))
   time slices, each consuming its spatial footprint. If the mandatory
   energy of all tasks exceeds base_area * (t2 - t1), no schedule
   respecting the committed arcs exists. The est/lft values come from
   longest paths over the sequencing digraph, so this bound mixes
   volume, precedence, and orientation — it can refute nodes the C2
   clique check cannot. *)
let run_energetic inst container ~seq =
  if not (Digraph.is_acyclic seq) then Inconclusive
  else begin
    let n = Instance.count inst in
    let cap = time_cap inst container in
    let base = base_area inst container in
    let dur = Instance.duration inst in
    let est = Digraph.longest_path_lengths seq ~weight:dur in
    let rev = Digraph.create n in
    List.iter (fun (u, v) -> Digraph.add_arc rev v u) (Digraph.arcs seq);
    let tail = Digraph.longest_path_lengths rev ~weight:dur in
    let lft = Array.init n (fun i -> cap - tail.(i)) in
    let result = ref Inconclusive in
    (* Chain through [i] too long for the window — cheap early out that
       also keeps every subsequent window computation meaningful. *)
    for i = 0 to n - 1 do
      if !result = Inconclusive && est.(i) + dur i > lft.(i) then
        result :=
          Infeasible
            {
              bound = "energetic";
              detail =
                Printf.sprintf "task %d has no feasible start window" i;
            }
    done;
    if !result = Inconclusive then begin
      let t1s = List.sort_uniq compare (0 :: Array.to_list est) in
      let t2s = List.sort_uniq compare (cap :: Array.to_list lft) in
      List.iter
        (fun t1 ->
          List.iter
            (fun t2 ->
              if !result = Inconclusive && t1 < t2 then begin
                let energy = ref 0 in
                for i = 0 to n - 1 do
                  let mandatory =
                    min
                      (min (dur i) (t2 - t1))
                      (min (est.(i) + dur i - t1) (t2 - (lft.(i) - dur i)))
                  in
                  if mandatory > 0 then
                    energy := !energy + (footprint inst i * mandatory)
                done;
                if !energy > base * (t2 - t1) then
                  result :=
                    Infeasible
                      {
                        bound = "energetic";
                        detail =
                          Printf.sprintf
                            "mandatory energy %d exceeds capacity %d in \
                             window [%d, %d)"
                            !energy
                            (base * (t2 - t1))
                            t1 t2;
                      }
              end)
            t2s)
        t1s;
      !result
    end
    else !result
  end

let all_entries =
  [
    { name = "misfit"; dynamic = false; run = run_misfit };
    { name = "volume"; dynamic = false; run = run_volume };
    { name = "critical-path"; dynamic = true; run = run_critical_path };
    { name = "clique-time"; dynamic = true; run = run_clique_time };
    { name = "clique-space"; dynamic = false; run = run_clique_space };
    { name = "dff-volume"; dynamic = false; run = run_dff_volume };
    { name = "dff-time"; dynamic = false; run = run_dff_time };
    { name = "energetic"; dynamic = true; run = run_energetic };
  ]

let default_names = List.map (fun e -> e.name) all_entries

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

type t = { entries : (entry * Recorder.bound) list; recorder : Recorder.t }

let attach ?names recorder =
  let entries =
    match names with
    | None -> all_entries
    | Some names ->
      List.map
        (fun name ->
          match List.find_opt (fun e -> e.name = name) all_entries with
          | Some e -> e
          | None -> invalid_arg ("Bound_engine.create: unknown bound " ^ name))
        names
  in
  {
    entries =
      List.map (fun e -> (e, Recorder.register_bound recorder e.name)) entries;
    recorder;
  }

let create ?names ?trace () = attach ?names (Recorder.create ?trace ())
let recorder t = t.recorder
let counters t = Recorder.bounds t.recorder

let timed t (e, tally) inst container ~seq =
  Recorder.start t.recorder;
  let verdict = e.run inst container ~seq in
  Recorder.bound_call t.recorder tally
    (match verdict with
    | Infeasible cert -> Trace.Bv_infeasible cert.detail
    | Lower_bound l -> Trace.Bv_lower_bound l
    | Inconclusive -> Trace.Bv_inconclusive);
  verdict

let check_dimensions ~who inst container =
  if Container.dim container <> Instance.dim inst then
    invalid_arg (who ^ ": dimension mismatch")

let fold_entries t inst container ~seq ~only_dynamic =
  let best = ref Inconclusive in
  let refuted = ref None in
  List.iter
    (fun ((e, _) as entry) ->
      if !refuted = None && ((not only_dynamic) || e.dynamic) then
        match timed t entry inst container ~seq with
        | Infeasible _ as v -> refuted := Some v
        | Lower_bound l ->
          (match !best with
          | Lower_bound l' when l' >= l -> ()
          | _ -> best := Lower_bound l)
        | Inconclusive -> ())
    t.entries;
  match !refuted with Some v -> v | None -> !best

let check t inst container =
  check_dimensions ~who:"Bound_engine.check" inst container;
  let seq = sequencing_of_instance inst in
  fold_entries t inst container ~seq ~only_dynamic:false

let check_oriented t inst container ~sequencing =
  check_dimensions ~who:"Bound_engine.check_oriented" inst container;
  fold_entries t inst container ~seq:sequencing ~only_dynamic:true

let time_lower_bound t inst container =
  check_dimensions ~who:"Bound_engine.time_lower_bound" inst container;
  let ta = Instance.time_axis inst in
  (* Query at the fully serialized makespan: any verdict there either
     yields a direct lower bound or refutes every conceivable schedule
     for these spatial extents. *)
  let horizon = max 1 (Instance.total_duration inst) in
  let probe = Container.with_extent container ta horizon in
  match check t inst probe with
  | Infeasible _ -> horizon + 1
  | Lower_bound l -> max 1 l
  | Inconclusive -> 1

let run_all t inst container =
  check_dimensions ~who:"Bound_engine.run_all" inst container;
  let seq = sequencing_of_instance inst in
  List.map
    (fun ((e, _) as entry) -> (e.name, timed t entry inst container ~seq))
    t.entries
