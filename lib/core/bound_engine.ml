module Container = Geometry.Container
module Digraph = Graphlib.Digraph

(* [Geometry.Box.mul_sat] behind a fast path the compiler can inline:
   two factors below 2^31 cannot overflow, and the DFF enumerations
   call it at every node. *)
let mul_sat a b =
  if a lor b < 1 lsl 31 then a * b else Geometry.Box.mul_sat a b

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

let f_eps ~eps ~w_max w =
  if eps <= 0 || 2 * eps > w_max then invalid_arg "Bound_engine.f_eps: bad eps";
  if w < 0 || w > w_max then invalid_arg "Bound_engine.f_eps: w out of range";
  if w > w_max - eps then w_max else if w < eps then 0 else w

let u_k ~k ~w_max w =
  if k < 1 then invalid_arg "Bound_engine.u_k: k < 1";
  if w < 0 || w > w_max then invalid_arg "Bound_engine.u_k: w out of range";
  if (k + 1) * w mod w_max = 0 then k * w else w_max * ((k + 1) * w / w_max)

(* The DFFs tried along one axis: the identity, [f_eps] at each
   threshold where its behaviour changes, and [u^(k)] for k = 1..4. *)
type dff = Id | F_eps of int | U_k of int

let describe = function
  | Id -> "id"
  | F_eps eps -> Printf.sprintf "f_eps(%d)" eps
  | U_k k -> Printf.sprintf "u^(%d)" k

(* A per-axis transformation tabulated on the tasks: a DFF applied to
   every box extent along one axis, with the corresponding transformed
   container extent. A product of DFFs across axes preserves
   packability (Fekete & Schepers), so an overflow of the composed
   transformed volume disproves the packing. *)
type table = {
  dff : dff;
  target : int; (* transformed container extent along this axis *)
  values : int array; (* transformed extent of each task along this axis *)
}

(* The tables of one axis, in enumeration order. A table of zeros adds
   no volume, and a table equal to an earlier one (same target, same
   values) decides every combination as that one did, earlier in the
   order; both are dropped, which leaves the first combination that
   exceeds, and the bound of the best one, as they were. *)
let axis_tables inst container axis =
  let w_max = Container.extent container axis in
  let extents =
    Array.init (Instance.count inst) (fun i -> Instance.extent inst i axis)
  in
  let epss =
    (* Thresholds where the f_eps behaviour changes are the distinct
       box extents; testing those (clamped to w_max/2) is exhaustive
       up to equivalence. *)
    List.sort_uniq Int.compare
      (List.filter
         (fun x -> x > 0 && 2 * x <= w_max)
         (Array.fold_left
            (fun acc e -> e :: (w_max - e) :: (w_max / 2) :: acc)
            [] extents))
  in
  let table dff =
    let target, apply =
      match dff with
      | Id -> (w_max, Fun.id)
      | F_eps eps -> (w_max, f_eps ~eps ~w_max)
      | U_k k -> (k * w_max, u_k ~k ~w_max)
    in
    { dff; target; values = Array.map apply extents }
  in
  let keep kept t =
    if
      Array.exists (fun v -> v > 0) t.values
      && not
           (List.exists
              (fun u -> u.target = t.target && u.values = t.values)
              kept)
    then t :: kept
    else kept
  in
  ((Id :: List.map (fun eps -> F_eps eps) epss)
   @ List.init 4 (fun j -> U_k (j + 1)))
  |> List.map table |> List.fold_left keep [] |> List.rev |> Array.of_list

(* The first combination of tables, one per axis in enumeration order
   (axis 0 outermost), whose composed transformed volume exceeds the
   composed target, described as a certificate. [rows.(k)] carries each
   task's transformed volume over axes 0..k down the enumeration, so a
   leaf costs one pass over the tasks. Every transformed extent is at
   most its target, so where the volume projected on axes 0..k is
   within the product of their targets, no choice on the later axes
   exceeds, and the subtree is skipped; so is one whose product
   saturates, since a saturated cap cannot be exceeded. Below the cap
   no task's product wraps, and [left], what the tasks leave of the cap
   until it goes negative, cannot wrap either. *)
let dff_volume_exceeded inst container =
  let d = Instance.dim inst and n = Instance.count inst in
  let tables = Array.init d (axis_tables inst container) in
  let rows = Array.make_matrix d n 0 in
  let choice = Array.make d 0 in
  (* Fills [rows.(k)] from [prev] and table [t]; true when its total
     exceeds [cap]. *)
  let over k prev t cap =
    let row = rows.(k) and values = t.values in
    let left = ref cap in
    for i = 0 to n - 1 do
      let v = prev.(i) * values.(i) in
      row.(i) <- v;
      if !left >= 0 then left := !left - v
    done;
    !left < 0
  in
  let rec exceeds k prev cap =
    let rec from j =
      j < Array.length tables.(k)
      &&
      let t = tables.(k).(j) in
      let cap = mul_sat cap t.target in
      if
        cap < max_int && over k prev t cap
        && (k = d - 1 || exceeds (k + 1) rows.(k) cap)
      then begin
        choice.(k) <- j;
        true
      end
      else from (j + 1)
    in
    from 0
  in
  if exceeds 0 (Array.make n 1) 1 then
    Some
      (String.concat " * "
         (List.init d (fun k ->
              Printf.sprintf "%s on axis %d"
                (describe tables.(k).(choice.(k)).dff)
                k)))
  else None

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
    if k <> ta then a := mul_sat !a (Container.extent container k)
  done;
  !a

(* The axes other than the objective axis, ascending. *)
let spatial_axes inst =
  let ta = Instance.objective_axis inst in
  List.filter (fun k -> k <> ta) (List.init (Instance.dim inst) Fun.id)

let footprint inst i =
  let ta = Instance.objective_axis inst in
  let a = ref 1 in
  for k = 0 to Instance.dim inst - 1 do
    if k <> ta then a := !a * Instance.extent inst i k
  done;
  !a

let ceil_div a b = if a <= 0 then 0 else ((a - 1) / b) + 1

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

(* Every registered bound is a function of the instance and the
   container alone: the order it uses is the instance's precedence.
   [serial_silent] marks a bound that is silent at the serialized
   horizon of [time_lower_bound] whenever [misfit] is: it never returns
   a [Lower_bound], and it ignores the spatial orders, so it cannot
   refute the packing that runs the tasks one after another at the
   origin, which exists there once every task fits. [misfit], which
   decides that fit, is not marked. *)
type entry = {
  name : string;
  run : Instance.t -> Container.t -> verdict;
  serial_silent : bool;
}

let run_misfit inst container =
  match misfit inst container with
  | Some i ->
    Infeasible
      {
        bound = "misfit";
        detail = Printf.sprintf "task %d does not fit the container" i;
      }
  | None -> Inconclusive

let run_volume inst container =
  if Instance.total_volume inst > Container.volume container then
    Infeasible
      { bound = "volume"; detail = "total volume exceeds the container" }
  else
    (* ceil(volume / base area) time slices are needed just to hold the
       total volume, whatever the schedule. *)
    let lb = ceil_div (Instance.total_volume inst) (base_area inst container) in
    time_bound_verdict ~name:"volume"
      ~detail:"volume per time slice exceeds the chip area" inst container lb

let run_critical_path inst container =
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
    time_bound_verdict ~name:"critical-path"
      ~detail:"an oriented chain exceeds the time bound" inst container
      (Instance.critical_path inst)

(* Serialization clique along the time axis: two tasks must be disjoint
   in time when they overflow the container in every spatial axis, and
   also when the precedence orders them. The max-weight clique of that
   union graph (weight = duration) must fit the time extent; this
   already dominates both the legacy exclusion clique and the critical
   path. *)
let run_clique_time inst container =
  let lb =
    exclusion_extent inst container ~axis:(Instance.objective_axis inst)
      ~also:(fun i j ->
        Instance.precedes inst i j || Instance.precedes inst j i)
  in
  time_bound_verdict ~name:"clique-time"
    ~detail:"a serialization clique exceeds the time bound" inst container lb

(* Per-spatial-axis serialization clique: pairs that overflow the
   container in every axis except [k] (time included) must be disjoint
   along [k], so a clique of such pairs needs extents summing within the
   container's [k]-extent. *)
let run_clique_space inst container =
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

(* The DFFs are defined on extents up to the container's: a task that
   overflows the container is the misfit bound's certificate, and both
   DFF bounds stay silent on it. *)
let dff_volume inst container =
  if Option.is_some (misfit inst container) then Inconclusive
  else
    match dff_volume_exceeded inst container with
    | Some descr -> Infeasible { bound = "dff-volume"; detail = descr }
    | None -> Inconclusive

(* DFF time bound: transform the spatial axes only (identity on time).
   Products of per-axis DFFs preserve packability, so every transformed
   packing still needs ceil(sum_i area'_i * d_i / base') time slices.
   The enumeration carries [rows.(k)], each task's duration times its
   transformed area over the spatial axes up to [k], and [base], the
   product of their targets. A task's transformed area is at most
   [base], so the total is at most [base] times the summed durations:
   within [limit] nothing below overflows, and past it the combination
   is skipped, as is every completion, whose base is no smaller. A
   completion's bound is at most ceil(total / base) of its prefix, so a
   prefix whose ratio does not beat [best] is skipped too. *)
let dff_time inst container =
  let n = Instance.count inst in
  let spatial = Array.of_list (spatial_axes inst) in
  let ns = Array.length spatial in
  if ns = 0 || Option.is_some (misfit inst container) then Inconclusive
  else begin
    let tables = Array.map (axis_tables inst container) spatial in
    let rows = Array.make_matrix ns n 0 in
    let best = ref 0 in
    let limit = (max_int - 1) / max 1 (Instance.total_duration inst) in
    let rec enumerate k prev base =
      Array.iter
        (fun t ->
          let base = mul_sat base t.target in
          if base <= limit then begin
            let row = rows.(k) and values = t.values in
            let total = ref 0 in
            for i = 0 to n - 1 do
              let v = prev.(i) * values.(i) in
              row.(i) <- v;
              total := !total + v
            done;
            let lb = ceil_div !total base in
            if lb > !best then
              if k = ns - 1 then best := lb else enumerate (k + 1) row base
          end)
        tables.(k)
    in
    enumerate 0 (Array.init n (Instance.duration inst)) 1;
    time_bound_verdict ~name:"dff-time"
      ~detail:"DFF-transformed volume per time slice exceeds the chip area"
      inst container !best
  end

(* Start windows from an acyclic sequencing digraph: [est.(i)] is the
   heaviest chain of [i]'s predecessors, [lft.(i)] the time extent less
   the heaviest chain of its successors. Task [i] starts in
   [est.(i), lft.(i) - d_i] in every schedule. *)
let windows inst container ~seq =
  let n = Instance.count inst in
  let dur = Instance.duration inst in
  let est = Digraph.longest_path_lengths seq ~weight:dur in
  let rev = Digraph.create n in
  List.iter (fun (u, v) -> Digraph.add_arc rev v u) (Digraph.arcs seq);
  let tail = Digraph.longest_path_lengths rev ~weight:dur in
  let cap = time_cap inst container in
  (est, Array.init n (fun i -> cap - tail.(i)))

(* Energetic reasoning (cumulative-scheduling style): inside a window
   [t1, t2), task [i] with earliest start [est_i] and latest finish
   [lft_i] must occupy at least
   max(0, min(d_i, t2-t1, est_i + d_i - t1, t2 - (lft_i - d_i)))
   time slices, each consuming its spatial footprint. If the mandatory
   energy of all tasks exceeds base_area * (t2 - t1), no schedule
   respecting the committed arcs exists. The est/lft values come from
   longest paths over the sequencing digraph, so this bound mixes
   volume, precedence, and orientation — it can refute nodes the C2
   clique check cannot, which makes it the one bound the search runs
   at its nodes. *)
let run_energetic inst container ~seq =
  if not (Digraph.is_acyclic seq) then Inconclusive
  else begin
    let n = Instance.count inst in
    let cap = time_cap inst container in
    let base = base_area inst container in
    let dur = Array.init n (Instance.duration inst) in
    let area = Array.init n (footprint inst) in
    let est, lft = windows inst container ~seq in
    let infeasible detail = Infeasible { bound = "energetic"; detail } in
    (* Chain through [i] too long for the window — cheap early out that
       also keeps every subsequent window computation meaningful. *)
    let rec no_window i =
      if i = n then None
      else if est.(i) + dur.(i) > lft.(i) then Some i
      else no_window (i + 1)
    in
    match no_window 0 with
    | Some i ->
      infeasible (Printf.sprintf "task %d has no feasible start window" i)
    | None -> (
      let t1s = List.sort_uniq Int.compare (0 :: Array.to_list est) in
      let t2s = List.sort_uniq Int.compare (cap :: Array.to_list lft) in
      let overflow t1 t2 =
        if t1 >= t2 then None
        else begin
          let energy = ref 0 in
          for i = 0 to n - 1 do
            let mandatory =
              Int.min
                (Int.min dur.(i) (t2 - t1))
                (Int.min (est.(i) + dur.(i) - t1) (t2 - (lft.(i) - dur.(i))))
            in
            if mandatory > 0 then energy := !energy + (area.(i) * mandatory)
          done;
          let capacity = mul_sat base (t2 - t1) in
          if !energy > capacity then
            Some
              (Printf.sprintf
                 "mandatory energy %d exceeds capacity %d in window [%d, %d)"
                 !energy capacity t1 t2)
          else None
        end
      in
      match List.find_map (fun t1 -> List.find_map (overflow t1) t2s) t1s with
      | Some detail -> infeasible detail
      | None -> Inconclusive)
  end

let all_entries =
  [
    { name = "misfit"; run = run_misfit; serial_silent = false };
    { name = "volume"; run = run_volume; serial_silent = false };
    { name = "critical-path"; run = run_critical_path; serial_silent = false };
    { name = "clique-time"; run = run_clique_time; serial_silent = false };
    { name = "clique-space"; run = run_clique_space; serial_silent = true };
    { name = "dff-volume"; run = dff_volume; serial_silent = true };
    { name = "dff-time"; run = dff_time; serial_silent = false };
    {
      name = "energetic";
      run =
        (fun inst container ->
          run_energetic inst container ~seq:(sequencing_of_instance inst));
      serial_silent = true;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Time slices                                                         *)
(* ------------------------------------------------------------------ *)

let time_slice_name = "time-slice"

let default_names = List.map (fun e -> e.name) all_entries @ [ time_slice_name ]

(* A task with start window [est, lst] runs during its compulsory part
   [lst, est + d) whatever its start. The compulsory parts are
   intervals, so the sets of tasks that all run at one time are the
   sets active at a left endpoint [lst_i], and the set at one endpoint
   is subset-maximal unless all of it still runs at the next endpoint.
   Every endpoint adds a task no earlier set holds, so the sets are
   distinct. *)
let time_slices inst container =
  let n = Instance.count inst in
  let est, lft = windows inst container ~seq:(sequencing_of_instance inst) in
  let dur = Instance.duration inst in
  let lst i = lft.(i) - dur i and ect i = est.(i) + dur i in
  let tasks = List.init n Fun.id in
  if List.exists (fun i -> lst i < est.(i)) tasks then []
  else begin
    let points =
      List.sort_uniq Int.compare
        (List.filter_map
           (fun i -> if lst i < ect i then Some (lst i) else None)
           tasks)
    in
    let rec maximal = function
      | [] -> []
      | t :: rest ->
        let running = List.filter (fun i -> lst i <= t && t < ect i) tasks in
        let kept =
          match rest with
          | [] -> true
          | next :: _ -> List.exists (fun i -> ect i <= next) running
        in
        if kept && List.compare_length_with running 2 >= 0 then
          (t, running) :: maximal rest
        else maximal rest
    in
    maximal points
  end

let slice_instance inst container tasks =
  let axes = Array.of_list (spatial_axes inst) in
  let members = Array.of_list tasks in
  let pos = Array.make (Instance.count inst) (-1) in
  Array.iteri (fun j i -> pos.(i) <- j) members;
  let orders =
    List.filter_map
      (fun j ->
        match
          List.filter_map
            (fun (u, v) ->
              if pos.(u) >= 0 && pos.(v) >= 0 then Some (pos.(u), pos.(v))
              else None)
            (Order.Partial_order.relations (Instance.order inst axes.(j)))
        with
        | [] -> None
        | arcs -> Some (j, arcs))
      (List.init (Array.length axes) Fun.id)
  in
  ( Instance.make ~name:(Instance.name inst ^ "-slice") ~orders
      ~boxes:
        (Array.map
           (fun i -> Geometry.Box.make (Array.map (Instance.extent inst i) axes))
           members)
      (),
    Container.make (Array.map (Container.extent container) axes) )

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  entries : (entry * Recorder.bound) list;
  serial_entries : (entry * Recorder.bound) list; (* the not [serial_silent] *)
  energetic : Recorder.bound;
  time_slice : Recorder.bound;
  recorder : Recorder.t;
}

let attach recorder =
  let entries =
    List.map (fun e -> (e, Recorder.register_bound recorder e.name)) all_entries
  in
  {
    entries;
    serial_entries = List.filter (fun (e, _) -> not e.serial_silent) entries;
    energetic = Recorder.register_bound recorder "energetic";
    time_slice = Recorder.register_bound recorder time_slice_name;
    recorder;
  }

let create ?trace () = attach (Recorder.create ?trace ())
let recorder t = t.recorder
let counters t = Recorder.bounds t.recorder

let timed t tally run =
  Recorder.start t.recorder;
  let verdict = run () in
  Recorder.bound_call t.recorder tally
    (match verdict with
    | Infeasible cert -> Trace.Bv_infeasible cert.detail
    | Lower_bound l -> Trace.Bv_lower_bound l
    | Inconclusive -> Trace.Bv_inconclusive);
  verdict

let check_dimensions ~who inst container =
  if Container.dim container <> Instance.dim inst then
    invalid_arg (who ^ ": dimension mismatch")

(* The first [Infeasible] verdict of [entries], in order, otherwise
   the strongest [Lower_bound], otherwise [Inconclusive]. *)
let first_refuted t entries inst container =
  let rec go best = function
    | [] -> best
    | (e, tally) :: rest -> (
      match timed t tally (fun () -> e.run inst container) with
      | Infeasible _ as v -> v
      | Lower_bound l -> (
        match best with
        | Lower_bound l' when l' >= l -> go best rest
        | _ -> go (Lower_bound l) rest)
      | Inconclusive -> go best rest)
  in
  go Inconclusive entries

let check t inst container =
  check_dimensions ~who:"Bound_engine.check" inst container;
  first_refuted t t.entries inst container

let energetic_at_node t inst container ~sequencing =
  check_dimensions ~who:"Bound_engine.energetic_at_node" inst container;
  timed t t.energetic (fun () -> run_energetic inst container ~seq:sequencing)

let time_lower_bound t inst container =
  check_dimensions ~who:"Bound_engine.time_lower_bound" inst container;
  let ta = Instance.objective_axis inst in
  (* Query at the fully serialized makespan: any verdict there either
     yields a direct lower bound or refutes every conceivable schedule
     for these spatial extents. *)
  let horizon = max 1 (Instance.total_duration inst) in
  let probe = Container.with_extent container ta horizon in
  (* The [serial_silent] bounds cannot change the verdict here. *)
  match first_refuted t t.serial_entries inst probe with
  | Infeasible _ -> horizon + 1
  | Lower_bound l -> max 1 l
  | Inconclusive -> 1

(* Silent where another bound holds the certificate: a task that
   overflows the container (misfit) or a start window that is empty
   (energetic), and below three axes, where a slice is a set of
   intervals whose packing is a length sum, which the capacity rule
   decides. *)
let time_slice t ~refute inst container =
  check_dimensions ~who:"Bound_engine.time_slice" inst container;
  timed t t.time_slice (fun () ->
      if Instance.dim inst < 3 || Option.is_some (misfit inst container) then
        Inconclusive
      else
        let refuted (_, tasks) =
          let sub, chip = slice_instance inst container tasks in
          refute sub chip
        in
        match List.find_opt refuted (time_slices inst container) with
        | None -> Inconclusive
        | Some (time, tasks) ->
          let ints sep l = String.concat sep (List.map string_of_int l) in
          Infeasible
            {
              bound = time_slice_name;
              detail =
                Printf.sprintf
                  "tasks %s all run at time %d and do not pack the %s \
                   cross-section"
                  (ints "," tasks) time
                  (ints "x"
                     (List.map (Container.extent container) (spatial_axes inst)));
            })

let run_all t ~refute inst container =
  check_dimensions ~who:"Bound_engine.run_all" inst container;
  List.map
    (fun (e, tally) -> (e.name, timed t tally (fun () -> e.run inst container)))
    t.entries
  @ [ (time_slice_name, time_slice t ~refute inst container) ]
