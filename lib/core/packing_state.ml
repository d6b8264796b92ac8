module OG = Order.Oriented_graph
module Container = Geometry.Container

type rules = {
  c2_cliques : bool;
  c4_cycles : bool;
  implications : bool;
  component_cliques : bool;
}

let default_rules =
  {
    c2_cliques = true;
    c4_cycles = true;
    implications = true;
    component_cliques = true;
  }

type t = {
  inst : Instance.t;
  cont : Container.t;
  n : int;
  words : int; (* bitset words per adjacency row: ceil (n / 63) *)
  dims : OG.t array;
  processed : int array;
      (* per-dimension trail watermark: entries below it have been
         cross-checked by the packing rules AND mirrored into the
         derived structures below. *)
  rules : rules;
  symmetric : bool array; (* pair u*n+v (u<v): tasks interchangeable *)
  (* ---- static per-instance tables ------------------------------- *)
  ext : int array array; (* ext.(k).(i): extent of task i along k *)
  cross_w : int array array; (* product of extents of i except axis k *)
  cap : int array; (* container extent per axis *)
  capf : float array;
  cross_cap : int array; (* container volume excluding axis k *)
  score_order : int array array;
      (* per dimension: packed pair indices (u*n+v, u<v) sorted by
         combined extent descending, ties lexicographic — the static
         branching priority within a dimension. *)
  (* ---- trail-synced derived state ------------------------------- *)
  comp_adj : int array array;
      (* per dimension, flat n*words bitset rows: bit j of row i says
         {i,j} is a comparability edge in that dimension. *)
  ovl_adj : int array array; (* same, for component (overlap) edges *)
  comp_deg : int array array; (* per dimension, comparable degree per vertex *)
  comp_dims : int array;
      (* per packed pair: number of dimensions where it is comparable;
         0 = "C3 pressure" (the pair still owes a separation). *)
  mutable decided_slots : int; (* decided (pair, dimension) slots *)
  total_slots : int;
  recorder : Recorder.t;
}

(* Tasks u < v are interchangeable when their boxes are equal and they
   relate identically (and not at all to each other) in every axis's
   order. Swapping such a pair is then an automorphism of the whole
   constraint system, so sorting any feasible placement's copies of an
   identical box by start time orients every objective-comparable
   symmetric pair low -> high; forcing that orientation in the
   objective dimension is sound — and collapses the k! equivalent
   schedules of k identical tasks. (Forcing on one axis only: forcing
   two axes independently could demand orientations no single swap
   realizes.) *)
let symmetric_pairs inst =
  let n = Instance.count inst in
  let ords = Instance.orders inst in
  let sym = Array.make (n * n) false in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if
        Geometry.Box.equal (Instance.box inst u) (Instance.box inst v)
        && Array.for_all
             (fun p ->
               (not (Order.Partial_order.comparable p u v))
               &&
               let same = ref true in
               for w = 0 to n - 1 do
                 if w <> u && w <> v then begin
                   if
                     Order.Partial_order.precedes p u w
                     <> Order.Partial_order.precedes p v w
                   then same := false;
                   if
                     Order.Partial_order.precedes p w u
                     <> Order.Partial_order.precedes p w v
                   then same := false
                 end
               done;
               !same)
             ords
      then sym.((u * n) + v) <- true
    done
  done;
  sym

let instance t = t.inst
let container t = t.cont
let dimension t k = t.dims.(k)

let sequencing t ~axis = OG.orientation t.dims.(axis)
let time_sequencing t = sequencing t ~axis:(Instance.objective_axis t.inst)
let mark t = Array.map OG.mark t.dims

let decided_fraction t =
  if t.total_slots = 0 then 1.0
  else float_of_int t.decided_slots /. float_of_int t.total_slots

let total_trail t = Array.fold_left (fun acc og -> acc + OG.mark og) 0 t.dims

let recorder t = t.recorder

(* ------------------------------------------------------------------ *)
(* Adjacency bitsets                                                   *)
(* ------------------------------------------------------------------ *)

let bit_test adj ~words i j =
  adj.((i * words) + (j / 63)) land (1 lsl (j mod 63)) <> 0

let bit_flip adj ~words i j =
  let w = (i * words) + (j / 63) in
  adj.(w) <- adj.(w) lxor (1 lsl (j mod 63))

(* Mirror one trail transition of dimension [k] into the derived
   structures. Edge states only ever move 0 -> {1,2,3,4} and 2 -> {3,4}
   on the forward path, so each (pair, dimension) contributes at most
   one [prev = 0] entry per trail window and the updates below are
   exact inverses of each other. *)
let apply_transition t k u v ~prev ~cur ~dir =
  if prev = 0 then begin
    t.decided_slots <- t.decided_slots + dir;
    if cur >= 2 then begin
      let idx = (u * t.n) + v in
      t.comp_dims.(idx) <- t.comp_dims.(idx) + dir;
      t.comp_deg.(k).(u) <- t.comp_deg.(k).(u) + dir;
      t.comp_deg.(k).(v) <- t.comp_deg.(k).(v) + dir;
      bit_flip t.comp_adj.(k) ~words:t.words u v;
      bit_flip t.comp_adj.(k) ~words:t.words v u
    end
    else begin
      bit_flip t.ovl_adj.(k) ~words:t.words u v;
      bit_flip t.ovl_adj.(k) ~words:t.words v u
    end
  end

let sync_window t k ~since ~until =
  OG.iter_trail_window t.dims.(k) ~since ~until (fun u v ~prev ~cur ->
      apply_transition t k u v ~prev ~cur ~dir:1)

let undo_to t marks =
  Array.iteri
    (fun k m ->
      let synced = t.processed.(k) in
      if synced > m then
        (* Entries in [synced, len) were never mirrored (a conflict cut
           the stabilization short); revert exactly the applied prefix. *)
        OG.iter_trail_window t.dims.(k) ~since:m ~until:synced
          (fun u v ~prev ~cur -> apply_transition t k u v ~prev ~cur ~dir:(-1));
      OG.undo_to t.dims.(k) m;
      t.processed.(k) <- min t.processed.(k) m)
    marks

let fail_of (c : OG.conflict) dim =
  Error
    (Printf.sprintf "dim %d, pair (%d,%d): %s" dim (fst c.pair) (snd c.pair)
       c.reason)

(* ------------------------------------------------------------------ *)
(* Cross-dimension rules                                               *)
(* ------------------------------------------------------------------ *)

(* C3: every pair must be disjoint in at least one dimension. *)
let rule_c3 t u v =
  let d = Array.length t.dims in
  let components = ref 0 in
  let free = ref (-1) in
  for k = 0 to d - 1 do
    match OG.kind t.dims.(k) u v with
    | OG.Component -> incr components
    | OG.Unknown -> free := k
    | OG.Comparable -> ()
  done;
  if !components = d then
    Error
      (Printf.sprintf "C3: pair (%d,%d) overlaps in every dimension" u v)
  else if !components = d - 1 && !free >= 0 then
    match OG.set_comparable t.dims.(!free) u v with
    | Ok () -> Ok ()
    | Error c -> fail_of c !free
  else Ok ()

(* Shared clique machinery for C2 and the capacity rule: depth-first
   max-weight clique extension through the pair (u, v), with candidates
   seeded from the adjacency bitset rows (one AND per word instead of
   O(n) edge-state probes) and the usual additive bound. *)
let max_clique_weight t ~adj ~weight ~cap ~base u v =
  let words = t.words in
  let n = t.n in
  (* candidates = row u ∩ row v, in ascending vertex order; neither u
     nor v appears (no self-loops). *)
  let candidates = ref [] in
  let cands_weight = ref 0 in
  for w = n - 1 downto 0 do
    if
      adj.((u * words) + (w / 63))
      land adj.((v * words) + (w / 63))
      land (1 lsl (w mod 63))
      <> 0
    then begin
      candidates := w :: !candidates;
      cands_weight := !cands_weight + weight.(w)
    end
  done;
  let best = ref base in
  let rec go weight_so_far cands cands_weight =
    if weight_so_far > !best then best := weight_so_far;
    if !best <= cap then
      match cands with
      | [] -> ()
      | w :: rest ->
        if weight_so_far + cands_weight > !best then begin
          let nbrs, nbrs_weight =
            List.fold_left
              (fun (acc, tw) x ->
                if bit_test adj ~words w x then (x :: acc, tw + weight.(x))
                else (acc, tw))
              ([], 0) rest
          in
          go (weight_so_far + weight.(w)) (List.rev nbrs) nbrs_weight;
          go weight_so_far rest (cands_weight - weight.(w))
        end
  in
  go base !candidates !cands_weight;
  !best

(* C2: maximum-weight clique of the pairwise-comparable relation in one
   dimension, restricted to cliques through the pair (u, v). *)
let rule_c2 t k u v =
  if not t.rules.c2_cliques then Ok ()
  else begin
    let weight = t.ext.(k) in
    let cap = t.cap.(k) in
    let base = weight.(u) + weight.(v) in
    let best =
      if t.comp_deg.(k).(u) <= 1 || t.comp_deg.(k).(v) <= 1 then base
      else max_clique_weight t ~adj:t.comp_adj.(k) ~weight ~cap ~base u v
    in
    if best > cap then
      Error
        (Printf.sprintf
           "C2: comparable chain through (%d,%d) needs %d > %d in dim %d" u v
           best cap k)
    else Ok ()
  end

(* Component-clique cross-section rule (the Helly argument): intervals
   on a line that pairwise overlap share a common point, so a clique of
   pairwise-overlapping-in-dim-k tasks coexists at some coordinate of
   axis k — their projections onto the remaining axes must fit the
   remaining container volume simultaneously. For the time axis this is
   the chip-capacity rule: concurrently running tasks cannot exceed the
   cell count. *)
let rule_component_clique t k u v =
  if not t.rules.component_cliques then Ok ()
  else begin
    let weight = t.cross_w.(k) in
    let cap = t.cross_cap.(k) in
    let base = weight.(u) + weight.(v) in
    let best = max_clique_weight t ~adj:t.ovl_adj.(k) ~weight ~cap ~base u v in
    if best > cap then
      Error
        (Printf.sprintf
           "capacity: tasks overlapping (%d,%d) in dim %d need cross-section \
            %d > %d"
           u v k best cap)
    else Ok ()
  end

(* C1, chordless 4-cycles, triggered by a new component edge (u,v):
   look for 4-cycles u - v - w - z - u of component edges. The cycle
   edges are read from the overlap bitsets (synced through the window
   being processed); diagonals are read live so forcings made earlier
   in the same scan are respected. *)
let rule_c4_edge t k u v =
  if not t.rules.c4_cycles then Ok ()
  else begin
    let og = t.dims.(k) in
    let n = t.n in
    let words = t.words in
    let ovl = t.ovl_adj.(k) in
    let result = ref (Ok ()) in
    let handle_diagonals d1u d1v d2u d2v =
      (* diagonal 1 = (d1u,d1v), diagonal 2 = (d2u,d2v) *)
      match (OG.kind og d1u d1v, OG.kind og d2u d2v) with
      | OG.Comparable, OG.Comparable ->
        result :=
          Error
            (Printf.sprintf
               "C1: induced 4-cycle on {%d,%d,%d,%d} in dim %d" d1u d2u d1v
               d2v k)
      | OG.Comparable, OG.Unknown -> (
        match OG.set_component og d2u d2v with
        | Ok () -> ()
        | Error c -> result := fail_of c k)
      | OG.Unknown, OG.Comparable -> (
        match OG.set_component og d1u d1v with
        | Ok () -> ()
        | Error c -> result := fail_of c k)
      | _ -> ()
    in
    (try
       for w = 0 to n - 1 do
         if w <> u && w <> v && bit_test ovl ~words v w then
           for z = 0 to n - 1 do
             if
               z <> u && z <> v && z <> w
               && bit_test ovl ~words w z
               && bit_test ovl ~words z u
             then begin
               handle_diagonals u w v z;
               match !result with Error _ -> raise Exit | Ok () -> ()
             end
           done
       done
     with Exit -> ());
    !result
  end

(* C1, 4-cycles where the freshly comparable pair (u,v) is a diagonal:
   cycle u - a - v - b - u of component edges with diagonal (a,b). *)
let rule_c4_diagonal t k u v =
  if not t.rules.c4_cycles then Ok ()
  else begin
    let og = t.dims.(k) in
    let n = t.n in
    let words = t.words in
    let ovl = t.ovl_adj.(k) in
    let result = ref (Ok ()) in
    (try
       for a = 0 to n - 1 do
         if
           a <> u && a <> v
           && bit_test ovl ~words u a
           && bit_test ovl ~words a v
         then
           for b = a + 1 to n - 1 do
             if
               b <> u && b <> v
               && bit_test ovl ~words u b
               && bit_test ovl ~words b v
             then begin
               (match OG.kind og a b with
               | OG.Comparable ->
                 result :=
                   Error
                     (Printf.sprintf
                        "C1: induced 4-cycle on {%d,%d,%d,%d} in dim %d" u a v
                        b k)
               | OG.Unknown -> (
                 match OG.set_component og a b with
                 | Ok () -> ()
                 | Error c -> result := fail_of c k)
               | OG.Component -> ());
               match !result with Error _ -> raise Exit | Ok () -> ()
             end
           done
       done
     with Exit -> ());
    !result
  end

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

exception Rule_conflict of string

(* Every rule outcome goes through the recorder, which times the calls
   it started and records an [Error] as that rule's conflict. *)
let timed t rule check k u v =
  Recorder.start t.recorder;
  Recorder.rule_call t.recorder rule (check t k u v)

let handle_pair t k u v =
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  match OG.kind t.dims.(k) u v with
  | OG.Component ->
    let* () = Recorder.rule_conflict t.recorder C3 (rule_c3 t u v) in
    let* () = timed t Capacity rule_component_clique k u v in
    timed t C4 rule_c4_edge k u v
  | OG.Comparable ->
    let* () = timed t C2 rule_c2 k u v in
    let* () = timed t C4 rule_c4_diagonal k u v in
    (* Symmetry breaking: interchangeable tasks that end up comparable
       in the objective dimension always run in index order. *)
    if
      k = Instance.objective_axis t.inst
      && u < v
      && t.symmetric.((u * t.n) + v)
    then
      Recorder.rule_conflict t.recorder Symmetry
        (match OG.force_arc t.dims.(k) u v with
        | Ok () -> Ok ()
        | Error conflict -> fail_of conflict k)
    else Ok ()
  | OG.Unknown -> Ok ()

let stabilize t =
  let d = Array.length t.dims in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let rec loop () =
    (* Intra-dimension D1/D2 closure. *)
    let rec dims_prop k =
      if k >= d then Ok ()
      else if t.rules.implications then begin
        Recorder.start t.recorder;
        match
          Recorder.rule_call t.recorder Implications
            (match OG.propagate t.dims.(k) with
            | Ok () -> Ok ()
            | Error conflict -> fail_of conflict k)
        with
        | Ok () -> dims_prop (k + 1)
        | Error _ as e -> e
      end
      else Ok ()
    in
    let* () = dims_prop 0 in
    (* Cross-dimension rules on everything that changed since the last
       round: sync the derived structures over the window, then run the
       rules pair by pair straight off the trail (no Hashtbl, no list). *)
    let changed = ref false in
    let rec cross k =
      if k >= d then Ok ()
      else begin
        let since = t.processed.(k) in
        let now = OG.mark t.dims.(k) in
        if now > since then begin
          changed := true;
          sync_window t k ~since ~until:now;
          t.processed.(k) <- now;
          match
            OG.iter_changed_pairs t.dims.(k) ~since (fun u v ->
                match handle_pair t k u v with
                | Ok () -> ()
                | Error reason -> raise (Rule_conflict reason))
          with
          | () -> cross (k + 1)
          | exception Rule_conflict reason -> Error reason
        end
        else cross (k + 1)
      end
    in
    let* () = cross 0 in
    if !changed then loop () else Ok ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?(rules = default_rules) ?schedule ?(recorder = Recorder.create ())
    inst cont =
  let d = Instance.dim inst in
  if Container.dim cont <> d then
    invalid_arg "Packing_state.create: dimension mismatch";
  Recorder.register_rules recorder;
  let n = Instance.count inst in
  let words = max 1 ((n + 62) / 63) in
  let ext =
    Array.init d (fun k -> Array.init n (fun i -> Instance.extent inst i k))
  in
  let cross_w =
    Array.init d (fun k ->
        Array.init n (fun i ->
            let w = ref 1 in
            for j = 0 to d - 1 do
              if j <> k then w := !w * ext.(j).(i)
            done;
            !w))
  in
  let cap = Array.init d (fun k -> Container.extent cont k) in
  let cross_cap =
    Array.init d (fun k ->
        let c = ref 1 in
        for j = 0 to d - 1 do
          if j <> k then c := !c * cap.(j)
        done;
        !c)
  in
  let score_order =
    Array.init d (fun k ->
        let pairs = ref [] in
        for u = n - 1 downto 0 do
          for v = n - 1 downto u + 1 do
            pairs := ((u * n) + v) :: !pairs
          done
        done;
        let order = Array.of_list !pairs in
        (* Largest combined extent first; ties keep lexicographic pair
           order, matching the historical scan over [unknown_pairs]. *)
        Array.sort
          (fun a b ->
            let sa = ext.(k).(a / n) + ext.(k).(a mod n)
            and sb = ext.(k).(b / n) + ext.(k).(b mod n) in
            if sa <> sb then compare sb sa else compare a b)
          order;
        order)
  in
  let t =
    {
      inst;
      cont;
      n;
      words;
      dims = Array.init d (fun _ -> OG.create n);
      processed = Array.make d 0;
      rules;
      symmetric = symmetric_pairs inst;
      ext;
      cross_w;
      cap;
      capf = Array.map float_of_int cap;
      cross_cap;
      score_order;
      comp_adj = Array.init d (fun _ -> Array.make (n * words) 0);
      ovl_adj = Array.init d (fun _ -> Array.make (n * words) 0);
      comp_deg = Array.init d (fun _ -> Array.make n 0);
      comp_dims = Array.make (n * n) 0;
      decided_slots = 0;
      total_slots = d * (n * (n - 1) / 2);
      recorder;
    }
  in
  let ( let* ) r f = match r with Ok () -> f () | Error msg -> Error msg in
  (* Width rule: pairs overflowing an axis must overlap there. *)
  let rec width_pairs u v k =
    if u >= n then Ok ()
    else if v >= n then width_pairs (u + 1) (u + 2) 0
    else if k >= d then width_pairs u (v + 1) 0
    else begin
      let* () =
        if ext.(k).(u) + ext.(k).(v) > cap.(k) then
          match OG.set_component t.dims.(k) u v with
          | Ok () -> Ok ()
          | Error c -> fail_of c k
        else Ok ()
      in
      width_pairs u v (k + 1)
    end
  in
  let* () = width_pairs 0 1 0 in
  (* Order seeds: every axis's order arcs force oriented comparability
     edges in that axis's dimension (the objective axis carries the
     legacy precedence order; any other ordered axis seeds the same
     way). *)
  let ta = Instance.objective_axis inst in
  let rec seed k = function
    | [] -> Ok ()
    | (u, v) :: rest -> (
      match OG.force_arc t.dims.(k) u v with
      | Ok () -> seed k rest
      | Error c -> fail_of c k)
  in
  let rec seed_axes k =
    if k >= d then Ok ()
    else
      let* () = seed k (Order.Partial_order.relations (Instance.order inst k)) in
      seed_axes (k + 1)
  in
  let* () = seed_axes 0 in
  (* A fixed schedule determines the whole time dimension: overlapping
     execution intervals are component edges, disjoint ones oriented
     comparability edges (paper Sec. 4: FixedS problems are 2D). *)
  let* () =
    match schedule with
    | None -> Ok ()
    | Some s ->
      if Array.length s <> n then
        invalid_arg "Packing_state.create: schedule arity mismatch";
      let finish i = s.(i) + Instance.duration inst i in
      let rec seed_pairs u v =
        if u >= n then Ok ()
        else if v >= n then seed_pairs (u + 1) (u + 2)
        else begin
          let r =
            if finish u <= s.(v) then OG.force_arc t.dims.(ta) u v
            else if finish v <= s.(u) then OG.force_arc t.dims.(ta) v u
            else OG.set_component t.dims.(ta) u v
          in
          match r with
          | Ok () -> seed_pairs u (v + 1)
          | Error c -> fail_of c ta
        end
      in
      seed_pairs 0 1
  in
  let* () = stabilize t in
  Ok t

(* ------------------------------------------------------------------ *)
(* Assignments and branching                                           *)
(* ------------------------------------------------------------------ *)

let assign_component t ~dim u v =
  match OG.set_component t.dims.(dim) u v with
  | Error c -> fail_of c dim
  | Ok () -> stabilize t

let assign_comparable t ~dim u v =
  match OG.set_comparable t.dims.(dim) u v with
  | Error c -> fail_of c dim
  | Ok () -> stabilize t

let unknown_count t =
  Array.fold_left (fun acc og -> acc + List.length (OG.unknown_pairs og)) 0 t.dims

let choose_unknown t =
  (* Branching priorities:

     1. Pairs with no comparable dimension anywhere ("C3 pressure"):
        these are the pairs that still owe the packing a separation;
        they drive all real conflicts. Pairs that already own a
        comparable dimension are trivially satisfiable — deciding them
        early only pollutes the tree (the per-node realization attempt
        in the solver usually ends the search before they are touched).
     2. The time dimension before space: precedence seeds, D1/D2
        cascades and the tight C2 chains live there, and once time is
        fully decided the problem collapses to 2D (the paper's FixedS
        observation).
     3. Within a dimension, the pair with the largest combined extent
        relative to the container — the most constrained decision.

     The per-dimension priority order is static (extents never change),
     so picking a pair is a scan down [score_order]: the first pair
     still unknown (and pressured, on the first pass) is the in-class
     maximum. The pressure flags live in [comp_dims], maintained
     incrementally from the trail — no per-node rescan of all pairs. *)
  let d = Array.length t.dims in
  let n = t.n in
  let pick ~pressured_only =
    let best = ref None in
    let best_score = ref (-1.0) in
    let consider k =
      let order = t.score_order.(k) in
      let og = t.dims.(k) in
      let len = Array.length order in
      let rec scan i =
        if i < len then begin
          let idx = order.(i) in
          let u = idx / n and v = idx mod n in
          if
            OG.kind og u v = OG.Unknown
            && ((not pressured_only) || t.comp_dims.(idx) = 0)
          then begin
            let score =
              float_of_int (t.ext.(k).(u) + t.ext.(k).(v)) /. t.capf.(k)
            in
            if score > !best_score then begin
              best_score := score;
              best := Some (k, u, v)
            end
          end
          else scan (i + 1)
        end
      in
      scan 0
    in
    (* The objective dimension strictly first: its decisions feed the
       order implications and the tight C2 chains, which is where
       conflicts come from. Only when the (relevant) objective pairs
       are exhausted do we branch in the remaining axes. *)
    let obj = Instance.objective_axis t.inst in
    consider obj;
    if !best = None then
      for k = 0 to d - 1 do
        if k <> obj then consider k
      done;
    !best
  in
  match pick ~pressured_only:true with
  | Some _ as found -> found
  | None -> pick ~pressured_only:false
