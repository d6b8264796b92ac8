module OG = Order.Oriented_graph
module Container = Geometry.Container

type rules = Recorder.rule list

let default_rules = []

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
  off : rules; (* the rules switched off *)
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
  (* ---- preallocated work buffers --------------------------------- *)
  mutable marks : int array;
      (* the mark stack: level l holds the trail mark of every
         dimension at [l * d, (l + 1) * d) *)
  mutable levels : int;
  clique_buf : int array; (* candidate segments of [max_clique_weight] *)
  any_pos : int array;
      (* per dimension, set by [choose_unknown]: position in
         [score_order] of the first undecided pair, or -1 *)
  pressured_pos : int array; (* same, first undecided pressured pair *)
  mutable recorder : Recorder.t;
}

type conflict = Recorder.conflict

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
  let d = Array.length ords in
  (* [rows.(k).(u)]: task [u]'s successors and predecessors in axis
     [k]'s order, ascending, built the first time a pair asks. Two tasks
     with equal rows are incomparable (were u before v, v would be in
     u's successor row and not in its own) and relate identically to
     every other task; two incomparable tasks that relate identically
     have equal rows. *)
  let rows = Array.map (fun _ -> Array.make n None) ords in
  let row k u =
    match rows.(k).(u) with
    | Some r -> r
    | None ->
      let p = ords.(k) in
      let succ = ref [] and pred = ref [] in
      for w = n - 1 downto 0 do
        if Order.Partial_order.precedes p u w then succ := w :: !succ;
        if Order.Partial_order.precedes p w u then pred := w :: !pred
      done;
      let r = (Array.of_list !succ, Array.of_list !pred) in
      rows.(k).(u) <- Some r;
      r
  in
  let same (a : int array) (b : int array) =
    let len = Array.length a in
    len = Array.length b
    &&
    let i = ref 0 in
    while !i < len && a.(!i) = b.(!i) do
      incr i
    done;
    !i = len
  in
  let rec alike u v k =
    k = d
    ||
    let su, pu = row k u and sv, pv = row k v in
    same su sv && same pu pv && alike u v (k + 1)
  in
  let sym = Array.make (n * n) false in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if
        Geometry.Box.equal (Instance.box inst u) (Instance.box inst v)
        && alike u v 0
      then sym.((u * n) + v) <- true
    done
  done;
  sym

let instance t = t.inst
let container t = t.cont
let dimension t k = t.dims.(k)

let time_sequencing t =
  OG.orientation t.dims.(Instance.objective_axis t.inst)
let mark t =
  let d = Array.length t.dims in
  let l = t.levels in
  if (l + 1) * d > Array.length t.marks then begin
    let bigger = Array.make (2 * (l + 1) * d) 0 in
    Array.blit t.marks 0 bigger 0 (l * d);
    t.marks <- bigger
  end;
  for k = 0 to d - 1 do
    t.marks.((l * d) + k) <- OG.mark t.dims.(k)
  done;
  t.levels <- l + 1;
  l

let decided_fraction t =
  if t.total_slots = 0 then 1.0
  else float_of_int t.decided_slots /. float_of_int t.total_slots

let total_trail t = Array.fold_left (fun acc og -> acc + OG.mark og) 0 t.dims

let recorder t = t.recorder

let set_recorder t recorder =
  Recorder.register_rules recorder;
  t.recorder <- recorder

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

let undo_to t level =
  if level < 0 || level >= t.levels then
    invalid_arg "Packing_state.undo_to: bad level";
  let d = Array.length t.dims in
  for k = 0 to d - 1 do
    let m = t.marks.((level * d) + k) in
    let synced = t.processed.(k) in
    if synced > m then
      (* Entries in [synced, len) were never mirrored (a conflict cut
         the stabilization short); revert exactly the applied prefix. *)
      OG.iter_trail_window t.dims.(k) ~since:m ~until:synced
        (fun u v ~prev ~cur -> apply_transition t k u v ~prev ~cur ~dir:(-1));
    OG.undo_to t.dims.(k) m;
    t.processed.(k) <- min t.processed.(k) m
  done;
  t.levels <- level

let pair_conflict dim edge = Error (Recorder.Pair { dim; edge })

(* Inside the fixpoint a conflict unwinds to [stabilize] as an
   exception, so a rule that holds costs no allocation. *)
exception Rule_conflict of conflict

let ok = function Ok () -> () | Error c -> raise (Rule_conflict c)

let set_component_exn t k u v =
  match OG.set_component t.dims.(k) u v with
  | Ok () -> ()
  | Error edge -> raise (Rule_conflict (Pair { dim = k; edge }))

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
  if !components = d then Error (Recorder.Overlap { u; v })
  else if !components = d - 1 && !free >= 0 then
    match OG.set_comparable t.dims.(!free) u v with
    | Ok () -> Ok ()
    | Error c -> pair_conflict !free c
  else Ok ()

(* Shared clique machinery for C2 and the capacity rule: depth-first
   max-weight clique extension with the usual additive bound. The
   candidates of a call are the segment [lo, hi) of [buf], in ascending
   vertex order; the candidates of its first child (the rest of the
   segment filtered by adjacency to its head) go to [hi, ...), so the
   segments of one descent stack up in [buf]. Returns the best weight
   found, starting from [best]. *)
let rec clique_extend buf adj words weight cap best wsf lo hi cw =
  let best = if wsf > best then wsf else best in
  if best <= cap && lo < hi && wsf + cw > best then begin
    let w = buf.(lo) in
    let top = ref hi and nw = ref 0 in
    for i = lo + 1 to hi - 1 do
      let x = buf.(i) in
      if bit_test adj ~words w x then begin
        buf.(!top) <- x;
        incr top;
        nw := !nw + weight.(x)
      end
    done;
    let best =
      clique_extend buf adj words weight cap best (wsf + weight.(w)) hi !top !nw
    in
    clique_extend buf adj words weight cap best wsf (lo + 1) hi
      (cw - weight.(w))
  end
  else best

(* The heaviest clique through the pair (u, v), seeded with the common
   neighbours from the adjacency bitset rows (one AND per word instead
   of O(n) edge-state probes). *)
let max_clique_weight t ~adj ~weight ~cap ~base u v =
  let words = t.words in
  let buf = t.clique_buf in
  (* Row u ∩ row v; neither u nor v appears (no self-loops). *)
  let len = ref 0 and cands_weight = ref 0 in
  for w = 0 to t.n - 1 do
    if
      adj.((u * words) + (w / 63))
      land adj.((v * words) + (w / 63))
      land (1 lsl (w mod 63))
      <> 0
    then begin
      buf.(!len) <- w;
      incr len;
      cands_weight := !cands_weight + weight.(w)
    end
  done;
  clique_extend buf adj words weight cap base base 0 !len !cands_weight

(* C2: maximum-weight clique of the pairwise-comparable relation in one
   dimension, restricted to cliques through the pair (u, v). *)
let rule_c2 t k u v =
  let weight = t.ext.(k) in
  let cap = t.cap.(k) in
  let base = weight.(u) + weight.(v) in
  let best =
    if t.comp_deg.(k).(u) <= 1 || t.comp_deg.(k).(v) <= 1 then base
    else max_clique_weight t ~adj:t.comp_adj.(k) ~weight ~cap ~base u v
  in
  if best > cap then
    Error (Recorder.Chain { dim = k; u; v; weight = best; cap })
  else Ok ()

(* Component-clique cross-section rule (the Helly argument): intervals
   on a line that pairwise overlap share a common point, so a clique of
   pairwise-overlapping-in-dim-k tasks coexists at some coordinate of
   axis k — their projections onto the remaining axes must fit the
   remaining container volume simultaneously. For the time axis this is
   the chip-capacity rule: concurrently running tasks cannot exceed the
   cell count. *)
let rule_component_clique t k u v =
  let weight = t.cross_w.(k) in
  let cap = t.cross_cap.(k) in
  let base = weight.(u) + weight.(v) in
  let best = max_clique_weight t ~adj:t.ovl_adj.(k) ~weight ~cap ~base u v in
  if best > cap then
    Error (Recorder.Cross_section { dim = k; u; v; weight = best; cap })
  else Ok ()

(* C1 on the 4-cycle a - b - c - d - a of component edges: both
   diagonals {a,c}, {b,d} comparable make it an induced C4; one
   comparable diagonal forces the other to be a component edge. *)
let c4_diagonals t k a b c d =
  let og = t.dims.(k) in
  match (OG.kind og a c, OG.kind og b d) with
  | OG.Comparable, OG.Comparable ->
    raise (Rule_conflict (Induced_c4 { dim = k; a; b; c; d }))
  | OG.Comparable, OG.Unknown -> set_component_exn t k b d
  | OG.Unknown, OG.Comparable -> set_component_exn t k a c
  | _ -> ()

let catch_rule f t k u v =
  match f t k u v with () -> Ok () | exception Rule_conflict c -> Error c

(* C1, triggered by a new component edge (u,v): look for 4-cycles
   u - v - w - z - u of component edges. The cycle edges are read from
   the overlap bitsets (synced through the window being processed), so
   the candidates z of one w are the word-wise AND of rows w and u;
   diagonals are read live so forcings made earlier in the same scan
   are respected. *)
let c4_edge t k u v =
  let words = t.words in
  let ovl = t.ovl_adj.(k) in
  for w = 0 to t.n - 1 do
    if w <> u && w <> v && bit_test ovl ~words v w then
      for j = 0 to words - 1 do
        let common = ovl.((w * words) + j) land ovl.((u * words) + j) in
        if common <> 0 then
          for b = 0 to 62 do
            let z = (j * 63) + b in
            if common land (1 lsl b) <> 0 && z <> v then
              c4_diagonals t k u v w z
          done
      done
  done

let rule_c4_edge t k u v = catch_rule c4_edge t k u v

(* C1, 4-cycles where the freshly comparable pair (u,v) is a diagonal:
   cycle u - a - v - b - u of component edges with diagonal (a,b). *)
let c4_diagonal t k u v =
  let words = t.words in
  let ovl = t.ovl_adj.(k) in
  for a = 0 to t.n - 1 do
    if a <> u && a <> v && bit_test ovl ~words u a && bit_test ovl ~words a v
    then
      for b = a + 1 to t.n - 1 do
        if
          b <> u && b <> v
          && bit_test ovl ~words u b
          && bit_test ovl ~words b v
        then c4_diagonals t k u a v b
      done
  done

let rule_c4_diagonal t k u v = catch_rule c4_diagonal t k u v

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

let on t rule =
  match t.off with [] -> true | off -> not (List.memq rule off)

(* Every call of a rule that is on goes through the recorder, which
   times the calls it samples and records an [Error] as that rule's
   conflict; a rule switched off is neither called nor counted. *)
let timed t rule check k u v =
  if not (on t rule) then Ok ()
  else begin
    Recorder.rule_start t.recorder rule;
    Recorder.rule_call t.recorder rule (check t k u v)
  end

let handle_pair t k u v =
  match OG.kind t.dims.(k) u v with
  | OG.Component ->
    ok (Recorder.rule_conflict t.recorder C3 (rule_c3 t u v));
    ok (timed t Capacity rule_component_clique k u v);
    ok (timed t C4 rule_c4_edge k u v)
  | OG.Comparable ->
    ok (timed t C2 rule_c2 k u v);
    ok (timed t C4 rule_c4_diagonal k u v);
    (* Symmetry breaking: interchangeable tasks that end up comparable
       in the objective dimension always run in index order. *)
    if
      k = Instance.objective_axis t.inst
      && u < v
      && t.symmetric.((u * t.n) + v)
    then
      ok
        (Recorder.rule_conflict t.recorder Symmetry
           (match OG.force_arc t.dims.(k) u v with
           | Ok () -> Ok ()
           | Error c -> pair_conflict k c))
  | OG.Unknown -> ()

let stabilize t =
  let d = Array.length t.dims in
  let changed = ref true in
  match
    while !changed do
      (* Intra-dimension D1/D2 closure. *)
      if on t Implications then
        for k = 0 to d - 1 do
          Recorder.rule_start t.recorder Implications;
          ok
            (Recorder.rule_call t.recorder Implications
               (match OG.propagate t.dims.(k) with
               | Ok () -> Ok ()
               | Error c -> pair_conflict k c))
        done;
      (* Cross-dimension rules on everything that changed since the last
         round: sync the derived structures over the window, then run
         the rules pair by pair straight off the trail. *)
      changed := false;
      for k = 0 to d - 1 do
        let since = t.processed.(k) in
        let now = OG.mark t.dims.(k) in
        if now > since then begin
          changed := true;
          sync_window t k ~since ~until:now;
          t.processed.(k) <- now;
          OG.iter_changed_pairs t.dims.(k) ~since (handle_pair t k)
        end
      done
    done
  with
  | () -> Ok ()
  | exception Rule_conflict c -> Error c

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?(rules = default_rules) ?schedule ?(recorder = Recorder.create ())
    inst cont =
  let d = Instance.dim inst in
  if Container.dim cont <> d then
    invalid_arg "Packing_state.create: dimension mismatch";
  if not (List.for_all Recorder.switchable rules) then
    invalid_arg "Packing_state.create: C3 and symmetry cannot be switched off";
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
          if j <> k then c := Geometry.Box.mul_sat !c cap.(j)
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
      off = rules;
      (* Under a fixed schedule no pair is interchangeable: tasks with
         different starts are not, and tasks with equal starts overlap
         in time, so the rule could never fire for them. *)
      symmetric =
        (match schedule with
        | None -> symmetric_pairs inst
        | Some _ -> Array.make (n * n) false);
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
      marks = Array.make (64 * d) 0;
      levels = 0;
      clique_buf = Array.make ((n * (n + 1) / 2) + 1) 0;
      any_pos = Array.make d (-1);
      pressured_pos = Array.make d (-1);
      recorder;
    }
  in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
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
          | Error c -> pair_conflict k c
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
      | Error c -> pair_conflict k c)
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
          | Error c -> pair_conflict ta c
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
  | Error c -> pair_conflict dim c
  | Ok () -> stabilize t

let assign_comparable t ~dim u v =
  match OG.set_comparable t.dims.(dim) u v with
  | Error c -> pair_conflict dim c
  | Ok () -> stabilize t

(* Branching priorities:

   1. Pairs with no comparable dimension anywhere ("C3 pressure"):
      these are the pairs that still owe the packing a separation; they
      drive all real conflicts. Pairs that already own a comparable
      dimension are trivially satisfiable — deciding them early only
      pollutes the tree.
   2. The time dimension before space: precedence seeds, D1/D2
      cascades and the tight C2 chains live there, and once time is
      fully decided the problem collapses to 2D (the paper's FixedS
      observation).
   3. Within a dimension, the pair with the largest combined extent
      relative to the container — the most constrained decision.

   The per-dimension priority order is static (extents never change),
   so the in-class maximum of a dimension is the first pair of
   [score_order] still unknown (and pressured, for class 1). One scan
   per dimension records both positions. The pressure flags live in
   [comp_dims], maintained incrementally from the trail — no per-node
   rescan of all pairs. *)
let scan_unknown t k =
  let order = t.score_order.(k) and og = t.dims.(k) in
  let len = Array.length order in
  t.any_pos.(k) <- -1;
  t.pressured_pos.(k) <- -1;
  let i = ref 0 in
  while !i < len do
    let idx = order.(!i) in
    if OG.unknown_at og idx then begin
      if t.any_pos.(k) < 0 then t.any_pos.(k) <- !i;
      if t.comp_dims.(idx) = 0 then begin
        t.pressured_pos.(k) <- !i;
        i := len
      end
    end;
    incr i
  done

(* Among the dimensions other than [obj], the one whose recorded pick
   has the highest score relative to its container extent; ties go to
   the lower dimension. -1 when none has a pick. *)
let best_other t pos ~obj =
  let n = t.n in
  let best = ref (-1) and best_score = ref (-1.0) in
  for k = 0 to Array.length t.dims - 1 do
    if k <> obj && pos.(k) >= 0 then begin
      let idx = t.score_order.(k).(pos.(k)) in
      let score =
        float_of_int (t.ext.(k).(idx / n) + t.ext.(k).(idx mod n))
        /. t.capf.(k)
      in
      if score > !best_score then begin
        best_score := score;
        best := k
      end
    end
  done;
  !best

let pick t k pos =
  let idx = t.score_order.(k).(pos.(k)) in
  Some (k, idx / t.n, idx mod t.n)

let choose_unknown t =
  (* The objective dimension strictly first: its decisions feed the
     order implications and the tight C2 chains, which is where
     conflicts come from. Only when the (relevant) objective pairs are
     exhausted do we branch in the remaining axes. *)
  let obj = Instance.objective_axis t.inst in
  scan_unknown t obj;
  if t.pressured_pos.(obj) >= 0 then pick t obj t.pressured_pos
  else begin
    for k = 0 to Array.length t.dims - 1 do
      if k <> obj then scan_unknown t k
    done;
    let k = best_other t t.pressured_pos ~obj in
    if k >= 0 then pick t k t.pressured_pos
    else if t.any_pos.(obj) >= 0 then pick t obj t.any_pos
    else
      let k = best_other t t.any_pos ~obj in
      if k >= 0 then pick t k t.any_pos else None
  end
