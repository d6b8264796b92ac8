module Box = Geometry.Box
module Instance = Packing.Instance
module PO = Order.Partial_order

type t = {
  instance : Instance.t;
  key : string;
  digest : string;
  perm : int array;
  complete : bool;
}

(* 64-bit FNV-1a; short, stable, dependency-free. Collisions are
   harmless — the cache is keyed by the full serialization, the digest
   only names it in logs. A plain loop keeps [h] unboxed. *)
let digest_of_key s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !h

(* Decimal digits of [x >= 0], the bytes [string_of_int] would give. *)
let rec add_nat buf x =
  if x >= 10 then add_nat buf (x / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (x mod 10)))

(* Lexicographic order of [a.(oa + j)], [j < la], against [a.(ob + j)],
   [j < lb], from position [j] on. *)
let rec compare_slices (a : int array) oa la ob lb j =
  if j = la || j = lb then Int.compare la lb
  else
    let c = Int.compare a.(oa + j) a.(ob + j) in
    if c <> 0 then c else compare_slices a oa la ob lb (j + 1)

(* Sorts [a.(lo) .. a.(hi - 1)] and returns the comparisons it made.
   The inputs are short or nearly sorted: signature sections, and task
   orders sorted by the previous round. *)
let insertion_sort cmp (a : int array) lo hi =
  let steps = ref 0 in
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x;
    steps := !steps + i - !j
  done;
  !steps

(* Steps one canonicalization may spend: signature entries written,
   sort comparisons and certificate entries. FIR-32 needs about 2.0M;
   a step is a few nanoseconds on a 2-core x86-64 host. *)
let work_budget = 4_000_000

(* What a search node returns when no automorphism cut its subtree short. *)
let no_jump = max_int

let of_instance inst =
  let n = Instance.count inst in
  let d = Instance.dim inst in
  (* Every per-axis order participates in refinement, the automorphism
     grouping, and the certificate — two instances differing only in a
     spatial-axis order must never share a key. [relations] lists arcs
     in ascending (u, v) order. *)
  let axis_rels =
    Array.init d (fun k -> PO.relations (Instance.order inst k))
  in
  (* Neighbour blocks: task [v]'s block, from [nb_off.(v)], holds for
     each axis its successors ascending, [-1], its predecessors
     ascending, [-1]. A signature has the same layout, shifted by one
     for the task's own colour in front: [sig_off.(v) = nb_off.(v) + v]. *)
  let nb_off = Array.make (n + 1) 0 in
  Array.iter
    (List.iter (fun (u, v) ->
         nb_off.(u + 1) <- nb_off.(u + 1) + 1;
         nb_off.(v + 1) <- nb_off.(v + 1) + 1))
    axis_rels;
  for v = 0 to n - 1 do
    nb_off.(v + 1) <- nb_off.(v + 1) + nb_off.(v) + (2 * d)
  done;
  let nb = Array.make nb_off.(n) (-1) and fill = Array.sub nb_off 0 n in
  let put u x = nb.(fill.(u)) <- x; fill.(u) <- fill.(u) + 1 in
  let skip_marker () = Array.iteri (fun v f -> fill.(v) <- f + 1) fill in
  Array.iter
    (fun rels ->
      List.iter (fun (u, v) -> put u v) rels;
      skip_marker ();
      List.iter (fun (u, v) -> put v u) rels;
      skip_marker ())
    axis_rels;
  let ext = Array.init (n * d) (fun i -> Box.extent (Instance.box inst (i / d)) (i mod d)) in
  let sig_off = Array.init (n + 1) (fun v -> nb_off.(v) + v) in
  let sg = Array.make sig_off.(n) 0 in
  let cmp_sig a b =
    let oa = sig_off.(a) and ob = sig_off.(b) in
    compare_slices sg oa (sig_off.(a + 1) - oa) ob (sig_off.(b + 1) - ob) 0
  in
  (* Steps spent so far, against [work_budget]; [truncated] records that
     the budget cut refinement or the search short. *)
  let work = ref 0 and truncated = ref false in
  let spend k = work := !work + k in
  let expired () = !work >= work_budget in
  (* Dense ranks 0..k-1 under [cmp] written to [into]; returns k. Ranks
     depend only on the multiset of keys, so they are invariant under any
     relabeling of the tasks — the property every round of refinement
     rests on. *)
  let order = Array.init n Fun.id in
  let dense_ranks cmp into =
    spend (insertion_sort cmp order 0 n);
    into.(order.(0)) <- 0;
    let k = ref 0 in
    for r = 1 to n - 1 do
      if cmp order.(r - 1) order.(r) <> 0 then incr k;
      into.(order.(r)) <- !k
    done;
    !k + 1
  in
  (* Coarsest equitable refinement: split classes by (own colour,
     per-axis sorted successor colours, per-axis sorted predecessor
     colours) until the class count stops growing. Classes only ever
     split (the old colour heads the signature), so a stable count means
     a stable partition. The [-1] terminators make the lexicographic
     order on signatures the structural order on (colour, per-axis
     (succs, preds) lists) tuples: the ranks, and so the keys, do not
     depend on the flat encoding. Refinement stops early, between two
     rounds, when the work budget runs out. *)
  let next = Array.make n 0 in
  let refine colors classes =
    let classes = ref classes in
    let stable = ref (!classes = n) in
    while not (!stable || expired ()) do
      spend sig_off.(n);
      for v = 0 to n - 1 do
        sg.(sig_off.(v)) <- colors.(v);
        let start = ref (sig_off.(v) + 1) in
        for j = nb_off.(v) to nb_off.(v + 1) - 1 do
          (* block entry [j] of task [v] is signature entry [j + v + 1] *)
          let p = j + v + 1 and w = nb.(j) in
          if w >= 0 then sg.(p) <- colors.(w)
          else begin
            sg.(p) <- -1;
            spend (insertion_sort Int.compare sg !start p);
            start := p + 1
          end
        done
      done;
      let c = dense_ranks cmp_sig next in
      if c = !classes then stable := true
      else begin
        Array.blit next 0 colors 0 n;
        classes := c
      end
    done;
    if not !stable then truncated := true;
    !classes
  in

  (* Serialization of one complete ordering: dimension and objective
     axis, box extents in canonical order, then each axis's closure
     arcs in canonical coordinates, sorted, in its own tagged section.
     Equal certificates mean the two inputs are literally permutations
     of one another — including every per-axis order. *)
  let packed = Array.map (fun rels -> Array.make (List.length rels) 0) axis_rels in
  let ord = Array.make n 0 in
  let buf = Buffer.create 256 in
  let certificate pos =
    spend (sig_off.(n) + (n * d));
    Buffer.clear buf;
    add_nat buf n;
    Buffer.add_char buf 'd';
    add_nat buf d;
    Buffer.add_char buf 'o';
    add_nat buf (Instance.objective_axis inst);
    Array.iteri (fun v p -> ord.(p) <- v) pos;
    Array.iter
      (fun v ->
        Buffer.add_char buf '|';
        for k = v * d to (v * d) + d - 1 do
          add_nat buf ext.(k);
          Buffer.add_char buf ','
        done)
      ord;
    for k = 0 to d - 1 do
      let a = packed.(k) in
      if Array.length a > 0 then begin
        Buffer.add_char buf '@';
        add_nat buf k;
        List.iteri (fun i (u, v) -> a.(i) <- (pos.(u) * n) + pos.(v)) axis_rels.(k);
        Array.sort Int.compare a;
        Array.iter
          (fun x ->
            Buffer.add_char buf ';';
            add_nat buf (x / n);
            Buffer.add_char buf '>';
            add_nat buf (x mod n))
          a
      end
    done;
    Buffer.contents buf
  in

  (* Individualize-and-refine, keeping the first leaf with the
     lexicographically smallest certificate. Three prunings skip only
     subtrees that an automorphism maps onto an earlier-explored one,
     whose leaves carry the same certificates earlier in the search
     order, so the kept leaf is the one the unpruned search keeps:
     - within the target cell, tasks with identical exact neighbourhoods
       in every axis are swapped by a transposition, so only the
       smallest of each group is a candidate;
     - a leaf whose certificate equals the best one yields the
       automorphism [inv_best ∘ pos_leaf]; a node skips a candidate in
       the orbit of an explored sibling under the automorphisms found so
       far that fix its individualized prefix pointwise;
     - that automorphism maps the leaf's path onto the best leaf's, so
       the whole subtree below their last common node is an image of the
       one explored before: the search returns to that node. *)
  let path = Array.make n 0 and best_path = Array.make n 0 in
  let best = ref "" (* no leaf yet: a certificate is never empty *) in
  let best_pos = Array.make n 0 and best_inv = Array.make n 0 in
  let autos = ref [] and n_autos = ref 0 in
  let leaf dep pos =
    let cert = certificate pos in
    let c = if !best = "" then -1 else String.compare cert !best in
    if c < 0 then begin
      best := cert;
      Array.blit pos 0 best_pos 0 n;
      Array.iteri (fun v p -> best_inv.(p) <- v) pos;
      Array.blit path 0 best_path 0 dep;
      no_jump
    end
    else if c > 0 then no_jump
    else begin
      autos := Array.map (fun p -> best_inv.(p)) pos :: !autos;
      incr n_autos;
      let rec common j = if j < dep && path.(j) = best_path.(j) then common (j + 1) else j in
      common 0
    end
  in
  let same_nb v w =
    let ov = nb_off.(v) and ow = nb_off.(w) in
    compare_slices nb ov (nb_off.(v + 1) - ov) ow (nb_off.(w + 1) - ow) 0 = 0
  in
  let rec find uf v = if uf.(v) = v then v else find uf uf.(v) in
  let rec go dep colors classes =
    if classes = n then leaf dep colors
    else begin
      let counts = Array.make classes 0 in
      Array.iter (fun c -> counts.(c) <- counts.(c) + 1) colors;
      let rec first_cell c = if counts.(c) >= 2 then c else first_cell (c + 1) in
      let t = first_cell 0 in
      (* Past the budget, refinement returns at once and the cell's
         smallest task is the only candidate: the search runs straight
         down to one leaf. *)
      let reps = ref [] in
      for v = n - 1 downto 0 do
        if colors.(v) = t then
          reps :=
            if expired () then [ v ]
            else v :: List.filter (fun w -> not (same_nb v w)) !reps
      done;
      (* orbits of the prefix stabilizer found so far, as a union-find *)
      let uf = Array.init n Fun.id and seen = ref 0 in
      let rec absorb k = function
        | g :: rest when k > 0 ->
          let rec fixes j = j = dep || (g.(path.(j)) = path.(j) && fixes (j + 1)) in
          if fixes 0 then
            Array.iteri (fun v w -> uf.(find uf v) <- find uf w) g;
          absorb (k - 1) rest
        | _ -> ()
      in
      let explored = ref [] in
      let rec loop idx = function
        | [] -> no_jump
        | w :: rest ->
          absorb (!n_autos - !seen) !autos;
          seen := !n_autos;
          if List.exists (fun v -> find uf v = find uf w) !explored then
            loop (idx + 1) rest
          else if idx = 0 || not (expired ()) then begin
            path.(dep) <- w;
            let child =
              Array.map (fun c -> if c < t then c else if c > t then c + 1 else t + 1) colors
            in
            child.(w) <- t;
            let j = go (dep + 1) child (refine child (classes + 1)) in
            explored := w :: !explored;
            if j < dep then j else loop (idx + 1) rest
          end
          else (truncated := true; no_jump)
      in
      loop 0 !reps
    end
  in
  let colors = Array.make n 0 in
  let classes =
    dense_ranks (fun a b -> compare_slices ext (a * d) d (b * d) d 0) colors
  in
  ignore (go 0 colors (refine colors classes));
  {
    instance = Instance.relabel inst ~name:"canonical" best_pos;
    key = !best;
    digest = digest_of_key !best;
    perm = best_pos;
    complete = not !truncated;
  }

let restore_placement t ~original p =
  let n = Instance.count original in
  let origins = Array.init n (fun i -> Geometry.Placement.origin p t.perm.(i)) in
  Geometry.Placement.make (Instance.boxes original) origins
