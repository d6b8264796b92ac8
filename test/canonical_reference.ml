(* Reference copy of the canonicalizer as it was written before integer
   refinement and orbit pruning: polymorphic-compare colour refinement
   over tuples of lists, one [string_of_int] per certificate number, and
   a tie-break search that prunes only groups of tasks with identical
   neighbourhoods. The service tests canonicalize the same inputs with
   it and with [Service.Canonical] and require the same key, digest,
   perm and canonical instance wherever this copy finishes its search. *)

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
   only names it in logs. *)
let digest_of_key s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* Dense ranks 0..k-1 of an array of comparable keys: each entry's rank
   is the index of its key among the sorted distinct keys. Ranks depend
   only on the multiset of keys, so they are invariant under any
   relabeling of the entries — the property every round of refinement
   rests on. *)
let ranks keys =
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  let tbl = Hashtbl.create 16 in
  let next = ref 0 in
  Array.iter
    (fun k ->
      if not (Hashtbl.mem tbl k) then begin
        Hashtbl.add tbl k !next;
        incr next
      end)
    sorted;
  Array.map (Hashtbl.find tbl) keys

let count_classes colors =
  let seen = Hashtbl.create 16 in
  Array.iter (fun c -> Hashtbl.replace seen c ()) colors;
  Hashtbl.length seen

(* Leaf orderings the tie-break search may materialize. *)
let leaf_budget = 4096

let of_instance inst =
  let n = Instance.count inst in
  let d = Instance.dim inst in
  (* Every per-axis order participates in refinement, the automorphism
     grouping, and the certificate — two instances differing only in a
     spatial-axis order must never share a key. *)
  let axis_rels =
    Array.init d (fun k -> PO.relations (Instance.order inst k))
  in
  let succs = Array.init d (fun _ -> Array.make n []) in
  let preds = Array.init d (fun _ -> Array.make n []) in
  Array.iteri
    (fun k rels ->
      List.iter
        (fun (u, v) ->
          succs.(k).(u) <- v :: succs.(k).(u);
          preds.(k).(v) <- u :: preds.(k).(v))
        rels)
    axis_rels;
  let ext = Array.init n (fun i -> Box.extents (Instance.box inst i)) in

  (* Coarsest equitable refinement: split classes by (own color, per-axis
     sorted successor colors, per-axis sorted predecessor colors) until
     the class count stops growing. Classes only ever split (the old
     color heads the signature), so a stable count means a stable
     partition. *)
  (* Colors are kept as dense ranks 0..k-1 (the individualize step below
     hands us sparse values up to 2n-1; re-rank before anything indexes
     by color). *)
  let refine colors0 =
    let colors = ref (ranks colors0) in
    let classes = ref (count_classes colors0) in
    let continue_ = ref true in
    while !continue_ do
      let sigs =
        Array.init n (fun i ->
            ( !colors.(i),
              Array.to_list
                (Array.init d (fun k ->
                     ( List.sort compare
                         (List.map (fun j -> !colors.(j)) succs.(k).(i)),
                       List.sort compare
                         (List.map (fun j -> !colors.(j)) preds.(k).(i)) ))) ))
      in
      let next = ranks sigs in
      let c = count_classes next in
      if c = !classes then continue_ := false
      else begin
        colors := next;
        classes := c
      end
    done;
    !colors
  in

  (* Serialization of one complete ordering: dimension and objective
     axis, box extents in canonical order, then each axis's closure
     arcs in canonical coordinates, sorted, in its own tagged section.
     Equal certificates mean the two inputs are literally permutations
     of one another — including every per-axis order. *)
  let certificate_of_order ord =
    let pos = Array.make n 0 in
    Array.iteri (fun k v -> pos.(v) <- k) ord;
    let buf = Buffer.create (16 * n) in
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf 'd';
    Buffer.add_string buf (string_of_int d);
    Buffer.add_char buf 'o';
    Buffer.add_string buf (string_of_int (Instance.objective_axis inst));
    Array.iter
      (fun v ->
        Buffer.add_char buf '|';
        Array.iter
          (fun e ->
            Buffer.add_string buf (string_of_int e);
            Buffer.add_char buf ',')
          ext.(v))
      ord;
    Array.iteri
      (fun k rels ->
        if rels <> [] then begin
          Buffer.add_char buf '@';
          Buffer.add_string buf (string_of_int k);
          let arcs =
            List.sort compare
              (List.map (fun (u, v) -> (pos.(u), pos.(v))) rels)
          in
          List.iter
            (fun (a, b) ->
              Buffer.add_char buf ';';
              Buffer.add_string buf (string_of_int a);
              Buffer.add_char buf '>';
              Buffer.add_string buf (string_of_int b))
            arcs
        end)
      axis_rels;
    (Buffer.contents buf, pos)
  in

  let best = ref None in
  let leaves = ref 0 in
  let truncated = ref false in

  (* Individualize-and-refine, keeping the lexicographically smallest
     certificate. Within the target class, candidates with identical
     exact predecessor and successor sets in every axis are swapped into
     each other by an automorphism (equal color implies equal boxes, and
     two such tasks cannot be related in any axis: u -> v would put v in
     succs u but not in succs v), so their branches produce equal
     certificates — explore one per group. This collapses the fully
     symmetric instances (identical independent tasks) to a single
     branch. *)
  let rec go colors0 =
    let colors = refine colors0 in
    if count_classes colors = n then begin
      incr leaves;
      let ord = Array.init n (fun i -> i) in
      Array.sort (fun a b -> compare colors.(a) colors.(b)) ord;
      let cert, pos = certificate_of_order ord in
      match !best with
      | Some (b, _) when String.compare b cert <= 0 -> ()
      | _ -> best := Some (cert, pos)
    end
    else begin
      let counts = Array.make n 0 in
      Array.iter (fun c -> counts.(c) <- counts.(c) + 1) colors;
      let target = ref 0 in
      while counts.(!target) < 2 do
        incr target
      done;
      let groups = Hashtbl.create 8 in
      for v = n - 1 downto 0 do
        if colors.(v) = !target then
          Hashtbl.replace groups
            (Array.to_list
               (Array.init d (fun k ->
                    ( List.sort compare succs.(k).(v),
                      List.sort compare preds.(k).(v) ))))
            v
      done;
      let reps = List.sort compare (Hashtbl.fold (fun _ v acc -> v :: acc) groups []) in
      List.iteri
        (fun idx v ->
          (* the first branch always runs so a certificate always
             exists; later branches only while the leaf budget lasts *)
          if idx = 0 || !leaves < leaf_budget then
            go
              (Array.mapi
                 (fun i c -> (2 * c) + if i = v then 0 else 1)
                 colors)
          else truncated := true)
        reps
    end
  in
  go (ranks ext);

  let cert, pos =
    match !best with Some b -> b | None -> assert false (* n >= 1 *)
  in
  let inv = Array.make n 0 in
  Array.iteri (fun i k -> inv.(k) <- i) pos;
  let boxes = Array.init n (fun k -> Instance.box inst inv.(k)) in
  let orders =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun k rels ->
              if rels = [] then []
              else [ (k, List.map (fun (u, v) -> (pos.(u), pos.(v))) rels) ])
            axis_rels))
  in
  let cinst =
    Instance.make ~name:"canonical" ~orders
      ~objective_axis:(Instance.objective_axis inst) ~boxes ()
  in
  {
    instance = cinst;
    key = cert;
    digest = digest_of_key cert;
    perm = pos;
    complete = not !truncated;
  }
