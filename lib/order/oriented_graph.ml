module D = Graphlib.Digraph

(* Packed state per unordered pair {u,v} with u < v:
   0 unknown, 1 component, 2 comparable unoriented,
   3 comparable oriented u -> v, 4 comparable oriented v -> u. *)

type t = {
  n : int;
  state : int array; (* indexed by u * n + v, u < v *)
  (* The trail is three parallel growable arrays instead of a Stack:
     [mark]/[undo_to] index it directly, and windowed iteration over
     [since, len) neither allocates nor walks entries outside the
     window. Each entry records the pair index, the state it had before
     the write, and the state written. *)
  mutable tr_idx : int array;
  mutable tr_prev : int array;
  mutable tr_new : int array;
  mutable tr_len : int;
  (* Stamp-based scratch for deduplicating pairs inside one window scan
     without allocating a set: seen.(idx) = stamp marks idx as already
     reported during the scan numbered [stamp]. *)
  seen : int array;
  mutable stamp : int;
  (* Pair indices pending a propagation scan: a FIFO ring buffer of
     [q_len] entries starting at [q_head]; the capacity is a power of
     two. FIFO order fixes the order of forced writes, hence the trail. *)
  mutable queue : int array;
  mutable q_head : int;
  mutable q_len : int;
}

type kind = Unknown | Component | Comparable

type conflict = {
  pair : int * int;
  reason : string;
}

let create n =
  if n < 0 then invalid_arg "Oriented_graph.create: negative order";
  let cap = max 16 (n * 4) in
  let rec pow2 c = if c >= n * n then c else pow2 (2 * c) in
  {
    n;
    state = Array.make (n * n) 0;
    tr_idx = Array.make cap 0;
    tr_prev = Array.make cap 0;
    tr_new = Array.make cap 0;
    tr_len = 0;
    seen = Array.make (n * n) 0;
    stamp = 0;
    queue = Array.make (pow2 16) 0;
    q_head = 0;
    q_len = 0;
  }

let order t = t.n

let index t u v =
  if u < 0 || v < 0 || u >= t.n || v >= t.n || u = v then
    invalid_arg "Oriented_graph: bad pair";
  if u < v then (u * t.n) + v else (v * t.n) + u

let raw t u v = t.state.(index t u v)

let kind t u v =
  match raw t u v with
  | 0 -> Unknown
  | 1 -> Component
  | _ -> Comparable

let unknown_at t idx = t.state.(idx) = 0

let mark t = t.tr_len

let undo_to t m =
  if m > t.tr_len then invalid_arg "Oriented_graph.undo_to: bad mark";
  for p = t.tr_len - 1 downto m do
    t.state.(t.tr_idx.(p)) <- t.tr_prev.(p)
  done;
  t.tr_len <- m;
  t.q_len <- 0

let iter_changed_pairs t ~since f =
  if since > t.tr_len then
    invalid_arg "Oriented_graph.iter_changed_pairs: bad mark";
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  (* The window length is captured up front: entries pushed by [f]
     belong to the next window, exactly as with a snapshot of the
     window taken on entry. *)
  let limit = t.tr_len in
  for p = since to limit - 1 do
    let idx = t.tr_idx.(p) in
    if t.seen.(idx) <> stamp then begin
      t.seen.(idx) <- stamp;
      f (idx / t.n) (idx mod t.n)
    end
  done

let iter_trail_window ?until t ~since f =
  let limit = match until with None -> t.tr_len | Some u -> u in
  if since > t.tr_len || limit > t.tr_len then
    invalid_arg "Oriented_graph.iter_trail_window: bad mark";
  for p = since to limit - 1 do
    let idx = t.tr_idx.(p) in
    f (idx / t.n) (idx mod t.n) ~prev:t.tr_prev.(p) ~cur:t.tr_new.(p)
  done

let grow t =
  let cap = Array.length t.tr_idx in
  let cap' = (cap * 2) + 1 in
  let extend a = Array.append a (Array.make (cap' - cap) 0) in
  t.tr_idx <- extend t.tr_idx;
  t.tr_prev <- extend t.tr_prev;
  t.tr_new <- extend t.tr_new

(* A pair is written at most twice between undos (0 -> 2 -> 3|4), so
   the ring never holds more than n * n entries; growing is a guard. *)
let enqueue t idx =
  let cap = Array.length t.queue in
  if t.q_len = cap then begin
    let q = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      q.(i) <- t.queue.((t.q_head + i) land (cap - 1))
    done;
    t.queue <- q;
    t.q_head <- 0
  end;
  t.queue.((t.q_head + t.q_len) land (Array.length t.queue - 1)) <- idx;
  t.q_len <- t.q_len + 1

let write t idx value =
  if t.state.(idx) <> value then begin
    if t.tr_len >= Array.length t.tr_idx then grow t;
    t.tr_idx.(t.tr_len) <- idx;
    t.tr_prev.(t.tr_len) <- t.state.(idx);
    t.tr_new.(t.tr_len) <- value;
    t.tr_len <- t.tr_len + 1;
    t.state.(idx) <- value;
    enqueue t idx
  end

let conflict u v reason = Error { pair = (min u v, max u v); reason }

let set_component t u v =
  match raw t u v with
  | 1 -> Ok ()
  | 0 ->
    write t (index t u v) 1;
    Ok ()
  | _ -> conflict u v "pair is a comparability edge, cannot overlap"

let set_comparable t u v =
  match raw t u v with
  | 2 | 3 | 4 -> Ok ()
  | 0 ->
    write t (index t u v) 2;
    Ok ()
  | _ -> conflict u v "pair is a component edge, cannot be comparable"

(* ---- orientation and propagation -------------------------------- *)

(* Propagation reads pair states straight from [state] (no bounds
   checks on vertex ids, which the scan generates itself) and reports a
   conflict by raising, so a rule instance costs no allocation. *)
exception Conflict of int * int * string

let[@inline] raw_of t a b =
  if a < b then t.state.((a * t.n) + b) else t.state.((b * t.n) + a)

(* Packed-state predicates for the ordered pair (a, b). *)
let[@inline] comparable_ab t a b = raw_of t a b >= 2
let[@inline] component_ab t a b = raw_of t a b = 1
let[@inline] arc_ab t a b =
  let s = raw_of t a b in
  if a < b then s = 3 else s = 4

(* Fix the orientation a -> b, whatever the current state allows;
   [a] and [b] must be valid and distinct. *)
let force t a b =
  let idx = if a < b then (a * t.n) + b else (b * t.n) + a in
  let want = if a < b then 3 else 4 in
  match t.state.(idx) with
  | 0 | 2 -> write t idx want
  | 1 ->
    raise
      (Conflict (a, b, "transitivity conflict: forced arc on a component edge"))
  | s ->
    if s <> want then
      raise (Conflict (a, b, "path conflict: edge forced in both orientations"))

let force_arc t a b =
  ignore (index t a b : int);
  match force t a b with
  | () -> Ok ()
  | exception Conflict (a, b, reason) -> conflict a b reason

(* One propagation scan for the pair encoded by [idx], driven by its
   current state. Each rule instance involves at most three pairs; the
   last pair to change always triggers the scan that completes the
   rule, so scanning changed pairs suffices for closure. Within one [w]
   the rules run in a fixed order and each reads the states the
   previous one left, which fixes the order of forced writes. *)
let scan t idx =
  let n = t.n in
  let u = idx / n and v = idx mod n in
  match t.state.(idx) with
  | 0 -> ()
  | 1 ->
    (* Component edge {u,v}: D1 with shared vertex w — oriented
       comparability edges {w,u}, {w,v} must point the same way. *)
    for w = 0 to n - 1 do
      if w <> u && w <> v && comparable_ab t w u && comparable_ab t w v
      then begin
        if arc_ab t w u then force t w v;
        if arc_ab t u w then force t v w;
        if arc_ab t w v then force t w u;
        if arc_ab t v w then force t u w
      end
    done
  | 2 ->
    (* Unoriented comparability edge {u,v}: D1 may orient it via an
       already-oriented edge at a shared vertex and a component third
       side. *)
    for w = 0 to n - 1 do
      if w <> u && w <> v then begin
        if comparable_ab t u w && component_ab t v w then begin
          if arc_ab t u w then force t u v
          else if arc_ab t w u then force t v u
        end;
        if comparable_ab t v w && component_ab t u w then begin
          if arc_ab t v w then force t v u
          else if arc_ab t w v then force t u v
        end
      end
    done
  | s ->
    (* Oriented edge a -> b. *)
    let a, b = if s = 3 then (u, v) else (v, u) in
    for w = 0 to n - 1 do
      if w <> a && w <> b then begin
        (* D1, shared a: {a,w} comparable, {b,w} component. *)
        if comparable_ab t a w && component_ab t b w then force t a w;
        (* D1, shared b: {b,w} comparable, {a,w} component. *)
        if comparable_ab t b w && component_ab t a w then force t w b;
        (* D2: a -> b -> w forces a -> w; w -> a -> b forces w -> b. *)
        if arc_ab t b w then force t a w;
        if arc_ab t w a then force t w b
      end
    done

let propagate t =
  match
    while t.q_len > 0 do
      let idx = t.queue.(t.q_head) in
      t.q_head <- (t.q_head + 1) land (Array.length t.queue - 1);
      t.q_len <- t.q_len - 1;
      scan t idx
    done
  with
  | () -> Ok ()
  | exception Conflict (a, b, reason) ->
    t.q_len <- 0;
    conflict a b reason

let pairs_with t pred =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for v = t.n - 1 downto u + 1 do
      if pred t.state.((u * t.n) + v) then acc := (u, v) :: !acc
    done
  done;
  !acc

let unknown_pairs t = pairs_with t (fun s -> s = 0)
let unoriented_pairs t = pairs_with t (fun s -> s = 2)

let orientation t =
  let d = D.create t.n in
  List.iter
    (fun (u, v) ->
      if t.state.((u * t.n) + v) = 3 then D.add_arc d u v
      else if t.state.((u * t.n) + v) = 4 then D.add_arc d v u)
    (pairs_with t (fun s -> s >= 3));
  d
