(* Reference copy of the edge-state store's propagation as it was
   written before the allocation-light kernel: a [let*] closure per rule
   instance, a [Queue.t] of pending pairs, checked pair lookups. The
   engine tests replay random walks on it and on [Order.Oriented_graph]
   and require the same states, results and trail, entry by entry. *)

type t = {
  n : int;
  state : int array; (* indexed by u * n + v, u < v *)
  (* Trail entries: pair index, state before the write, state written. *)
  mutable tr_idx : int array;
  mutable tr_prev : int array;
  mutable tr_new : int array;
  mutable tr_len : int;
  queue : int Queue.t; (* pair indices pending a propagation scan *)
}

type kind = Order.Oriented_graph.kind = Unknown | Component | Comparable

type conflict = Order.Oriented_graph.conflict = {
  pair : int * int;
  reason : string;
}

let create n =
  if n < 0 then invalid_arg "Oriented_graph.create: negative order";
  let cap = max 16 (n * 4) in
  {
    n;
    state = Array.make (n * n) 0;
    tr_idx = Array.make cap 0;
    tr_prev = Array.make cap 0;
    tr_new = Array.make cap 0;
    tr_len = 0;
    queue = Queue.create ();
  }

let index t u v =
  if u < 0 || v < 0 || u >= t.n || v >= t.n || u = v then
    invalid_arg "Oriented_graph: bad pair";
  if u < v then (u * t.n) + v else (v * t.n) + u

let unpack t idx = (idx / t.n, idx mod t.n)

let raw t u v = t.state.(index t u v)

let kind t u v =
  match raw t u v with
  | 0 -> Unknown
  | 1 -> Component
  | _ -> Comparable

let arc t u v =
  let s = raw t u v in
  if u < v then s = 3 else s = 4

let mark t = t.tr_len

let undo_to t m =
  if m > t.tr_len then invalid_arg "Oriented_graph.undo_to: bad mark";
  for p = t.tr_len - 1 downto m do
    t.state.(t.tr_idx.(p)) <- t.tr_prev.(p)
  done;
  t.tr_len <- m;
  Queue.clear t.queue

let grow t =
  let cap = Array.length t.tr_idx in
  let cap' = (cap * 2) + 1 in
  let extend a = Array.append a (Array.make (cap' - cap) 0) in
  t.tr_idx <- extend t.tr_idx;
  t.tr_prev <- extend t.tr_prev;
  t.tr_new <- extend t.tr_new

let write t idx value =
  if t.state.(idx) <> value then begin
    if t.tr_len >= Array.length t.tr_idx then grow t;
    t.tr_idx.(t.tr_len) <- idx;
    t.tr_prev.(t.tr_len) <- t.state.(idx);
    t.tr_new.(t.tr_len) <- value;
    t.tr_len <- t.tr_len + 1;
    t.state.(idx) <- value;
    Queue.add idx t.queue
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

(* Fix the orientation a -> b, whatever the current state allows. *)
let force_arc t a b =
  let idx = index t a b in
  let want = if a < b then 3 else 4 in
  match t.state.(idx) with
  | 0 | 2 ->
    write t idx want;
    Ok ()
  | 1 -> conflict a b "transitivity conflict: forced arc on a component edge"
  | s when s = want -> Ok ()
  | _ -> conflict a b "path conflict: edge forced in both orientations"

(* One propagation scan for the pair encoded by [idx], driven by its
   current state. Each rule instance involves at most three pairs; the
   last pair to change always triggers the scan that completes the
   rule, so scanning changed pairs suffices for closure. *)
let scan t idx =
  let u, v = unpack t idx in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  match t.state.(idx) with
  | 0 -> Ok ()
  | 1 ->
    (* Component edge {u,v}: D1 with shared vertex w — oriented
       comparability edges {w,u}, {w,v} must point the same way. *)
    let rec loop w =
      if w >= t.n then Ok ()
      else if w = u || w = v then loop (w + 1)
      else
        let cu = kind t w u = Comparable and cv = kind t w v = Comparable in
        if cu && cv then
          let* () = if arc t w u then force_arc t w v else Ok () in
          let* () = if arc t u w then force_arc t v w else Ok () in
          let* () = if arc t w v then force_arc t w u else Ok () in
          let* () = if arc t v w then force_arc t u w else Ok () in
          loop (w + 1)
        else loop (w + 1)
    in
    loop 0
  | 2 ->
    (* Unoriented comparability edge {u,v}: D1 may orient it via an
       already-oriented edge at a shared vertex and a component third
       side. *)
    let rec loop w =
      if w >= t.n then Ok ()
      else if w = u || w = v then loop (w + 1)
      else
        let* () =
          if kind t u w = Comparable && kind t v w = Component then
            if arc t u w then force_arc t u v
            else if arc t w u then force_arc t v u
            else Ok ()
          else Ok ()
        in
        let* () =
          if kind t v w = Comparable && kind t u w = Component then
            if arc t v w then force_arc t v u
            else if arc t w v then force_arc t u v
            else Ok ()
          else Ok ()
        in
        loop (w + 1)
    in
    loop 0
  | _ ->
    (* Oriented edge a -> b. *)
    let a, b = if t.state.(idx) = 3 then (u, v) else (v, u) in
    let rec loop w =
      if w >= t.n then Ok ()
      else if w = a || w = b then loop (w + 1)
      else
        (* D1, shared a: {a,w} comparable, {b,w} component. *)
        let* () =
          if kind t a w = Comparable && kind t b w = Component then
            force_arc t a w
          else Ok ()
        in
        (* D1, shared b: {b,w} comparable, {a,w} component. *)
        let* () =
          if kind t b w = Comparable && kind t a w = Component then
            force_arc t w b
          else Ok ()
        in
        (* D2: a -> b -> w forces a -> w; w -> a -> b forces w -> b. *)
        let* () = if arc t b w then force_arc t a w else Ok () in
        let* () = if arc t w a then force_arc t w b else Ok () in
        loop (w + 1)
    in
    loop 0

let propagate t =
  let rec drain () =
    if Queue.is_empty t.queue then Ok ()
    else
      let idx = Queue.pop t.queue in
      match scan t idx with
      | Ok () -> drain ()
      | Error _ as e ->
        Queue.clear t.queue;
        e
  in
  drain ()

(* Every trail entry, oldest first: (pair index, state before, state
   written). *)
let trail t =
  List.init t.tr_len (fun p -> (t.tr_idx.(p), t.tr_prev.(p), t.tr_new.(p)))
