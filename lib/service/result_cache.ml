(* LRU via an intrusive doubly-linked recency list over hashtable
   nodes: find/add are O(1), the list head is most recent, the tail is
   the eviction victim. One mutex guards everything — operations are
   short (no solving happens under the lock). *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option; (* towards the head (more recent) *)
  mutable next : 'a node option; (* towards the tail (less recent) *)
}

type 'a t = {
  cap : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Result_cache.create: capacity < 1";
  {
    cap = capacity;
    tbl = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some node ->
        t.hits <- t.hits + 1;
        unlink t node;
        push_front t node;
        Some node.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let add t key value =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some node ->
        node.value <- value;
        unlink t node;
        push_front t node
      | None ->
        if Hashtbl.length t.tbl >= t.cap then begin
          match t.tail with
          | Some victim ->
            unlink t victim;
            Hashtbl.remove t.tbl victim.key;
            t.evictions <- t.evictions + 1
          | None -> ()
        end;
        let node = { key; value; prev = None; next = None } in
        Hashtbl.add t.tbl key node;
        push_front t node)

let counters t =
  Mutex.protect t.lock (fun () ->
      {
        Packing.Telemetry.cache_hits = t.hits;
        cache_misses = t.misses;
        cache_evictions = t.evictions;
        cache_entries = Hashtbl.length t.tbl;
        cache_capacity = t.cap;
      })
