(* Mutex-guarded content-addressed LRU store.

   The recency list is an intrusive doubly-linked list threaded through
   the hash-table nodes, so find/add/evict are all O(1) under the lock.
   The lock covers only table and list manipulation — producers compute
   artifacts outside it (see [find_or_add]), so a slow compilation never
   serializes the other domains' lookups.

   Counter updates happen under the same lock; the same event is also
   counted in Metrics, in the lifetime registry and in the daemon's
   rolling window, outside it (Metrics has its own locks, and nesting
   them would order them for no benefit). *)

type key = { src : string; stage : string; config : string }

type 'a node = {
  nk : key;
  mutable value : 'a;
  mutable prev : 'a node option;  (* toward most-recent *)
  mutable next : 'a node option;  (* toward least-recent *)
}

type 'a t = {
  sname : string;
  capacity : int;
  table : (key, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used; evicted first *)
  m : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let create ?(capacity = 512) ~name () =
  {
    sname = name;
    capacity = max 1 capacity;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    m = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let name t = t.sname

let metric t suffix =
  let name = "store." ^ t.sname ^ "." ^ suffix in
  Trips_obs.Metrics.incr name;
  (* same name in the rolling window, so the exposition surface can
     report a recent hit rate next to the lifetime one *)
  Trips_obs.Metrics.(Window.incr window name)

(* ---- recency list (call with t.m held) -------------------------------- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let evict_over_capacity t =
  let evicted = ref 0 in
  while Hashtbl.length t.table > t.capacity do
    match t.tail with
    | None -> assert false (* population > 0 implies a tail *)
    | Some lru ->
      unlink t lru;
      Hashtbl.remove t.table lru.nk;
      t.evictions <- t.evictions + 1;
      incr evicted
  done;
  !evicted

(* ---- operations -------------------------------------------------------- *)

let find t k =
  let r =
    Mutex.protect t.m (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some n ->
          unlink t n;
          push_front t n;
          t.hits <- t.hits + 1;
          Some n.value
        | None ->
          t.misses <- t.misses + 1;
          None)
  in
  metric t (match r with Some _ -> "hit" | None -> "miss");
  r

let add t k v =
  let evicted =
    Mutex.protect t.m (fun () ->
        (match Hashtbl.find_opt t.table k with
        | Some n ->
          (* replace in place; a concurrent double-compute's second insert
             lands here with an identical (deterministic) value *)
          n.value <- v;
          unlink t n;
          push_front t n
        | None ->
          let n = { nk = k; value = v; prev = None; next = None } in
          Hashtbl.replace t.table k n;
          push_front t n);
        evict_over_capacity t)
  in
  for _ = 1 to evicted do
    metric t "eviction"
  done

let find_or_add t k produce =
  match find t k with
  | Some v -> v
  | None ->
    let v = produce k in
    add t k v;
    v

let record_miss t =
  Mutex.protect t.m (fun () -> t.misses <- t.misses + 1);
  metric t "miss"

let counters t =
  Mutex.protect t.m (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
        capacity = t.capacity;
      })

let hit_rate c =
  let total = c.hits + c.misses in
  if total = 0 then 0.0 else float_of_int c.hits /. float_of_int total
