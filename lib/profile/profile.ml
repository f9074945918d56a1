(* Execution profiles: block counts, edge counts and loop trip-count
   histograms.

   The paper's policies consume an edge-frequency profile, and its loop
   peeling policy additionally consumes trip-count histograms (Section 5).
   A [collector] is fed block transitions online by the functional
   simulator; trip counts are derived during collection using natural-loop
   information from the profiled CFG. *)

open Trips_analysis

module Edge = struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash (a, b) = (a * 65599) + b
end

module EdgeTbl = Hashtbl.Make (Edge)

type t = {
  block_counts : (int, int) Hashtbl.t;
  edge_counts : int EdgeTbl.t;
  trip_histograms : (int, (int, int) Hashtbl.t) Hashtbl.t;
      (* loop header -> (trip count -> occurrences) *)
}

(* The collector works on a dense renumbering of the profiled CFG that
   its caller (the functional simulator's decoder) supplies: slot [s] is
   block [ids.(s)], and edge [e] is the [e]-th distinct (source slot,
   target slot) pair.  Recording is then array arithmetic with no
   hashing and no allocation on the per-block path; loop-header and
   back-edge flags are looked up once, at creation.  [finish] converts
   to the hashtable form every consumer reads. *)
module IntTbl = Hashtbl.Make (Int)

type collector = {
  ids : int array;  (* slot -> block id *)
  counts : int array;  (* slot -> executions *)
  edge_src : int array;
  edge_dst : int array;
  edge_n : int array;  (* edge -> traversals *)
  header : bool array;  (* slot heads a natural loop *)
  back : bool array;  (* edge closes a natural loop *)
  trips : int array;  (* header slot -> back edges of the open episode; -1: none *)
  hists : int IntTbl.t option array;  (* header slot -> trips -> occurrences *)
}

let empty () =
  {
    block_counts = Hashtbl.create 64;
    edge_counts = EdgeTbl.create 64;
    trip_histograms = Hashtbl.create 8;
  }

let collector ?loops ~ids ~edges () =
  let n = Array.length ids in
  let edge_src = Array.map fst edges and edge_dst = Array.map snd edges in
  let header, back =
    match loops with
    | None -> (Array.make n false, Array.make (Array.length edges) false)
    | Some l ->
      ( Array.map (Loops.is_loop_header l) ids,
        Array.map
          (fun (s, d) -> Loops.is_back_edge l ~src:ids.(s) ~dst:ids.(d))
          edges )
  in
  {
    ids;
    counts = Array.make n 0;
    edge_src;
    edge_dst;
    edge_n = Array.make (Array.length edges) 0;
    header;
    back;
    trips = Array.make n (-1);
    hists = Array.make n None;
  }

(* Trip count = number of back-edge traversals per loop entry, which for a
   test-at-top (while) loop equals the number of body iterations.  Entries
   that exit without iterating record a trip count of zero — the peeling
   policy needs to see those. *)
let record_trip c h trips =
  let hist =
    match c.hists.(h) with
    | Some t -> t
    | None ->
      let t = IntTbl.create 8 in
      c.hists.(h) <- Some t;
      t
  in
  match IntTbl.find hist trips with
  | n -> IntTbl.replace hist trips (n + 1)
  | exception Not_found -> IntTbl.add hist trips 1

(** The run starts in slot [s]; it may itself be a loop header. *)
let record_entry c s =
  c.counts.(s) <- c.counts.(s) + 1;
  if c.header.(s) then c.trips.(s) <- 0

(** The run follows edge [e] into its target slot. *)
let record_edge c e =
  let d = c.edge_dst.(e) in
  c.counts.(d) <- c.counts.(d) + 1;
  c.edge_n.(e) <- c.edge_n.(e) + 1;
  if c.header.(d) then begin
    let open_ = c.trips.(d) in
    if c.back.(e) then c.trips.(d) <- Int.max open_ 0 + 1
    else begin
      (* fresh entry into the loop: close any previous episode *)
      if open_ >= 0 then record_trip c d open_;
      c.trips.(d) <- 0
    end
  end

(** Close all in-flight trip-count episodes and build the profile; call
    at end of run. *)
let finish c =
  let p = empty () in
  Array.iteri
    (fun s open_ ->
      if open_ >= 0 then begin
        record_trip c s open_;
        c.trips.(s) <- -1
      end)
    c.trips;
  Array.iteri
    (fun s n -> if n > 0 then Hashtbl.replace p.block_counts c.ids.(s) n)
    c.counts;
  Array.iteri
    (fun e n ->
      if n > 0 then
        EdgeTbl.replace p.edge_counts
          (c.ids.(c.edge_src.(e)), c.ids.(c.edge_dst.(e)))
          n)
    c.edge_n;
  Array.iteri
    (fun s hist ->
      Option.iter
        (fun t ->
          let h = Hashtbl.create 8 in
          IntTbl.iter (Hashtbl.replace h) t;
          Hashtbl.replace p.trip_histograms c.ids.(s) h)
        hist)
    c.hists;
  p

let block_count p id = Option.value ~default:0 (Hashtbl.find_opt p.block_counts id)

let edge_count p ~src ~dst =
  Option.value ~default:0 (EdgeTbl.find_opt p.edge_counts (src, dst))

(** Probability of taking edge [src -> dst] among all recorded departures
    from [src]; 0 if [src] was never executed. *)
let edge_prob p ~src ~dst =
  let total = block_count p src in
  if total = 0 then 0.0
  else float_of_int (edge_count p ~src ~dst) /. float_of_int total

(** Trip-count histogram of the loop headed by [header], sorted by trip
    count. *)
let trip_histogram p header =
  match Hashtbl.find_opt p.trip_histograms header with
  | None -> []
  | Some h ->
    Hashtbl.fold (fun trips occ acc -> (trips, occ) :: acc) h []
    |> List.sort compare

let average_trip_count p header =
  match trip_histogram p header with
  | [] -> None
  | hist ->
    let total, weighted =
      List.fold_left
        (fun (t, w) (trips, occ) -> (t + occ, w + (trips * occ)))
        (0, 0) hist
    in
    Some (float_of_int weighted /. float_of_int total)

(** Most common trip count, the paper's input to the peeling threshold
    policy. *)
let dominant_trip_count p header =
  match trip_histogram p header with
  | [] -> None
  | hist ->
    let best =
      List.fold_left
        (fun best (trips, occ) ->
          match best with
          | Some (_, bocc) when bocc >= occ -> best
          | _ -> Some (trips, occ))
        None hist
    in
    Option.map fst best

(** Fraction of loop entries whose trip count was at least [n]. *)
let trip_count_at_least p header n =
  match trip_histogram p header with
  | [] -> 0.0
  | hist ->
    let total, ge =
      List.fold_left
        (fun (t, g) (trips, occ) ->
          (t + occ, if trips >= n then g + occ else g))
        (0, 0) hist
    in
    float_of_int ge /. float_of_int total

let pp fmt p =
  Fmt.pf fmt "@[<v>profile:";
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) p.block_counts []
  |> List.sort compare
  |> List.iter (fun (id, n) -> Fmt.pf fmt "@,b%d: %d" id n);
  Fmt.pf fmt "@]"
