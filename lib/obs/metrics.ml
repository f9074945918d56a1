(* The one aggregation module: named counters, gauges and histograms,
   seen through two views — the lifetime registry and rolling windows of
   fixed-width time buckets.  Both views store the same thing (counter
   tables and raw histogram samples, in a [tables] record) and summarize
   samples with the one function [summarize], so a window and the
   registry fed the same samples report the same [histogram].

   Histograms keep their full sample multiset (per-run aggregates and
   per-request latencies: dozens to thousands of samples, not
   millions), and only while something reads them: a window's bucket
   expires, and the registry keeps none outside [with_samples].
   [summarize] sorts them and reads exact nearest-rank
   quantiles and the sum off the sorted array, so every field is a
   property of the multiset, independent of how the observing domains
   interleaved.

   Locks: the registry has one mutex, each window its own, and no
   operation holds both.  Publishers bump per-run aggregates (not
   per-instruction events), so contention is negligible even under
   -j N sweeps. *)

type histogram = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram) list;
}

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* [samples] is never empty: a histogram exists from its first sample. *)
let summarize samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  let q p =
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)
  in
  {
    h_count = n;
    h_sum = Array.fold_left ( +. ) 0.0 a;
    h_min = a.(0);
    h_max = a.(n - 1);
    h_p50 = q 0.5;
    h_p90 = q 0.9;
    h_p99 = q 0.99;
  }

(* Counters and raw samples: the registry is one of these, every window
   bucket another. *)
type tables = {
  counts : (string, int) Hashtbl.t;
  samples : (string, float list ref) Hashtbl.t;
}

let tables () = { counts = Hashtbl.create 16; samples = Hashtbl.create 16 }

let bump tbl name by =
  Hashtbl.replace tbl name
    (by + Option.value ~default:0 (Hashtbl.find_opt tbl name))

let add_sample t name x =
  match Hashtbl.find_opt t.samples name with
  | Some r -> r := x :: !r
  | None -> Hashtbl.replace t.samples name (ref [ x ])

let clear t =
  Hashtbl.reset t.counts;
  Hashtbl.reset t.samples

let histograms t =
  List.map (fun (name, r) -> (name, summarize !r)) (sorted_bindings t.samples)

(* ---- the lifetime registry --------------------------------------------- *)

let mutex = Mutex.create ()
let registry = tables ()
let gauge_tbl : (string, float) Hashtbl.t = Hashtbl.create 16

(* The request-scoped collector's counter table, when one is installed
   on this domain. *)
let request_counts : (string, int) Hashtbl.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_request_counters tbl f =
  let saved = Domain.DLS.get request_counts in
  Domain.DLS.set request_counts (Some tbl);
  Fun.protect ~finally:(fun () -> Domain.DLS.set request_counts saved) f

let incr ?(by = 1) name =
  (match Domain.DLS.get request_counts with
  | Some tbl -> bump tbl name by
  | None -> ());
  Mutex.protect mutex (fun () -> bump registry.counts name by)

let set_gauge name v =
  Mutex.protect mutex (fun () -> Hashtbl.replace gauge_tbl name v)

(* a one-shot command opens the scope; a daemon never does *)
let sampling = Atomic.make false

let observe name x =
  if Atomic.get sampling then
    Mutex.protect mutex (fun () -> add_sample registry name x)

let with_samples f =
  Atomic.set sampling true;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set sampling false;
      Mutex.protect mutex (fun () -> Hashtbl.reset registry.samples))
    f

let reset () =
  Mutex.protect mutex (fun () ->
      clear registry;
      Hashtbl.reset gauge_tbl)

let snapshot () =
  Mutex.protect mutex (fun () ->
      {
        counters = sorted_bindings registry.counts;
        gauges = sorted_bindings gauge_tbl;
        histograms = histograms registry;
      })

let counter_value s name =
  Option.value ~default:0 (List.assoc_opt name s.counters)

let gauge_value s name =
  Option.value ~default:0.0 (List.assoc_opt name s.gauges)

(* ---- rolling windows --------------------------------------------------- *)

module Window = struct
  type snapshot = {
    w_span_s : float;
    w_counters : (string * int) list;
    w_gauges : (string * float) list;
    w_histograms : (string * histogram) list;
  }

  (* One fixed-width time bucket.  [b_epoch] is the absolute bucket
     index (now / bucket_s); a bucket whose epoch has rotated out of the
     live range is logically empty and is reset lazily on reuse. *)
  type bucket = { mutable b_epoch : int; (* -1 = never used *) b_tables : tables }

  type t = { w_m : Mutex.t; w_bucket_s : float; w_buckets : bucket array }

  let create ?(buckets = 30) ?(bucket_s = 1.0) () =
    {
      w_m = Mutex.create ();
      w_bucket_s = (if bucket_s <= 0.0 then 1.0 else bucket_s);
      w_buckets =
        Array.init (max 1 buckets) (fun _ -> { b_epoch = -1; b_tables = tables () });
    }

  let span_s t = float_of_int (Array.length t.w_buckets) *. t.w_bucket_s
  let epoch_of t now = int_of_float (now /. t.w_bucket_s)
  let now_or = function Some n -> n | None -> Clock.now ()

  let live t ~epoch_now e =
    e >= 0 && e > epoch_now - Array.length t.w_buckets && e <= epoch_now

  (* with [w_m] held: the bucket slot for [epoch], reset if it still
     holds an older rotation; [None] if a newer epoch already occupies
     the slot (writing "into the past" across the ring seam). *)
  let bucket_at t epoch =
    let n = Array.length t.w_buckets in
    let b = t.w_buckets.(((epoch mod n) + n) mod n) in
    if b.b_epoch = epoch then Some b
    else if b.b_epoch > epoch then None
    else begin
      clear b.b_tables;
      b.b_epoch <- epoch;
      Some b
    end

  let write t now f =
    let now = now_or now in
    Mutex.protect t.w_m (fun () ->
        match bucket_at t (epoch_of t now) with
        | None -> ()
        | Some b -> f b.b_tables)

  let incr t ?now ?(by = 1) name = write t now (fun tb -> bump tb.counts name by)
  let observe t ?now name x = write t now (fun tb -> add_sample tb name x)

  let snapshot ?now t =
    let now = now_or now in
    let gauges = Mutex.protect mutex (fun () -> sorted_bindings gauge_tbl) in
    Mutex.protect t.w_m (fun () ->
        let epoch_now = epoch_of t now in
        let acc = tables () in
        Array.iter
          (fun b ->
            if live t ~epoch_now b.b_epoch then begin
              Hashtbl.iter (bump acc.counts) b.b_tables.counts;
              Hashtbl.iter
                (fun name r -> List.iter (add_sample acc name) !r)
                b.b_tables.samples
            end)
          t.w_buckets;
        {
          w_span_s = span_s t;
          w_counters = sorted_bindings acc.counts;
          w_gauges = gauges;
          w_histograms = histograms acc;
        })

  let reset t =
    Mutex.protect t.w_m (fun () ->
        Array.iter
          (fun b ->
            b.b_epoch <- -1;
            clear b.b_tables)
          t.w_buckets)

  let counter_value s name =
    Option.value ~default:0 (List.assoc_opt name s.w_counters)

  let histogram s name = List.assoc_opt name s.w_histograms
end

(* the daemon's window: 30 one-second buckets *)
let window = Window.create ()

(* ---- rendering --------------------------------------------------------- *)

let render fmt s =
  Format.fprintf fmt "@[<v>metrics:@,";
  List.iter
    (fun (name, v) -> Format.fprintf fmt "  %-36s %12d@," name v)
    s.counters;
  List.iter
    (fun (name, v) -> Format.fprintf fmt "  %-36s %12.3f  (gauge)@," name v)
    s.gauges;
  if s.histograms <> [] then begin
    Format.fprintf fmt "  %-36s %8s %12s %10s %10s %10s %10s %10s@,"
      "histogram" "count" "mean" "min" "max" "p50" "p90" "p99";
    List.iter
      (fun (name, h) ->
        let mean = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count in
        Format.fprintf fmt
          "  %-36s %8d %12.6f %10.6f %10.6f %10.6f %10.6f %10.6f@," name
          h.h_count mean h.h_min h.h_max h.h_p50 h.h_p90 h.h_p99)
      s.histograms
  end;
  Format.fprintf fmt "@]"

let to_json s =
  let buf = Buffer.create 512 in
  let sep = ref false in
  let comma () = if !sep then Buffer.add_char buf ','; sep := true in
  Buffer.add_string buf "{\"counters\":{";
  List.iter
    (fun (name, v) ->
      comma ();
      Buffer.add_string buf (Printf.sprintf "%S:%d" name v))
    s.counters;
  Buffer.add_string buf "},\"gauges\":{";
  sep := false;
  List.iter
    (fun (name, v) ->
      comma ();
      Buffer.add_string buf (Printf.sprintf "%S:%.12g" name v))
    s.gauges;
  Buffer.add_string buf "},\"histograms\":{";
  sep := false;
  List.iter
    (fun (name, h) ->
      comma ();
      Buffer.add_string buf
        (Printf.sprintf
           "%S:{\"count\":%d,\"sum\":%.12g,\"min\":%.12g,\"max\":%.12g,\"p50\":%.12g,\"p90\":%.12g,\"p99\":%.12g}"
           name h.h_count h.h_sum h.h_min h.h_max h.h_p50 h.h_p90 h.h_p99))
    s.histograms;
  Buffer.add_string buf "}}";
  Buffer.contents buf
