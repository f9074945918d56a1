(* Named-counter / histogram registry.  One global mutex guards both
   tables; every operation is a handful of hashtable accesses, and
   publishers bump per-run aggregates (not per-instruction events), so
   contention is negligible even under -j N sweeps.  Histograms keep
   their full sample multiset (per-run aggregates: dozens of samples,
   not millions), so snapshot-time quantiles are exact and — being a
   property of the multiset — independent of how the observing domains
   interleaved. *)

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

(* live accumulation state behind a [histogram]; samples in reversed
   observation order *)
type agg = {
  mutable a_count : int;
  mutable a_sum : float;
  mutable a_min : float;
  mutable a_max : float;
  mutable a_samples : float list;
}

let mutex = Mutex.create ()
let counter_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let gauge_tbl : (string, float) Hashtbl.t = Hashtbl.create 16
let histo_tbl : (string, agg) Hashtbl.t = Hashtbl.create 16

let incr ?(by = 1) name =
  if Telemetry.active () then Telemetry.count ~by name;
  Mutex.protect mutex (fun () ->
      let v = Option.value ~default:0 (Hashtbl.find_opt counter_tbl name) in
      Hashtbl.replace counter_tbl name (v + by))

let set_gauge name v =
  Mutex.protect mutex (fun () -> Hashtbl.replace gauge_tbl name v)

let add_gauge name dv =
  Mutex.protect mutex (fun () ->
      let v = Option.value ~default:0.0 (Hashtbl.find_opt gauge_tbl name) in
      Hashtbl.replace gauge_tbl name (v +. dv))

let observe name x =
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt histo_tbl name with
      | None ->
        Hashtbl.replace histo_tbl name
          { a_count = 1; a_sum = x; a_min = x; a_max = x; a_samples = [ x ] }
      | Some a ->
        a.a_count <- a.a_count + 1;
        a.a_sum <- a.a_sum +. x;
        a.a_min <- Float.min a.a_min x;
        a.a_max <- Float.max a.a_max x;
        a.a_samples <- x :: a.a_samples)

let reset () =
  Mutex.protect mutex (fun () ->
      Hashtbl.reset counter_tbl;
      Hashtbl.reset gauge_tbl;
      Hashtbl.reset histo_tbl)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Exact nearest-rank quantile over the ascending-sorted samples. *)
let quantile_of_sorted sorted n q =
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    List.nth sorted (rank - 1)
  end

let snapshot () =
  Mutex.protect mutex (fun () ->
      let histograms =
        sorted_bindings histo_tbl
        |> List.map (fun (name, a) ->
               let sorted = List.sort compare a.a_samples in
               let q p = quantile_of_sorted sorted a.a_count p in
               ( name,
                 {
                   h_count = a.a_count;
                   h_sum = a.a_sum;
                   h_min = a.a_min;
                   h_max = a.a_max;
                   h_p50 = q 0.5;
                   h_p90 = q 0.9;
                   h_p99 = q 0.99;
                 } ))
      in
      {
        counters = sorted_bindings counter_tbl;
        gauges = sorted_bindings gauge_tbl;
        histograms;
      })

let counter_value s name =
  Option.value ~default:0 (List.assoc_opt name s.counters)

let gauge_value s name =
  Option.value ~default:0.0 (List.assoc_opt name s.gauges)

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
