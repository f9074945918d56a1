(* Exposition surfaces for the daemon's stats payload.

   [render_prom] is the golden-tested one: Prometheus text format with a
   fixed line order (scalars in declaration order, then stores, then the
   window's counters / gauges / quantile series, each sorted by name —
   every list in the payload is already name-sorted, so the output is a
   pure function of the payload).  Floats always render with a decimal
   point ("%.6f"), which is what lets the telemetry-check gate mask
   volatile values with one rule: integers are structural, floats are
   wall-clock. *)

module Metrics = Trips_obs.Metrics

let label_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_prom (st : Protocol.stats_payload) =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.bprintf buf fmt in
  let int_metric name v = line "%s %d\n" name v in
  let float_metric name v = line "%s %.6f\n" name v in
  line "# chfc serve exposition (stable ordering; floats are volatile)\n";
  int_metric "chfc_protocol_version" st.Protocol.st_version;
  float_metric "chfc_uptime_seconds" st.Protocol.st_uptime_s;
  int_metric "chfc_workers" st.Protocol.st_workers;
  int_metric "chfc_queue_depth_limit" st.Protocol.st_queue_depth;
  int_metric "chfc_requests_pending" st.Protocol.st_pending;
  int_metric "chfc_requests_submitted_total" st.Protocol.st_submitted;
  int_metric "chfc_requests_completed_total" st.Protocol.st_completed;
  int_metric "chfc_requests_shed_total" st.Protocol.st_shed;
  int_metric "chfc_requests_timed_out_total" st.Protocol.st_timed_out;
  int_metric "chfc_requests_crashed_total" st.Protocol.st_crashed;
  int_metric "chfc_degraded" (if st.Protocol.st_degraded then 1 else 0);
  List.iter
    (fun (s : Protocol.store_counters) ->
      let l fmt_name v =
        line "%s{store=\"%s\"} %d\n" fmt_name (label_escape s.Protocol.sc_name) v
      in
      l "chfc_store_hits_total" s.Protocol.sc_hits;
      l "chfc_store_misses_total" s.Protocol.sc_misses;
      l "chfc_store_evictions_total" s.Protocol.sc_evictions;
      l "chfc_store_entries" s.Protocol.sc_entries;
      l "chfc_store_capacity" s.Protocol.sc_capacity)
    st.Protocol.st_stores;
  let w = st.Protocol.st_window in
  float_metric "chfc_window_seconds" w.Metrics.Window.w_span_s;
  List.iter
    (fun (name, v) ->
      line "chfc_window_count{name=\"%s\"} %d\n" (label_escape name) v)
    w.Metrics.Window.w_counters;
  List.iter
    (fun (name, v) ->
      line "chfc_window_gauge{name=\"%s\"} %.6f\n" (label_escape name) v)
    w.Metrics.Window.w_gauges;
  List.iter
    (fun (name, (h : Metrics.histogram)) ->
      let n = label_escape name in
      line "chfc_window_quantile{name=\"%s\",q=\"0.5\"} %.6f\n" n h.h_p50;
      line "chfc_window_quantile{name=\"%s\",q=\"0.9\"} %.6f\n" n h.h_p90;
      line "chfc_window_quantile{name=\"%s\",q=\"0.99\"} %.6f\n" n h.h_p99;
      line "chfc_window_quantile_count{name=\"%s\"} %d\n" n h.h_count;
      line "chfc_window_quantile_sum{name=\"%s\"} %.6f\n" n h.h_sum)
    w.Metrics.Window.w_histograms;
  Buffer.contents buf
