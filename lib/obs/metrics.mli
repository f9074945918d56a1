(** Process-wide named-counter / histogram metrics registry.

    Counters and histograms are registered implicitly on first use by
    dotted name (["formation.attempts"], ["stage.time.lower"], ...).
    All operations are domain-safe; increments from parallel sweep
    domains aggregate into the same registry.

    Unlike {!Trace}, metrics are observational aggregates — they are not
    part of any determinism contract (timings differ run to run). *)

type histogram = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;  (** exact nearest-rank quantiles over all samples; *)
  h_p90 : float;  (** a property of the sample multiset, so identical *)
  h_p99 : float;  (** however the observing domains interleaved *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  histograms : (string * histogram) list;  (** sorted by name *)
}

val incr : ?by:int -> string -> unit
(** Add [by] (default 1; may be negative) to the named counter.  Also
    notifies the request-scoped {!Telemetry} collector when one is
    active on the calling domain. *)

val set_gauge : string -> float -> unit
(** Set a gauge to an absolute level (queue depth, pool utilization —
    values that go up {e and} down, where a counter's monotone sum would
    be meaningless). *)

val add_gauge : string -> float -> unit
(** Adjust a gauge by a delta (starts from 0). *)

val observe : string -> float -> unit
(** Record one sample into the named histogram. *)

val reset : unit -> unit
(** Drop every counter, gauge and histogram. *)

val snapshot : unit -> snapshot

val counter_value : snapshot -> string -> int
(** 0 when the counter never fired. *)

val gauge_value : snapshot -> string -> float
(** 0.0 when the gauge was never set. *)

val render : Format.formatter -> snapshot -> unit
(** Human-readable table: counters, then gauges, then histograms with
    count/mean/min/max/p50/p90/p99. *)

val to_json : snapshot -> string
(** [{"counters":{...},"gauges":{...},"histograms":{name:{"count":..,
    "sum":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..}}}] with names
    sorted and field order fixed — stable for diffing. *)
