(** Process-wide metrics: named counters, gauges and histograms.

    The one aggregation module of [trips_obs], with two views over the
    same data:

    - the {e lifetime registry} ({!incr}, {!observe}, {!snapshot}),
      reset per command — what [--metrics], [chfc report] and the
      benchmark read;
    - {e rolling windows} ({!Window}) of fixed-width time buckets — the
      daemon's "what is p99 latency right now" ({!window}, carried in
      its [Stats] reply).

    Names are registered implicitly on first use by dotted name
    (["formation.attempts"], ["stage.time.lower"], ...).  All operations
    are domain-safe; increments from parallel sweep domains aggregate
    into the same tables.  Gauges are stored once, last value wins, and
    both views report them.

    Both views summarize histogram samples with one function, so the
    same samples give structurally equal {!histogram}s in either view,
    whatever order they arrived in.

    Unlike {!Trace}, metrics are observational aggregates — they are not
    part of any determinism contract (timings differ run to run). *)

type histogram = {
  h_count : int;
  h_sum : float;  (** summed over the sorted samples *)
  h_min : float;
  h_max : float;
  h_p50 : float;  (** exact nearest-rank quantiles over all samples; *)
  h_p90 : float;  (** like the sum, a property of the sample multiset, *)
  h_p99 : float;  (** so identical however the observing domains interleaved *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  histograms : (string * histogram) list;  (** sorted by name *)
}

(** {1 The lifetime registry} *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1; may be negative) to the named counter, and to
    the request counter table installed on the calling domain, if any
    (see {!with_request_counters}). *)

val set_gauge : string -> float -> unit
(** Set a gauge to an absolute level (queue depth, pool utilization —
    values that go up {e and} down, where a counter's monotone sum would
    be meaningless). *)

val observe : string -> float -> unit
(** Record one sample into the named histogram. *)

val reset : unit -> unit
(** Drop every counter, gauge and histogram of the registry. *)

val snapshot : unit -> snapshot

val counter_value : snapshot -> string -> int
(** 0 when the counter never fired. *)

val gauge_value : snapshot -> string -> float
(** 0.0 when the gauge was never set. *)

val with_request_counters : (string, int) Hashtbl.t -> (unit -> 'a) -> 'a
(** [with_request_counters tbl f] runs [f] with [tbl] installed on the
    calling domain, so every {!incr} there also counts into [tbl];
    restores the previous table on exit, even on exception.  The
    request-scoped {!Telemetry} collector installs its table this way. *)

val sorted_bindings : (string, 'a) Hashtbl.t -> (string * 'a) list
(** A table's bindings, sorted by name — the order of every list above. *)

(** {1 Rolling windows} *)

module Window : sig
  type t
  (** A mutex-guarded ring of fixed-width time buckets holding counters
      and raw histogram samples.  Ops take an optional [?now] (seconds,
      as from [Unix.gettimeofday]) so tests can drive the clock
      deterministically. *)

  type snapshot = {
    w_span_s : float;  (** window length covered: buckets × bucket_s *)
    w_counters : (string * int) list;  (** sorted by name *)
    w_gauges : (string * float) list;
        (** the registry's gauges, sorted by name: a gauge is a level,
            not a flow, so it is not bucketed — expiring it would invent
            a zero *)
    w_histograms : (string * histogram) list;  (** sorted by name *)
  }

  val create : ?buckets:int -> ?bucket_s:float -> unit -> t
  (** Default 30 buckets × 1s: a 30-second window. *)

  val incr : t -> ?now:float -> ?by:int -> string -> unit

  val observe : t -> ?now:float -> string -> float -> unit
  (** A write older than the bucket now holding its slot is dropped. *)

  val snapshot : ?now:float -> t -> snapshot
  (** Aggregate over the buckets still inside the window at [now]:
      summed counters, and each histogram summarized over the union of
      its live samples.  An empty window yields empty counter and
      histogram lists (no zero-filled quantiles). *)

  val reset : t -> unit
  (** Empty every bucket (gauges belong to the registry). *)

  val counter_value : snapshot -> string -> int
  (** 0 when absent. *)

  val histogram : snapshot -> string -> histogram option
end

val window : Window.t
(** The daemon's window (30 × 1s).  The scheduler, the stores and the
    request collector write to it; [Stats] replies carry its snapshot. *)

(** {1 Rendering} *)

val render : Format.formatter -> snapshot -> unit
(** Human-readable table: counters, then gauges, then histograms with
    count/mean/min/max/p50/p90/p99. *)

val to_json : snapshot -> string
(** [{"counters":{...},"gauges":{...},"histograms":{name:{"count":..,
    "sum":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..}}}] with names
    sorted and field order fixed — stable for diffing. *)
