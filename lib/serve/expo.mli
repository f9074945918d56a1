(** Exposition surfaces over the daemon's {!Protocol.stats_payload}.

    Shared by [chfc stats --prom], the live [--watch] refresh and the
    [make telemetry-check] gate, so what the gate byte-compares is
    exactly what an operator scrapes. *)

val render_prom : Protocol.stats_payload -> string
(** Prometheus-style text: lifetime scalars in fixed order, per-store
    counters, then the rolling window (counters, gauges, p50/p90/p99
    series), each section sorted by name.  Deterministic modulo float
    values: integers are structural, every float renders as ["%.6f"] —
    the masking rule the golden test relies on. *)
