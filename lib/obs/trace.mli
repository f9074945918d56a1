(** Domain-safe structured event tracing, and the one span recorder.

    A trace is a flat stream of {!event}s recorded from anywhere in the
    stack (formation, the optimizer, the harness).  {!span} and {!record}
    feed the {!Telemetry} span recorder installed on the calling domain:
    a served request's, or, between {!start} and {!stop}, one per engine
    slot ("cell").  {!stop} returns the cells' point events, numbered
    within their cell and sorted by [(cell, seq)], which makes the stream
    {e deterministic} across [--jobs] settings: however the domains
    interleave, sorting recovers the same stream a sequential run
    produces.  Spans and timestamps stay in the span trees.

    Events carry their fields as an ordered association list; JSON
    rendering preserves that order, so two identical events always render
    to identical bytes (stable field order). *)

type value = Telemetry.value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
      (** Shared with {!Telemetry} so one field list feeds both the
          global stream and a per-request collector. *)

type event = {
  cell : int;  (** engine slot index; [-1] outside a parallel sweep *)
  seq : int;  (** emission index within the cell *)
  kind : string;  (** e.g. ["merge-attempt"], ["opt-pass"] *)
  fields : (string * value) list;  (** rendered in this order *)
}

val start : unit -> unit
(** Clear any previous trace and start recording a span tree per cell,
    cell [-1] on the calling domain, which must also call {!stop}. *)

val stop : unit -> event list
(** Stop recording; return the point events sorted by [(cell, seq)]
    ([[]] when not recording). *)

val span_trees : unit -> (int * Telemetry.trace) list
(** The last recording's span trees, one per cell run, sorted by cell;
    complete after {!stop}.  Each has a root span ["cell"]. *)

val is_enabled : unit -> bool
(** Cheap guard for callers that want to skip building field lists:
    whether a span recorder is installed on the calling domain. *)

val span :
  ?fields:(string * value) list ->
  ?on_close:(float -> unit) ->
  string ->
  (unit -> 'a) ->
  'a
(** [span name f] times [f] on {!Clock.now} and records it, with
    [fields], as a child of the innermost open span of the recorder
    installed on this domain, if any.  [on_close] receives the duration
    in seconds — always, even when nothing records or [f] raises — so
    callers can keep their own accounting on the same clock
    ({!Stage.time} builds on this). *)

val record : string -> (string * value) list -> unit
(** [record kind fields] attaches a point event (a note) to the
    innermost open span of the recorder installed on this domain, if
    any. *)

val with_cell : int -> (unit -> 'a) -> 'a
(** [with_cell i f] runs [f], while recording, with a span recorder of
    its own for cell [i] installed on the calling domain; restored on
    exit.  The engine wraps every sweep slot in this. *)

val escape : Buffer.t -> string -> unit
(** Append [s] escaped as the body of a JSON string (no quotes): quote,
    backslash, newline, tab and CR by name, other control bytes as
    [\u00XX].  The one escaper behind every JSON writer (traces, block
    reports, fuzz reports). *)

val to_json : event -> string
(** One JSON object, no trailing newline.  Field order: [cell], [seq],
    [kind], then [fields] in emission order. *)

val to_chrome_json : (int * Telemetry.trace) list -> string
(** Span trees in Chrome trace-event format (JSON-array flavor), each
    paired with its cell: spans become complete events ([ph "X"]) and
    notes instants ([ph "i"]), with microsecond [ts]/[dur] and their
    fields as [args]; cell [c] is thread id [c + 1].  Open the result in
    [chrome://tracing] or Perfetto. *)
