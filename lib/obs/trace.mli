(** Domain-safe structured event tracing.

    A trace is a flat stream of {!event}s recorded from anywhere in the
    stack (formation, the optimizer, the harness).  Recording is a no-op
    until {!start}; {!stop} returns the events sorted by [(cell, seq)],
    which makes the stream {e deterministic} across [--jobs] settings:
    every event is tagged with the engine slot ("cell") it was recorded
    under, and numbered sequentially within that cell, so however the
    domains interleave, sorting recovers the same stream a sequential run
    produces.

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

val start : ?spans:bool -> unit -> unit
(** Clear any previous trace and start recording.  [spans] additionally
    records {!span} events and stamps every point event with a wall-clock
    ["ts"] field (microseconds since [start]) for the Chrome-trace
    exporter.  Span mode is off by default because wall-clock timestamps
    are inherently nondeterministic and would break the [-j1]/[-j4] byte
    identity of the default stream. *)

val stop : unit -> event list
(** Stop recording; return the events sorted by [(cell, seq)] and clear
    the buffer. *)

val is_enabled : unit -> bool
(** Cheap guard for callers that want to skip building field lists.
    True when the global stream is recording {e or} a request-scoped
    {!Telemetry} collector is installed on the calling domain — either
    consumer wants the events. *)

val span :
  ?fields:(string * value) list ->
  ?on_close:(float -> unit) ->
  string ->
  (unit -> 'a) ->
  'a
(** [span name f] times [f] and, in span mode, records a ["span"] event
    with [name], ["ts"] and ["dur"] fields (microseconds).  [on_close]
    receives the duration in seconds — always, even when tracing is off
    or [f] raises — so callers can keep their own accounting on the same
    clock ({!Stage.time} builds on this).  When a {!Telemetry} collector
    is active on this domain the span also lands in the owning request's
    span tree. *)

val record : string -> (string * value) list -> unit
(** [record kind fields] appends one event tagged with the calling
    domain's current cell, and notifies the request-scoped collector if
    one is active.  No-op when both are off. *)

val with_cell : int -> (unit -> 'a) -> 'a
(** [with_cell i f] runs [f] with the calling domain's cell index set to
    [i] and its sequence counter reset to [0]; restores the previous
    tagging on exit.  The engine wraps every sweep slot in this. *)

val escape : Buffer.t -> string -> unit
(** Append [s] escaped as the body of a JSON string (no quotes): quote,
    backslash, newline, tab and CR by name, other control bytes as
    [\u00XX].  The one escaper behind every JSON writer (traces, block
    reports, fuzz reports). *)

val to_json : event -> string
(** One JSON object, no trailing newline.  Field order: [cell], [seq],
    [kind], then [fields] in emission order. *)

val to_chrome_json : event list -> string
(** The whole stream in Chrome trace-event format (JSON-array flavor):
    spans become complete events ([ph "X"]) with microsecond [ts]/[dur],
    everything else an instant ([ph "i"]) with its fields as [args];
    cells map to thread ids.  Open the result in [chrome://tracing] or
    Perfetto. *)
