(** Span trees: the one span recorder, behind every {!Trace.span}.

    A {e recorder} holds one span tree and the point events ({e notes})
    recorded under it; {!Trace.span} and {!Trace.record} feed the one
    installed on the calling domain.  The serve scheduler opens one per
    job ({!start}, {!run}, {!finish}; its {!ctx} is minted per client
    RPC and carried in the protocol frame), keeps finished ones in a
    bounded ring and records each request into the daemon's rolling
    window {!Metrics.window}.  A traced CLI run opens one per engine
    cell ({!open_cell}).  Both yield a {!trace}, which {!check}
    validates and {!Trace.to_chrome_json} exports.  Every timestamp
    reads {!Clock.now}.

    Determinism: this module never writes to the Trace stream or the
    Metrics registry, so every one-shot output is byte-identical with or
    without a recorder, and a served request's outputs match the
    one-shot pipeline's.  A recorder is domain-local and its domain runs
    the request (or cell) start-to-finish, so its event order is the
    sequential order regardless of [--jobs]. *)

type value = Int of int | Float of float | Str of string | Bool of bool
(** Field values; {!Trace.value} is an alias of this type, so the two
    are interchangeable at every instrumentation site. *)

(** {1 Trace context} *)

type ctx = {
  tc_id : string;  (** ["req-<hex>"], unique per minted request *)
  tc_parent : int;  (** parent span id on the client side (0 = root) *)
  tc_deadline_s : float option;
  tc_chaos_seed : int option;
}

val mint : ?deadline_s:float -> ?chaos_seed:int -> unit -> ctx option
(** Mint a fresh request context; always [Some], typed as an option so
    callers pass it straight to [Protocol.write_request ?ctx].  Called by
    [Client.rpc] for job-carrying requests. *)

(** {1 The span recorder}

    A request's lifecycle is owned by the serve scheduler: {!start}
    when the job is dequeued (queue wait now known), {!run} around the
    worker thunk, {!finish} once the outcome is classified.  The
    [active option] threading keeps every call a no-op for a request
    without a context (a control request). *)

type span = {
  sp_id : int;  (** creation order; children have larger ids *)
  sp_parent : int;  (** [-1] only for the root span *)
  sp_name : string;
  sp_fields : (string * value) list;
  sp_start_us : float;  (** µs since request admission (or trace start) *)
  mutable sp_dur_us : float;  (** negative while still open *)
}

type note = {
  nt_span : int;  (** enclosing span id *)
  nt_ts_us : float;
  nt_kind : string;  (** e.g. ["opt-pass"], ["merge-attempt"] *)
  nt_fields : (string * value) list;
}

type trace = {
  tr_id : string;
  tr_kind : string;  (** ["compile"] | ["report"] | ["sweep-cell"] | ["cell"] *)
  tr_queue_wait_s : float;
  mutable tr_outcome : string;  (** ["ok"], ["timed_out"], ["crashed"], ... *)
  mutable tr_total_s : float;  (** end of the timeline: queue wait + execution *)
  mutable tr_spans : span list;  (** creation order; [0] is the root *)
  mutable tr_notes : note list;  (** emission order *)
  mutable tr_counters : (string * int) list;  (** sorted by name *)
}

type active

val start : ctx option -> kind:string -> queue_wait_s:float -> active option
(** Open a recorder for a dequeued request; synthesizes the root
    ["request"] span and its ["queue-wait"] / ["execute"] children.
    [None] in, [None] out. *)

val run : active option -> (unit -> 'a) -> 'a
(** Run the worker thunk with the recorder installed domain-locally,
    its counter table included ({!Metrics.with_request_counters});
    restored on exit, even on exception. *)

val finish : active option -> outcome:string -> unit
(** {!close} the recorder, push the finished trace into the ring, and
    record the request into {!Metrics.window} ([serve.req.<outcome>]
    counter; [serve.latency_s], [serve.queue_wait_s], [serve.execute_s]
    and one [span.<name>_s] per instrumentation span). *)

val open_cell : int -> t0:float -> active
(** A recorder for a CLI engine cell, on a timeline that starts at [t0]
    (a {!Clock.now} reading); its root span ["cell"] opens now. *)

val close : active -> outcome:string -> trace
(** Close the frame spans, stamp the outcome, and return the finished
    trace. *)

val current : unit -> active option
(** The recorder installed on the calling domain. *)

val swap : active option -> active option
(** Install a recorder on the calling domain (or none); return the one
    it replaces. *)

val install : active -> (unit -> 'a) -> 'a
(** Run a thunk with the recorder installed on the calling domain;
    restored on exit, even on exception. *)

val span_enter : active -> string -> (string * value) list -> t0:float -> unit
(** Called by [Trace.span] on entry, [t0] its {!Clock.now} reading;
    opens a child of the innermost open span. *)

val span_exit : active -> dur_s:float -> unit
(** Called by [Trace.span] on exit (normal or exceptional); closes the
    innermost instrumentation span.  Never closes a synthesized frame
    span. *)

val note : active -> string -> (string * value) list -> unit
(** Called by [Trace.record]; attaches a point event to the innermost
    open span. *)

(** {1 Finished-trace ring} *)

val set_ring_capacity : int -> unit
(** Default 64; oldest traces are evicted first. *)

val find : string -> trace option
(** Look up a finished request by id ([None] once evicted). *)

val reset : unit -> unit
(** Clear the ring and {!Metrics.window} (tests). *)

(** {1 Rendering and validation} *)

val render : trace -> string
(** Human-readable span tree: one line per span (duration, offset,
    fields), notes nested under their spans, then the request's counter
    deltas. *)

val check : trace -> (unit, string) result
(** Well-formedness: every span closed, parented (parents precede
    children), and within its parent's and the request's bounds (modulo
    µs clock jitter); every note attached to a known span. *)
