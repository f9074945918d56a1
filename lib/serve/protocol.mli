(** The typed client ↔ scheduler ↔ worker protocol of [chfc serve].

    The protocol follows the multiparty-session style of ocaml-mpst's
    explicit-handler encoding: each role implements a {e closed} record
    of handlers, one per message it can receive, and the request type is
    a GADT whose index is the reply type — so a client that sends
    {!Stats} gets a {!stats_payload} back {e by type}, a scheduler that
    forgot to handle [Shutdown] does not compile, and a reply of the
    wrong shape is a type error in-process (and a structured
    {!Protocol_error} across the wire, where the index is checked against
    the decoded frame).

    Three roles:

    - {b client} ([chfc submit] / [chfc shutdown] / the load harness)
      speaks {!request}s through [Client.rpc].
    - {b scheduler} (the daemon's connection threads) implements
      {!scheduler_handlers}: job messages are queued onto the worker
      pool, control messages ([Stats], [Shutdown]) are answered
      directly.
    - {b worker} (the resident domain pool) implements {!worker}: one
      handler per job kind, pure compile work, no protocol state.

    Wire encoding is versioned: every frame starts with a magic tag and
    a version byte, so an old client talking to a new daemon fails with
    a structured error, not a marshal crash.

    Since v2 every request frame also carries the client-minted
    {!Trips_obs.Telemetry.ctx} ([None] for control requests), which the
    scheduler installs around the worker thunk so the whole pipeline's
    instrumentation tags the owning request. *)

module Telemetry = Trips_obs.Telemetry

(** {1 Message payloads} *)

type compile_spec = {
  cs_workload : string;  (** workload name, resolved by the worker *)
  cs_ordering : string;  (** "bb" | "upio" | "iupo" | "iup-o" | "iupo-merged" *)
  cs_policy : string;  (** "bf" | "df" | "vliw" *)
  cs_backend : bool;
  cs_verify : bool;  (** per-phase differential verification *)
  cs_deadline_s : float option;  (** per-request watchdog override *)
  cs_chaos_seed : int option;
      (** fault-inject the compiled CFG before checksum verification — a
          deliberately poisoned request for isolation testing; it must
          fail structurally without disturbing sibling requests *)
}

type report_spec = {
  rs_workloads : string list;  (** [[]] = the default microbenchmark set *)
  rs_ordering : string;
  rs_policy : string;
  rs_deadline_s : float option;
}

type sweep_spec = {
  ss_table : string;  (** "table1" | "table2" | "table3" | "figure7" *)
  ss_workloads : string list;  (** [[]] = the table's default set *)
  ss_deadline_s : float option;
}

type store_counters = {
  sc_name : string;
  sc_hits : int;
  sc_misses : int;
  sc_evictions : int;
  sc_entries : int;
  sc_capacity : int;
}

type stats_payload = {
  st_version : int;  (** the daemon's {!version} *)
  st_uptime_s : float;
  st_workers : int;
  st_queue_depth : int;
  st_pending : int;  (** jobs admitted and not yet completed *)
  st_submitted : int;
  st_completed : int;
  st_shed : int;  (** rejected with {!Overloaded} *)
  st_timed_out : int;
  st_crashed : int;
  st_stores : store_counters list;  (** prefix store, output store, ... *)
  st_degraded : bool;  (** the SLO sentinel's verdict on the window *)
  st_window : Telemetry.Window.snapshot;
      (** rolling-window counters / gauges / quantiles *)
}

type served_error =
  | Bad_request of string  (** unknown workload / ordering / policy / table *)
  | Compile_failed of string  (** the pipeline failed; rendered reason *)
  | Overloaded of { ov_pending : int; ov_depth : int }
      (** load-shed: the scheduler's in-flight bound was reached *)
  | Timed_out of { te_deadline_s : float; te_spent_s : float }
      (** the per-job watchdog deadline expired *)
  | Draining  (** the daemon is shutting down *)

type output = (string, served_error) result
(** Every job reply: the exact text the one-shot CLI would print, or a
    structured failure. *)

val pp_served_error : Format.formatter -> served_error -> unit

val output_class : output -> string
(** The rolling-window outcome class of a completed job: ["ok"],
    ["bad_request"], ["failed"], ["shed"], ["timed_out"] or
    ["draining"]. *)

(** {1 Typed requests (the session types)} *)

type _ request =
  | Compile : compile_spec -> output request
  | Report : report_spec -> output request
  | Sweep_cell : sweep_spec -> output request
  | Stats : stats_payload request
  | Trace_of : string -> Telemetry.trace option request
      (** fetch one finished request's span tree from the daemon's
          bounded ring ([None] = unknown id or already evicted) *)
  | Shutdown : unit request

type packed = Packed : 'a request -> packed

(** {1 Role handler records} *)

type job =
  | Job_compile of compile_spec
  | Job_report of report_spec
  | Job_sweep of sweep_spec
      (** the queueable subset of the protocol — what the scheduler may
          hand to the worker pool *)

val job_deadline : job -> float option
(** The per-request deadline override carried by the spec, if any. *)

val job_kind : job -> string
(** "compile" | "report" | "sweep-cell" — for metrics and logs. *)

type worker = {
  w_compile : compile_spec -> output;
  w_report : report_spec -> output;
  w_sweep_cell : sweep_spec -> output;
}
(** The worker role: one handler per job kind.  Closed — adding a job
    constructor breaks every worker implementation at compile time. *)

val run_worker : worker -> job -> output

type scheduler_handlers = {
  sh_job : Telemetry.ctx option -> job -> output;
      (** queue onto the pool and await; the context (if any) rides
          along so the executing worker can attribute its events *)
  sh_stats : unit -> stats_payload;
  sh_trace : string -> Telemetry.trace option;
  sh_shutdown : unit -> unit;
}
(** The scheduler role: jobs are delegated, control is answered
    directly. *)

val dispatch : scheduler_handlers -> ctx:Telemetry.ctx option -> 'a request -> 'a
(** Type-indexed dispatch: the reply type follows the request
    constructor, so a handler returning the wrong shape is a type
    error. *)

(** {1 Versioned wire encoding} *)

val version : int

exception Protocol_error of string
(** Bad magic, version mismatch, or a reply whose shape contradicts the
    request's type index. *)

type wire_request
type wire_reply

val wire_of_request : 'a request -> wire_request
val request_of_wire : wire_request -> packed

val reply_to_wire : 'a request -> 'a -> wire_reply

val reply_of_wire : 'a request -> wire_reply -> 'a
(** @raise Protocol_error when the frame does not carry the reply shape
    the request's type index promises (a role violation by the peer). *)

val error_reply : string -> wire_reply
(** A server-side protocol-level error frame (decoded by
    {!reply_of_wire} into {!Protocol_error}). *)

val write_request : out_channel -> ?ctx:Telemetry.ctx -> wire_request -> unit
val read_request : in_channel -> Telemetry.ctx option * wire_request
val write_reply : out_channel -> wire_reply -> unit
val read_reply : in_channel -> wire_reply
(** Framed I/O: magic + version byte + marshaled payload; writers flush.
    A request frame carries the minted telemetry context beside the
    message.  Readers raise {!Protocol_error} on bad magic or version
    skew and [End_of_file] on a closed peer. *)
