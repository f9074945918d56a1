(* The typed client/scheduler/worker protocol of `chfc serve`.

   Modeled on ocaml-mpst's explicit-handler session style: the request
   type is a GADT indexed by its reply type, and each role implements a
   closed record of handlers — one field per message it can receive.
   In-process, a protocol violation (wrong reply shape, unhandled
   message) is a type error; across the wire, the decoded frame is
   checked against the request's type index and a mismatch raises a
   structured [Protocol_error] instead of a marshal crash.

   Wire layer: every frame is

     "CHFS" | version byte | Marshal payload

   The magic rejects non-protocol peers, the version byte rejects skewed
   binaries (client and daemon must be the same build for [Marshal] to be
   sound — that is exactly what the version check enforces), and the
   marshaled payload is a plain variant, so framing is self-delimiting
   via [Marshal]'s own header. *)

module Telemetry = Trips_obs.Telemetry

(* ---- message payloads -------------------------------------------------- *)

type compile_spec = {
  cs_workload : string;
  cs_ordering : string;
  cs_policy : string;
  cs_backend : bool;
  cs_verify : bool;
  cs_deadline_s : float option;
  cs_chaos_seed : int option;
}

type report_spec = {
  rs_workloads : string list;
  rs_ordering : string;
  rs_policy : string;
  rs_deadline_s : float option;
}

type sweep_spec = {
  ss_table : string;
  ss_workloads : string list;
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
  st_version : int;
  st_uptime_s : float;
  st_workers : int;
  st_queue_depth : int;
  st_pending : int;
  st_submitted : int;
  st_completed : int;
  st_shed : int;
  st_timed_out : int;
  st_crashed : int;
  st_stores : store_counters list;
  st_degraded : bool;
  st_window : Telemetry.Window.snapshot;
}

type served_error =
  | Bad_request of string
  | Compile_failed of string
  | Overloaded of { ov_pending : int; ov_depth : int }
  | Timed_out of { te_deadline_s : float; te_spent_s : float }
  | Draining

type output = (string, served_error) result

let pp_served_error fmt = function
  | Bad_request msg -> Fmt.pf fmt "bad request: %s" msg
  | Compile_failed msg -> Fmt.pf fmt "compile failed: %s" msg
  | Overloaded { ov_pending; ov_depth } ->
    Fmt.pf fmt "overloaded: %d jobs in flight (depth %d)" ov_pending ov_depth
  | Timed_out { te_deadline_s; te_spent_s } ->
    Fmt.pf fmt "timed out: %.3fs spent, deadline %.3fs" te_spent_s
      te_deadline_s
  | Draining -> Fmt.pf fmt "draining: the daemon is shutting down"

(* outcome class of a completed job, as recorded in the rolling window
   (the scheduler classifies timeouts and crashes before it ever builds
   an [output], so those classes are stamped scheduler-side) *)
let output_class : output -> string = function
  | Ok _ -> "ok"
  | Error (Bad_request _) -> "bad_request"
  | Error (Compile_failed _) -> "failed"
  | Error (Overloaded _) -> "shed"
  | Error (Timed_out _) -> "timed_out"
  | Error Draining -> "draining"

(* ---- typed requests ---------------------------------------------------- *)

type _ request =
  | Compile : compile_spec -> output request
  | Report : report_spec -> output request
  | Sweep_cell : sweep_spec -> output request
  | Stats : stats_payload request
  | Trace_of : string -> Telemetry.trace option request
  | Shutdown : unit request

type packed = Packed : 'a request -> packed

(* ---- role handler records ---------------------------------------------- *)

type job =
  | Job_compile of compile_spec
  | Job_report of report_spec
  | Job_sweep of sweep_spec

let job_deadline = function
  | Job_compile c -> c.cs_deadline_s
  | Job_report r -> r.rs_deadline_s
  | Job_sweep s -> s.ss_deadline_s

let job_kind = function
  | Job_compile _ -> "compile"
  | Job_report _ -> "report"
  | Job_sweep _ -> "sweep-cell"

type worker = {
  w_compile : compile_spec -> output;
  w_report : report_spec -> output;
  w_sweep_cell : sweep_spec -> output;
}

let run_worker (w : worker) = function
  | Job_compile c -> w.w_compile c
  | Job_report r -> w.w_report r
  | Job_sweep s -> w.w_sweep_cell s

type scheduler_handlers = {
  sh_job : Telemetry.ctx option -> job -> output;
  sh_stats : unit -> stats_payload;
  sh_trace : string -> Telemetry.trace option;
  sh_shutdown : unit -> unit;
}

let dispatch : type a. scheduler_handlers -> ctx:Telemetry.ctx option -> a request -> a =
 fun h ~ctx -> function
  | Compile c -> h.sh_job ctx (Job_compile c)
  | Report r -> h.sh_job ctx (Job_report r)
  | Sweep_cell s -> h.sh_job ctx (Job_sweep s)
  | Stats -> h.sh_stats ()
  | Trace_of id -> h.sh_trace id
  | Shutdown -> h.sh_shutdown ()

(* ---- versioned wire encoding ------------------------------------------- *)

(* v2: the request frame gained the telemetry context and the Trace_of
   request; the stats payload gained the window snapshot and degraded
   bit.  A v1 peer is rejected with the structured skew error below. *)
let version = 2
let magic = "CHFS"

exception Protocol_error of string

type wire_request =
  | W_compile of compile_spec
  | W_report of report_spec
  | W_sweep of sweep_spec
  | W_stats
  | W_trace of string
  | W_shutdown

type wire_reply =
  | R_output of output
  | R_stats of stats_payload
  | R_trace of Telemetry.trace option
  | R_unit
  | R_error of string  (* protocol-level failure reported by the peer *)

let wire_of_request : type a. a request -> wire_request = function
  | Compile c -> W_compile c
  | Report r -> W_report r
  | Sweep_cell s -> W_sweep s
  | Stats -> W_stats
  | Trace_of id -> W_trace id
  | Shutdown -> W_shutdown

let request_of_wire = function
  | W_compile c -> Packed (Compile c)
  | W_report r -> Packed (Report r)
  | W_sweep s -> Packed (Sweep_cell s)
  | W_stats -> Packed Stats
  | W_trace id -> Packed (Trace_of id)
  | W_shutdown -> Packed Shutdown

let reply_to_wire : type a. a request -> a -> wire_reply =
 fun req reply ->
  match req with
  | Compile _ -> R_output reply
  | Report _ -> R_output reply
  | Sweep_cell _ -> R_output reply
  | Stats -> R_stats reply
  | Trace_of _ -> R_trace reply
  | Shutdown -> R_unit

(* The request's type index names the only frame shape a conforming peer
   may answer with; anything else is a role violation. *)
let reply_of_wire : type a. a request -> wire_reply -> a =
 fun req reply ->
  let violation expected =
    raise
      (Protocol_error
         (Fmt.str "reply shape violates the session type: expected %s"
            expected))
  in
  match (req, reply) with
  | _, R_error msg -> raise (Protocol_error msg)
  | Compile _, R_output o -> o
  | Report _, R_output o -> o
  | Sweep_cell _, R_output o -> o
  | Stats, R_stats s -> s
  | Trace_of _, R_trace t -> t
  | Shutdown, R_unit -> ()
  | (Compile _ | Report _ | Sweep_cell _), _ -> violation "output"
  | Stats, _ -> violation "stats"
  | Trace_of _, _ -> violation "trace"
  | Shutdown, _ -> violation "unit"

let error_reply msg = R_error msg

(* ---- framing ----------------------------------------------------------- *)

let write_frame oc v =
  output_string oc magic;
  output_byte oc version;
  Marshal.to_channel oc v [];
  flush oc

let read_frame ic =
  let header = really_input_string ic (String.length magic + 1) in
  let tag = String.sub header 0 (String.length magic) in
  if tag <> magic then
    raise (Protocol_error (Fmt.str "bad magic %S (not a chfc serve peer)" tag));
  let v = Char.code header.[String.length magic] in
  if v <> version then
    raise
      (Protocol_error
         (Fmt.str "protocol version mismatch: peer speaks v%d, this is v%d" v
            version));
  Marshal.from_channel ic

(* A request frame carries the minted telemetry context beside the
   message — [None] for control requests. *)
let write_request oc ?ctx (r : wire_request) =
  write_frame oc ((ctx : Telemetry.ctx option), r)

let read_request ic : Telemetry.ctx option * wire_request = read_frame ic
let write_reply oc (r : wire_reply) = write_frame oc r
let read_reply ic : wire_reply = read_frame ic
