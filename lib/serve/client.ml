(* The client role: one Unix-domain socket connection, typed RPCs.

   [rpc] is the session from the client's side: frame the typed request,
   read exactly one reply frame, and decode it against the request's
   type index — a daemon answering with the wrong shape is a structured
   Protocol_error, not a segfault-by-Marshal. *)

type conn = { ic : in_channel; oc : out_channel }

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

module Telemetry = Trips_obs.Telemetry

(* Job-carrying requests get a fresh context minted here — the id the
   user can later feed to [chfc trace] — seeded with the spec's deadline
   and chaos seed so the daemon-side trace is self-describing.  Control
   requests travel bare. *)
let mint_ctx : type a. a Protocol.request -> Telemetry.ctx option = function
  | Protocol.Compile c ->
    Telemetry.mint ?deadline_s:c.cs_deadline_s ?chaos_seed:c.cs_chaos_seed ()
  | Protocol.Report r -> Telemetry.mint ?deadline_s:r.rs_deadline_s ()
  | Protocol.Sweep_cell s -> Telemetry.mint ?deadline_s:s.ss_deadline_s ()
  | Protocol.Stats | Protocol.Trace_of _ | Protocol.Shutdown -> None

let rpc_traced conn (type a) (req : a Protocol.request) :
    string option * a =
  let ctx = mint_ctx req in
  Protocol.write_request conn.oc ?ctx (Protocol.wire_of_request req);
  let reply = Protocol.reply_of_wire req (Protocol.read_reply conn.ic) in
  (Option.map (fun c -> c.Telemetry.tc_id) ctx, reply)

let rpc conn req = snd (rpc_traced conn req)

let close conn =
  (* both channels share the socket descriptor: closing the out channel
     flushes it and closes the descriptor, once.  The in channel is left
     to the GC: closing it too would close the same number a second
     time, and by then another thread may have been given that number. *)
  try close_out conn.oc with Sys_error _ | Unix.Unix_error _ -> ()

let with_conn ~socket f =
  let conn = connect ~socket in
  Fun.protect ~finally:(fun () -> close conn) (fun () -> f conn)
