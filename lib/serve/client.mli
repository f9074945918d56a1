(** The client role: typed RPCs against a running [chfc serve] daemon.

    A connection is a Unix-domain socket speaking {!Protocol} frames;
    {!rpc} is the whole session type from the client's side — send one
    typed request, receive the reply the request's type index promises.
    Several RPCs may share one connection; the daemon answers them in
    order. *)

type conn

val connect : socket:string -> conn
(** @raise Unix.Unix_error when the daemon is not listening. *)

val rpc : conn -> 'a Protocol.request -> 'a
(** @raise Protocol.Protocol_error on version skew or a reply that
    violates the session type; [End_of_file] if the daemon vanished. *)

val rpc_traced : conn -> 'a Protocol.request -> string option * 'a
(** Like {!rpc}, also returning the request id minted into the frame's
    telemetry context — the handle for [chfc trace <id>].  [None] for
    control requests. *)

val close : conn -> unit

val with_conn : socket:string -> (conn -> 'a) -> 'a
(** Connect, run, close (also on exception). *)
