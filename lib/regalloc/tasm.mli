(** TRIPS assembly emission.

    Renders post-allocation code in a TASL-like textual form that makes
    the EDGE execution model explicit: each block opens with its register
    read instructions, closes with its write instructions and predicated
    branches, and every producer names its consumers in target form — the
    block's dataflow graph is literally visible.  A faithful
    pretty-printer for auditing block structure, not a binary encoder. *)

open Trips_ir

val emit : Format.formatter -> Cfg.t -> unit
val to_string : Cfg.t -> string
