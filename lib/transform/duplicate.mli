(** Block duplication helpers shared by tail duplication, head
    duplication and the discrete-phase CFG-level loop transformations.

    Copies keep their exits verbatim, so a self-loop exit in the original
    points at the {e original} from the copy — exactly the rewiring head
    duplication needs (paper Figures 3 and 4). *)

open Trips_ir

val copy_block : Cfg.t -> Block.t -> Block.t
(** Copy under a fresh block id with fresh instruction ids, installed in
    the CFG. *)

val redirect_exits : Block.t -> from_:int -> to_:int -> Block.t
(** Redirect every exit targeting [from_] to [to_] (not installed). *)

val redirect_all : Cfg.t -> int list -> from_:int -> to_:int -> unit
(** Redirect and install for every block in the list. *)
