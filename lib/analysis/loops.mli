(** Natural-loop discovery.

    A back edge is an edge [t -> h] whose target dominates its source;
    the natural loop of [h] is the union, over its back edges, of all
    blocks that reach a latch without passing through [h].  Irreducible
    cycles are not reported as loops. *)

open Trips_ir

type loop = {
  header : int;
  body : IntSet.t;  (** includes the header *)
  latches : IntSet.t;  (** sources of back edges into the header *)
  exits : (int * int) list;  (** edges (from inside the body, to outside) *)
  depth : int;  (** nesting depth, outermost = 1 *)
}

type t

val compute : Cfg.t -> t
val loop_headed_by : t -> int -> loop option
val is_loop_header : t -> int -> bool

val innermost : t -> int -> loop option
(** Innermost loop containing a block, if any. *)

val is_back_edge : t -> src:int -> dst:int -> bool
(** Does [src -> dst] close a natural loop ([dst] a header, [src] one of
    its latches)? *)

val all_loops : t -> loop list
