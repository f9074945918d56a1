(** Execution profiles: block counts, edge counts and loop trip-count
    histograms.

    The paper's block-selection policies consume an edge-frequency
    profile, and its loop-peeling policy additionally consumes trip-count
    histograms (Section 5).  A {!collector} is fed block transitions
    online by the functional simulator; trip counts are derived during
    collection using natural-loop information from the profiled CFG.

    Trip count = number of back-edge traversals per loop entry, which for
    a test-at-top (while) loop equals the number of body iterations;
    entries that exit without iterating record zero. *)

open Trips_analysis

type t

type collector

val empty : unit -> t

val collector :
  ?loops:Loops.t -> ids:int array -> edges:(int * int) array -> unit -> collector
(** A collector over a dense renumbering of the profiled CFG: slot [s]
    stands for block [ids.(s)], and edge [e] for the transition from slot
    [fst edges.(e)] to slot [snd edges.(e)].  Each (source, target) pair
    must appear at most once.  Loop information enables trip-count
    histograms. *)

val record_entry : collector -> int -> unit
(** The run starts in the given slot. *)

val record_edge : collector -> int -> unit
(** The run follows the given edge into its target slot. *)

val finish : collector -> t
(** Close all in-flight trip-count episodes and build the profile; call
    at end of run. *)

val block_count : t -> int -> int
val edge_count : t -> src:int -> dst:int -> int

val edge_prob : t -> src:int -> dst:int -> float
(** Probability of the edge among all recorded departures from [src]; 0
    when [src] was never executed. *)

val trip_histogram : t -> int -> (int * int) list
(** [(trips, occurrences)] pairs for the loop headed by the block, sorted
    by trip count. *)

val average_trip_count : t -> int -> float option

val dominant_trip_count : t -> int -> int option
(** Most common trip count — the input to the peeling threshold policy. *)

val trip_count_at_least : t -> int -> int -> float
(** [trip_count_at_least p header n]: fraction of the loop's entries that
    ran at least [n] iterations. *)

val pp : Format.formatter -> t -> unit
