(* Next-block predictor.

   TRIPS fetches speculatively along a predicted block sequence; a wrong
   prediction flushes the (up to seven) speculative blocks.  We model a
   two-level predictor indexed by the current block and a short history of
   recent successor choices, with per-entry hysteresis: the stored target
   is replaced only after two consecutive misses, which keeps loop-exit
   behaviour realistic (one misprediction per loop exit, not a flapping
   predictor).  Deterministic by construction. *)

type entry = { mutable target : int; mutable confidence : int }

(* probed once per retired block: an int-keyed table, so a probe hashes
   and compares without the polymorphic primitives and a hit allocates
   nothing *)
module Tbl = Hashtbl.Make (Int)

type t = {
  table : entry Tbl.t;
  mutable history : int;
  history_bits : int;
  mutable lookups : int;
  mutable hits : int;
}

let create ?(history_bits = 6) () =
  { table = Tbl.create 256; history = 0; history_bits; lookups = 0; hits = 0 }

let index t block =
  let mask = (1 lsl t.history_bits) - 1 in
  (block * 37) lxor (t.history land mask)

(** Predict the successor of [block]; [None] when no information exists
    yet (treated as a misprediction by the caller). *)
let predict t ~block =
  match Tbl.find_opt t.table (index t block) with
  | Some e -> Some e.target
  | None -> None

(** Record the actual successor; returns [true] when the prediction was
    correct. *)
let update t ~block ~actual =
  t.lookups <- t.lookups + 1;
  let idx = index t block in
  let correct =
    match Tbl.find t.table idx with
    | e when e.target = actual ->
      e.confidence <- Int.min 3 (e.confidence + 1);
      true
    | e ->
      if e.confidence > 0 then e.confidence <- e.confidence - 1
      else begin
        e.target <- actual;
        e.confidence <- 1
      end;
      false
    | exception Not_found ->
      Tbl.replace t.table idx { target = actual; confidence = 1 };
      false
  in
  if correct then t.hits <- t.hits + 1;
  t.history <- (t.history lsl 2) lxor (actual land 0xff);
  correct

let counters t = (t.lookups, t.hits)

let accuracy t =
  if t.lookups = 0 then 1.0 else float_of_int t.hits /. float_of_int t.lookups
