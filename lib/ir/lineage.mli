(** Provenance records for instructions and hyperblocks.

    A lineage record names the basic block an instruction was lowered
    into ([origin], a pre-formation block id) and the transform that
    placed it in its current block.  Records ride inside {!Instr.t}, so
    they survive duplication ({!Cfg.refresh_instr_ids}), guard rewriting
    in [Combine], the optimizer, and formation's trial rollback.

    Tagging is always on and inert: no pass reads lineage to make a
    decision and the printers never render it. *)

type placement =
  | Original  (** survives from the lowered basic block *)
  | If_conv of int  (** simple merge at step [n] *)
  | Tail_dup of int  (** tail-duplicated copy merged at step [n] *)
  | Unroll of int * int  (** unrolling: step [n], appended iteration [k] *)
  | Peel of int * int  (** peeling: step [n], peeled iteration [k] *)
  | Helper of string  (** machinery: ["predication"], ["fanout"] *)

type t = { origin : int; placed : placement }

val unknown : t
(** [origin = -1], [Original] — the default before stamping. *)

val class_name : t -> string
(** Attribution class: ["original"], ["if_conv"], ["tail_dup"],
    ["unroll"], ["peel"], ["helper"], or ["unknown"] (never stamped).
    Every instruction falls in exactly one class. *)

val describe : t -> string

(** {1 Hyperblock-level decisions} *)

type decision = {
  d_step : int;  (** 1-based merge step within the hyperblock *)
  d_kind : string;  (** ["simple"], ["tail_dup"], ["unroll"], ["peel"], ["split"] *)
  d_src : int;  (** block id merged in (or split off) *)
}

val decision : step:int -> kind:string -> src:int -> decision
val describe_decision : decision -> string
