(** The 24 microbenchmarks of the paper's Tables 1 and 2.

    The paper derives its microbenchmarks by extracting loops and
    procedures from SPEC2000, GMTI radar kernels, a 10x10 matrix
    multiply, sieve and Dhrystone.  Each is reconstructed here as a
    mini-language kernel with the control-flow character the paper
    attributes to it — trip counts, branch bias, merge-point structure
    and dependence shape are what hyperblock formation reacts to.  Data
    is deterministic. *)

val all : Workload.t list
(** All 24 kernels, in the paper's Table 1 order. *)

val store_dense : Workload.t list
(** Store-dense stress kernels whose unrolled merge estimates hit the
    32-slot load/store budget — the regime the constraint pre-filter
    fires in.  Kept out of {!all} so the 24-kernel tables stay exactly
    the paper's set; the serve-miss benchmark, [make trace-check] and
    the pre-filter regression test add them. *)

val by_name : string -> Workload.t option
(** Searches {!all} and {!store_dense}. *)
