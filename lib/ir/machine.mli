(** TRIPS machine parameters (Section 2 of the paper).

    These constants parameterize the structural-constraint checker, the
    register allocator and the simulators.  They follow the TRIPS
    prototype: 128-instruction blocks, 32 load/store identifiers, four
    register banks of 32 registers with 8 reads and 8 writes each per
    block, a 16-wide core and an 8-block in-flight window. *)

val max_instrs : int
(** Maximum number of regular instructions in a block (128). *)

val max_load_store : int
(** Maximum number of load/store identifiers that may issue per block (32). *)

val num_banks : int
(** Number of architectural register banks (4). *)

val num_arch_regs : int
(** Total architectural registers (128: 32 per bank). *)

val max_reads_per_bank : int
(** Maximum register reads per bank per block (8). *)

val max_writes_per_bank : int
(** Maximum register writes per bank per block (8). *)

val max_reads : int
(** Maximum register reads per block (32). *)

val max_writes : int
(** Maximum register writes per block (32). *)

val max_blocks_in_flight : int
(** Blocks concurrently in flight: one non-speculative plus seven
    speculative (8). *)

val issue_width : int
(** Peak instruction issue width of the prototype (16). *)

val max_targets : int
(** Explicit consumer targets one instruction can encode (2); values with
    more consumers need fanout movs. *)

val first_virtual_reg : int
(** First virtual register number.  Architectural registers occupy
    [0 .. num_arch_regs); virtual registers start here. *)

val is_arch : int -> bool
(** [is_arch r] holds when [r] is an architectural register number. *)

val bank_of : int -> int
(** Bank of architectural register [r] (registers are interleaved). *)
