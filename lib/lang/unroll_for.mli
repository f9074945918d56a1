(** Front-end for-loop unrolling.

    Scale unrolls for loops in the front end, before lowering and
    hyperblock formation (paper Figure 6, Section 7.1); this pass is the
    analogue.  A candidate loop's body is replicated [factor] times
    inside a main loop guarded by [var < hi - (factor-1)*step], followed
    by the original loop as the remainder — intermediate tests are
    removed, which is stronger than the while-loop unrolling head
    duplication performs.  Only innermost loops without [break] or
    [return] in their body are unrolled. *)

val apply : factor:int -> Ast.program -> Ast.program
(** Unroll every eligible innermost for loop by [factor] (identity when
    [factor <= 1]). *)
