(** Lexer and recursive-descent parser for the mini language's concrete
    syntax, so kernels can live in plain text files:

    {[
      kernel collatz(n) {
        steps = 0;
        while (n != 1) {
          if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
          steps = steps + 1;
        }
        return steps;
      }
    ]}

    Statements: assignment, [mem\[e\] = e], [if]/[else], [while],
    [do {..} while (e);], [for (x = lo; x < hi; x += k)], [break],
    [return].  Expressions: integers, variables, [mem\[e\]], C-precedence
    arithmetic, comparisons and logical operators.  Comments start with
    [#] or [//]. *)

exception Parse_error of string
(** Carries a message with a line number. *)

val parse_program : string -> Ast.program
(** Parse a kernel definition from source text.
    @raise Parse_error on malformed input. *)

val parse_unit : string -> Ast.compilation_unit
(** Parse one or more kernels; the last is the entry point.  Calls are
    resolved by {!Inline.program_of_unit}. *)

val print_program : Ast.program -> string
(** Print a program in parseable concrete syntax:
    [parse_program (print_program p) = p]. *)
