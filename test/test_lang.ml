(* Tests for the mini-language front end: lowering, control-flow
   constructs, boolean normalization, and front-end for-loop unrolling. *)

open Trips_lang
open Trips_sim

let check = Alcotest.check

let run ?(params = []) ?(memory_words = 64) ?(init = fun _ -> ()) program =
  let cfg, param_regs = Lower.lower program in
  let registers =
    List.map
      (fun (name, value) -> (List.assoc name param_regs, value))
      params
  in
  let memory = Array.make memory_words 0 in
  init memory;
  Func_sim.run ~registers ~memory cfg

let ret r = r.Func_sim.ret

let prog body = Ast.{ prog_name = "t"; params = []; body }
let prog1 p body = Ast.{ prog_name = "t"; params = [ p ]; body }

let test_arith () =
  let open Ast in
  check Alcotest.(option int) "precedence" (Some 14)
    (ret (run (prog [ Return (Some (i 2 + (i 3 * i 4))) ])));
  check Alcotest.(option int) "div" (Some 3)
    (ret (run (prog [ Return (Some (i 10 / i 3)) ])));
  check Alcotest.(option int) "rem" (Some 1)
    (ret (run (prog [ Return (Some (i 10 % i 3)) ])));
  check Alcotest.(option int) "shift" (Some 40)
    (ret (run (prog [ Return (Some (i 10 <<< i 2)) ])))

let test_logic_is_boolean () =
  let open Ast in
  (* And/Or/Not must yield exactly 0 or 1 even on wide values *)
  check Alcotest.(option int) "and" (Some 1)
    (ret (run (prog [ Return (Some (And (i 17, i 5))) ])));
  check Alcotest.(option int) "or of zeros" (Some 0)
    (ret (run (prog [ Return (Some (Or (i 0, i 0))) ])));
  check Alcotest.(option int) "not" (Some 0)
    (ret (run (prog [ Return (Some (Not (i 42))) ])))

let test_if_else () =
  let open Ast in
  let p x =
    prog1 "x"
      [
        If (v "x" > i 10, [ "r" <-- i 1 ], [ "r" <-- i 2 ]);
        Return (Some (v "r"));
      ]
    |> fun pr -> run ~params:[ ("x", x) ] pr
  in
  check Alcotest.(option int) "then" (Some 1) (ret (p 11));
  check Alcotest.(option int) "else" (Some 2) (ret (p 10))

let test_if_without_else () =
  let open Ast in
  let p x =
    run ~params:[ ("x", x) ]
      (prog1 "x"
         [
           "r" <-- i 5;
           If (v "x" = i 0, [ "r" <-- i 9 ], []);
           Return (Some (v "r"));
         ])
  in
  check Alcotest.(option int) "taken" (Some 9) (ret (p 0));
  check Alcotest.(option int) "not taken" (Some 5) (ret (p 1))

let test_while_zero_trips () =
  let open Ast in
  let r =
    run
      (prog
         [
           "n" <-- i 0;
           While (v "n" > i 0, [ "n" <-- (v "n" - i 1) ]);
           Return (Some (i 7));
         ])
  in
  check Alcotest.(option int) "zero-trip while" (Some 7) (ret r)

let test_dowhile () =
  let open Ast in
  let r =
    run
      (prog
         [
           "n" <-- i 0;
           "acc" <-- i 0;
           DoWhile
             ( [ "acc" <-- (v "acc" + i 10); "n" <-- (v "n" + i 1) ],
               v "n" < i 3 );
           Return (Some (v "acc"));
         ])
  in
  check Alcotest.(option int) "do-while runs 3 times" (Some 30) (ret r)

let test_break () =
  let open Ast in
  let r =
    run
      (prog
         [
           "acc" <-- i 0;
           for_ "k" (i 0) (i 100)
             [
               If (v "k" = i 5, [ Break ], []);
               "acc" <-- (v "acc" + v "k");
             ];
           Return (Some (v "acc"));
         ])
  in
  check Alcotest.(option int) "break exits loop" (Some 10) (ret r)

let test_nested_break () =
  let open Ast in
  let r =
    run
      (prog
         [
           "acc" <-- i 0;
           for_ "a" (i 0) (i 3)
             [
               "b" <-- i 0;
               While
                 ( i 1 = i 1,
                   [
                     If (v "b" = i 2, [ Break ], []);
                     "acc" <-- (v "acc" + i 1);
                     "b" <-- (v "b" + i 1);
                   ] );
             ];
           Return (Some (v "acc"));
         ])
  in
  check Alcotest.(option int) "break binds to inner loop" (Some 6) (ret r)

let test_early_return () =
  let open Ast in
  let p x =
    run ~params:[ ("x", x) ]
      (prog1 "x"
         [
           If (v "x" > i 0, [ Return (Some (i 1)) ], []);
           Return (Some (i 2));
         ])
  in
  check Alcotest.(option int) "early" (Some 1) (ret (p 5));
  check Alcotest.(option int) "fallthrough" (Some 2) (ret (p (-5)))

let test_memory_ops () =
  let open Ast in
  let r =
    run ~memory_words:16
      (prog
         [
           Store (i 3, i 11);
           Store (i 4, mem (i 3) + i 1);
           Return (Some (mem (i 4)));
         ])
  in
  check Alcotest.(option int) "store/load chain" (Some 12) (ret r)

(* ---- for-loop unrolling ------------------------------------------------ *)

let sum_to n =
  let open Ast in
  prog1 "n"
    [
      "acc" <-- i 0;
      for_ "k" (i 0) (v "n") [ "acc" <-- (v "acc" + v "k") ];
      Return (Some (v "acc"));
    ]
  |> fun p -> (p, n)

let unroll_preserves_semantics =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"for-loop unrolling preserves sums" ~count:100
       QCheck2.Gen.(pair (int_range 0 40) (int_range 1 8))
       (fun (n, factor) ->
         let p, _ = sum_to n in
         let base = run ~params:[ ("n", n) ] p in
         let unrolled = Unroll_for.apply ~factor p in
         let r = run ~params:[ ("n", n) ] unrolled in
         ret base = ret r))

let test_unroll_skips_breaks () =
  let open Ast in
  let p =
    prog
      [
        "acc" <-- i 0;
        for_ "k" (i 0) (i 10)
          [ If (v "k" = i 4, [ Break ], []); "acc" <-- (v "acc" + i 1) ];
        Return (Some (v "acc"));
      ]
  in
  let unrolled = Unroll_for.apply ~factor:4 p in
  (* loop with break is ineligible: program text unchanged *)
  check Alcotest.bool "break-loop not unrolled" true (Stdlib.( = ) p unrolled)

let test_unroll_nested_targets_inner () =
  let open Ast in
  let p =
    prog
      [
        "acc" <-- i 0;
        for_ "a" (i 0) (i 5)
          [ for_ "b" (i 0) (i 7) [ "acc" <-- (v "acc" + i 1) ] ];
        Return (Some (v "acc"));
      ]
  in
  let unrolled = Unroll_for.apply ~factor:4 p in
  check Alcotest.bool "program changed" true (Stdlib.( <> ) p unrolled);
  check Alcotest.(option int) "same result" (Some 35) (ret (run unrolled))

(* random programs lower and run deterministically *)
let random_programs_lower =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random programs lower, validate and run"
       ~count:60
       ~print:Generators.print_workload Generators.random_program_gen
       (fun w ->
         let r1 = Generators.baseline_of w in
         let r2 = Generators.baseline_of w in
         r1.Func_sim.checksum = r2.Func_sim.checksum))

let guards_are_boolean =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"lowered exit guards always read 0/1 registers" ~count:40
       ~print:Generators.print_workload Generators.random_program_gen
       (fun w ->
         (* interpret and assert the strict exit invariant holds, which
            requires well-formed boolean guards *)
         let r = Generators.baseline_of w in
         r.Func_sim.blocks_executed > 0))

(* ---- concrete-syntax parser -------------------------------------------- *)

let parse_and_run ?(params = []) src =
  let program = Parser.parse_program src in
  run ~params program

let test_parser_expressions () =
  let p src = ret (parse_and_run ("kernel t() { return " ^ src ^ "; }")) in
  check Alcotest.(option int) "precedence * over +" (Some 14) (p "2 + 3 * 4");
  check Alcotest.(option int) "parens" (Some 20) (p "(2 + 3) * 4");
  check Alcotest.(option int) "comparison" (Some 1) (p "3 < 4");
  check Alcotest.(option int) "logic" (Some 1) (p "1 < 2 && 4 > 3");
  check Alcotest.(option int) "bitwise" (Some 6) (p "3 ^ 5");
  check Alcotest.(option int) "shift binds tighter than compare" (Some 1)
    (p "1 << 3 > 7");
  check Alcotest.(option int) "unary minus" (Some (-5)) (p "-5");
  check Alcotest.(option int) "not" (Some 0) (p "!7");
  check Alcotest.(option int) "modulo" (Some 2) (p "17 % 5")

let test_parser_statements () =
  let src =
    {|
      # computes sum of first n odd numbers via a while loop
      kernel odds(n) {
        sum = 0;
        k = 0;
        i = 1;
        while (k < n) {
          sum = sum + i;
          i = i + 2;
          k = k + 1;
        }
        return sum;  // n^2
      }
    |}
  in
  let r = parse_and_run ~params:[ ("n", 9) ] src in
  check Alcotest.(option int) "9^2" (Some 81) (ret r)

let test_parser_full_constructs () =
  let src =
    {|
      kernel mixed(n) {
        acc = 0;
        for (i = 0; i < n; i += 2) {
          mem[i] = i * 3;
        }
        do { acc = acc + mem[acc % 16]; n = n - 1; } while (n > 0);
        while (1 == 1) {
          if (acc > 100) { break; } else { acc = acc + 7; }
        }
        return acc;
      }
    |}
  in
  let r = parse_and_run ~params:[ ("n", 10) ] src in
  check Alcotest.bool "terminates above 100" true
    (match ret r with Some v -> v > 100 | None -> false)

let test_parser_matches_dsl () =
  (* the concrete syntax and the OCaml DSL must agree *)
  let text =
    Parser.parse_program
      "kernel gcd(a, b) { while (b != 0) { t = a % b; a = b; b = t; } return a; }"
  in
  let open Ast in
  let dsl =
    {
      prog_name = "gcd";
      params = [ "a"; "b" ];
      body =
        [
          While
            ( v "b" <> i 0,
              [ "t" <-- (v "a" % v "b"); "a" <-- v "b"; "b" <-- v "t" ] );
          Return (Some (v "a"));
        ];
    }
  in
  check Alcotest.bool "ASTs equal" true (Stdlib.( = ) text dsl)

let test_parser_errors () =
  let fails src =
    match Parser.parse_program src with
    | exception Parser.Parse_error _ -> true
    | _ -> false
  in
  check Alcotest.bool "missing semicolon" true (fails "kernel t() { x = 1 }");
  check Alcotest.bool "bad for index" true
    (fails "kernel t() { for (i = 0; j < 3; i += 1) { } }");
  check Alcotest.bool "unknown char" true (fails "kernel t() { x = 1 @ 2; }");
  check Alcotest.bool "trailing garbage" true (fails "kernel t() { } zzz")

let test_parser_literal_overflow () =
  match
    Parser.parse_program "kernel t() {\n  x = 99999999999999999999999;\n}"
  with
  | exception Parser.Parse_error m ->
    check Alcotest.string "located error"
      "line 2: integer literal 99999999999999999999999 out of range" m
  | _ -> Alcotest.fail "an overflowing literal parsed"

let roundtrip_micro () =
  (* every microbenchmark program survives print -> parse exactly *)
  List.iter
    (fun w ->
      let p = w.Trips_workloads.Workload.program in
      let p' = Parser.parse_program (Parser.print_program p) in
      check Alcotest.bool
        (w.Trips_workloads.Workload.name ^ " round-trips")
        true
        (Stdlib.( = ) p p'))
    Trips_workloads.Micro.all

let roundtrip_random =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parser round-trips random programs" ~count:100
       ~print:(fun w -> Parser.print_program w.Trips_workloads.Workload.program)
       Generators.random_program_gen (fun w ->
         let p = w.Trips_workloads.Workload.program in
         Stdlib.( = ) p (Parser.parse_program (Parser.print_program p))))

(* ---- inlining ----------------------------------------------------------- *)

let parse_inline_run ?(params = []) src =
  let unit_ = Parser.parse_unit src in
  let program = Inline.program_of_unit unit_ in
  run ~params program

let test_inline_simple () =
  let src =
    {|
      kernel square(x) { return x * x; }
      kernel main(n) { return square(n) + square(n + 1); }
    |}
  in
  check Alcotest.(option int) "3^2 + 4^2" (Some 25)
    (ret (parse_inline_run ~params:[ ("n", 3) ] src))

let test_inline_nested_calls () =
  let src =
    {|
      kernel double(x) { return x + x; }
      kernel quad(x) { return double(double(x)); }
      kernel main(n) { return quad(n); }
    |}
  in
  check Alcotest.(option int) "4n" (Some 28)
    (ret (parse_inline_run ~params:[ ("n", 7) ] src))

let test_inline_callee_with_control_flow () =
  let src =
    {|
      kernel max3(a, b, c) {
        m = a;
        if (b > m) { m = b; }
        if (c > m) { m = c; }
        return m;
      }
      kernel main(n) {
        return max3(n, 2 * n - 15, 11);
      }
    |}
  in
  check Alcotest.(option int) "max(10, 5, 11)" (Some 11)
    (ret (parse_inline_run ~params:[ ("n", 10) ] src));
  check Alcotest.(option int) "max(20, 25, 11)" (Some 25)
    (ret (parse_inline_run ~params:[ ("n", 20) ] src))

let test_inline_tail_if_returns () =
  let src =
    {|
      kernel sign(x) {
        if (x > 0) { return 1; } else {
          if (x < 0) { return 0 - 1; } else { return 0; }
        }
      }
      kernel main(n) { return sign(n) + 10 * sign(0 - n); }
    |}
  in
  check Alcotest.(option int) "sign(5)" (Some (-9))
    (ret (parse_inline_run ~params:[ ("n", 5) ] src))

let test_inline_call_in_loop_condition () =
  let src =
    {|
      kernel below(x, lim) { return x < lim; }
      kernel main(n) {
        acc = 0;
        k = 0;
        while (below(k, n)) { acc = acc + k; k = k + 1; }
        return acc;
      }
    |}
  in
  check Alcotest.(option int) "sum 0..9" (Some 45)
    (ret (parse_inline_run ~params:[ ("n", 10) ] src))

let test_inline_locals_do_not_clash () =
  let src =
    {|
      kernel helper(x) { t = x * 2; return t; }
      kernel main(n) {
        t = 100;
        u = helper(n);
        return t + u;
      }
    |}
  in
  check Alcotest.(option int) "caller's t survives" (Some 106)
    (ret (parse_inline_run ~params:[ ("n", 3) ] src))

let test_inline_rejects_recursion () =
  let src =
    {|
      kernel f(x) { return f(x - 1); }
      kernel main(n) { return f(n); }
    |}
  in
  check Alcotest.bool "recursion rejected" true
    (match Inline.program_of_unit (Parser.parse_unit src) with
    | exception Inline.Not_inlinable _ -> true
    | _ -> false)

let test_inline_rejects_mid_return () =
  let src =
    {|
      kernel f(x) {
        if (x > 0) { return 1; }
        x = x + 1;
        return x;
      }
      kernel main(n) { return f(n); }
    |}
  in
  check Alcotest.bool "non-tail return rejected" true
    (match Inline.program_of_unit (Parser.parse_unit src) with
    | exception Inline.Not_inlinable _ -> true
    | _ -> false)

let test_inlined_program_through_pipeline () =
  (* an inlined unit must survive the full compiler *)
  let src =
    {|
      kernel clamp(x, lo, hi) {
        m = x;
        if (m < lo) { m = lo; }
        if (m > hi) { m = hi; }
        return m;
      }
      kernel main(n) {
        acc = 0;
        for (k = 0; k < n; k += 1) {
          acc = acc + clamp(mem[k % 64] - 100, 0 - 50, 50);
        }
        return acc;
      }
    |}
  in
  let program = Inline.program_of_unit (Parser.parse_unit src) in
  let w =
    Trips_workloads.Workload.make ~name:"inlined" ~description:"test"
      ~args:[ ("n", 300) ] ~memory_words:64
      ~init_memory:(fun a -> Array.iteri (fun k _ -> a.(k) <- k * 5) a)
      program
  in
  let baseline = Generators.baseline_of w in
  let c = Trips_harness.Pipeline.compile ~backend:true Chf.Phases.Iupo_merged w in
  let r = Trips_harness.Pipeline.run_functional c in
  check Alcotest.int "pipeline checksum" baseline.Func_sim.checksum
    r.Func_sim.checksum

let suite =
  ( "lang",
    [
      Alcotest.test_case "inline simple" `Quick test_inline_simple;
      Alcotest.test_case "inline nested calls" `Quick test_inline_nested_calls;
      Alcotest.test_case "inline control flow" `Quick test_inline_callee_with_control_flow;
      Alcotest.test_case "inline tail-if returns" `Quick test_inline_tail_if_returns;
      Alcotest.test_case "inline call in loop condition" `Quick
        test_inline_call_in_loop_condition;
      Alcotest.test_case "inline renames locals" `Quick test_inline_locals_do_not_clash;
      Alcotest.test_case "inline rejects recursion" `Quick test_inline_rejects_recursion;
      Alcotest.test_case "inline rejects mid return" `Quick test_inline_rejects_mid_return;
      Alcotest.test_case "inlined unit through pipeline" `Quick
        test_inlined_program_through_pipeline;
      Alcotest.test_case "parser round-trips kernels" `Quick roundtrip_micro;
      roundtrip_random;
      Alcotest.test_case "parser expressions" `Quick test_parser_expressions;
      Alcotest.test_case "parser statements" `Quick test_parser_statements;
      Alcotest.test_case "parser constructs" `Quick test_parser_full_constructs;
      Alcotest.test_case "parser matches DSL" `Quick test_parser_matches_dsl;
      Alcotest.test_case "parser errors" `Quick test_parser_errors;
      Alcotest.test_case "parser rejects an overflowing literal" `Quick
        test_parser_literal_overflow;
      Alcotest.test_case "arithmetic" `Quick test_arith;
      Alcotest.test_case "logic is boolean" `Quick test_logic_is_boolean;
      Alcotest.test_case "if/else" `Quick test_if_else;
      Alcotest.test_case "if without else" `Quick test_if_without_else;
      Alcotest.test_case "zero-trip while" `Quick test_while_zero_trips;
      Alcotest.test_case "do-while" `Quick test_dowhile;
      Alcotest.test_case "break" `Quick test_break;
      Alcotest.test_case "nested break" `Quick test_nested_break;
      Alcotest.test_case "early return" `Quick test_early_return;
      Alcotest.test_case "memory ops" `Quick test_memory_ops;
      unroll_preserves_semantics;
      Alcotest.test_case "unroll skips break loops" `Quick test_unroll_skips_breaks;
      Alcotest.test_case "unroll handles nests" `Quick test_unroll_nested_targets_inner;
      random_programs_lower;
      guards_are_boolean;
    ] )
