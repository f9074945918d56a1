(* A hand-written lexer and recursive-descent parser for the mini
   language's concrete syntax, so kernels can live in plain text files
   and be compiled by the chfc driver:

     kernel collatz(n) {
       steps = 0;
       while (n != 1) {
         if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
         steps = steps + 1;
       }
       return steps;
     }

   Statements: assignment, mem[e] = e, if/else, while (e) {...},
   do {...} while (e), for (x = e; x < e; x += k) {...}, break,
   return e.  Expressions: integer literals, variables, mem[e],
   arithmetic (+ - * / % << >> & | ^), comparisons (== != < <= > >=),
   logical (&& || !), parentheses.  Line comments start with '#' or
   '//'.  Operator precedence follows C. *)

open Trips_ir

exception Parse_error of string

type token =
  | INT of int
  | IDENT of string
  | KW of string  (* kernel if else while do for break return mem *)
  | OP of string
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA
  | EOF

let keywords = [ "kernel"; "if"; "else"; "while"; "do"; "for"; "break"; "return"; "mem" ]

let error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* ---- lexer ------------------------------------------------------------- *)

let tokenize (src : string) : (token * int) list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let emit t = toks := (t, !line) :: !toks in
  let is_digit c = c >= '0' && c <= '9' in
  let is_ident_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
  in
  let is_ident c = is_ident_start c || is_digit c in
  let rec go i =
    if i >= n then emit EOF
    else
      match src.[i] with
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '\n' ->
        incr line;
        go (i + 1)
      | '#' -> skip_line (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' -> skip_line (i + 2)
      | '(' -> emit LPAREN; go (i + 1)
      | ')' -> emit RPAREN; go (i + 1)
      | '{' -> emit LBRACE; go (i + 1)
      | '}' -> emit RBRACE; go (i + 1)
      | '[' -> emit LBRACKET; go (i + 1)
      | ']' -> emit RBRACKET; go (i + 1)
      | ';' -> emit SEMI; go (i + 1)
      | ',' -> emit COMMA; go (i + 1)
      | c when is_digit c ->
        let j = ref i in
        while !j < n && is_digit src.[!j] do incr j done;
        let digits = String.sub src i (!j - i) in
        (match int_of_string_opt digits with
        | Some v -> emit (INT v)
        | None -> error "line %d: integer literal %s out of range" !line digits);
        go !j
      | c when is_ident_start c ->
        let j = ref i in
        while !j < n && is_ident src.[!j] do incr j done;
        let word = String.sub src i (!j - i) in
        emit (if List.mem word keywords then KW word else IDENT word);
        go !j
      | _ ->
        (* multi-character operators, longest first *)
        let three = if i + 2 < n then String.sub src i 3 else "" in
        if three = ">>>" then begin
          emit (OP ">>>");
          go (i + 3)
        end
        else
        let two = if i + 1 < n then String.sub src i 2 else "" in
        let ops2 = [ "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>"; "+=" ] in
        if List.mem two ops2 then begin
          emit (OP two);
          go (i + 2)
        end
        else
          let one = String.make 1 src.[i] in
          let ops1 = [ "+"; "-"; "*"; "/"; "%"; "<"; ">"; "="; "!"; "&"; "|"; "^" ] in
          if List.mem one ops1 then begin
            emit (OP one);
            go (i + 1)
          end
          else error "line %d: unexpected character %C" !line src.[i]
  and skip_line i =
    if i >= n then emit EOF
    else if src.[i] = '\n' then begin
      incr line;
      go (i + 1)
    end
    else skip_line (i + 1)
  in
  go 0;
  List.rev !toks

(* ---- parser ------------------------------------------------------------ *)

type stream = { mutable toks : (token * int) list }

let peek s = match s.toks with (t, _) :: _ -> t | [] -> EOF
let line_of s = match s.toks with (_, l) :: _ -> l | [] -> 0
let advance s = match s.toks with _ :: rest -> s.toks <- rest | [] -> ()

let describe = function
  | INT n -> string_of_int n
  | IDENT x -> x
  | KW k -> k
  | OP o -> o
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]" | SEMI -> ";" | COMMA -> ","
  | EOF -> "end of input"

let expect s t =
  if peek s = t then advance s
  else error "line %d: expected %s, found %s" (line_of s) (describe t)
      (describe (peek s))

let expect_ident s =
  match peek s with
  | IDENT x -> advance s; x
  | t -> error "line %d: expected identifier, found %s" (line_of s) (describe t)

(* expression parsing with C-like precedence climbing *)
let rec parse_expr s = parse_or s

and parse_or s =
  let lhs = parse_and s in
  if peek s = OP "||" then begin
    advance s;
    Ast.Or (lhs, parse_or s)
  end
  else lhs

and parse_and s =
  let lhs = parse_bitor s in
  if peek s = OP "&&" then begin
    advance s;
    Ast.And (lhs, parse_and s)
  end
  else lhs

and parse_bitor s =
  let rec loop lhs =
    match peek s with
    | OP "|" -> advance s; loop (Ast.Binop (Opcode.Or, lhs, parse_bitxor s))
    | _ -> lhs
  in
  loop (parse_bitxor s)

and parse_bitxor s =
  let rec loop lhs =
    match peek s with
    | OP "^" -> advance s; loop (Ast.Binop (Opcode.Xor, lhs, parse_bitand s))
    | _ -> lhs
  in
  loop (parse_bitand s)

and parse_bitand s =
  let rec loop lhs =
    match peek s with
    | OP "&" -> advance s; loop (Ast.Binop (Opcode.And, lhs, parse_cmp s))
    | _ -> lhs
  in
  loop (parse_cmp s)

and parse_cmp s =
  let lhs = parse_shift s in
  let op o = advance s; Ast.Cmp (o, lhs, parse_shift s) in
  match peek s with
  | OP "==" -> op Opcode.Eq
  | OP "!=" -> op Opcode.Ne
  | OP "<" -> op Opcode.Lt
  | OP "<=" -> op Opcode.Le
  | OP ">" -> op Opcode.Gt
  | OP ">=" -> op Opcode.Ge
  | _ -> lhs

and parse_shift s =
  let rec loop lhs =
    match peek s with
    | OP "<<" -> advance s; loop (Ast.Binop (Opcode.Shl, lhs, parse_add s))
    | OP ">>>" -> advance s; loop (Ast.Binop (Opcode.Shr, lhs, parse_add s))
    | OP ">>" -> advance s; loop (Ast.Binop (Opcode.Asr, lhs, parse_add s))
    | _ -> lhs
  in
  loop (parse_add s)

and parse_add s =
  let rec loop lhs =
    match peek s with
    | OP "+" -> advance s; loop (Ast.Binop (Opcode.Add, lhs, parse_mul s))
    | OP "-" -> advance s; loop (Ast.Binop (Opcode.Sub, lhs, parse_mul s))
    | _ -> lhs
  in
  loop (parse_mul s)

and parse_mul s =
  let rec loop lhs =
    match peek s with
    | OP "*" -> advance s; loop (Ast.Binop (Opcode.Mul, lhs, parse_unary s))
    | OP "/" -> advance s; loop (Ast.Binop (Opcode.Div, lhs, parse_unary s))
    | OP "%" -> advance s; loop (Ast.Binop (Opcode.Rem, lhs, parse_unary s))
    | _ -> lhs
  in
  loop (parse_unary s)

and parse_unary s =
  match peek s with
  | OP "!" ->
    advance s;
    Ast.Not (parse_unary s)
  | OP "-" -> (
    advance s;
    match peek s with
    | INT n ->
      advance s;
      Ast.Int (-n)
    | _ -> Ast.Binop (Opcode.Sub, Ast.Int 0, parse_unary s))
  | _ -> parse_primary s

and parse_primary s =
  match peek s with
  | INT n ->
    advance s;
    Ast.Int n
  | IDENT x -> (
    advance s;
    match peek s with
    | LPAREN ->
      advance s;
      let rec args acc =
        match peek s with
        | RPAREN ->
          advance s;
          List.rev acc
        | _ ->
          let e = parse_expr s in
          if peek s = COMMA then advance s;
          args (e :: acc)
      in
      Ast.Call (x, args [])
    | _ -> Ast.Var x)
  | KW "mem" ->
    advance s;
    expect s LBRACKET;
    let e = parse_expr s in
    expect s RBRACKET;
    Ast.Load e
  | LPAREN ->
    advance s;
    let e = parse_expr s in
    expect s RPAREN;
    e
  | t -> error "line %d: expected expression, found %s" (line_of s) (describe t)

(* statements *)
let rec parse_block s =
  expect s LBRACE;
  let rec loop acc =
    if peek s = RBRACE then begin
      advance s;
      List.rev acc
    end
    else loop (parse_stmt s :: acc)
  in
  loop []

and parse_stmt s : Ast.stmt =
  match peek s with
  | KW "if" ->
    advance s;
    expect s LPAREN;
    let c = parse_expr s in
    expect s RPAREN;
    let then_branch = parse_block s in
    let else_branch =
      if peek s = KW "else" then begin
        advance s;
        if peek s = KW "if" then [ parse_stmt s ] else parse_block s
      end
      else []
    in
    Ast.If (c, then_branch, else_branch)
  | KW "while" ->
    advance s;
    expect s LPAREN;
    let c = parse_expr s in
    expect s RPAREN;
    Ast.While (c, parse_block s)
  | KW "do" ->
    advance s;
    let body = parse_block s in
    expect s (KW "while");
    expect s LPAREN;
    let c = parse_expr s in
    expect s RPAREN;
    expect s SEMI;
    Ast.DoWhile (body, c)
  | KW "for" ->
    (* for (x = lo; x < hi; x += step) { ... } *)
    advance s;
    expect s LPAREN;
    let var = expect_ident s in
    expect s (OP "=");
    let lo = parse_expr s in
    expect s SEMI;
    let var2 = expect_ident s in
    if var2 <> var then
      error "line %d: for-loop tests %s but initializes %s" (line_of s) var2 var;
    expect s (OP "<");
    let hi = parse_expr s in
    expect s SEMI;
    let var3 = expect_ident s in
    if var3 <> var then
      error "line %d: for-loop steps %s but initializes %s" (line_of s) var3 var;
    expect s (OP "+=");
    let step =
      match peek s with
      | INT k ->
        advance s;
        k
      | t -> error "line %d: for-loop step must be a positive literal, found %s"
               (line_of s) (describe t)
    in
    expect s RPAREN;
    let body = parse_block s in
    Ast.For { var; lo; hi; step; body }
  | KW "break" ->
    advance s;
    expect s SEMI;
    Ast.Break
  | KW "return" ->
    advance s;
    if peek s = SEMI then begin
      advance s;
      Ast.Return None
    end
    else begin
      let e = parse_expr s in
      expect s SEMI;
      Ast.Return (Some e)
    end
  | KW "mem" ->
    advance s;
    expect s LBRACKET;
    let addr = parse_expr s in
    expect s RBRACKET;
    expect s (OP "=");
    let v = parse_expr s in
    expect s SEMI;
    Ast.Store (addr, v)
  | IDENT x ->
    advance s;
    expect s (OP "=");
    let e = parse_expr s in
    expect s SEMI;
    Ast.Assign (x, e)
  | t -> error "line %d: expected statement, found %s" (line_of s) (describe t)

let parse_params s =
  expect s LPAREN;
  let rec loop acc =
    match peek s with
    | RPAREN ->
      advance s;
      List.rev acc
    | IDENT x ->
      advance s;
      if peek s = COMMA then advance s;
      loop (x :: acc)
    | t -> error "line %d: expected parameter name, found %s" (line_of s) (describe t)
  in
  loop []

(** Parse a kernel definition from source text. *)
let parse_program (src : string) : Ast.program =
  let s = { toks = tokenize src } in
  expect s (KW "kernel");
  let prog_name = expect_ident s in
  let params = parse_params s in
  let body = parse_block s in
  (match peek s with
  | EOF -> ()
  | t -> error "line %d: trailing input after kernel body: %s" (line_of s) (describe t));
  { Ast.prog_name; params; body }

(** Parse a compilation unit: one or more kernels; the last one is the
    entry point. *)
let parse_unit (src : string) : Ast.compilation_unit =
  let s = { toks = tokenize src } in
  let rec kernels acc =
    match peek s with
    | EOF ->
      if acc = [] then error "empty compilation unit"
      else List.rev acc
    | _ ->
      expect s (KW "kernel");
      let prog_name = expect_ident s in
      let params = parse_params s in
      let body = parse_block s in
      kernels ({ Ast.prog_name; params; body } :: acc)
  in
  let ks = kernels [] in
  { Ast.kernels = ks; entry = (List.nth ks (List.length ks - 1)).Ast.prog_name }

(* ---- surface printer --------------------------------------------------- *)

(* Fully parenthesized concrete syntax; [parse_program (print_program p)]
   returns [p] exactly (the round-trip property test relies on it). *)

let binop_surface = function
  | Opcode.Add -> "+"
  | Opcode.Sub -> "-"
  | Opcode.Mul -> "*"
  | Opcode.Div -> "/"
  | Opcode.Rem -> "%"
  | Opcode.And -> "&"
  | Opcode.Or -> "|"
  | Opcode.Xor -> "^"
  | Opcode.Shl -> "<<"
  | Opcode.Shr -> ">>>"
  | Opcode.Asr -> ">>"

let cmp_surface = function
  | Opcode.Eq -> "=="
  | Opcode.Ne -> "!="
  | Opcode.Lt -> "<"
  | Opcode.Le -> "<="
  | Opcode.Gt -> ">"
  | Opcode.Ge -> ">="

let rec print_expr buf (e : Ast.expr) =
  match e with
  | Ast.Int n -> Buffer.add_string buf (string_of_int n)
  | Ast.Var x -> Buffer.add_string buf x
  | Ast.Load a ->
    Buffer.add_string buf "mem[";
    print_expr buf a;
    Buffer.add_string buf "]"
  | Ast.Binop (op, a, b) ->
    Buffer.add_char buf '(';
    print_expr buf a;
    Buffer.add_string buf (" " ^ binop_surface op ^ " ");
    print_expr buf b;
    Buffer.add_char buf ')'
  | Ast.Cmp (op, a, b) ->
    Buffer.add_char buf '(';
    print_expr buf a;
    Buffer.add_string buf (" " ^ cmp_surface op ^ " ");
    print_expr buf b;
    Buffer.add_char buf ')'
  | Ast.Not a ->
    Buffer.add_string buf "!(";
    print_expr buf a;
    Buffer.add_char buf ')'
  | Ast.And (a, b) ->
    Buffer.add_char buf '(';
    print_expr buf a;
    Buffer.add_string buf " && ";
    print_expr buf b;
    Buffer.add_char buf ')'
  | Ast.Or (a, b) ->
    Buffer.add_char buf '(';
    print_expr buf a;
    Buffer.add_string buf " || ";
    print_expr buf b;
    Buffer.add_char buf ')'
  | Ast.Call (f, args) ->
    Buffer.add_string buf (f ^ "(");
    List.iteri
      (fun k a ->
        if k > 0 then Buffer.add_string buf ", ";
        print_expr buf a)
      args;
    Buffer.add_char buf ')'

let rec print_stmt buf indent (s : Ast.stmt) =
  let pad () = Buffer.add_string buf (String.make indent ' ') in
  match s with
  | Ast.Assign (x, e) ->
    pad ();
    Buffer.add_string buf (x ^ " = ");
    print_expr buf e;
    Buffer.add_string buf ";\n"
  | Ast.Store (a, e) ->
    pad ();
    Buffer.add_string buf "mem[";
    print_expr buf a;
    Buffer.add_string buf "] = ";
    print_expr buf e;
    Buffer.add_string buf ";\n"
  | Ast.If (c, t, els) ->
    pad ();
    Buffer.add_string buf "if (";
    print_expr buf c;
    Buffer.add_string buf ") {\n";
    List.iter (print_stmt buf (indent + 2)) t;
    pad ();
    if els = [] then Buffer.add_string buf "}\n"
    else begin
      Buffer.add_string buf "} else {\n";
      List.iter (print_stmt buf (indent + 2)) els;
      pad ();
      Buffer.add_string buf "}\n"
    end
  | Ast.While (c, body) ->
    pad ();
    Buffer.add_string buf "while (";
    print_expr buf c;
    Buffer.add_string buf ") {\n";
    List.iter (print_stmt buf (indent + 2)) body;
    pad ();
    Buffer.add_string buf "}\n"
  | Ast.DoWhile (body, c) ->
    pad ();
    Buffer.add_string buf "do {\n";
    List.iter (print_stmt buf (indent + 2)) body;
    pad ();
    Buffer.add_string buf "} while (";
    print_expr buf c;
    Buffer.add_string buf ");\n"
  | Ast.For { var; lo; hi; step; body } ->
    pad ();
    Buffer.add_string buf ("for (" ^ var ^ " = ");
    print_expr buf lo;
    Buffer.add_string buf ("; " ^ var ^ " < ");
    print_expr buf hi;
    Buffer.add_string buf ("; " ^ var ^ " += " ^ string_of_int step ^ ") {\n");
    List.iter (print_stmt buf (indent + 2)) body;
    pad ();
    Buffer.add_string buf "}\n"
  | Ast.Break ->
    pad ();
    Buffer.add_string buf "break;\n"
  | Ast.Return None ->
    pad ();
    Buffer.add_string buf "return;\n"
  | Ast.Return (Some e) ->
    pad ();
    Buffer.add_string buf "return ";
    print_expr buf e;
    Buffer.add_string buf ";\n"

(** Print a program in parseable concrete syntax
    ([parse_program (print_program p) = p]). *)
let print_program (p : Ast.program) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    ("kernel " ^ p.Ast.prog_name ^ "(" ^ String.concat ", " p.Ast.params
   ^ ") {\n");
  List.iter (print_stmt buf 2) p.Ast.body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
