(* Lowering from the mini-language AST to the RISC-like CFG.

   Every conditional branch condition is normalized to a 0/1 register, so
   exit guards always read boolean values — the invariant the predicate
   negation (xor 1) in if-conversion relies on.  [For] loops hoist their
   bound into a hidden temporary evaluated once; the loop itself lowers to
   the same test-at-top shape as [While], which is what lets CFG-level
   unrolling treat them uniformly. *)

open Trips_ir

type env = {
  b : Builder.t;
  vars : (string, int) Hashtbl.t;
  mutable temp_counter : int;
}

let reg_of env x =
  match Hashtbl.find_opt env.vars x with
  | Some r -> r
  | None ->
    let r = Builder.fresh_reg env.b in
    Hashtbl.add env.vars x r;
    r

let fresh_temp_name env =
  env.temp_counter <- env.temp_counter + 1;
  Fmt.str "$t%d" env.temp_counter

(* Does this expression always evaluate to 0 or 1? *)
let rec is_boolean = function
  | Ast.Cmp _ | Ast.Not _ | Ast.And _ | Ast.Or _ -> true
  | Ast.Int (0 | 1) -> true
  | Ast.Int _ | Ast.Var _ | Ast.Load _ | Ast.Binop _ | Ast.Call _ -> false

and lower_expr env (e : Ast.expr) : Instr.operand =
  match e with
  | Ast.Int n -> Instr.Imm n
  | Ast.Var x -> Instr.Reg (reg_of env x)
  | Ast.Load a ->
    let addr = lower_expr env a in
    Instr.Reg (Builder.emit_value env.b (fun d -> Instr.Load (d, addr, 0)))
  | Ast.Binop (op, a, b) ->
    let a = lower_expr env a in
    let b = lower_expr env b in
    Instr.Reg (Builder.emit_value env.b (fun d -> Instr.Binop (op, d, a, b)))
  | Ast.Cmp (op, a, b) ->
    let a = lower_expr env a in
    let b = lower_expr env b in
    Instr.Reg (Builder.emit_value env.b (fun d -> Instr.Cmp (op, d, a, b)))
  | Ast.Not a ->
    let a = lower_expr env a in
    Instr.Reg
      (Builder.emit_value env.b (fun d -> Instr.Cmp (Opcode.Eq, d, a, Instr.Imm 0)))
  | Ast.And (a, b) ->
    let a = lower_bool env a in
    let b = lower_bool env b in
    Instr.Reg
      (Builder.emit_value env.b (fun d -> Instr.Binop (Opcode.And, d, a, b)))
  | Ast.Or (a, b) ->
    let a = lower_bool env a in
    let b = lower_bool env b in
    Instr.Reg
      (Builder.emit_value env.b (fun d -> Instr.Binop (Opcode.Or, d, a, b)))
  | Ast.Call (f, _) ->
    (* the front-end inliner must run first (Figure 6: inlining precedes
       everything); reaching here is a pipeline mistake *)
    Fmt.invalid_arg "Lower: unresolved call to %s (run Inline.program_of_unit)" f

(* Lower to an operand guaranteed to hold 0 or 1. *)
and lower_bool env e : Instr.operand =
  let v = lower_expr env e in
  if is_boolean e then v
  else
    Instr.Reg
      (Builder.emit_value env.b (fun d -> Instr.Cmp (Opcode.Ne, d, v, Instr.Imm 0)))

(* Lower a branch condition into a register holding 0 or 1. *)
let lower_cond env e : int =
  match lower_bool env e with
  | Instr.Reg r -> r
  | Instr.Imm n ->
    (* constant condition: still needs a register for the exit guard *)
    Builder.emit_value env.b (fun d ->
        Instr.Mov (d, Instr.Imm (if n <> 0 then 1 else 0)))

(* [lower_stmts env breaks stmts] lowers into the currently open block and
   returns [true] when control can fall through to whatever follows. *)
let rec lower_stmts env breaks (stmts : Ast.stmt list) : bool =
  match stmts with
  | [] -> true
  | s :: rest ->
    if lower_stmt env breaks s then lower_stmts env breaks rest else false

and lower_stmt env breaks (s : Ast.stmt) : bool =
  match s with
  | Ast.Assign (x, e) ->
    let v = lower_expr env e in
    let r = reg_of env x in
    Builder.emit env.b (Instr.Mov (r, v));
    true
  | Ast.Store (a, e) ->
    let addr = lower_expr env a in
    let v = lower_expr env e in
    Builder.emit env.b (Instr.Store (v, addr, 0));
    true
  | Ast.Return e ->
    let v = Option.map (lower_expr env) e in
    Builder.ret ?value:v env.b;
    false
  | Ast.Break -> (
    match breaks with
    | [] -> invalid_arg "Lower: break outside a loop"
    | target :: _ ->
      Builder.jump env.b target;
      false)
  | Ast.If (c, then_s, []) ->
    let cond = lower_cond env c in
    let then_id = Builder.reserve env.b in
    let join_id = Builder.reserve env.b in
    Builder.branch env.b cond ~if_true:then_id ~if_false:join_id;
    ignore (Builder.start_block ~id:then_id env.b);
    if lower_stmts env breaks then_s then Builder.jump env.b join_id;
    ignore (Builder.start_block ~id:join_id env.b);
    true
  | Ast.If (c, then_s, else_s) ->
    let cond = lower_cond env c in
    let then_id = Builder.reserve env.b in
    let else_id = Builder.reserve env.b in
    let join_id = Builder.reserve env.b in
    Builder.branch env.b cond ~if_true:then_id ~if_false:else_id;
    ignore (Builder.start_block ~id:then_id env.b);
    let then_falls = lower_stmts env breaks then_s in
    if then_falls then Builder.jump env.b join_id;
    ignore (Builder.start_block ~id:else_id env.b);
    let else_falls = lower_stmts env breaks else_s in
    if else_falls then Builder.jump env.b join_id;
    if then_falls || else_falls then begin
      ignore (Builder.start_block ~id:join_id env.b);
      true
    end
    else false
  | Ast.While (c, body) ->
    let header = Builder.reserve env.b in
    let body_id = Builder.reserve env.b in
    let exit_id = Builder.reserve env.b in
    Builder.jump env.b header;
    ignore (Builder.start_block ~id:header env.b);
    let cond = lower_cond env c in
    Builder.branch env.b cond ~if_true:body_id ~if_false:exit_id;
    ignore (Builder.start_block ~id:body_id env.b);
    if lower_stmts env (exit_id :: breaks) body then Builder.jump env.b header;
    ignore (Builder.start_block ~id:exit_id env.b);
    true
  | Ast.DoWhile (body, c) ->
    let body_id = Builder.reserve env.b in
    let exit_id = Builder.reserve env.b in
    Builder.jump env.b body_id;
    ignore (Builder.start_block ~id:body_id env.b);
    let falls = lower_stmts env (exit_id :: breaks) body in
    if falls then begin
      let cond = lower_cond env c in
      Builder.branch env.b cond ~if_true:body_id ~if_false:exit_id
    end;
    if falls || List.exists Ast.stmt_contains_break body then begin
      ignore (Builder.start_block ~id:exit_id env.b);
      true
    end
    else false
  | Ast.For { var; lo; hi; step; body } ->
    (* Hoist the bound, then reuse the While shape. *)
    let bound = fresh_temp_name env in
    let desugared =
      [
        Ast.Assign (var, lo);
        Ast.Assign (bound, hi);
        Ast.While
          ( Ast.Cmp (Opcode.Lt, Ast.Var var, Ast.Var bound),
            body
            @ [ Ast.Assign (var, Ast.Binop (Opcode.Add, Ast.Var var, Ast.Int step)) ]
          );
      ]
    in
    lower_stmts env breaks desugared

(** Lower a program.  Returns the CFG and the registers assigned to the
    program's parameters (callers initialize them via the simulator). *)
let lower (p : Ast.program) : Cfg.t * (string * int) list =
  let b = Builder.create ~name:p.Ast.prog_name () in
  let env = { b; vars = Hashtbl.create 16; temp_counter = 0 } in
  let param_regs = List.map (fun x -> (x, reg_of env x)) p.Ast.params in
  let entry = Builder.start_block b in
  Builder.set_entry b entry;
  if lower_stmts env [] p.Ast.body then Builder.ret b;
  let cfg = Builder.cfg b in
  Cfg.validate cfg;
  Cfg.stamp_origins cfg;
  (cfg, param_regs)
