(* Seeded adversarial case generator.  Every CFG case is valid and
   terminating by construction: loops count down a counter initialized
   in the entry block, guards are defined before use in their own block,
   and multi-way exits carry one-hot guard sets — so an oracle failure
   always indicts the pipeline, never the case. *)

open Trips_ir

type shape =
  | Irreducible
  | Nested_loops
  | Store_dense
  | Predicate_chain
  | Fanout
  | Bank_pressure
  | Giant_block
  | Random_cfg
  | Lang_program

let all_shapes =
  [
    Irreducible; Nested_loops; Store_dense; Predicate_chain; Fanout;
    Bank_pressure; Giant_block; Random_cfg; Lang_program;
  ]

let shape_name = function
  | Irreducible -> "irreducible"
  | Nested_loops -> "nested-loops"
  | Store_dense -> "store-dense"
  | Predicate_chain -> "predicate-chain"
  | Fanout -> "fanout"
  | Bank_pressure -> "bank-pressure"
  | Giant_block -> "giant-block"
  | Random_cfg -> "random-cfg"
  | Lang_program -> "lang-program"

let shape_of_name s = List.find_opt (fun sh -> shape_name sh = s) all_shapes

type payload =
  | Cfg_case of {
      cfg : Cfg.t;
      registers : (int * int) list;
      mem_words : int;
    }
  | Lang_case of Trips_workloads.Spec_like.recipe

type case = { shape : shape; seed : int; payload : payload }

let mem_words = 256

let memory_of ~mem_words = Array.init mem_words (fun i -> (i * 7) mod 31)

(* ---- CFG-building helpers --------------------------------------------- *)

let ret_exit = { Block.eguard = None; target = Block.Ret None }
let goto b = { Block.eguard = None; target = Block.Goto b }

let gif r b =
  { Block.eguard = Some { Instr.greg = r; sense = true }; target = Block.Goto b }

let gelse r b =
  { Block.eguard = Some { Instr.greg = r; sense = false }; target = Block.Goto b }

(* counter decrement + "still positive" test, appended to a latch block *)
let count_down cfg c =
  let p = Cfg.fresh_reg cfg in
  ( [
      Cfg.instr cfg (Instr.Binop (Opcode.Sub, c, Instr.Reg c, Instr.Imm 1));
      Cfg.instr cfg (Instr.Cmp (Opcode.Gt, p, Instr.Reg c, Instr.Imm 0));
    ],
    p )

let mov cfg d v = Cfg.instr cfg (Instr.Mov (d, Instr.Imm v))

let store cfg v addr = Cfg.instr cfg (Instr.Store (v, Instr.Imm (addr mod mem_words), 0))

let finish shape seed cfg =
  Cfg.validate cfg;
  (* one case in seven runs against a zero-length memory: the total
     semantics (loads read 0, stores vanish) must survive every
     transformation and both simulators, not just the happy path.
     Immediate addresses still use the module-level [mem_words], so
     generation itself never divides by the case's memory size. *)
  let mem_words = if seed mod 7 = 0 then 0 else mem_words in
  { shape; seed; payload = Cfg_case { cfg; registers = []; mem_words } }

(* ---- shapes ------------------------------------------------------------ *)

(* A two-entry loop {b, c}: entry branches into either side on a data
   test, and each side jumps to the other while a shared counter stays
   positive.  No single header dominates the region, so loop-based head
   duplication (peel/unroll) cannot normalize it — formation must cope
   with tail duplication alone. *)
let gen_irreducible rng seed =
  let cfg = Cfg.create ~name:(Fmt.str "fz-irr-%d" seed) () in
  let entry = Cfg.fresh_block_id cfg in
  let b = Cfg.fresh_block_id cfg in
  let c = Cfg.fresh_block_id cfg in
  let x = Cfg.fresh_block_id cfg in
  let cnt = Cfg.fresh_reg cfg in
  let sel = Cfg.fresh_reg cfg in
  let p = Cfg.fresh_reg cfg in
  let n = 6 + Random.State.int rng 14 in
  Cfg.set_block cfg
    (Block.make entry
       [
         mov cfg cnt n;
         mov cfg sel (seed land 1);
         Cfg.instr cfg (Instr.Cmp (Opcode.Eq, p, Instr.Reg sel, Instr.Imm 0));
       ]
       [ gif p b; gelse p c ]);
  let side id other addr =
    let decs, q = count_down cfg cnt in
    Cfg.set_block cfg
      (Block.make id
         (decs @ [ store cfg (Instr.Reg cnt) addr ])
         [ gif q other; gelse q x ])
  in
  side b c (Random.State.int rng 64);
  side c b (64 + Random.State.int rng 64);
  Cfg.set_block cfg (Block.make x [] [ ret_exit ]);
  cfg.Cfg.entry <- entry;
  finish Irreducible seed cfg

(* A counted loop nest of depth 2..4: init_i -> head_i -> ... inner ...
   -> latch_i, each level with its own countdown counter.  Stresses
   unroll/peel interaction across levels and trip-count profiles. *)
let gen_nested_loops rng seed =
  let cfg = Cfg.create ~name:(Fmt.str "fz-nest-%d" seed) () in
  let depth = 2 + Random.State.int rng 3 in
  let acc = Cfg.fresh_reg cfg in
  (* level i builds init -> head -> (inner levels) -> latch, looping
     latch -> head while its counter is positive and falling through to
     [exit_to] when it runs out *)
  let rec level i ~exit_to =
    let trips = 2 + Random.State.int rng 3 in
    let cnt = Cfg.fresh_reg cfg in
    let init = Cfg.fresh_block_id cfg in
    let head = Cfg.fresh_block_id cfg in
    let latch = Cfg.fresh_block_id cfg in
    let inner_entry =
      if i + 1 = depth then latch else level (i + 1) ~exit_to:latch
    in
    Cfg.set_block cfg (Block.make init [ mov cfg cnt trips ] [ goto head ]);
    Cfg.set_block cfg
      (Block.make head
         [
           Cfg.instr cfg
             (Instr.Binop (Opcode.Add, acc, Instr.Reg acc, Instr.Reg cnt));
           store cfg (Instr.Reg acc) ((i * 16) + Random.State.int rng 16);
         ]
         [ goto inner_entry ]);
    let decs, p = count_down cfg cnt in
    Cfg.set_block cfg (Block.make latch decs [ gif p head; gelse p exit_to ]);
    init
  in
  let entry = Cfg.fresh_block_id cfg in
  let out = Cfg.fresh_block_id cfg in
  let top_init = level 0 ~exit_to:out in
  Cfg.set_block cfg (Block.make entry [ mov cfg acc 0 ] [ goto top_init ]);
  Cfg.set_block cfg (Block.make out [] [ ret_exit ]);
  cfg.Cfg.entry <- entry;
  finish Nested_loops seed cfg

(* A chain of 2..4 blocks each carrying exactly the 32-store budget,
   looped a few times: formation must refuse every merge on the LSID
   axis, and the audited run must agree with the unaudited one. *)
let gen_store_dense rng seed =
  let cfg = Cfg.create ~name:(Fmt.str "fz-store-%d" seed) () in
  let k = 2 + Random.State.int rng 3 in
  let entry = Cfg.fresh_block_id cfg in
  let chain = List.init k (fun _ -> Cfg.fresh_block_id cfg) in
  let out = Cfg.fresh_block_id cfg in
  let cnt = Cfg.fresh_reg cfg in
  Cfg.set_block cfg
    (Block.make entry
       [ mov cfg cnt (2 + Random.State.int rng 3) ]
       [ goto (List.hd chain) ]);
  List.iteri
    (fun i id ->
      let stores =
        List.init Machine.max_load_store (fun j ->
            store cfg (Instr.Imm ((i * 37) + j)) ((i * Machine.max_load_store) + j))
      in
      let last = i = k - 1 in
      if last then begin
        let decs, p = count_down cfg cnt in
        Cfg.set_block cfg
          (Block.make id (stores @ decs) [ gif p (List.hd chain); gelse p out ])
      end
      else Cfg.set_block cfg (Block.make id stores [ goto (List.nth chain (i + 1)) ]))
    chain;
  Cfg.set_block cfg (Block.make out [] [ ret_exit ]);
  cfg.Cfg.entry <- entry;
  finish Store_dense seed cfg

(* One block with a deep chain of compares and guarded computes — each
   instruction predicated on the previous predicate — ending in a
   guarded two-way exit.  Stresses predicate-aware liveness and the
   exactly-one-exit invariant under deep dataflow predication. *)
let gen_predicate_chain rng seed =
  let cfg = Cfg.create ~name:(Fmt.str "fz-pred-%d" seed) () in
  let entry = Cfg.fresh_block_id cfg in
  let chain = Cfg.fresh_block_id cfg in
  let a = Cfg.fresh_block_id cfg in
  let b = Cfg.fresh_block_id cfg in
  let latch = Cfg.fresh_block_id cfg in
  let out = Cfg.fresh_block_id cfg in
  let cnt = Cfg.fresh_reg cfg in
  let x = Cfg.fresh_reg cfg in
  Cfg.set_block cfg
    (Block.make entry
       [ mov cfg cnt (2 + Random.State.int rng 4); mov cfg x (seed mod 97) ]
       [ goto chain ]);
  let depth = 8 + Random.State.int rng 16 in
  let instrs = ref [] in
  let prev = ref None in
  for i = 0 to depth - 1 do
    let p = Cfg.fresh_reg cfg in
    let guard =
      Option.map (fun g -> { Instr.greg = g; sense = i land 1 = 0 }) !prev
    in
    instrs :=
      Cfg.instr ?guard cfg
        (Instr.Binop (Opcode.Xor, x, Instr.Reg x, Instr.Imm (i + 1)))
      :: Cfg.instr cfg (Instr.Cmp (Opcode.Gt, p, Instr.Reg x, Instr.Imm i))
      :: !instrs;
    prev := Some p
  done;
  let last = Option.get !prev in
  Cfg.set_block cfg (Block.make chain (List.rev !instrs) [ gif last a; gelse last b ]);
  Cfg.set_block cfg
    (Block.make a [ store cfg (Instr.Reg x) (seed mod 32) ] [ goto latch ]);
  Cfg.set_block cfg
    (Block.make b [ store cfg (Instr.Imm 5) (32 + (seed mod 32)) ] [ goto latch ]);
  let decs, p = count_down cfg cnt in
  Cfg.set_block cfg (Block.make latch decs [ gif p chain; gelse p out ]);
  Cfg.set_block cfg (Block.make out [] [ ret_exit ]);
  cfg.Cfg.entry <- entry;
  finish Predicate_chain seed cfg

(* A switch-style dispatch: the selector varies per iteration and every
   target is a distinct guarded exit (one-hot by construction), the
   indirect-branch texture that forces heavy tail duplication. *)
let gen_fanout rng seed =
  let cfg = Cfg.create ~name:(Fmt.str "fz-fan-%d" seed) () in
  let k = 6 + Random.State.int rng 5 in
  let entry = Cfg.fresh_block_id cfg in
  let dispatch = Cfg.fresh_block_id cfg in
  let targets = List.init k (fun _ -> Cfg.fresh_block_id cfg) in
  let latch = Cfg.fresh_block_id cfg in
  let out = Cfg.fresh_block_id cfg in
  let cnt = Cfg.fresh_reg cfg in
  let base = Cfg.fresh_reg cfg in
  let s = Cfg.fresh_reg cfg in
  Cfg.set_block cfg
    (Block.make entry
       [ mov cfg cnt (4 + Random.State.int rng 8); mov cfg base (seed mod 1009) ]
       [ goto dispatch ]);
  let tests =
    List.mapi
      (fun i _ ->
        let e = Cfg.fresh_reg cfg in
        (e, Cfg.instr cfg (Instr.Cmp (Opcode.Eq, e, Instr.Reg s, Instr.Imm i))))
      targets
  in
  Cfg.set_block cfg
    (Block.make dispatch
       ([
          Cfg.instr cfg (Instr.Binop (Opcode.Add, s, Instr.Reg base, Instr.Reg cnt));
          Cfg.instr cfg (Instr.Binop (Opcode.Rem, s, Instr.Reg s, Instr.Imm k));
        ]
       @ List.map snd tests)
       (List.map2 (fun (e, _) t -> gif e t) tests targets));
  List.iteri
    (fun i t ->
      Cfg.set_block cfg
        (Block.make t
           [ store cfg (Instr.Imm (i * 11)) (i + (seed mod 16)) ]
           [ goto latch ]))
    targets;
  let decs, p = count_down cfg cnt in
  Cfg.set_block cfg (Block.make latch decs [ gif p dispatch; gelse p out ]);
  Cfg.set_block cfg (Block.make out [] [ ret_exit ]);
  cfg.Cfg.entry <- entry;
  finish Fanout seed cfg

(* Two blocks exchanging a wide set of live values: the producer defines
   ~28 distinct registers, the consumer reads them all — right at the
   32-read/32-write budgets, where merging must fail on the bank axes
   and fanout insertion works hardest. *)
let gen_bank_pressure rng seed =
  let cfg = Cfg.create ~name:(Fmt.str "fz-bank-%d" seed) () in
  let entry = Cfg.fresh_block_id cfg in
  let producer = Cfg.fresh_block_id cfg in
  let consumer = Cfg.fresh_block_id cfg in
  let out = Cfg.fresh_block_id cfg in
  let cnt = Cfg.fresh_reg cfg in
  let width = 24 + Random.State.int rng 5 in
  let vals = List.init width (fun _ -> Cfg.fresh_reg cfg) in
  Cfg.set_block cfg
    (Block.make entry
       [ mov cfg cnt (2 + Random.State.int rng 3) ]
       [ goto producer ]);
  Cfg.set_block cfg
    (Block.make producer
       (List.mapi (fun i r -> mov cfg r ((i * 13) + (seed mod 7))) vals)
       [ goto consumer ]);
  let acc = Cfg.fresh_reg cfg in
  let sums =
    mov cfg acc 0
    :: List.map
         (fun r ->
           Cfg.instr cfg (Instr.Binop (Opcode.Add, acc, Instr.Reg acc, Instr.Reg r)))
         vals
  in
  let decs, p = count_down cfg cnt in
  Cfg.set_block cfg
    (Block.make consumer
       (sums @ [ store cfg (Instr.Reg acc) (seed mod mem_words) ] @ decs)
       [ gif p producer; gelse p out ]);
  Cfg.set_block cfg (Block.make out [] [ ret_exit ]);
  cfg.Cfg.entry <- entry;
  finish Bank_pressure seed cfg

(* A single self-looping block already near the 128-instruction cap:
   nothing can merge into it, unrolling must be refused, and every
   budget estimate sits at the edge. *)
let gen_giant_block rng seed =
  let cfg = Cfg.create ~name:(Fmt.str "fz-giant-%d" seed) () in
  let entry = Cfg.fresh_block_id cfg in
  let giant = Cfg.fresh_block_id cfg in
  let out = Cfg.fresh_block_id cfg in
  let cnt = Cfg.fresh_reg cfg in
  let x = Cfg.fresh_reg cfg in
  Cfg.set_block cfg
    (Block.make entry
       [ mov cfg cnt (2 + Random.State.int rng 3); mov cfg x 1 ]
       [ goto giant ]);
  let body = 100 + Random.State.int rng 20 in
  let instrs = ref [] in
  for i = 0 to body - 1 do
    let op =
      if i mod 11 = 10 then
        Instr.Store (Instr.Reg x, Instr.Imm (i mod mem_words), 0)
      else
        Instr.Binop
          ( (if i land 1 = 0 then Opcode.Add else Opcode.Xor),
            x, Instr.Reg x, Instr.Imm (i + 1) )
    in
    instrs := Cfg.instr cfg op :: !instrs
  done;
  let decs, p = count_down cfg cnt in
  Cfg.set_block cfg
    (Block.make giant (List.rev !instrs @ decs) [ gif p giant; gelse p out ]);
  Cfg.set_block cfg (Block.make out [] [ ret_exit ]);
  cfg.Cfg.entry <- entry;
  finish Giant_block seed cfg

(* A random connected strict CFG: block k always has an edge to k+1 and
   possibly a second edge elsewhere.  A backward second edge gets a
   guard that is statically false (the selector is fixed in the entry),
   so formation sees arbitrary cyclic structure while execution makes
   forward progress only — terminating by construction. *)
let gen_random_cfg rng seed =
  let cfg = Cfg.create ~name:(Fmt.str "fz-rand-%d" seed) () in
  let n = 4 + Random.State.int rng 13 in
  for _ = 1 to n do
    ignore (Cfg.fresh_block_id cfg)
  done;
  let sel = Cfg.fresh_reg cfg in
  let selv = Random.State.int rng 7 in
  for k = 0 to n - 1 do
    let filler =
      let r = Cfg.fresh_reg cfg in
      [
        mov cfg r ((k * 5) + 1);
        Cfg.instr cfg (Instr.Binop (Opcode.Mul, r, Instr.Reg r, Instr.Imm (k + 2)));
        store cfg (Instr.Reg r) (k * 3);
      ]
    in
    let pre = if k = 0 then [ mov cfg sel selv ] else [] in
    let tests, exits =
      if k = n - 1 then ([], [ ret_exit ])
      else
        let other = Random.State.int rng n in
        if other = k + 1 || Random.State.bool rng then ([], [ goto (k + 1) ])
        else begin
          let g = Cfg.fresh_reg cfg in
          (* threshold picks which way the guard resolves: a backward
             second edge must statically lose so execution stays
             forward-moving; a forward one may win *)
          let threshold =
            if other <= k then 100 else if Random.State.bool rng then 100 else 3
          in
          let test =
            Cfg.instr cfg (Instr.Cmp (Opcode.Lt, g, Instr.Reg sel, Instr.Imm threshold))
          in
          ([ test ], [ gif g (k + 1); gelse g other ])
        end
    in
    Cfg.set_block cfg (Block.make k (pre @ filler @ tests) exits)
  done;
  cfg.Cfg.entry <- 0;
  finish Random_cfg seed cfg

(* A whole mini-language program with adversarial knobs: deeper nests,
   denser branching and more lopsided biases than the SPEC-like recipes
   use, exercising the full lower->profile->form->backend->sim path. *)
let gen_lang_program rng seed =
  let ri lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let recipe =
    {
      Trips_workloads.Spec_like.name = Fmt.str "fz-lang-%d" seed;
      seed;
      outer_iters = ri 3 40;
      segments = ri 1 6;
      branch_density = float_of_int (ri 0 10) /. 10.0;
      branch_bias = float_of_int (ri 1 9) /. 10.0;
      while_fraction = float_of_int (ri 0 10) /. 10.0;
      trip_choices = [ 1; 2; 3; 5; 8 ];
      nest_prob = float_of_int (ri 0 10) /. 10.0;
      stmts_per_block = ri 1 8;
    }
  in
  { shape = Lang_program; seed; payload = Lang_case recipe }

(* ---- entry points ------------------------------------------------------ *)

let generate shape ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash (shape_name shape) |] in
  match shape with
  | Irreducible -> gen_irreducible rng seed
  | Nested_loops -> gen_nested_loops rng seed
  | Store_dense -> gen_store_dense rng seed
  | Predicate_chain -> gen_predicate_chain rng seed
  | Fanout -> gen_fanout rng seed
  | Bank_pressure -> gen_bank_pressure rng seed
  | Giant_block -> gen_giant_block rng seed
  | Random_cfg -> gen_random_cfg rng seed
  | Lang_program -> gen_lang_program rng seed

let generate_nth ~base_seed i =
  let shape = List.nth all_shapes (i mod List.length all_shapes) in
  (* splitmix-style stride keeps per-case seeds well separated without
     any shared mutable RNG, so cases replay independently *)
  let seed = (base_seed * 1_000_003) + (i * 7919) + 1 in
  generate shape ~seed
