(* Per-function / per-block utilization reports.

   This is the presentation half of the provenance layer: the harness
   compiles a workload, runs the cycle simulator with an attribution
   collector, and hands this module plain data rows — block sizes,
   dynamic fetch/fire counts, cycle shares, flushes, the per-lineage-
   class breakdown and the formation decisions that built each block.
   Rendering mirrors the axes of the paper's Tables 2-3: how much of the
   128-slot block capacity formation filled, how much fetched work was
   useful (fired) vs predicated off, and how much of it duplication
   placed there.

   Everything here is deterministic: the cycle model is a timing
   calculation (no wall clock), rows arrive sorted, and the renderers
   use fixed formats — so the same workload produces byte-identical
   reports on any machine at any --jobs setting (make report-check). *)

type class_count = { cls : string; cc_fetched : int; cc_fired : int }

type block_row = {
  block : int;  (* block id in the final CFG *)
  static_size : int;  (* static instruction count *)
  execs : int;  (* dynamic block instances *)
  fetched : int;  (* dynamic instruction slots mapped *)
  fired : int;  (* slots that actually executed *)
  cycles : int;  (* share of the function's total cycles *)
  flushes : int;
  classes : class_count list;  (* sorted by class name *)
  decisions : string list;  (* formation decisions, chronological *)
}

type func_report = {
  fn : string;  (* workload name *)
  capacity : int;  (* machine slot capacity (128) *)
  total_cycles : int;
  blocks : block_row list;  (* sorted by block id *)
}

(* ---- derived quantities ------------------------------------------------- *)

(* [pct part whole] as a percentage; 0 when [whole] is 0 *)
let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let duplication_classes = [ "tail_dup"; "unroll"; "peel" ]

(* (fetched, fired) slots placed by a duplicating transform *)
let dup_counts row =
  List.fold_left
    (fun (f, e) c ->
      if List.mem c.cls duplication_classes then
        (f + c.cc_fetched, e + c.cc_fired)
      else (f, e))
    (0, 0) row.classes

(* predicated-off slots: fetched but never fired *)
let wasted row = row.fetched - row.fired

(* ---- worst-blocks ranking ----------------------------------------------- *)

(** The [n] blocks with the most predicated-off (wasted) fetch slots
    across all functions; ties break by cycles, then name/id, so the
    ranking is total. *)
let worst ?(n = 10) reports =
  let all =
    List.concat_map (fun r -> List.map (fun b -> (r.fn, b)) r.blocks) reports
  in
  let cmp (fa, a) (fb, b) =
    match compare (wasted b) (wasted a) with
    | 0 -> (
      match compare b.cycles a.cycles with
      | 0 -> compare (fa, a.block) (fb, b.block)
      | c -> c)
    | c -> c
  in
  let sorted = List.sort cmp all in
  List.filteri (fun i _ -> i < n) sorted

(* ---- text rendering ------------------------------------------------------ *)

let pp_classes fmt row =
  Fmt.pf fmt "%a"
    (Fmt.list ~sep:(Fmt.any ", ") (fun fmt c ->
         Fmt.pf fmt "%s %d/%d (%.1f%%)" c.cls c.cc_fetched row.fetched
           (pct c.cc_fetched row.fetched)))
    row.classes

let pp_block capacity total_cycles fmt row =
  Fmt.pf fmt "  b%-4d size %3d/%d (%5.1f%%)  execs %6d  fetched %8d  fired %8d (%5.1f%% useful)  cycles %8d (%5.1f%%)  flushes %4d@,"
    row.block row.static_size capacity
    (pct row.static_size capacity)
    row.execs row.fetched row.fired (pct row.fired row.fetched) row.cycles
    (pct row.cycles total_cycles)
    row.flushes;
  if row.classes <> [] then Fmt.pf fmt "        classes: %a@," pp_classes row;
  let dup_fetched, dup_fired = dup_counts row in
  if dup_fetched > 0 then
    Fmt.pf fmt "        duplication: fetched %d, executed %d, wasted %d@,"
      dup_fetched dup_fired (dup_fetched - dup_fired);
  if row.decisions <> [] then
    Fmt.pf fmt "        formed by: %a@,"
      (Fmt.list ~sep:(Fmt.any "; ") Fmt.string)
      row.decisions

let pp_func fmt r =
  let fetched = List.fold_left (fun a b -> a + b.fetched) 0 r.blocks in
  let fired = List.fold_left (fun a b -> a + b.fired) 0 r.blocks in
  let static = List.fold_left (fun a b -> a + b.static_size) 0 r.blocks in
  let n = List.length r.blocks in
  let mean_size = if n = 0 then 0.0 else float_of_int static /. float_of_int n in
  Fmt.pf fmt "@[<v>function %s: cycles %d, blocks %d, mean size %.1f/%d (%.1f%% of capacity), useful %.1f%%@,"
    r.fn r.total_cycles n mean_size r.capacity
    (100.0 *. mean_size /. float_of_int r.capacity)
    (pct fired fetched);
  List.iter (fun b -> pp_block r.capacity r.total_cycles fmt b) r.blocks;
  Fmt.pf fmt "@]"

let render fmt reports =
  Fmt.pf fmt "@[<v>";
  List.iter (fun r -> Fmt.pf fmt "%a@," pp_func r) reports;
  (match worst reports with
  | [] -> ()
  | ws ->
    Fmt.pf fmt "worst blocks by predicated-off (wasted) fetch slots:@,";
    List.iteri
      (fun i (fn, b) ->
        Fmt.pf fmt "  %2d. %s b%d: wasted %d of %d fetched, cycles %d%s@," (i + 1)
          fn b.block (wasted b) b.fetched b.cycles
          (if b.decisions = [] then ""
           else "  [" ^ String.concat "; " b.decisions ^ "]"))
      ws);
  Fmt.pf fmt "@]"

(* ---- JSON ---------------------------------------------------------------- *)

let to_json reports =
  let buf = Buffer.create 4096 in
  let str s =
    Buffer.add_char buf '"';
    Trace.escape buf s;
    Buffer.add_char buf '"'
  in
  Buffer.add_string buf "{\"functions\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"name\":";
      str r.fn;
      Buffer.add_string buf
        (Printf.sprintf ",\"capacity\":%d,\"cycles\":%d,\"blocks\":["
           r.capacity r.total_cycles);
      List.iteri
        (fun j b ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "{\"block\":%d,\"size\":%d,\"execs\":%d,\"fetched\":%d,\"fired\":%d,\"cycles\":%d,\"flushes\":%d,\"classes\":{"
               b.block b.static_size b.execs b.fetched b.fired b.cycles
               b.flushes);
          List.iteri
            (fun k c ->
              if k > 0 then Buffer.add_char buf ',';
              str c.cls;
              Buffer.add_string buf
                (Printf.sprintf ":{\"fetched\":%d,\"fired\":%d}" c.cc_fetched
                   c.cc_fired))
            b.classes;
          Buffer.add_string buf "},\"decisions\":[";
          List.iteri
            (fun k d ->
              if k > 0 then Buffer.add_char buf ',';
              str d)
            b.decisions;
          Buffer.add_string buf "]}")
        r.blocks;
      Buffer.add_string buf "]}")
    reports;
  Buffer.add_string buf "]}";
  Buffer.contents buf
