(* bench_diff — compare a freshly generated BENCH_*.json against the
   committed baseline, with tolerance.

     bench_diff BASELINE FRESH [TOLERANCE]

   Wall clocks vary across machines, so this is a warn-only gate: it
   always exits 0 unless a file is unreadable (exit 2).  Scalars are
   paired by their config-name context and key, so added or removed
   config rows and unknown keys — the bench shape evolving ahead of the
   committed baseline — produce warnings naming the unmatched fields
   instead of a hard failure; the shared fields are still compared.

   Rules, keyed on field names (no JSON library in the tree, so scalar
   "key": value pairs are extracted positionally with a regex — the
   bench writers emit a fixed field order, which also makes positional
   pairing sound):

   - timings (keys ending in [_s] or named [wall_s]): warn when the
     fresh value exceeds baseline * (1 + tolerance); default tolerance
     0.5, override with the third argument.
   - speedups / rates: warn when fresh < baseline / (1 + tolerance).
   - SLO breach counts (keys containing [breach]): lower is better —
     warn when the fresh value exceeds baseline * (1 + tolerance) by
     more than a small epsilon (0 staying 0 is the healthy case, unlike
     a counter).
   - counters (everything else numeric): warn when a nonzero baseline
     collapsed to zero — a fast path that stopped firing is a
     regression even when the wall clock looks fine.
   - booleans (e.g. identical_outputs): warn when the fresh run turned
     a true into a false. *)

type value =
  | Num of float
  | Bool of bool

(* latest "name": "..." string seen before a scalar, for readable
   warnings (the BENCH files label each config with a name field) *)
type scalar = { context : string; key : string; v : value }

let read_file path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    Some s
  with Sys_error _ -> None

let scalar_re =
  Re.compile
    (Re.alt
       [
         Re.seq
           [
             Re.char '"';
             Re.group (Re.rep1 (Re.alt [ Re.alnum; Re.char '_' ]));
             Re.char '"';
             Re.rep Re.space;
             Re.char ':';
             Re.rep Re.space;
             Re.group
               (Re.alt
                  [
                    Re.seq
                      [
                        Re.opt (Re.char '-');
                        Re.rep1 (Re.alt [ Re.digit; Re.char '.' ]);
                      ];
                    Re.str "true";
                    Re.str "false";
                  ]);
           ];
         Re.seq
           [
             Re.str "\"name\"";
             Re.rep Re.space;
             Re.char ':';
             Re.rep Re.space;
             Re.char '"';
             Re.group (Re.rep (Re.compl [ Re.char '"' ]));
             Re.char '"';
           ];
       ])

let scalars src =
  let context = ref "top-level" in
  Re.all scalar_re src
  |> List.filter_map (fun g ->
         if Re.Group.test g 3 then begin
           context := Re.Group.get g 3;
           None
         end
         else
           let key = Re.Group.get g 1 in
           let raw = Re.Group.get g 2 in
           let v =
             match raw with
             | "true" -> Bool true
             | "false" -> Bool false
             | n -> Num (float_of_string n)
           in
           Some { context = !context; key; v })

let contains key sub = Re.execp (Re.compile (Re.str sub)) key

let is_timing key =
  (* stddev is a noise measure, not a cost — the collapse rule is the
     only one that makes sense for it, so it falls through to counters *)
  (not (contains key "stddev"))
  && (key = "wall_s" || (String.length key > 2 && Filename.check_suffix key "_s"))

let is_higher_better key =
  contains key "speedup" || contains key "rate" || contains key "rps"
  || contains key "throughput"

(* SLO breach counts: a rise past tolerance means the service's health
   got worse even if every wall clock improved.  [slo_degraded] needs no
   rule of its own: the bench arms the sentinel so the burst must flip
   it, and the boolean true -> false rule catches a sentinel that
   stopped firing. *)
let is_lower_better key = contains key "breach"

let () =
  let usage () =
    prerr_endline "usage: bench_diff BASELINE FRESH [TOLERANCE]";
    exit 2
  in
  let baseline_path, fresh_path, tol =
    match Array.to_list Sys.argv with
    | [ _; b; f ] -> (b, f, 0.5)
    | [ _; b; f; t ] -> (b, f, float_of_string t)
    | _ -> usage ()
  in
  let load path =
    match read_file path with
    | Some s -> s
    | None ->
      Fmt.epr "bench-diff: cannot read %s@." path;
      exit 2
  in
  let base = scalars (load baseline_path) in
  let fresh = scalars (load fresh_path) in
  let warnings = ref 0 in
  let warn fmt =
    incr warnings;
    Fmt.epr ("bench-diff: WARNING: " ^^ fmt ^^ "@.")
  in
  let compare_pair b f =
    match (b.v, f.v) with
    | Bool bb, Bool fb ->
      if bb && not fb then warn "%s/%s flipped true -> false" f.context f.key
    | Num bn, Num fn ->
      if is_timing b.key then begin
        if fn > (bn *. (1.0 +. tol)) +. 0.05 then
          warn "%s/%s slowed: %.3f -> %.3f (tolerance %.0f%%)" f.context f.key
            bn fn (100.0 *. tol)
      end
      else if is_lower_better b.key then begin
        if fn > (bn *. (1.0 +. tol)) +. 0.005 then
          warn "%s/%s worsened: %.4f -> %.4f (tolerance %.0f%%)" f.context
            f.key bn fn (100.0 *. tol)
      end
      else if is_higher_better b.key then begin
        if fn < (bn /. (1.0 +. tol)) -. 0.05 then
          warn "%s/%s dropped: %.3f -> %.3f (tolerance %.0f%%)" f.context
            f.key bn fn (100.0 *. tol)
      end
      else if bn > 0.0 && fn = 0.0 then
        warn "%s/%s counter collapsed to 0 (baseline %.0f)" f.context f.key bn
    | _ -> warn "%s/%s changed type" f.context f.key
  in
  (* Pair scalars by context/key label, positionally within a label for
     the rare repeated field.  A label present in only one file is an
     added or removed config row or an unknown key — the bench shape
     evolved ahead of the committed baseline — which warns (naming the
     field) instead of hard-failing; the shared fields still compare. *)
  let label s = s.context ^ "/" ^ s.key in
  let pending : (string, scalar Queue.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let q =
        match Hashtbl.find_opt pending (label f) with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.add pending (label f) q;
          q
      in
      Queue.push f q)
    fresh;
  let matched : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let compared = ref 0 in
  List.iter
    (fun b ->
      match Hashtbl.find_opt pending (label b) with
      | Some q when not (Queue.is_empty q) ->
        let f = Queue.pop q in
        Hashtbl.replace matched (label b)
          (1 + Option.value ~default:0 (Hashtbl.find_opt matched (label b)));
        incr compared;
        compare_pair b f
      | _ ->
        warn "%s present only in baseline %s (removed row or key)" (label b)
          baseline_path)
    base;
  (* leftover fresh occurrences, reported in file order: the queue pops
     matched the first [matched] occurrences of each label *)
  let seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let l = label f in
      let k = Option.value ~default:0 (Hashtbl.find_opt seen l) in
      Hashtbl.replace seen l (k + 1);
      if k >= Option.value ~default:0 (Hashtbl.find_opt matched l) then
        warn "%s present only in fresh %s (added row or key)" l fresh_path)
    fresh;
  if !warnings = 0 then
    Fmt.pr "bench-diff: %s vs %s: %d field(s) within tolerance@."
      baseline_path fresh_path !compared
  else
    Fmt.pr
      "bench-diff: %s vs %s: %d field(s) compared, %d warning(s) (warn-only, \
       not failing)@."
      baseline_path fresh_path !compared !warnings
