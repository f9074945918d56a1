(* Request-scoped telemetry: trace contexts, per-request span trees and
   a rolling-window aggregation layer.

   This module is deliberately self-contained (no dependency on Trace or
   Metrics — both of *them* call in here), so it can sit at the bottom
   of the obs stack: Trace.span / Trace.record / Metrics.incr notify the
   collector installed on the calling domain, and the serve scheduler
   owns the collector's lifecycle (start at dequeue, finish at
   completion).

   Determinism contract: nothing in this module touches the Trace event
   stream or the Metrics registry, so with no collector installed — the
   one-shot CLI and tests — every existing output is byte-identical, and
   a served request's outputs match the one-shot pipeline's.  Within one
   request the collector is purely domain-local (a request executes
   start-to-finish on one worker domain), so the per-request event order
   is the sequential order regardless of [--jobs]. *)

type value = Int of int | Float of float | Str of string | Bool of bool

(* ---- trace context ----------------------------------------------------- *)

type ctx = {
  tc_id : string;
  tc_parent : int;
  tc_deadline_s : float option;
  tc_chaos_seed : int option;
}

let mint_counter = Atomic.make 0

let mint ?deadline_s ?chaos_seed () =
  let n = Atomic.fetch_and_add mint_counter 1 in
  (* pid + monotone counter + wall clock, digested: unique across the
     daemon's clients without sharing any state between them *)
  let raw =
    Printf.sprintf "%d.%d.%.9f" (Unix.getpid ()) n (Unix.gettimeofday ())
  in
  let id = "req-" ^ String.sub (Digest.to_hex (Digest.string raw)) 0 12 in
  Some
    { tc_id = id; tc_parent = 0; tc_deadline_s = deadline_s; tc_chaos_seed = chaos_seed }

(* ---- rolling window ---------------------------------------------------- *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let quantile_of_sorted sorted n q =
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    List.nth sorted (rank - 1)
  end

module Window = struct
  type quantiles = {
    q_count : int;
    q_sum : float;
    q_min : float;
    q_max : float;
    q_p50 : float;
    q_p90 : float;
    q_p99 : float;
  }

  type snapshot = {
    w_span_s : float;
    w_counters : (string * int) list;
    w_gauges : (string * float) list;
    w_histograms : (string * quantiles) list;
  }

  (* One fixed-width time bucket.  [b_epoch] is the absolute bucket
     index (now / bucket_s); a bucket whose epoch has rotated out of the
     live range is logically empty and is reset lazily on reuse. *)
  type bucket = {
    mutable b_epoch : int;  (* -1 = never used *)
    b_counts : (string, int) Hashtbl.t;
    b_samples : (string, float list ref) Hashtbl.t;
  }

  type t = {
    w_m : Mutex.t;
    w_bucket_s : float;
    w_buckets : bucket array;
    w_gauge_tbl : (string, float) Hashtbl.t;
  }

  let create ?(buckets = 30) ?(bucket_s = 1.0) () =
    {
      w_m = Mutex.create ();
      w_bucket_s = (if bucket_s <= 0.0 then 1.0 else bucket_s);
      w_buckets =
        Array.init (max 1 buckets) (fun _ ->
            { b_epoch = -1; b_counts = Hashtbl.create 8; b_samples = Hashtbl.create 8 });
      w_gauge_tbl = Hashtbl.create 8;
    }

  let span_s t = float_of_int (Array.length t.w_buckets) *. t.w_bucket_s
  let epoch_of t now = int_of_float (now /. t.w_bucket_s)
  let now_or = function Some n -> n | None -> Unix.gettimeofday ()

  let live t ~epoch_now e =
    e >= 0 && e > epoch_now - Array.length t.w_buckets && e <= epoch_now

  (* with [w_m] held: the bucket slot for [epoch], reset if it still
     holds an older rotation; [None] if a newer epoch already occupies
     the slot (writing "into the past" across the ring seam). *)
  let bucket_at t epoch =
    let n = Array.length t.w_buckets in
    let b = t.w_buckets.(((epoch mod n) + n) mod n) in
    if b.b_epoch = epoch then Some b
    else if b.b_epoch > epoch then None
    else begin
      Hashtbl.reset b.b_counts;
      Hashtbl.reset b.b_samples;
      b.b_epoch <- epoch;
      Some b
    end

  let incr t ?now ?(by = 1) name =
    let now = now_or now in
    Mutex.protect t.w_m (fun () ->
        match bucket_at t (epoch_of t now) with
        | None -> ()
        | Some b ->
          let v = Option.value ~default:0 (Hashtbl.find_opt b.b_counts name) in
          Hashtbl.replace b.b_counts name (v + by))

  let observe t ?now name x =
    let now = now_or now in
    Mutex.protect t.w_m (fun () ->
        match bucket_at t (epoch_of t now) with
        | None -> ()
        | Some b -> (
          match Hashtbl.find_opt b.b_samples name with
          | Some r -> r := x :: !r
          | None -> Hashtbl.replace b.b_samples name (ref [ x ])))

  let set_gauge t name v =
    Mutex.protect t.w_m (fun () -> Hashtbl.replace t.w_gauge_tbl name v)

  let gauge_value t name =
    Mutex.protect t.w_m (fun () -> Hashtbl.find_opt t.w_gauge_tbl name)

  (* Copy [src]'s live buckets into [into], aligning epochs through
     absolute time (the two windows may use different bucket widths).
     Locks are taken one at a time — src is drained to a list first — so
     merging in both directions from two domains cannot deadlock. *)
  let merge ~into ?now src =
    if into != src then begin
      let now = now_or now in
      let data, gauges =
        Mutex.protect src.w_m (fun () ->
            ( Array.to_list src.w_buckets
              |> List.filter_map (fun b ->
                     if b.b_epoch < 0 then None
                     else
                       Some
                         ( b.b_epoch,
                           sorted_bindings b.b_counts,
                           Hashtbl.fold
                             (fun k r acc -> (k, !r) :: acc)
                             b.b_samples [] )),
              sorted_bindings src.w_gauge_tbl ))
      in
      Mutex.protect into.w_m (fun () ->
          let epoch_now = epoch_of into now in
          List.iter
            (fun (src_epoch, counts, samples) ->
              let t0 = float_of_int src_epoch *. src.w_bucket_s in
              let epoch = epoch_of into t0 in
              if live into ~epoch_now epoch then
                match bucket_at into epoch with
                | None -> ()
                | Some b ->
                  List.iter
                    (fun (k, v) ->
                      let cur =
                        Option.value ~default:0 (Hashtbl.find_opt b.b_counts k)
                      in
                      Hashtbl.replace b.b_counts k (cur + v))
                    counts;
                  List.iter
                    (fun (k, xs) ->
                      match Hashtbl.find_opt b.b_samples k with
                      | Some r -> r := xs @ !r
                      | None -> Hashtbl.replace b.b_samples k (ref xs))
                    samples)
            data;
          List.iter
            (fun (k, v) -> Hashtbl.replace into.w_gauge_tbl k v)
            gauges)
    end

  let snapshot ?now t =
    let now = now_or now in
    Mutex.protect t.w_m (fun () ->
        let epoch_now = epoch_of t now in
        let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
        let samples : (string, float list) Hashtbl.t = Hashtbl.create 16 in
        Array.iter
          (fun b ->
            if live t ~epoch_now b.b_epoch then begin
              Hashtbl.iter
                (fun k v ->
                  let cur = Option.value ~default:0 (Hashtbl.find_opt counts k) in
                  Hashtbl.replace counts k (cur + v))
                b.b_counts;
              Hashtbl.iter
                (fun k r ->
                  let cur =
                    Option.value ~default:[] (Hashtbl.find_opt samples k)
                  in
                  Hashtbl.replace samples k (!r @ cur))
                b.b_samples
            end)
          t.w_buckets;
        let histograms =
          sorted_bindings samples
          |> List.map (fun (name, xs) ->
                 let sorted = List.sort compare xs in
                 let n = List.length sorted in
                 let q p = quantile_of_sorted sorted n p in
                 let sum = List.fold_left ( +. ) 0.0 sorted in
                 ( name,
                   {
                     q_count = n;
                     q_sum = sum;
                     q_min = (match sorted with x :: _ -> x | [] -> 0.0);
                     q_max =
                       (match List.rev sorted with x :: _ -> x | [] -> 0.0);
                     q_p50 = q 0.5;
                     q_p90 = q 0.9;
                     q_p99 = q 0.99;
                   } ))
        in
        {
          w_span_s = span_s t;
          w_counters = sorted_bindings counts;
          w_gauges = sorted_bindings t.w_gauge_tbl;
          w_histograms = histograms;
        })

  let reset t =
    Mutex.protect t.w_m (fun () ->
        Array.iter
          (fun b ->
            b.b_epoch <- -1;
            Hashtbl.reset b.b_counts;
            Hashtbl.reset b.b_samples)
          t.w_buckets;
        Hashtbl.reset t.w_gauge_tbl)

  let counter_value s name =
    Option.value ~default:0 (List.assoc_opt name s.w_counters)

  let quantiles s name = List.assoc_opt name s.w_histograms
end

(* the daemon's window: 30 one-second buckets *)
let global_window = Window.create ()

let win_incr ?by name = Window.incr global_window ?by name
let win_observe name x = Window.observe global_window name x
let win_gauge name v = Window.set_gauge global_window name v
let win_snapshot () = Window.snapshot global_window

(* ---- per-request span-tree collector ----------------------------------- *)

type span = {
  sp_id : int;
  sp_parent : int;  (* -1 for the root "request" span *)
  sp_name : string;
  sp_fields : (string * value) list;
  sp_start_us : float;  (* relative to request admission *)
  mutable sp_dur_us : float;  (* negative while open *)
}

type note = {
  nt_span : int;
  nt_ts_us : float;
  nt_kind : string;
  nt_fields : (string * value) list;
}

type trace = {
  tr_id : string;
  tr_kind : string;
  tr_queue_wait_s : float;
  mutable tr_outcome : string;
  mutable tr_total_s : float;
  mutable tr_spans : span list;  (* creation order *)
  mutable tr_notes : note list;  (* emission order *)
  mutable tr_counters : (string * int) list;  (* sorted by name *)
}

type active = {
  a_tr : trace;
  a_t0 : float;  (* wall clock at execute start *)
  a_base_us : float;  (* queue wait, in µs: offset of execute on the timeline *)
  mutable a_next_id : int;
  mutable a_stack : span list;  (* open spans, innermost first *)
  mutable a_spans_rev : span list;
  mutable a_notes_rev : note list;
  a_counts : (string, int) Hashtbl.t;
}

let slot_key : active option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let active () = Option.is_some !(Domain.DLS.get slot_key)

let now_us a = ((Unix.gettimeofday () -. a.a_t0) *. 1e6) +. a.a_base_us

let start ctx ~kind ~queue_wait_s =
  match ctx with
  | None -> None
  | Some c ->
    let qus = queue_wait_s *. 1e6 in
    let tr =
      {
        tr_id = c.tc_id;
        tr_kind = kind;
        tr_queue_wait_s = queue_wait_s;
        tr_outcome = "";
        tr_total_s = 0.0;
        tr_spans = [];
        tr_notes = [];
        tr_counters = [];
      }
    in
    (* Three synthesized spans frame the request's timeline: the root
       covers admission to completion, queue-wait the time spent queued
       (already over, so closed immediately), execute everything the
       worker does — pipeline spans nest under it via the stack. *)
    let root_fields =
      (match c.tc_deadline_s with
      | Some d -> [ ("deadline_s", Float d) ]
      | None -> [])
      @
      match c.tc_chaos_seed with
      | Some s -> [ ("chaos_seed", Int s) ]
      | None -> []
    in
    let root =
      { sp_id = 0; sp_parent = -1; sp_name = "request"; sp_fields = root_fields;
        sp_start_us = 0.0; sp_dur_us = -1.0 }
    in
    let qw =
      { sp_id = 1; sp_parent = 0; sp_name = "queue-wait"; sp_fields = [];
        sp_start_us = 0.0; sp_dur_us = qus }
    in
    let ex =
      { sp_id = 2; sp_parent = 0; sp_name = "execute"; sp_fields = [];
        sp_start_us = qus; sp_dur_us = -1.0 }
    in
    Some
      {
        a_tr = tr;
        a_t0 = Unix.gettimeofday ();
        a_base_us = qus;
        a_next_id = 3;
        a_stack = [ ex; root ];
        a_spans_rev = [ ex; qw; root ];
        a_notes_rev = [];
        a_counts = Hashtbl.create 16;
      }

let run act f =
  match act with
  | None -> f ()
  | Some _ ->
    let slot = Domain.DLS.get slot_key in
    let saved = !slot in
    slot := act;
    Fun.protect ~finally:(fun () -> slot := saved) f

let span_enter name fields =
  match !(Domain.DLS.get slot_key) with
  | None -> ()
  | Some a ->
    let parent = match a.a_stack with sp :: _ -> sp.sp_id | [] -> 0 in
    let sp =
      { sp_id = a.a_next_id; sp_parent = parent; sp_name = name;
        sp_fields = fields; sp_start_us = now_us a; sp_dur_us = -1.0 }
    in
    a.a_next_id <- a.a_next_id + 1;
    a.a_stack <- sp :: a.a_stack;
    a.a_spans_rev <- sp :: a.a_spans_rev

let span_exit ~dur_s =
  match !(Domain.DLS.get slot_key) with
  | None -> ()
  | Some a -> (
    match a.a_stack with
    | sp :: rest when sp.sp_id > 2 ->
      (* the synthesized frame spans (ids 0–2) are closed by [finish],
         never by an instrumentation exit *)
      sp.sp_dur_us <- dur_s *. 1e6;
      a.a_stack <- rest;
      win_observe ("span." ^ sp.sp_name ^ "_s") dur_s
    | _ -> ())

let note kind fields =
  match !(Domain.DLS.get slot_key) with
  | None -> ()
  | Some a ->
    let parent = match a.a_stack with sp :: _ -> sp.sp_id | [] -> 0 in
    a.a_notes_rev <-
      { nt_span = parent; nt_ts_us = now_us a; nt_kind = kind; nt_fields = fields }
      :: a.a_notes_rev

let count ?(by = 1) name =
  match !(Domain.DLS.get slot_key) with
  | None -> ()
  | Some a ->
    let v = Option.value ~default:0 (Hashtbl.find_opt a.a_counts name) in
    Hashtbl.replace a.a_counts name (v + by)

(* ---- finished-trace ring ----------------------------------------------- *)

let ring_m = Mutex.create ()
let ring : trace Queue.t = Queue.create ()
let ring_cap = ref 64
let set_ring_capacity n = ring_cap := max 1 n

let finish act ~outcome =
  match act with
  | None -> ()
  | Some a ->
    let end_us = now_us a in
    let exec_s = (end_us -. a.a_base_us) /. 1e6 in
    (* a non-local exit (watchdog timeout, crash) unwinds through
       Trace.span's finishers, so instrumentation spans are already
       closed; anything still open here is a frame span (or a bug in an
       instrumentation site), which we close at the request's end *)
    List.iter
      (fun sp ->
        if sp.sp_dur_us < 0.0 then sp.sp_dur_us <- end_us -. sp.sp_start_us)
      a.a_stack;
    a.a_stack <- [];
    let tr = a.a_tr in
    tr.tr_outcome <- outcome;
    tr.tr_total_s <- tr.tr_queue_wait_s +. exec_s;
    tr.tr_spans <- List.rev a.a_spans_rev;
    tr.tr_notes <- List.rev a.a_notes_rev;
    tr.tr_counters <- sorted_bindings a.a_counts;
    Mutex.protect ring_m (fun () ->
        Queue.push tr ring;
        while Queue.length ring > !ring_cap do
          ignore (Queue.pop ring)
        done);
    win_incr ("serve.req." ^ outcome);
    win_observe "serve.latency_s" tr.tr_total_s;
    win_observe "serve.queue_wait_s" tr.tr_queue_wait_s;
    win_observe "serve.execute_s" exec_s

let find id =
  Mutex.protect ring_m (fun () ->
      Queue.fold
        (fun acc tr -> if tr.tr_id = id then Some tr else acc)
        None ring)

let recent () =
  Mutex.protect ring_m (fun () -> List.rev (List.of_seq (Queue.to_seq ring)))

let reset () =
  Mutex.protect ring_m (fun () -> Queue.clear ring);
  Window.reset global_window

(* ---- rendering and well-formedness ------------------------------------- *)

let pp_value buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s -> Buffer.add_string buf s

let pp_fields buf fields =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      pp_value buf v)
    fields

let render tr =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "request    : %s (%s)\n" tr.tr_id tr.tr_kind;
  Printf.bprintf buf "outcome    : %s\n" tr.tr_outcome;
  Printf.bprintf buf "queue-wait : %.3f ms\n" (tr.tr_queue_wait_s *. 1e3);
  Printf.bprintf buf "total      : %.3f ms\n" (tr.tr_total_s *. 1e3);
  Buffer.add_string buf "spans:\n";
  let children = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt children sp.sp_parent) in
      Hashtbl.replace children sp.sp_parent (sp :: cur))
    (List.rev tr.tr_spans);
  let notes_of = Hashtbl.create 16 in
  List.iter
    (fun nt ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt notes_of nt.nt_span) in
      Hashtbl.replace notes_of nt.nt_span (nt :: cur))
    (List.rev tr.tr_notes);
  let rec walk depth sp =
    Printf.bprintf buf "  %s%-*s %10.3f ms  +%.3f ms"
      (String.make (2 * depth) ' ')
      (max 1 (28 - (2 * depth)))
      sp.sp_name
      (sp.sp_dur_us /. 1e3)
      (sp.sp_start_us /. 1e3);
    pp_fields buf sp.sp_fields;
    Buffer.add_char buf '\n';
    List.iter
      (fun nt ->
        Printf.bprintf buf "  %s· [%s]"
          (String.make (2 * (depth + 1)) ' ')
          nt.nt_kind;
        pp_fields buf nt.nt_fields;
        Buffer.add_char buf '\n')
      (Option.value ~default:[] (Hashtbl.find_opt notes_of sp.sp_id));
    List.iter (walk (depth + 1))
      (Option.value ~default:[] (Hashtbl.find_opt children sp.sp_id))
  in
  List.iter (walk 0) (Option.value ~default:[] (Hashtbl.find_opt children (-1)));
  if tr.tr_counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (name, v) -> Printf.bprintf buf "  %-36s %10d\n" name v)
      tr.tr_counters
  end;
  Buffer.contents buf

exception Malformed of string

let check tr =
  let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt in
  (* clock-jitter slack: spans time themselves with separate wall-clock
     reads, so nested bounds can disagree by a few µs of rounding *)
  let eps = 50.0 in
  let total_us = tr.tr_total_s *. 1e6 in
  let by_id = Hashtbl.create 16 in
  try
    List.iter (fun sp -> Hashtbl.replace by_id sp.sp_id sp) tr.tr_spans;
    if tr.tr_outcome = "" then fail "request has no outcome";
    List.iter
      (fun sp ->
        if sp.sp_dur_us < 0.0 then fail "span %s (#%d) never closed" sp.sp_name sp.sp_id;
        if sp.sp_start_us < -.eps then
          fail "span %s (#%d) starts before the request" sp.sp_name sp.sp_id;
        if sp.sp_start_us +. sp.sp_dur_us > total_us +. eps then
          fail "span %s (#%d) outlives the request" sp.sp_name sp.sp_id;
        if sp.sp_parent = -1 then begin
          if sp.sp_id <> 0 then
            fail "span %s (#%d) claims to be a root" sp.sp_name sp.sp_id
        end
        else
          match Hashtbl.find_opt by_id sp.sp_parent with
          | None -> fail "span %s (#%d) has no parent" sp.sp_name sp.sp_id
          | Some p ->
            if p.sp_id >= sp.sp_id then
              fail "span %s (#%d) precedes its parent" sp.sp_name sp.sp_id;
            if
              sp.sp_start_us +. eps < p.sp_start_us
              || sp.sp_start_us +. sp.sp_dur_us
                 > p.sp_start_us +. p.sp_dur_us +. eps
            then fail "span %s (#%d) escapes its parent" sp.sp_name sp.sp_id)
      tr.tr_spans;
    List.iter
      (fun nt ->
        if not (Hashtbl.mem by_id nt.nt_span) then
          fail "note [%s] attached to unknown span #%d" nt.nt_kind nt.nt_span)
      tr.tr_notes;
    Ok ()
  with Malformed msg -> Error msg
