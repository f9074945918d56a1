(* Request-scoped telemetry: trace contexts, per-request span trees and
   the ring of finished ones.

   Metrics sits below this module and Trace above it: Trace.span /
   Trace.record notify the collector installed on the calling domain,
   Metrics.incr counts into the collector's counter table (installed
   through Metrics.with_request_counters by [run]), and the serve
   scheduler owns the collector's lifecycle (start at dequeue, finish at
   completion).

   Determinism contract: nothing in this module touches the Trace event
   stream or the Metrics registry — it writes only the daemon's rolling
   window, Metrics.window — so with no collector installed (the one-shot
   CLI and tests) every existing output is byte-identical, and a served
   request's outputs match the one-shot pipeline's.  Within one request
   the collector is purely domain-local (a request executes
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
  | Some a ->
    let slot = Domain.DLS.get slot_key in
    let saved = !slot in
    slot := act;
    Fun.protect
      ~finally:(fun () -> slot := saved)
      (fun () -> Metrics.with_request_counters a.a_counts f)

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
      Metrics.Window.observe Metrics.window ("span." ^ sp.sp_name ^ "_s") dur_s
    | _ -> ())

let note kind fields =
  match !(Domain.DLS.get slot_key) with
  | None -> ()
  | Some a ->
    let parent = match a.a_stack with sp :: _ -> sp.sp_id | [] -> 0 in
    a.a_notes_rev <-
      { nt_span = parent; nt_ts_us = now_us a; nt_kind = kind; nt_fields = fields }
      :: a.a_notes_rev

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
    tr.tr_counters <- Metrics.sorted_bindings a.a_counts;
    Mutex.protect ring_m (fun () ->
        Queue.push tr ring;
        while Queue.length ring > !ring_cap do
          ignore (Queue.pop ring)
        done);
    let w = Metrics.window in
    Metrics.Window.incr w ("serve.req." ^ outcome);
    Metrics.Window.observe w "serve.latency_s" tr.tr_total_s;
    Metrics.Window.observe w "serve.queue_wait_s" tr.tr_queue_wait_s;
    Metrics.Window.observe w "serve.execute_s" exec_s

let find id =
  Mutex.protect ring_m (fun () ->
      Queue.fold
        (fun acc tr -> if tr.tr_id = id then Some tr else acc)
        None ring)

let recent () =
  Mutex.protect ring_m (fun () -> List.rev (List.of_seq (Queue.to_seq ring)))

let reset () =
  Mutex.protect ring_m (fun () -> Queue.clear ring);
  Metrics.Window.reset Metrics.window

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
