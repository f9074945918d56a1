(* Span trees: trace contexts, the one span recorder, and the ring of
   finished requests.

   Metrics sits below this module and Trace above it.  A recorder holds
   one span tree and its notes; Trace.span / Trace.record feed the
   recorder installed on the calling domain.  The serve scheduler opens
   one per request (start at dequeue, finish at completion, with the
   request's counter table installed through
   Metrics.with_request_counters by [run]); a traced CLI run opens one
   per engine cell through Trace.  Both produce the same [trace].

   Determinism contract: nothing in this module touches the Trace event
   stream or the Metrics registry.  A request's recorder writes only the
   daemon's rolling window, Metrics.window, so every one-shot output is
   byte-identical whether or not a recorder is installed, and a served
   request's outputs match the one-shot pipeline's.  A recorder is
   purely domain-local (a request, like an engine cell, executes
   start-to-finish on one domain), so its event order is the sequential
   order regardless of [--jobs]. *)

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

(* ---- the span recorder ------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_parent : int;  (* -1 for the root span *)
  sp_name : string;
  sp_fields : (string * value) list;
  sp_start_us : float;  (* on the recorder's timeline *)
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

(* A timeline position is [a_base_us] plus the µs elapsed on Clock.now
   since [a_t0]: a request's timeline starts at its admission, with
   execution beginning after the queue wait; a CLI cell's starts when
   the trace did, so every cell of a run shares one timeline. *)
type active = {
  a_tr : trace;
  a_t0 : float;
  a_base_us : float;
  a_frame : int;  (* spans below this id are synthesized, closed at the end *)
  mutable a_next_id : int;
  mutable a_stack : span list;  (* open spans, innermost first *)
  mutable a_spans_rev : span list;
  mutable a_notes_rev : note list;
  a_counts : (string, int) Hashtbl.t;
}

let slot_key : active option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get slot_key)

let swap act =
  let slot = Domain.DLS.get slot_key in
  let saved = !slot in
  slot := act;
  saved

let install a f =
  let saved = swap (Some a) in
  Fun.protect ~finally:(fun () -> ignore (swap saved)) f

let at_us a t = ((t -. a.a_t0) *. 1e6) +. a.a_base_us

(* A recorder whose [frame] spans (root first, then its open children,
   innermost last) are already laid out. *)
let recorder ~id ~kind ~queue_wait_s ~t0 ~base_us frame =
  let open_ = List.filter (fun sp -> sp.sp_dur_us < 0.0) frame in
  {
    a_tr =
      { tr_id = id; tr_kind = kind; tr_queue_wait_s = queue_wait_s;
        tr_outcome = ""; tr_total_s = 0.0; tr_spans = []; tr_notes = [];
        tr_counters = [] };
    a_t0 = t0;
    a_base_us = base_us;
    a_frame = List.length frame;
    a_next_id = List.length frame;
    a_stack = List.rev open_;
    a_spans_rev = List.rev frame;
    a_notes_rev = [];
    a_counts = Hashtbl.create 16;
  }

let frame_span id parent name fields start dur =
  { sp_id = id; sp_parent = parent; sp_name = name; sp_fields = fields;
    sp_start_us = start; sp_dur_us = dur }

let start ctx ~kind ~queue_wait_s =
  match ctx with
  | None -> None
  | Some c ->
    let qus = queue_wait_s *. 1e6 in
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
    Some
      (recorder ~id:c.tc_id ~kind ~queue_wait_s ~t0:(Clock.now ()) ~base_us:qus
         [
           frame_span 0 (-1) "request" root_fields 0.0 (-1.0);
           frame_span 1 0 "queue-wait" [] 0.0 qus;
           frame_span 2 0 "execute" [] qus (-1.0);
         ])

let open_cell cell ~t0 =
  let start = (Clock.now () -. t0) *. 1e6 in
  recorder ~id:(Printf.sprintf "cell %d" cell) ~kind:"cell" ~queue_wait_s:0.0
    ~t0 ~base_us:0.0 [ frame_span 0 (-1) "cell" [] start (-1.0) ]

let run act f =
  match act with
  | None -> f ()
  | Some a -> install a (fun () -> Metrics.with_request_counters a.a_counts f)

let span_enter a name fields ~t0 =
  let parent = match a.a_stack with sp :: _ -> sp.sp_id | [] -> 0 in
  let sp =
    { sp_id = a.a_next_id; sp_parent = parent; sp_name = name;
      sp_fields = fields; sp_start_us = at_us a t0; sp_dur_us = -1.0 }
  in
  a.a_next_id <- a.a_next_id + 1;
  a.a_stack <- sp :: a.a_stack;
  a.a_spans_rev <- sp :: a.a_spans_rev

let span_exit a ~dur_s =
  match a.a_stack with
  | sp :: rest when sp.sp_id >= a.a_frame ->
    (* the synthesized frame spans are closed by [close], never by an
       instrumentation exit *)
    sp.sp_dur_us <- dur_s *. 1e6;
    a.a_stack <- rest
  | _ -> ()

let note a kind fields =
  let parent = match a.a_stack with sp :: _ -> sp.sp_id | [] -> 0 in
  a.a_notes_rev <-
    { nt_span = parent; nt_ts_us = at_us a (Clock.now ()); nt_kind = kind;
      nt_fields = fields }
    :: a.a_notes_rev

let close a ~outcome =
  let end_us = at_us a (Clock.now ()) in
  (* a non-local exit (watchdog timeout, crash) unwinds through
     Trace.span's finishers, so instrumentation spans are already
     closed; anything still open here is a frame span (or a bug in an
     instrumentation site), which we close at the recording's end *)
  List.iter
    (fun sp -> if sp.sp_dur_us < 0.0 then sp.sp_dur_us <- end_us -. sp.sp_start_us)
    a.a_stack;
  a.a_stack <- [];
  let tr = a.a_tr in
  tr.tr_outcome <- outcome;
  tr.tr_total_s <- end_us /. 1e6;
  tr.tr_spans <- List.rev a.a_spans_rev;
  tr.tr_notes <- List.rev a.a_notes_rev;
  tr.tr_counters <- Metrics.sorted_bindings a.a_counts;
  tr

(* ---- finished-trace ring ----------------------------------------------- *)

let ring_m = Mutex.create ()
let ring : trace Queue.t = Queue.create ()
let ring_cap = ref 64
let set_ring_capacity n = ring_cap := max 1 n

let finish act ~outcome =
  match act with
  | None -> ()
  | Some a ->
    let tr = close a ~outcome in
    Mutex.protect ring_m (fun () ->
        Queue.push tr ring;
        while Queue.length ring > !ring_cap do
          ignore (Queue.pop ring)
        done);
    let w = Metrics.window in
    Metrics.Window.incr w ("serve.req." ^ outcome);
    Metrics.Window.observe w "serve.latency_s" tr.tr_total_s;
    Metrics.Window.observe w "serve.queue_wait_s" tr.tr_queue_wait_s;
    Metrics.Window.observe w "serve.execute_s"
      (tr.tr_total_s -. tr.tr_queue_wait_s);
    List.iter
      (fun sp ->
        if sp.sp_id >= a.a_frame then
          Metrics.Window.observe w ("span." ^ sp.sp_name ^ "_s") (sp.sp_dur_us /. 1e6))
      tr.tr_spans

let find id =
  Mutex.protect ring_m (fun () ->
      Queue.fold
        (fun acc tr -> if tr.tr_id = id then Some tr else acc)
        None ring)

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
  (* clock-jitter slack: frame spans and their children time themselves
     with separate clock reads, so nested bounds can disagree by a few µs
     of rounding *)
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
