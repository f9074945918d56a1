(* Domain-safe structured event tracing.

   Design constraints, in order:

   - recording must be deterministic across [--jobs] settings after
     sorting, so events carry a (cell, seq) coordinate assigned on the
     recording domain: the cell is the engine slot being executed (every
     slot runs start-to-finish on one domain) and seq counts emissions
     within that slot.  Sorting by (cell, seq) therefore reconstructs
     exactly the stream a sequential run produces;
   - recording must be cheap when off: one atomic load;
   - recording must be safe from any domain: the shared buffer append is
     the only cross-domain interaction and sits under a mutex.

   The (cell, seq) state is domain-local (DLS), not global: two domains
   running different cells never contend on it, and a domain outside any
   [with_cell] span (single compiles, tests) records under cell -1 with
   a monotonically increasing seq. *)

(* [value] is shared with Telemetry so instrumentation sites feed both
   the global stream and a per-request collector with one field list. *)
type value = Telemetry.value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type event = {
  cell : int;
  seq : int;
  kind : string;
  fields : (string * value) list;
}

let enabled = Atomic.make false
let mutex = Mutex.create ()
let events : event list ref = ref []  (* reversed emission order *)

(* Span mode adds wall-clock timestamps ([ts]/[dur] fields) to the
   stream for the Chrome-trace exporter.  It is a separate switch from
   [enabled] because timestamps — and the cell a cached computation's
   span lands on — are inherently nondeterministic, so they must never
   enter the default stream, whose -j1/-j4 byte identity is contractual
   (make trace-check). *)
let spans_flag = Atomic.make false
let base_time = Atomic.make 0.0

type tagging = { mutable cur_cell : int; mutable cur_seq : int }

let tag_key = Domain.DLS.new_key (fun () -> { cur_cell = -1; cur_seq = 0 })

(* Gated emitters (formation attempts, optimizer passes) build their
   field lists when either consumer is listening: the global stream, or
   a request-scoped collector on this domain. *)
let is_enabled () = Atomic.get enabled || Telemetry.active ()

let start ?(spans = false) () =
  Mutex.protect mutex (fun () -> events := []);
  let t = Domain.DLS.get tag_key in
  t.cur_seq <- 0;
  Atomic.set base_time (Unix.gettimeofday ());
  Atomic.set spans_flag spans;
  Atomic.set enabled true

let compare_event a b =
  match compare a.cell b.cell with 0 -> compare a.seq b.seq | c -> c

let stop () =
  Atomic.set enabled false;
  Atomic.set spans_flag false;
  let evs = Mutex.protect mutex (fun () ->
      let evs = !events in
      events := [];
      evs)
  in
  List.sort compare_event (List.rev evs)

let with_cell cell f =
  let t = Domain.DLS.get tag_key in
  let old_cell = t.cur_cell and old_seq = t.cur_seq in
  t.cur_cell <- cell;
  t.cur_seq <- 0;
  Fun.protect
    ~finally:(fun () ->
      t.cur_cell <- old_cell;
      t.cur_seq <- old_seq)
    f

let now_us () = (Unix.gettimeofday () -. Atomic.get base_time) *. 1e6

let push ev =
  Mutex.protect mutex (fun () -> events := ev :: !events)

let record kind fields =
  if Telemetry.active () then Telemetry.note kind fields;
  if Atomic.get enabled then begin
    let fields =
      (* span mode: place point events on the exporter's timeline *)
      if Atomic.get spans_flag then fields @ [ ("ts", Float (now_us ())) ]
      else fields
    in
    let t = Domain.DLS.get tag_key in
    let ev = { cell = t.cur_cell; seq = t.cur_seq; kind; fields } in
    t.cur_seq <- t.cur_seq + 1;
    push ev
  end

(* [span] always times the thunk and reports the duration to [on_close]
   (even on exception) — callers like [Stage.time] keep their wall-clock
   accounting whether or not tracing is on.  The "span" event itself is
   emitted only in span mode. *)
let span ?(fields = []) ?on_close name f =
  let tele = Telemetry.active () in
  if tele then Telemetry.span_enter name fields;
  let t0 = Unix.gettimeofday () in
  let finish () =
    let dt = Unix.gettimeofday () -. t0 in
    if tele then Telemetry.span_exit ~dur_s:dt;
    (match on_close with Some g -> g dt | None -> ());
    if Atomic.get enabled && Atomic.get spans_flag then begin
      let ts = (t0 -. Atomic.get base_time) *. 1e6 in
      let ev_fields =
        ("name", Str name) :: ("ts", Float ts)
        :: ("dur", Float (dt *. 1e6))
        :: fields
      in
      let t = Domain.DLS.get tag_key in
      let ev =
        { cell = t.cur_cell; seq = t.cur_seq; kind = "span"; fields = ev_fields }
      in
      t.cur_seq <- t.cur_seq + 1;
      push ev
    end
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* ---- JSON -------------------------------------------------------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_value buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    (* %.12g is stable for the probabilities and deltas we record and
       has no locale dependence *)
    Buffer.add_string buf (Printf.sprintf "%.12g" f)
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'

(* Chrome trace-event format (the JSON-array flavor): spans become
   complete events (ph "X") with microsecond ts/dur, everything else an
   instant (ph "i") carrying its fields as args.  Cells map to thread
   ids (tid = cell + 1, so the out-of-sweep cell -1 is tid 0), which
   lays a sweep out one engine slot per track in chrome://tracing or
   Perfetto. *)
let to_chrome_json events =
  let buf = Buffer.create 4096 in
  let add_args fields =
    Buffer.add_string buf "\"args\":{";
    List.iteri
      (fun k (name, v) ->
        if k > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape buf name;
        Buffer.add_string buf "\":";
        add_value buf v)
      fields;
    Buffer.add_char buf '}'
  in
  let fnum = function
    | Some (Float f) -> f
    | Some (Int n) -> float_of_int n
    | _ -> 0.0
  in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun k ev ->
      if k > 0 then Buffer.add_string buf ",\n";
      let tid = ev.cell + 1 in
      match ev.kind with
      | "span" ->
        let name =
          match List.assoc_opt "name" ev.fields with
          | Some (Str s) -> s
          | _ -> "span"
        in
        let ts = fnum (List.assoc_opt "ts" ev.fields) in
        let dur = fnum (List.assoc_opt "dur" ev.fields) in
        let args =
          List.filter
            (fun (k, _) -> k <> "name" && k <> "ts" && k <> "dur")
            ev.fields
        in
        Buffer.add_string buf "{\"name\":\"";
        escape buf name;
        Buffer.add_string buf
          (Printf.sprintf "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
             ts dur tid);
        add_args args;
        Buffer.add_char buf '}'
      | kind ->
        let ts = fnum (List.assoc_opt "ts" ev.fields) in
        let args = List.filter (fun (k, _) -> k <> "ts") ev.fields in
        Buffer.add_string buf "{\"name\":\"";
        escape buf kind;
        Buffer.add_string buf
          (Printf.sprintf "\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"s\":\"t\","
             ts tid);
        add_args args;
        Buffer.add_char buf '}')
    events;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let to_json ev =
  let buf = Buffer.create 160 in
  Buffer.add_string buf "{\"cell\":";
  Buffer.add_string buf (string_of_int ev.cell);
  Buffer.add_string buf ",\"seq\":";
  Buffer.add_string buf (string_of_int ev.seq);
  Buffer.add_string buf ",\"kind\":\"";
  escape buf ev.kind;
  Buffer.add_char buf '"';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      escape buf k;
      Buffer.add_string buf "\":";
      add_value buf v)
    ev.fields;
  Buffer.add_char buf '}';
  Buffer.contents buf
