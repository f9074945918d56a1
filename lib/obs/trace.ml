(* Domain-safe structured event tracing and the one span recorder.

   Design constraints, in order:

   - recording must be deterministic across [--jobs] settings, so every
     point event belongs to the engine slot ("cell") it was recorded
     under: each cell runs start-to-finish on one domain, into a span
     recorder of its own (Telemetry's, the record a served request
     keeps), so its notes are in the sequential order.  [stop] numbers
     them within their cell (seq) and sorts by (cell, seq), which
     reconstructs exactly the stream a sequential run produces;
   - recording must be cheap when off: one domain-local read;
   - recording must be safe from any domain: keeping a closed cell's
     tree is the only cross-domain interaction and sits under a mutex.

   Out of any cell (single compiles, tests) the domain that started the
   trace records into cell -1.  Spans and timestamps stay in the trees,
   so they never enter the rendered stream. *)

(* [value] is shared with Telemetry so instrumentation sites feed the
   event stream and a span recorder with one field list. *)
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
let trees : (int * Telemetry.trace) list ref = ref []  (* closed cells, reversed *)
let origin = Atomic.make 0.0  (* the run's timeline starts here *)

(* Gated emitters (formation attempts, optimizer passes) build their
   field lists when a recorder on this domain will keep them: a traced
   run's cell, or a served request. *)
let is_enabled () = Option.is_some (Telemetry.current ())

let keep cell r outcome =
  let tr = Telemetry.close r ~outcome in
  Mutex.protect mutex (fun () -> trees := (cell, tr) :: !trees)

let start () =
  Mutex.protect mutex (fun () -> trees := []);
  let t0 = Clock.now () in
  Atomic.set origin t0;
  ignore (Telemetry.swap (Some (Telemetry.open_cell (-1) ~t0)));
  Atomic.set enabled true

let span_trees () =
  List.stable_sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Mutex.protect mutex (fun () -> List.rev !trees))

let compare_event a b =
  match compare a.cell b.cell with 0 -> compare a.seq b.seq | c -> c

(* A cell run twice (two sweeps in one command) interleaves by seq,
   its runs in the order they closed. *)
let stop () =
  if not (Atomic.exchange enabled false) then []
  else begin
    Option.iter (fun r -> keep (-1) r "ok") (Telemetry.swap None);
    let events (cell, (tr : Telemetry.trace)) =
      List.mapi
        (fun seq (nt : Telemetry.note) ->
          { cell; seq; kind = nt.nt_kind; fields = nt.nt_fields })
        tr.tr_notes
    in
    List.stable_sort compare_event (List.concat_map events (span_trees ()))
  end

let with_cell cell f =
  if not (Atomic.get enabled) then f ()
  else
    let r = Telemetry.open_cell cell ~t0:(Atomic.get origin) in
    match Telemetry.install r f with
    | v ->
      keep cell r "ok";
      v
    | exception e ->
      keep cell r "raised";
      raise e

let record kind fields =
  match Telemetry.current () with
  | Some a -> Telemetry.note a kind fields
  | None -> ()

(* [span] always times the thunk and reports the duration to [on_close]
   (even on exception); the span itself lands in the recorder installed
   on this domain, if any.  Closing is a top-level function, not a
   closure, so a span allocates no closure of its own. *)
let close_span recorder on_close t0 =
  let dt = Clock.now () -. t0 in
  (match recorder with Some a -> Telemetry.span_exit a ~dur_s:dt | None -> ());
  match on_close with Some g -> g dt | None -> ()

let span ?(fields = []) ?on_close name f =
  let recorder = Telemetry.current () in
  let t0 = Clock.now () in
  (match recorder with
  | Some a -> Telemetry.span_enter a name fields ~t0
  | None -> ());
  match f () with
  | v ->
    close_span recorder on_close t0;
    v
  | exception e ->
    close_span recorder on_close t0;
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

let add_field buf (k, v) =
  Buffer.add_char buf '"';
  escape buf k;
  Buffer.add_string buf "\":";
  add_value buf v

(* Chrome trace-event format (the JSON-array flavor): spans become
   complete events (ph "X") with microsecond ts/dur, notes instants
   (ph "i"), each carrying its fields as args.  Cells map to thread ids
   (tid = cell + 1, so the out-of-sweep cell -1 is tid 0), which lays a
   sweep out one engine slot per track in chrome://tracing or
   Perfetto. *)
let to_chrome_json cells =
  let buf = Buffer.create 4096 in
  let first = ref true in
  let add_event name fields fmt =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf "{\"name\":\"";
    escape buf name;
    Printf.kbprintf
      (fun buf ->
        Buffer.add_string buf "\"args\":{";
        List.iteri
          (fun k f ->
            if k > 0 then Buffer.add_char buf ',';
            add_field buf f)
          fields;
        Buffer.add_string buf "}}")
      buf fmt
  in
  Buffer.add_string buf "[\n";
  List.iter
    (fun (cell, (tr : Telemetry.trace)) ->
      let tid = cell + 1 in
      List.iter
        (fun (sp : Telemetry.span) ->
          add_event sp.sp_name sp.sp_fields
            "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
            sp.sp_start_us sp.sp_dur_us tid)
        tr.tr_spans;
      List.iter
        (fun (nt : Telemetry.note) ->
          add_event nt.nt_kind nt.nt_fields
            "\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"s\":\"t\","
            nt.nt_ts_us tid)
        tr.tr_notes)
    cells;
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
    (fun f ->
      Buffer.add_char buf ',';
      add_field buf f)
    ev.fields;
  Buffer.add_char buf '}';
  Buffer.contents buf