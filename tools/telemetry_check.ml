(* telemetry_check — gate for the request-scoped telemetry layer.

   Boots an in-process daemon on a private socket and drives a fixed,
   fully deterministic request sequence (two sieve compiles so the
   output store hits, one matrix_1, one chaos-poisoned sieve so exactly
   one request crashes), then asserts:

   - the Prometheus exposition matches the committed golden byte for
     byte after masking volatile fields (every float renders as
     "d.dddddd", so one regex rule separates wall-clock values from the
     structural integers: request counts, window counts, store sizes);
   - a served compile is byte-identical to the one-shot pipeline while
     telemetry is collecting — the instrumentation may not change
     output bytes;
   - the first request's trace replays from the daemon ring and is
     well-formed (every span closed, parented, inside the request
     bounds) with the expected frame spans.

   [--write-golden] regenerates test/golden/telemetry_prom.txt instead
   of comparing.  Exit 0 on success, 1 with a message on the first
   violated check. *)

module C = Trips_serve.Client
module P = Trips_serve.Protocol
module S = Trips_serve.Server
module Telemetry = Trips_obs.Telemetry

let golden_path = "test/golden/telemetry_prom.txt"

let fail fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "telemetry-check: FAIL: %s@." m;
      exit 1)
    fmt

let compile ?chaos name =
  P.Compile
    {
      P.cs_workload = name;
      cs_ordering = "iupo-merged";
      cs_policy = "bf";
      cs_backend = true;
      cs_verify = false;
      cs_deadline_s = None;
      cs_chaos_seed = chaos;
    }

let oneshot name =
  match Trips_workloads.Micro.by_name name with
  | None -> fail "workload %s missing" name
  | Some w -> (
    match
      Trips_serve.Worker.compile_report ~ordering:Chf.Phases.Iupo_merged
        ~config:Chf.Policy.edge_default ~backend:true ~verify:false w
    with
    | Error m -> fail "one-shot %s failed: %s" name m
    | Ok (_, text) -> text)

(* Floats are wall-clock, integers are structural: mask exactly the
   float-shaped tokens (Expo renders every float as "%.6f"). *)
let mask text =
  Re.replace_string
    (Re.compile (Re.Perl.re "-?[0-9]+\\.[0-9]+"))
    ~by:"X" text

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let () =
  let write_golden = Array.exists (( = ) "--write-golden") Sys.argv in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ()) "chfc-telemetry-check.sock"
  in
  let srv = S.start ~workers:2 ~queue_depth:4 ~quiet:true ~socket () in
  let rpc req = C.with_conn ~socket (fun c -> C.rpc c req) in
  let rpc_traced req = C.with_conn ~socket (fun c -> C.rpc_traced c req) in
  (* deterministic request sequence *)
  let first_id, first_reply = rpc_traced (compile "sieve") in
  (match first_reply with
  | Ok _ -> ()
  | Error e -> fail "sieve: %a" P.pp_served_error e);
  (match rpc (compile "sieve") with
  | Ok _ -> ()
  | Error e -> fail "sieve repeat: %a" P.pp_served_error e);
  let served_matrix =
    match rpc (compile "matrix_1") with
    | Ok text -> text
    | Error e -> fail "matrix_1: %a" P.pp_served_error e
  in
  (match rpc (compile ~chaos:3 "sieve") with
  | Error (P.Compile_failed _) -> ()
  | Ok _ -> fail "chaos-poisoned request succeeded"
  | Error e -> fail "chaos-poisoned request: %a" P.pp_served_error e);
  (* telemetry-on byte identity vs the one-shot pipeline *)
  if served_matrix <> oneshot "matrix_1" then
    fail "served matrix_1 differs from the one-shot compile under telemetry";
  (* golden exposition *)
  let st = rpc P.Stats in
  let prom = mask (Trips_serve.Expo.render_prom st) in
  if write_golden then begin
    write_file golden_path prom;
    Fmt.pr "telemetry-check: wrote %s@." golden_path
  end
  else begin
    if not (Sys.file_exists golden_path) then
      fail "golden %s missing (run with --write-golden)" golden_path;
    let want = read_file golden_path in
    if prom <> want then begin
      Fmt.epr "telemetry-check: masked exposition diverges from %s@."
        golden_path;
      Fmt.epr "---- got ----@.%s---- want ----@.%s" prom want;
      exit 1
    end
  end;
  (* trace replay: well-formed span tree with the synthesized frame *)
  (match first_id with
  | None -> fail "client minted no request id"
  | Some id -> (
    match rpc (P.Trace_of id) with
    | None -> fail "trace %s not in the daemon ring" id
    | Some tr ->
      (match Telemetry.check tr with
      | Ok () -> ()
      | Error m -> fail "trace %s malformed: %s" id m);
      if tr.Telemetry.tr_outcome <> "ok" then
        fail "trace %s outcome %s" id tr.Telemetry.tr_outcome;
      let frame =
        List.filteri (fun i _ -> i < 3) tr.Telemetry.tr_spans
        |> List.map (fun (sp : Telemetry.span) -> sp.Telemetry.sp_name)
      in
      if frame <> [ "request"; "queue-wait"; "execute" ] then
        fail "trace %s frame spans are %a" id
          Fmt.(Dump.list string)
          frame;
      if List.length tr.Telemetry.tr_spans <= 3 then
        fail "trace %s has no instrumentation spans" id));
  rpc P.Shutdown;
  S.wait srv;
  Fmt.pr
    "telemetry-check: golden exposition, byte identity, trace replay: OK@."
