(* The fuzzing campaign driver: generate -> oracle (under a per-case
   watchdog) -> bucket -> shrink -> serialize. *)

type finding = {
  fd_index : int;
  fd_seed : int;
  fd_shape : Gen.shape;
  fd_stage : string;
  fd_bucket : string;
  fd_reason : string;
  fd_count : int;
  fd_min : Gen.case option;
  fd_repro : string option;
}

type report = {
  r_seed : int;
  r_requested : int;
  r_executed : int;
  r_passed : int;
  r_findings : finding list;
  r_elapsed_s : float;
  r_early_stop : bool;
}

(* Oracle under the per-case watchdog: a hang anywhere in the stack
   becomes a structured timeout verdict instead of wedging the loop. *)
let checked_case ~case_deadline_s case =
  match
    Trips_obs.Watchdog.run ~deadline_s:case_deadline_s ~stage:"fuzz-case"
      (fun () -> Oracle.check case)
  with
  | verdict -> verdict
  | exception Trips_obs.Watchdog.Timed_out { wd_stage; wd_reason; wd_spent_s } ->
    Oracle.Fail
      {
        stage = "watchdog";
        bucket = "timeout:" ^ Triage.slug wd_stage;
        reason =
          Fmt.str "%a" Trips_obs.Watchdog.pp_timed_out
            (wd_stage, wd_reason, wd_spent_s);
      }
  | exception e ->
    (* the oracle buckets everything it can attribute; anything escaping
       is a harness-level crash, still worth a finding *)
    Oracle.Fail
      {
        stage = "harness";
        bucket = Triage.of_exn ~stage:"harness" e;
        reason = Printexc.to_string e;
      }

let repro_name ~index ~bucket (case : Gen.case) =
  Fmt.str "%s-%s-%04d" (Gen.shape_name case.Gen.shape) (Triage.slug bucket) index

let run ?(count = 200) ?time_budget_s ?(minimize = false) ?corpus_out
    ?(case_deadline_s = 10.0) ?(progress = fun _ -> ()) ~seed () =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let over_budget () =
    match time_budget_s with Some b -> elapsed () > b | None -> false
  in
  let buckets : (string, finding) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let executed = ref 0 and passed = ref 0 in
  let early = ref false in
  (let i = ref 0 in
   while !i < count && not !early do
     if over_budget () then early := true
     else begin
       let case = Gen.generate_nth ~base_seed:seed !i in
       (match checked_case ~case_deadline_s case with
       | Oracle.Pass -> incr passed
       | Oracle.Fail { stage; bucket; reason } -> (
         match Hashtbl.find_opt buckets bucket with
         | Some f -> Hashtbl.replace buckets bucket { f with fd_count = f.fd_count + 1 }
         | None ->
           order := bucket :: !order;
           Hashtbl.add buckets bucket
             {
               fd_index = !i;
               fd_seed = case.Gen.seed;
               fd_shape = case.Gen.shape;
               fd_stage = stage;
               fd_bucket = bucket;
               fd_reason = reason;
               fd_count = 1;
               fd_min = None;
               fd_repro = None;
             }));
       incr executed;
       progress !i;
       incr i
     end
   done);
  (* minimize and serialize each bucket's first case *)
  let finalize f =
    let case = Gen.generate_nth ~base_seed:seed f.fd_index in
    let minimized =
      if not minimize then None
      else
        Some
          (Shrink.shrink
             ~oracle:(checked_case ~case_deadline_s)
             ~bucket:f.fd_bucket case)
    in
    let repro =
      Option.map
        (fun dir ->
          Corpus.save ~dir
            ~name:(repro_name ~index:f.fd_index ~bucket:f.fd_bucket case)
            ~bucket:f.fd_bucket
            (Option.value minimized ~default:case))
        corpus_out
    in
    { f with fd_min = minimized; fd_repro = repro }
  in
  let findings =
    List.rev !order
    |> List.map (fun b -> finalize (Hashtbl.find buckets b))
  in
  {
    r_seed = seed;
    r_requested = count;
    r_executed = !executed;
    r_passed = !passed;
    r_findings = findings;
    r_elapsed_s = elapsed ();
    r_early_stop = !early;
  }

let replay ~dir =
  let t0 = Unix.gettimeofday () in
  match Corpus.load_dir dir with
  | Error msg -> Error msg
  | Ok entries ->
    let executed = ref 0 and passed = ref 0 in
    let findings = ref [] in
    List.iteri
      (fun i (file, { Corpus.case; _ }) ->
        incr executed;
        match checked_case ~case_deadline_s:30.0 case with
        | Oracle.Pass -> incr passed
        | Oracle.Fail { stage; bucket; reason } ->
          findings :=
            {
              fd_index = i;
              fd_seed = case.Gen.seed;
              fd_shape = case.Gen.shape;
              fd_stage = stage;
              fd_bucket = bucket;
              fd_reason = file ^ ": " ^ reason;
              fd_count = 1;
              fd_min = None;
              fd_repro = Some (Filename.concat dir file);
            }
            :: !findings)
      entries;
    Ok
      {
        r_seed = 0;
        r_requested = List.length entries;
        r_executed = !executed;
        r_passed = !passed;
        r_findings = List.rev !findings;
        r_elapsed_s = Unix.gettimeofday () -. t0;
        r_early_stop = false;
      }

(* ---- reporting --------------------------------------------------------- *)

let min_blocks (case : Gen.case) =
  match case.Gen.payload with
  | Gen.Cfg_case { cfg; _ } -> Some (Trips_ir.Cfg.num_blocks cfg)
  | Gen.Lang_case _ -> None

let pp_finding fmt f =
  Fmt.pf fmt "@[<v2>%s  (%d case%s, first #%d, %s seed %d)@,stage: %s@,%s%a%a@]"
    f.fd_bucket f.fd_count
    (if f.fd_count = 1 then "" else "s")
    f.fd_index
    (Gen.shape_name f.fd_shape)
    f.fd_seed f.fd_stage f.fd_reason
    Fmt.(
      option (fun fmt c ->
          match min_blocks c with
          | Some n -> pf fmt "@,minimized to %d blocks" n
          | None -> pf fmt "@,minimized recipe"))
    f.fd_min
    Fmt.(option (fmt "@,repro: %s"))
    f.fd_repro

let pp_report fmt r =
  Fmt.pf fmt "fuzz: seed %d: %d/%d cases, %d passed, %d bucket%s, %.1fs%s@."
    r.r_seed r.r_executed r.r_requested r.r_passed
    (List.length r.r_findings)
    (if List.length r.r_findings = 1 then "" else "s")
    r.r_elapsed_s
    (if r.r_early_stop then " (time budget hit)" else "");
  List.iter (fun f -> Fmt.pf fmt "%a@." pp_finding f) r.r_findings

let report_json r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.bprintf buf fmt in
  let esc = Trips_obs.Trace.escape in
  add
    "{\"seed\":%d,\"requested\":%d,\"executed\":%d,\"passed\":%d,\"elapsed_s\":%.3f,\"early_stop\":%b,\"findings\":["
    r.r_seed r.r_requested r.r_executed r.r_passed r.r_elapsed_s r.r_early_stop;
  List.iteri
    (fun i f ->
      if i > 0 then add ",";
      add
        "{\"bucket\":\"%a\",\"stage\":\"%a\",\"shape\":\"%s\",\"seed\":%d,\"first_case\":%d,\"count\":%d,\"reason\":\"%a\""
        esc f.fd_bucket esc f.fd_stage
        (Gen.shape_name f.fd_shape) f.fd_seed f.fd_index f.fd_count
        esc f.fd_reason;
      (match Option.bind f.fd_min min_blocks with
      | Some n -> add ",\"min_blocks\":%d" n
      | None -> ());
      (match f.fd_repro with
      | Some p -> add ",\"repro\":\"%a\"" esc p
      | None -> ());
      add "}")
    r.r_findings;
  add "]}";
  Buffer.contents buf
