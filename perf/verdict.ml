(* `benchmark.exe compare BASE NEW`: judge every (end-to-end metric,
   workload) pair of two result files against the metric's bound from
   BENCHMARK.json.

   - regressed: NEW's median is worse than BASE's by more than the bound,
     the workload's failure ratio rose, NEW marks the workload incorrect,
     or NEW lacks the workload or a metric BASE has;
   - unresolved: either side's spread (IQR over median) is wider than the
     bound, unless every NEW sample beats every BASE sample;
   - improved / same otherwise. *)

type verdict = Same | Improved | Regressed | Unresolved

let verdict_name = function
  | Same -> "same"
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* Relative amount by which [now] is worse than [before] (negative when
   better). *)
let worse_by (better : Spec.better) ~before ~now =
  let d = (now -. before) /. Float.abs before in
  match better with Spec.Lower -> d | Spec.Higher -> -.d

let every_new_beats (better : Spec.better) ~base ~fresh =
  let lo a = Array.fold_left Float.min infinity a
  and hi a = Array.fold_left Float.max neg_infinity a in
  match better with
  | Spec.Lower -> hi fresh < lo base
  | Spec.Higher -> lo fresh > hi base

let judge ~better ~bound ~base ~fresh =
  let change =
    worse_by better ~before:(Quantile.median base) ~now:(Quantile.median fresh)
  in
  let wide = Quantile.spread base > bound || Quantile.spread fresh > bound in
  if wide && not (every_new_beats better ~base ~fresh) then Unresolved
  else if change > bound then Regressed
  else if change < -.bound then Improved
  else Same

(* ---- result files -------------------------------------------------------- *)

type side = {
  correct : bool;
  attempted : int;
  failed : int;
  samples : (string * float array) list;  (** end-to-end metric -> samples *)
}

(* workload name -> side, from a result file written by `run`. *)
let sides_of_result (doc : Json.t) : (string * side) list =
  List.map
    (fun w ->
      let name = Json.str_exn "workload name" (Json.member "name" w) in
      let int k = int_of_float (Json.num_exn k (Json.member k w)) in
      let samples =
        List.map
          (fun (metric, v) ->
            ( metric,
              Array.of_list
                (List.map (Json.num_exn metric) (Json.to_list (Json.member "samples" v))) ))
          (Json.to_assoc (Json.member "end_to_end" w))
      in
      let correct = Json.member "correct" w = Json.Bool true in
      (name, { correct; attempted = int "attempted"; failed = int "failed"; samples }))
    (Json.to_list (Json.member "workloads" doc))

(* metric name -> bound, from BENCHMARK.json. *)
let bounds_of_benchmark (doc : Json.t) : (string * float) list =
  List.map
    (fun m ->
      ( Json.str_exn "metric name" (Json.member "name" m),
        Json.num_exn "bound" (Json.member "bound" m) ))
    (Json.to_list (Json.member "end_to_end" doc))

type row = {
  r_workload : string;
  r_metric : string;
  r_base : float;  (** median *)
  r_new : float;
  r_change : float;  (** worse_by, as a share *)
  r_bound : float;
  r_verdict : verdict;
}

let fail_ratio s =
  if s.attempted = 0 then 0.0 else float_of_int s.failed /. float_of_int s.attempted

(* A row for something BASE has and NEW lacks. *)
let missing w metric base =
  { r_workload = w; r_metric = metric; r_base = base; r_new = nan; r_change = nan;
    r_bound = 0.0; r_verdict = Regressed }

(* Every declared metric of every BASE workload, in BASE order, then the
   workload's [fail_ratio] row, judged Regressed when the ratio rose or
   NEW marks the workload incorrect.  A workload or metric missing from
   NEW gets one Regressed row. *)
let compare_sides ~bounds ~(base : (string * side) list) ~(fresh : (string * side) list) =
  List.concat_map
    (fun (w, b) ->
      match List.assoc_opt w fresh with
      | None -> [ missing w "workload" (fail_ratio b) ]
      | Some n ->
        let metric_rows =
          List.filter_map
            (fun (metric, bs) ->
              match (List.assoc_opt metric bounds, Spec.find_metric metric) with
              | Some bound, Some spec when Array.length bs > 0 -> (
                let mb = Quantile.median bs in
                match List.assoc_opt metric n.samples with
                | Some ns when Array.length ns > 0 ->
                  let mn = Quantile.median ns in
                  Some
                    {
                      r_workload = w;
                      r_metric = metric;
                      r_base = mb;
                      r_new = mn;
                      r_change = worse_by spec.Spec.better ~before:mb ~now:mn;
                      r_bound = bound;
                      r_verdict = judge ~better:spec.Spec.better ~bound ~base:bs ~fresh:ns;
                    }
                | _ -> Some (missing w metric mb))
              | _ -> None)
            b.samples
        in
        let fb = fail_ratio b and fn = fail_ratio n in
        metric_rows
        @ [
            {
              r_workload = w;
              r_metric = "fail_ratio";
              r_base = fb;
              r_new = fn;
              r_change = fn -. fb;
              r_bound = 0.0;
              r_verdict = (if fn > fb || not n.correct then Regressed else Same);
            };
          ])
    base

let regressed rows = List.exists (fun r -> r.r_verdict = Regressed) rows
