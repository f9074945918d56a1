(* Cooperative watchdog: domain-local deadline/fuel scopes polled by the
   pipeline's long loops.  See the .mli for the design. *)

type reason =
  | Deadline of float
  | Fuel of int

exception
  Timed_out of {
    wd_stage : string;
    wd_reason : reason;
    wd_spent_s : float;
  }

let pp_reason fmt = function
  | Deadline s -> Fmt.pf fmt "deadline %gs" s
  | Fuel n -> Fmt.pf fmt "fuel %d" n

let pp_timed_out fmt (stage, reason, spent) =
  Fmt.pf fmt "stage %s exceeded its %a after %.3fs" stage pp_reason reason
    spent

(* One scope per domain; [run] saves and restores the previous scope, so
   nesting behaves like a stack without allocating one. *)
type scope = {
  sc_stage : string;
  sc_deadline : float option;  (* absolute, on Clock.now *)
  sc_budget_s : float option;  (* the relative budget, for the payload *)
  sc_fuel_budget : int option;
  sc_started : float;
  mutable sc_fuel : int;  (* remaining; ignored when no fuel budget *)
}

let key : scope option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let active () =
  match !(Domain.DLS.get key) with
  | Some s -> s.sc_deadline <> None || s.sc_fuel_budget <> None
  | None -> false

let trip s reason =
  raise
    (Timed_out
       {
         wd_stage = s.sc_stage;
         wd_reason = reason;
         wd_spent_s = Clock.now () -. s.sc_started;
       })

let check () =
  match !(Domain.DLS.get key) with
  | None -> ()
  | Some s ->
    (match s.sc_fuel_budget with
    | Some budget ->
      s.sc_fuel <- s.sc_fuel - 1;
      if s.sc_fuel < 0 then trip s (Fuel budget)
    | None -> ());
    (match (s.sc_deadline, s.sc_budget_s) with
    | Some d, Some b -> if Clock.now () > d then trip s (Deadline b)
    | _ -> ())

let run ?deadline_s ?fuel ~stage f =
  match (deadline_s, fuel) with
  | None, None -> f ()
  | _ ->
    let cell = Domain.DLS.get key in
    let outer = !cell in
    let now = Clock.now () in
    (* inherit the tighter deadline: an inner scope must not outlive the
       stage that encloses it *)
    let deadline, budget_s =
      let mine =
        Option.map (fun b -> (now +. b, b)) deadline_s
      in
      let inherited =
        match outer with
        | Some o -> (
          match (o.sc_deadline, o.sc_budget_s) with
          | Some d, Some b -> Some (d, b)
          | _ -> None)
        | None -> None
      in
      match (mine, inherited) with
      | Some (d, b), Some (d', b') ->
        if d <= d' then (Some d, Some b) else (Some d', Some b')
      | Some (d, b), None -> (Some d, Some b)
      | None, Some (d, b) -> (Some d, Some b)
      | None, None -> (None, None)
    in
    let scope =
      {
        sc_stage = stage;
        sc_deadline = deadline;
        sc_budget_s = budget_s;
        sc_fuel_budget = fuel;
        sc_started = now;
        sc_fuel = Option.value ~default:0 fuel;
      }
    in
    cell := Some scope;
    Fun.protect ~finally:(fun () -> cell := outer) f

(* ---- global stage policy ---------------------------------------------- *)

type policy = {
  p_deadline_s : float option;
  p_fuel : int option;
  p_stages : string list option;  (* None = every stage *)
}

let policy : policy option Atomic.t = Atomic.make None

let set_stage_policy ?deadline_s ?fuel ?stages () =
  match (deadline_s, fuel) with
  | None, None -> Atomic.set policy None
  | _ ->
    Atomic.set policy
      (Some { p_deadline_s = deadline_s; p_fuel = fuel; p_stages = stages })

let stage_policy name =
  match Atomic.get policy with
  | None -> None
  | Some p ->
    let applies =
      match p.p_stages with
      | None -> true
      | Some names -> List.mem name names
    in
    if applies then Some (p.p_deadline_s, p.p_fuel) else None
