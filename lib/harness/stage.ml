(* Staged compilation with two content-keyed artifacts.

   The pipeline of Figure 6 decomposes into five stages:

     lower -> profile -> formation -> backend -> sim

   Two artifacts depend only on the workload's content (program,
   arguments, memory image, unroll factor), never on the phase ordering
   or policy of a sweep, so each is computed once per content key and
   shared:

   - the lower+profile prefix.  Its master CFG is never mutated: every
     consumer that needs to transform the graph takes a deep copy
     ({!instantiate}).  Lowering is deterministic, so a copy of the
     master is structurally identical to a fresh lowering;

   - the basic-block baseline: the BB compile's functional result and,
     when asked for, its cycle result.  It holds no CFG.  Every number
     the paper reports is measured against it, and every formed compile
     is checked against its checksum.

   Cached runs therefore produce byte-identical experiment output.

   The cache is domain-safe (each store's mutex guards its table and its
   hit/miss counters); concurrent misses on the same key both compute
   and the second insert wins, which is harmless because the computation
   is deterministic.  Each stage call is one [stage.*] span and one
   sample of its [stage.time.*] histogram; nothing sums wall time across
   domains (per-layer time is perf/'s job). *)

open Trips_ir
open Trips_sim
open Trips_workloads

(* ---- per-stage timing -------------------------------------------------- *)

type stage = Lower | Profile | Formation | Backend | Sim

let stage_name = function
  | Lower -> "lower"
  | Profile -> "profile"
  | Formation -> "formation"
  | Backend -> "backend"
  | Sim -> "sim"

(* [Trace.span] does the timing (and emits a span event in span mode);
   the [on_close] callback feeds the per-call [stage.time.*] histogram —
   durations come off the same clock, exceptions still account. *)
let time stage f =
  let name = stage_name stage in
  (* watchdog: when a global stage policy is installed ([chfc
     --stage-deadline], or a test), the stage body runs under a
     deadline/fuel scope; a cooperative check inside the stage then
     raises [Watchdog.Timed_out], which propagates and which
     [Pipeline.failure_of_exn] reports per cell.  With no policy (the default) the wrapper is the
     identity and timed output is byte-identical to pre-watchdog runs. *)
  let f =
    match Trips_obs.Watchdog.stage_policy name with
    | None -> f
    | Some (deadline_s, fuel) ->
      fun () -> Trips_obs.Watchdog.run ?deadline_s ?fuel ~stage:name f
  in
  Trips_obs.Trace.span ("stage." ^ name)
    ~on_close:(Trips_obs.Metrics.observe ("stage.time." ^ name))
    f

(* ---- typed per-stage artifacts ---------------------------------------- *)

type lowered = {
  low_cfg : Cfg.t;
  low_registers : (int * int) list;
}

type profiled = {
  prof_profile : Trips_profile.Profile.t;
  prof_result : Func_sim.result;
}

type prefix = {
  pre_workload : Workload.t;
  pre_key : string;
  pre_master : lowered;  (* never mutated; consumers copy *)
  pre_profiled : profiled;
}

type baseline = {
  base_functional : Func_sim.result;
  base_cycles : Cycle_sim.result option;  (* when cycles were asked for *)
}

(* The key covers everything the prefix depends on: the AST (pure data,
   safely marshalable), the parameter bindings, the memory image (the
   materialized array stands in for the [init_memory] closure, which
   cannot be hashed) and the front-end unroll factor.  The name and
   description are deliberately excluded — identical content shares a
   prefix. *)
let content_key (w : Workload.t) =
  let image = Workload.memory w in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (w.Workload.program, w.Workload.args, w.Workload.memory_words,
           w.Workload.frontend_unroll, image)
          []))

let lower (w : Workload.t) : lowered =
  time Lower (fun () ->
      let program =
        Trips_lang.Unroll_for.apply ~factor:w.Workload.frontend_unroll
          w.Workload.program
      in
      let cfg, params = Trips_lang.Lower.lower program in
      let registers =
        List.map
          (fun (name, value) ->
            match List.assoc_opt name params with
            | Some r -> (r, value)
            | None ->
              Fmt.invalid_arg "workload %s: unknown parameter %s"
                w.Workload.name name)
          w.Workload.args
      in
      { low_cfg = cfg; low_registers = registers })

let profile (w : Workload.t) (l : lowered) : profiled =
  time Profile (fun () ->
      let loops = Trips_analysis.Loops.compute l.low_cfg in
      let memory = Workload.memory w in
      let result, profile =
        Func_sim.run_profiled ~registers:l.low_registers ~loops ~memory
          l.low_cfg
      in
      { prof_profile = profile; prof_result = result })

let compute_prefix (w : Workload.t) key =
  let master = lower w in
  { pre_workload = w; pre_key = key; pre_master = master;
    pre_profiled = profile w master }

let instantiate (p : prefix) : lowered =
  { p.pre_master with low_cfg = Cfg.copy p.pre_master.low_cfg }

(* ---- content-keyed memo cache ----------------------------------------- *)

(* The cache is a thin front over two shared content-addressed artifact
   stores (Trips_store.Store), one per artifact: each store owns its
   mutex, its LRU bound and its hit/miss/eviction counters, so the
   [chfc serve] daemon's one cache is shared by every concurrent
   request.  The historical [cache_stats] view (prefix only) is kept on
   top; the stores count every lookup in Metrics as
   [store.<name>.{hit,miss,eviction}]. *)

module Store = Trips_store.Store

type cache = {
  enabled : bool;
  prefixes : prefix Store.t;
  baselines : baseline Store.t;
}

type cache_stats = { cache_hits : int; cache_misses : int }

let create ?capacity ?(name = "stage") () =
  {
    enabled = true;
    prefixes = Store.create ?capacity ~name:(name ^ ".prefix") ();
    baselines = Store.create ?capacity ~name:(name ^ ".baseline") ();
  }

(* A cache that never stores: every lookup recomputes (and counts as a
   miss), which is how cache-on and cache-off sweeps share one code
   path. *)
let disabled () = { (create ()) with enabled = false }

let store_counters c =
  [
    (Store.name c.prefixes, Store.counters c.prefixes);
    (Store.name c.baselines, Store.counters c.baselines);
  ]

let stats c =
  let k = Store.counters c.prefixes in
  { cache_hits = k.Store.hits; cache_misses = k.Store.misses }

(* Look [key] up in [store], computing and storing on a miss (outside
   the lock, so other domains' lookups proceed).  A disabled cache
   recomputes every time and counts a miss. *)
let memo c store key compute =
  if not c.enabled then begin
    Store.record_miss store;
    compute ()
  end
  else Store.find_or_add store key (fun _ -> compute ())

let prefix ?cache (w : Workload.t) : prefix =
  let key = content_key w in
  match cache with
  | None -> compute_prefix w key
  | Some c ->
    memo c c.prefixes
      { Store.src = key; stage = "prefix"; config = "" }
      (fun () -> compute_prefix w key)

let baseline ?cache ~backend ~cycles (w : Workload.t) compute : baseline =
  match cache with
  | None -> compute ()
  | Some c ->
    memo c c.baselines
      {
        Store.src = content_key w;
        stage = "baseline";
        config = Fmt.str "backend=%b/cycles=%b" backend cycles;
      }
      compute
