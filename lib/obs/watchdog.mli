(** Cooperative per-stage watchdog: monotonic deadlines and fuel
    budgets for the long loops of the pipeline.

    The convergent formation loop and the simulators are exactly the
    code a pathological input can spin: an adversarial CFG can make
    formation retry merges for minutes, and a block with no instructions
    can loop the functional simulator forever without ever burning its
    {e instruction}-count fuel.  The watchdog bounds both failure modes
    cooperatively: a scope installed around a stage carries an absolute
    deadline and/or a fuel budget, the hot loops poll {!check} (a
    domain-local read — a few nanoseconds when no scope is active), and
    an exhausted budget raises the structured {!Timed_out} exception,
    which propagates out of the pipeline and which
    [Pipeline.failure_of_exn] turns into a per-cell failure report
    instead of a hung sweep.

    Scopes are domain-local (each sweep row runs its own), nest by
    taking the tighter deadline, and cost nothing when absent: with no
    deadline or fuel configured anywhere, every output of the system is
    byte-identical to a build without the watchdog. *)

type reason =
  | Deadline of float  (** the configured budget, in seconds *)
  | Fuel of int  (** the configured budget, in {!check} calls *)

exception
  Timed_out of {
    wd_stage : string;  (** label of the scope that expired *)
    wd_reason : reason;
    wd_spent_s : float;  (** seconds spent in the scope at the trip *)
  }

val pp_reason : Format.formatter -> reason -> unit

val pp_timed_out : Format.formatter -> string * reason * float -> unit
(** Render the payload of a {!Timed_out} as one line. *)

val active : unit -> bool
(** Is a scope with a deadline or fuel budget installed on this domain? *)

val run : ?deadline_s:float -> ?fuel:int -> stage:string -> (unit -> 'a) -> 'a
(** Run the thunk under a scope.  [deadline_s] is seconds from now on
    {!Clock.now}; [fuel] a budget of {!check} calls.  With neither,
    the thunk runs scope-free (the call is a no-op wrapper).  Nested
    scopes keep the {e tighter} of the inherited and the new deadline
    (fuel is per-scope).  The scope is removed on exit, normal or
    exceptional. *)

val check : unit -> unit
(** Poll the active scope: decrement fuel, compare the clock.
    @raise Timed_out when either budget is exhausted.  A no-op (one
    domain-local read) when no scope is active. *)

(** {2 Global stage policy}

    [Stage.time] consults this policy and wraps each pipeline stage it
    times in a scope — the hook the sweep harness and [chfc
    --stage-deadline] use to bound every cell of an experiment without
    threading options through every call site.  Set from the main domain
    before a sweep; read from worker domains. *)

val set_stage_policy :
  ?deadline_s:float -> ?fuel:int -> ?stages:string list -> unit -> unit
(** Install the policy: every stage named in [stages] (default: all
    stages) gets [deadline_s]/[fuel].  Call with neither budget to clear
    the policy. *)

val stage_policy : string -> (float option * int option) option
(** Budgets for stage [name] under the current policy, or [None] when
    the watchdog is off (or the policy names other stages only). *)
