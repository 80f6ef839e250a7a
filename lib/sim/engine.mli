(** The discrete-event simulation engine.

    An engine owns a virtual clock and an event queue. Callbacks scheduled
    at future instants run in nondecreasing time order; events at the same
    instant run in scheduling order (FIFO), which makes runs fully
    deterministic. All simulated subsystems (links, TCP, BGP timers, the
    orchestrator) are driven by one engine.

    The engine is single-threaded by design: concurrency in the modelled
    system (threads of a BGP process, containers on many hosts) is
    expressed as interleaved events, never as OS threads.

    Dispatch has one optional side channel: a per-domain {!observer}
    (the profiler or the causal recorder, one at a time) that every
    event is routed through. With none installed the dispatch loop runs
    the action directly. *)

type t

type handle
(** A cancellable reference to a scheduled event. *)

val create : ?seed:int -> unit -> t
(** [create ?seed ()] is a fresh engine with the clock at {!Time.zero} and
    a deterministic RNG seeded with [seed] (default 42). *)

val id : t -> int
(** A number unique among the engines created on the calling domain,
    assigned at {!create}. Observers key per-engine state by it instead
    of holding the engine (and its event heap) alive. *)

val now : t -> Time.t
(** The current simulated instant. *)

val rng : t -> Rng.t
(** The engine's root RNG. Subsystems should {!Rng.split} it. *)

val schedule_after : t -> ?label:string -> Time.span -> (unit -> unit) -> handle
(** [schedule_after t ?label span f] runs [f] [span] after the current
    instant. Raises [Invalid_argument] on a negative span.

    [label] attributes the event's cost to a subsystem ("tcp.rto",
    "net.link", …) for the profiler. Omitted, the event inherits
    {!current_label} — the label of the event being executed right now —
    so labelling a subsystem's entry points attributes its whole event
    cascade. Labels never influence execution, only attribution. *)

val schedule_at : t -> ?label:string -> Time.t -> (unit -> unit) -> handle
(** [schedule_at t ?label instant f] runs [f] at [instant]. An instant
    in the past is an [Invalid_argument]. [label] as in
    {!schedule_after}. *)

val current_label : t -> string
(** The attribution label of the event currently (or most recently)
    executed by this engine; ["main"] before any labelled event ran. *)

val current_event_id : t -> int
(** The id of the event this engine is executing right now, or [-1]
    outside event dispatch (before the first event, between [run]
    segments, and after the queue drains). Event ids are the engine's
    scheduling sequence numbers: unique per engine, assigned in
    scheduling order. *)

val cancel : handle -> unit
(** Cancels a scheduled event. Cancelling an already-fired or cancelled
    event is a no-op. *)

val is_pending : handle -> bool
(** [is_pending h] is [true] until the event fires or is cancelled. *)

val run : t -> unit
(** Runs events until the queue is empty. *)

val run_until : t -> Time.t -> unit
(** [run_until t limit] runs all events with time [<= limit], then
    advances the clock to exactly [limit]. Events scheduled beyond [limit]
    remain queued. *)

val run_for : t -> Time.span -> unit
(** [run_for t span] is [run_until t (now t + span)]. *)

val pending_events : t -> int
(** Number of live (non-cancelled) queued events. *)

val processed_events : t -> int
(** Total number of events executed so far. *)

val global_processed_events : unit -> int
(** Events executed by every engine created on the calling domain, ever
    — a monotonic throughput meter for harnesses whose experiments build
    engines internally. Domain-local: each worker of a parallel campaign
    meters (and resets with) its own engines. *)

(** {2 Dispatch observer}

    One observer per domain, installed by [Prof.Profiler] or
    [Causal.Recorder]. When set, every event of every engine created on
    this domain is dispatched through it with the engine, the event's id
    (its scheduling sequence number), the id of the event that scheduled
    it ([-1] when scheduled from outside dispatch, e.g. harness setup
    code), its attribution label and its enqueue instant; the execution
    instant is [now eng]. Causal parentage mirrors label inheritance:
    the parent is the event executing at scheduling time.

    The observer must run the action exactly once, and must be
    transparent: no simulation state, telemetry, or RNG access — replay
    digests are byte-identical with an observer installed or not. *)

type observer =
  t -> id:int -> parent:int -> label:string -> sched_at:Time.t ->
  (unit -> unit) -> unit

val observe : observer option -> unit
(** Installs (or clears, with [None]) the calling domain's observer.
    Raises [Invalid_argument] when installing while another observer is
    installed: observers do not stack. *)

val observed : unit -> bool
(** [true] while an observer is installed. *)

(** {2 Periodic timers} *)

type timer
(** A repeating timer. *)

val every : t -> ?label:string -> ?jitter:float -> Time.span -> (unit -> unit) -> timer
(** [every t ~jitter period f] runs [f] every [period], starting one
    period from now. [jitter], if nonzero, uniformly perturbs each firing
    by [±jitter*period] (default 0). [label] attributes every firing, as
    in {!schedule_after}. *)

val stop_timer : timer -> unit
(** Stops the periodic timer; the pending firing is cancelled. *)
