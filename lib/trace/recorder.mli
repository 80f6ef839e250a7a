(** The causal event recorder.

    Installs itself as the engine's dispatch observer
    ([Sim.Engine.observe]) and records every dispatched event as a DAG
    node: its id, causal parent (the event executing when it was
    scheduled, [-1] for events scheduled from harness code), attribution
    label, enqueue instant and execution instant. Engines are assigned
    {e track} numbers in first-seen order, so a multi-engine experiment
    keeps per-engine event ids unambiguous.

    Spans carry the event that closed them ([Telemetry.Span.stop_event],
    [stop_engine]); {!span_finish_binding} maps that onto a recorded
    track — the raw material for {!Critical} path extraction ("which
    event chain closed the failover span?").

    The recorder is strictly observation-only, like [Prof.Profiler]:
    attaching it must leave replay digests byte-identical. It never
    touches simulation state, telemetry, or engine RNGs. *)

type node = {
  id : int;  (** engine scheduling sequence number, unique per track *)
  parent : int;  (** causal parent id, [-1] when scheduled externally *)
  track : int;  (** engine index, first-seen order *)
  label : string;  (** cost-attribution label, inherited like the cost *)
  sched_at : Sim.Time.t;  (** enqueue instant *)
  exec_at : Sim.Time.t;  (** execution instant (dwell = exec - sched) *)
}

val default_limit : int
(** Default node-count cap (2M nodes ≈ a fig5a-scale run with room). *)

val attach : ?limit:int -> unit -> unit
(** Installs the recorder as the engine observer. Recording stops (and
    {!dropped} counts) past [limit] nodes. Existing recorded state is
    kept — call {!reset} for a fresh DAG. Raises [Invalid_argument]
    (and changes nothing) while another observer, such as the profiler,
    is installed. *)

val detach : unit -> unit
(** Uninstalls the recorder; recorded state stays readable. A no-op
    when it is not attached. *)

val enabled : unit -> bool
(** [true] while the recorder is attached. *)

val reset : unit -> unit
(** Forgets all nodes, tracks and the drop count. *)

val node_count : unit -> int
(** Recorded nodes (excludes dropped ones). *)

val dropped : unit -> int
(** Dispatches not recorded because the node cap was reached. *)

val get : int -> node
(** [get i] is the [i]-th node in execution order, [0 <= i < node_count ()]. *)

val iter : (node -> unit) -> unit
(** Iterates nodes in execution order. *)

val nodes : unit -> node array
(** A copy of all nodes in execution order (tests / small runs). *)

val find : track:int -> id:int -> node option
(** Point lookup by (track, event id). *)

val track_count : unit -> int

val track_of_engine : Sim.Engine.t -> int option
(** The track assigned to [eng], if it has dispatched any recorded
    event since the last {!reset}. *)

val span_finish_binding : Telemetry.Span.span -> (int * int) option
(** [(event id, track)] of the event executing when the span was
    closed; [None] when it was closed outside event dispatch, is still
    open, or its engine has no track. *)
