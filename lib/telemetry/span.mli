(** Causal spans over simulated time.

    A span is a named interval [(start_at, stop_at)] with an optional
    parent, forming trees like [failover ⊃ bfd_detect ⊃ tcp_replay].
    Subsystems that cannot know their causal parent (a BFD session
    noticing silence, a replicator catching up) attach to the {e
    ambient} span, which the orchestration layer sets when it starts a
    root span (failure injection) and clears when the root finishes.

    Collection is gated on {!Gate}: when telemetry is off, {!start}
    returns {!none} and every operation on it is a no-op. Orphans are
    harmless by construction — finishing an unknown or already-finished
    id does nothing, and spans never finished export with a null stop. *)

type id = int

val none : id
(** The inert span id returned when telemetry is disabled. *)

type span = {
  sid : id;
  name : string;
  parent : id option;
  start_at : Sim.Time.t;
  mutable stop_at : Sim.Time.t option;
  mutable stop_event : int;
      (** Id of the engine event executing when the span was closed
          ({!Sim.Engine.current_event_id}); [-1] while open or when
          closed from harness code, outside event dispatch. *)
  mutable stop_engine : int;
      (** {!Sim.Engine.id} of the engine whose clock closed the span;
          [-1] while open. An id, not the engine: a finished span must
          not keep an engine's event heap alive. *)
}

val start : ?parent:id -> Sim.Engine.t -> string -> id
(** Opens a span at the current instant. Without [?parent] the span
    attaches to the ambient span (if any). *)

val finish : Sim.Engine.t -> id -> unit
(** Closes a span at the current instant and records the closing event
    ([stop_event], [stop_engine]). Unknown / already-closed / {!none}
    ids are ignored. *)

val add :
  ?parent:id -> Sim.Engine.t -> string -> start_at:Sim.Time.t ->
  stop_at:Sim.Time.t -> id
(** Records a retroactively-observed span (e.g. BFD detection, whose
    start is the last control packet heard). The closing event is the
    one executing now, as for {!finish}. *)

val set_ambient : id option -> unit
val ambient : unit -> id option

val spans : unit -> span list
(** All recorded spans, in creation order. *)

val find : name:string -> span list
(** Spans with the given name, in creation order. *)

val children : id -> span list

val roots : unit -> span list
(** Spans whose parent is absent or was never recorded. *)

val clear : unit -> unit
(** Forgets all spans and clears the ambient span. *)

val to_jsonl : Buffer.t -> unit
(** One JSON object per span:
    [{"id":..,"parent":..,"name":..,"start_ns":..,"stop_ns":..,"dur_ns":..}]. *)

val pp_tree : Format.formatter -> unit -> unit
(** Renders the span forest with indentation and durations. *)
