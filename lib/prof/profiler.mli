(** Per-event-kind cost accounting, installed as the [Sim.Engine]
    dispatch observer.

    While attached, every event of every engine in the process books its
    wall time, allocation delta, minor/major GC deltas and simulated
    queue dwell against its attribution label. The profiler is
    observation-only: it never reads or writes simulation state,
    telemetry, or the engine RNG, so replay digests are byte-identical
    whether it is attached or not. The measurement overhead (two [Gc]
    reads and two clock reads per event) is included in each sample. *)

type stat = {
  label : string;
  mutable events : int;
  mutable wall_s : float;
  mutable alloc_bytes : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable dwell_s : float;
      (** Total simulated time events of this label spent enqueued
          before dispatch — the event-queue scheduling latency. *)
  mutable dwell_max_s : float;
}

val attach : unit -> unit
(** Installs the profiler as the engine observer and clears accumulated
    samples. Raises [Invalid_argument] (and changes nothing) while
    another observer, such as the causal recorder, is installed. *)

val detach : unit -> unit
(** Uninstalls the profiler; accumulated samples remain readable. A
    no-op when it is not attached. *)

val enabled : unit -> bool
(** [true] while the profiler is attached. *)

val reset : unit -> unit
(** Clears accumulated samples without touching the observer. *)

val stats : unit -> stat list
(** All rows, sorted by label (deterministic output order). *)

type order = By_wall | By_alloc | By_events | By_dwell

val top : ?by:order -> int -> stat list
(** [top ~by k] is the [k] costliest rows, descending (ties by label). *)

val total_events : unit -> int
val total_wall_s : unit -> float
val total_alloc_bytes : unit -> float
val total_minor_gcs : unit -> int
val total_major_gcs : unit -> int
