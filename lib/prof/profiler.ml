(* Deterministic engine profiler: per-label cost accounting, installed
   as the [Sim.Engine] dispatch observer.

   Attribution is by event label (see [Engine.schedule_after ?label]):
   each dispatched event adds its wall time, allocation delta
   ([Gc.allocated_bytes]), minor/major collection deltas and simulated
   queue dwell to its label's row. All of it is host-side observation —
   nothing here reads or writes simulation state, telemetry, or the
   engine RNG, so replay digests are byte-identical with the profiler
   attached or not (a property the test suite pins against the chaos
   corpus). *)

type stat = {
  label : string;
  mutable events : int;
  mutable wall_s : float;
  mutable alloc_bytes : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable dwell_s : float; (* simulated enqueue→dispatch time, total *)
  mutable dwell_max_s : float;
}

(* Profiler state is domain-local, matching the engine observer it
   feeds on: attaching on one domain profiles the engines that domain
   creates and nothing else, so parallel campaign workers never share a
   stats table. *)
type state = { table : (string, stat) Hashtbl.t; mutable active : bool }

let key =
  Domain.DLS.new_key (fun () -> { table = Hashtbl.create 64; active = false })

let state () = Domain.DLS.get key

let get label =
  let table = (state ()).table in
  match Hashtbl.find_opt table label with
  | Some st -> st
  | None ->
      let st =
        {
          label;
          events = 0;
          wall_s = 0.0;
          alloc_bytes = 0.0;
          minor_gcs = 0;
          major_gcs = 0;
          dwell_s = 0.0;
          dwell_max_s = 0.0;
        }
      in
      Hashtbl.replace table label st;
      st

(* The observer: measure around the action. Costs of the measurement
   itself (two Gc reads, two clock reads, a closure) land inside the
   sample — a known, constant per-event overhead, stated in the docs.
   The action is executed under [Fun.protect] so an escaping exception
   (the chaos runner converts those into run errors) still books the
   sample. *)
let on_event eng ~id:_ ~parent:_ ~label ~sched_at action =
  let st = get label in
  let d = Sim.Time.to_sec_f (Sim.Time.diff (Sim.Engine.now eng) sched_at) in
  st.dwell_s <- st.dwell_s +. d;
  if d > st.dwell_max_s then st.dwell_max_s <- d;
  let q0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = Clock.now_s () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Clock.now_s () in
      let a1 = Gc.allocated_bytes () in
      let q1 = Gc.quick_stat () in
      st.events <- st.events + 1;
      st.wall_s <- st.wall_s +. (t1 -. t0);
      st.alloc_bytes <- st.alloc_bytes +. (a1 -. a0);
      st.minor_gcs <-
        st.minor_gcs + q1.Gc.minor_collections - q0.Gc.minor_collections;
      st.major_gcs <-
        st.major_gcs + q1.Gc.major_collections - q0.Gc.major_collections)
    action

let reset () = Hashtbl.reset (state ()).table

let attach () =
  Sim.Engine.observe (Some on_event);
  reset ();
  (state ()).active <- true

let detach () =
  let st = state () in
  if st.active then begin
    st.active <- false;
    Sim.Engine.observe None
  end

let enabled () = (state ()).active

let stats () =
  List.rev
    (Sim.Det.fold_sorted ~compare:String.compare
       (fun _ st acc -> st :: acc)
       (state ()).table [])

type order = By_wall | By_alloc | By_events | By_dwell

let key_of = function
  | By_wall -> fun st -> st.wall_s
  | By_alloc -> fun st -> st.alloc_bytes
  | By_events -> fun st -> float_of_int st.events
  | By_dwell -> fun st -> st.dwell_s

let top ?(by = By_wall) k =
  let key = key_of by in
  let sorted =
    List.sort
      (fun a b ->
        match Float.compare (key b) (key a) with
        | 0 -> String.compare a.label b.label
        | c -> c)
      (stats ())
  in
  List.filteri (fun i _ -> i < k) sorted

let sum f = List.fold_left (fun acc st -> acc +. f st) 0.0 (stats ())
let sumi f = List.fold_left (fun acc st -> acc + f st) 0 (stats ())
let total_events () = sumi (fun st -> st.events)
let total_wall_s () = sum (fun st -> st.wall_s)
let total_alloc_bytes () = sum (fun st -> st.alloc_bytes)
let total_minor_gcs () = sumi (fun st -> st.minor_gcs)
let total_major_gcs () = sumi (fun st -> st.major_gcs)
