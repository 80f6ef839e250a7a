type event = {
  time : Time.t;
  seq : int; (* tie-breaker: FIFO among same-instant events; doubles as
                the event's unique id within its engine *)
  action : unit -> unit;
  mutable cancelled : bool;
  owner : t;
  label : string; (* cost-attribution label, see [schedule_at] *)
  sched_at : Time.t; (* enqueue instant: dwell = time - sched_at *)
  caused_by : int; (* seq of the event executing when this one was
                      scheduled; -1 when scheduled from outside dispatch *)
}

and heap = { mutable arr : event array; mutable size : int }

and t = {
  mutable clock : Time.t;
  mutable heap : heap option; (* created with the first event *)
  mutable next_seq : int;
  mutable live : int; (* queued and not cancelled *)
  mutable processed : int;
  mutable current_label : string; (* label of the executing event *)
  mutable current_id : int; (* seq of the executing event; -1 outside *)
  root_rng : Rng.t;
  id : int; (* unique among the engines of the creating domain *)
  dls : dls_state; (* the creating domain's shared meter/observer cell *)
}

and observer =
  t -> id:int -> parent:int -> label:string -> sched_at:Time.t ->
  (unit -> unit) -> unit

(* Domain-local engine state: the cross-engine throughput meter, the
   engine id counter and the dispatch observer. One record per domain,
   captured into [t] at [create] so the per-event hot path pays a field
   read, not a DLS lookup. Observer and meter cover every engine *this
   domain* creates — exactly the old process-global behaviour when
   single-domain, and per-campaign-worker isolation under [--jobs N] (a
   profiler attached on one domain never observes, or races with,
   another domain's runs). *)
and dls_state = {
  mutable dls_processed : int;
  mutable dls_next_id : int;
  mutable dls_observer : observer option;
}

type handle = event

let dls_key =
  Domain.DLS.new_key (fun () ->
      { dls_processed = 0; dls_next_id = 0; dls_observer = None })

let dls () = Domain.DLS.get dls_key

(* A classic array-backed binary min-heap ordered by (time, seq). The
   [dummy] slot filler is the first event ever pushed; it is never read as
   a live element because [size] bounds all accesses. *)
module Heap = struct
  let create_with e = { arr = Array.make 256 e; size = 0 }
  let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let grow h =
    let arr = Array.make (2 * Array.length h.arr) h.arr.(0) in
    Array.blit h.arr 0 arr 0 h.size;
    h.arr <- arr

  let push h e =
    if h.size = Array.length h.arr then grow h;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.arr.(!i) <- e;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if lt h.arr.(!i) h.arr.(parent) then begin
        let tmp = h.arr.(parent) in
        h.arr.(parent) <- h.arr.(!i);
        h.arr.(!i) <- tmp;
        i := parent
      end
      else continue := false
    done

  (* Precondition: [h.size > 0] — callers branch on [size] themselves
     so the dispatch loop never allocates a [Some] per event. *)
  let pop h =
    let top = h.arr.(0) in
    h.size <- h.size - 1;
    h.arr.(0) <- h.arr.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && lt h.arr.(l) h.arr.(!smallest) then smallest := l;
      if r < h.size && lt h.arr.(r) h.arr.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = h.arr.(!smallest) in
        h.arr.(!smallest) <- h.arr.(!i);
        h.arr.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    top
end

let create ?(seed = 42) () =
  let dls = dls () in
  dls.dls_next_id <- dls.dls_next_id + 1;
  {
    clock = Time.zero;
    heap = None;
    next_seq = 0;
    live = 0;
    processed = 0;
    current_label = "main";
    current_id = -1;
    root_rng = Rng.create seed;
    id = dls.dls_next_id;
    dls;
  }

let id t = t.id
let now t = t.clock
let rng t = t.root_rng
let current_label t = t.current_label
let current_event_id t = t.current_id

let schedule_at t ?label instant action =
  if instant < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %s is in the past (now %s)"
         (Time.to_string instant) (Time.to_string t.clock));
  let label = match label with Some l -> l | None -> t.current_label in
  let e =
    {
      time = instant;
      seq = t.next_seq;
      action;
      cancelled = false;
      owner = t;
      label;
      sched_at = t.clock;
      caused_by = t.current_id;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  let h =
    match t.heap with
    | Some h -> h
    | None ->
        let h = Heap.create_with e in
        t.heap <- Some h;
        h
  in
  Heap.push h e;
  e

let schedule_after t ?label span action =
  if span < 0 then invalid_arg "Engine.schedule_after: negative span";
  schedule_at t ?label (Time.add t.clock span) action

let cancel (e : handle) =
  if not e.cancelled then begin
    e.cancelled <- true;
    e.owner.live <- e.owner.live - 1
  end

let is_pending (e : handle) = not e.cancelled

(* The dispatch observer (Prof.Profiler or Causal.Recorder installs
   itself here). When set, every event dispatch is routed through it; it
   must run the action exactly once and never touch simulation state,
   telemetry, or the engine RNG — replay digests must be byte-identical
   with the observer installed or not. Domain-wide, like the throughput
   meter: experiments build engines internally and the observer must see
   all of them. One at a time: a second install raises rather than
   stacking. *)
let observe o =
  let d = dls () in
  (match (o, d.dls_observer) with
  | Some _, Some _ -> invalid_arg "Engine.observe: an observer is installed"
  | _ -> ());
  d.dls_observer <- o

let observed () = (dls ()).dls_observer <> None

let exec t e =
  e.cancelled <- true;
  t.live <- t.live - 1;
  t.clock <- e.time;
  t.processed <- t.processed + 1;
  t.dls.dls_processed <- t.dls.dls_processed + 1;
  t.current_label <- e.label;
  t.current_id <- e.seq;
  (match t.dls.dls_observer with
  | None -> e.action ()
  | Some o ->
      o t ~id:e.seq ~parent:e.caused_by ~label:e.label ~sched_at:e.sched_at
        e.action);
  t.current_id <- -1

let step t =
  match t.heap with
  | None -> false
  | Some h ->
      if h.size = 0 then false
      else begin
        let e = Heap.pop h in
        if not e.cancelled then exec t e;
        true
      end

let run t = while step t do () done

let run_until t limit =
  let continue = ref true in
  while !continue do
    match t.heap with
    | None -> continue := false
    | Some h ->
        (* Peek inline: an option-returning peek would allocate a [Some]
           per loop iteration, once per event under [run_until]. *)
        if h.size > 0 && h.arr.(0).time <= limit then ignore (step t)
        else continue := false
  done;
  if limit > t.clock then t.clock <- limit

let run_for t span = run_until t (Time.add t.clock span)
let pending_events t = t.live
let processed_events t = t.processed
let global_processed_events () = (dls ()).dls_processed

type timer = { mutable pending : handle option; mutable stopped : bool }

let every t ?label ?(jitter = 0.0) period f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let timer = { pending = None; stopped = false } in
  (* Jitter draws come from a private stream split off at creation, not
     from the shared root generator: a timer's firing pattern must not
     shift when an unrelated subsystem (created mid-run, e.g. by a fault
     injector) starts drawing from the engine RNG. *)
  let rng = if jitter <= 0.0 then None else Some (Rng.split t.root_rng) in
  let next_delay () =
    match rng with
    | None -> period
    | Some rng ->
        let j = Rng.float rng (2.0 *. jitter) -. jitter in
        let d = float_of_int period *. (1.0 +. j) in
        max 1 (int_of_float d)
  in
  let rec arm () =
    if not timer.stopped then
      timer.pending <-
        Some
          (schedule_after t ?label (next_delay ()) (fun () ->
               timer.pending <- None;
               if not timer.stopped then begin
                 f ();
                 arm ()
               end))
  in
  arm ();
  timer

let stop_timer timer =
  timer.stopped <- true;
  match timer.pending with
  | Some h ->
      cancel h;
      timer.pending <- None
  | None -> ()
