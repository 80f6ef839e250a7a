type node = {
  id : int;
  parent : int; (* -1: scheduled from outside event dispatch *)
  track : int;
  label : string;
  sched_at : Sim.Time.t;
  exec_at : Sim.Time.t;
}

let default_limit = 2_000_000

(* Nodes in execution order. Grown manually ([||] until the first
   record): the array element type needs a seed value, so allocation is
   deferred to the first push, like the engine heap. *)
type store = { mutable arr : node array; mutable len : int }

(* Recorder state is domain-local, matching the engine observer it
   feeds on: attaching on one domain records the event DAG of that
   domain's engines only, so parallel campaign workers never interleave
   their traces. *)
type state = {
  store : store;
  mutable node_limit : int;
  mutable dropped_count : int;
  mutable active : bool;
  (* (track, id) -> index into [store.arr]. Only point lookups — never
     traversed, so determinism is not at the mercy of hash order. *)
  index : (int * int, int) Hashtbl.t;
  (* [Engine.id] -> track, assigned in first-seen order (track = table
     size at insertion). Point lookups only, like [index]. *)
  tracks : (int, int) Hashtbl.t;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        store = { arr = [||]; len = 0 };
        node_limit = default_limit;
        dropped_count = 0;
        active = false;
        index = Hashtbl.create 4096;
        tracks = Hashtbl.create 8;
      })

let state () = Domain.DLS.get key

let track_count () = Hashtbl.length (state ()).tracks
let track_of_engine eng =
  Hashtbl.find_opt (state ()).tracks (Sim.Engine.id eng)

let register_track tracks eng =
  let eid = Sim.Engine.id eng in
  match Hashtbl.find_opt tracks eid with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tracks in
      Hashtbl.replace tracks eid i;
      i

let span_finish_binding (span : Telemetry.Span.span) =
  if span.stop_event < 0 then None
  else
    Option.map
      (fun track -> (span.stop_event, track))
      (Hashtbl.find_opt (state ()).tracks span.stop_engine)

let reset () =
  let st = state () in
  st.store.arr <- [||];
  st.store.len <- 0;
  st.dropped_count <- 0;
  Hashtbl.reset st.index;
  Hashtbl.reset st.tracks

let push store n =
  if store.len = Array.length store.arr then begin
    let cap = Array.length store.arr in
    let arr = Array.make (if cap = 0 then 1024 else 2 * cap) n in
    Array.blit store.arr 0 arr 0 store.len;
    store.arr <- arr
  end;
  store.arr.(store.len) <- n;
  store.len <- store.len + 1

let on_dispatch eng ~id ~parent ~label ~sched_at action =
  let st = state () in
  if st.store.len >= st.node_limit then
    st.dropped_count <- st.dropped_count + 1
  else begin
    let track = register_track st.tracks eng in
    Hashtbl.replace st.index (track, id) st.store.len;
    push st.store
      { id; parent; track; label; sched_at; exec_at = Sim.Engine.now eng }
  end;
  action ()

let enabled () = (state ()).active

let attach ?(limit = default_limit) () =
  if limit <= 0 then invalid_arg "Recorder.attach: limit must be positive";
  Sim.Engine.observe (Some on_dispatch);
  let st = state () in
  st.node_limit <- limit;
  st.active <- true

let detach () =
  let st = state () in
  if st.active then begin
    st.active <- false;
    Sim.Engine.observe None
  end

let node_count () = (state ()).store.len
let dropped () = (state ()).dropped_count
let get i = (state ()).store.arr.(i)

let find ~track ~id =
  let st = state () in
  match Hashtbl.find_opt st.index (track, id) with
  | Some i -> Some st.store.arr.(i)
  | None -> None

let iter f =
  let store = (state ()).store in
  for i = 0 to store.len - 1 do
    f store.arr.(i)
  done

let nodes () =
  let store = (state ()).store in
  Array.init store.len (fun i -> store.arr.(i))
