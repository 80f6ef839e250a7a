type id = int

let none = -1

type span = {
  sid : id;
  name : string;
  parent : id option;
  start_at : Sim.Time.t;
  mutable stop_at : Sim.Time.t option;
  (* The closing event, for causal tracing: its id and its engine's
     [Engine.id] — an integer, so a finished span never keeps an engine
     and its event heap alive. -1 while open, and [stop_event] stays -1
     when the span was closed outside event dispatch. *)
  mutable stop_event : int;
  mutable stop_engine : int;
}

(* Span storage and the ambient parent are domain-local: a domain's runs
   record into their own table, so span ids and parentage never depend
   on what other domains are doing. *)
type state = {
  mutable next_id : int;
  by_id : (id, span) Hashtbl.t;
  mutable rev_order : span list;
  mutable ambient_span : id option;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        next_id = 0;
        by_id = Hashtbl.create 64;
        rev_order = [];
        ambient_span = None;
      })

let state () = Domain.DLS.get key

let set_ambient v = (state ()).ambient_span <- v
let ambient () = (state ()).ambient_span

let stamp_stop s eng stop_at =
  s.stop_at <- Some stop_at;
  s.stop_event <- Sim.Engine.current_event_id eng;
  s.stop_engine <- Sim.Engine.id eng

let record name parent start_at =
  let st = state () in
  st.next_id <- st.next_id + 1;
  let parent =
    match parent with
    | Some p when p <> none -> Some p
    | Some _ -> None
    | None -> st.ambient_span
  in
  let s =
    {
      sid = st.next_id;
      name;
      parent;
      start_at;
      stop_at = None;
      stop_event = -1;
      stop_engine = -1;
    }
  in
  Hashtbl.replace st.by_id s.sid s;
  st.rev_order <- s :: st.rev_order;
  s

let start ?parent eng name =
  if not (Gate.on ()) then none
  else (record name parent (Sim.Engine.now eng)).sid

let finish eng sid =
  match Hashtbl.find_opt (state ()).by_id sid with
  | Some s when s.stop_at = None -> stamp_stop s eng (Sim.Engine.now eng)
  | Some _ | None -> ()

let add ?parent eng name ~start_at ~stop_at =
  if not (Gate.on ()) then none
  else begin
    let s = record name parent start_at in
    stamp_stop s eng stop_at;
    s.sid
  end

let spans () = List.rev (state ()).rev_order
let find ~name = List.filter (fun s -> String.equal s.name name) (spans ())
let children sid = List.filter (fun s -> s.parent = Some sid) (spans ())

let roots () =
  let st = state () in
  List.filter
    (fun s ->
      match s.parent with
      | None -> true
      | Some p -> not (Hashtbl.mem st.by_id p))
    (spans ())

let clear () =
  let st = state () in
  Hashtbl.reset st.by_id;
  st.rev_order <- [];
  st.next_id <- 0;
  st.ambient_span <- None

let to_jsonl buf =
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":%d,\"parent\":%s,\"name\":\"%s\",\"start_ns\":%d,\"stop_ns\":%s,\"dur_ns\":%s}\n"
           s.sid
           (match s.parent with Some p -> string_of_int p | None -> "null")
           (Event.json_escape s.name)
           s.start_at
           (match s.stop_at with Some t -> string_of_int t | None -> "null")
           (match s.stop_at with
           | Some t -> string_of_int (Sim.Time.diff t s.start_at)
           | None -> "null")))
    (spans ())

let pp_tree fmt () =
  let rec render indent s =
    (match s.stop_at with
    | Some stop ->
        Format.fprintf fmt "%s%s  [%a → %a]  (%a)@." indent s.name Sim.Time.pp
          s.start_at Sim.Time.pp stop Sim.Time.pp_span
          (Sim.Time.diff stop s.start_at)
    | None ->
        Format.fprintf fmt "%s%s  [%a → …]  (open)@." indent s.name Sim.Time.pp
          s.start_at);
    List.iter (render (indent ^ "  ")) (children s.sid)
  in
  List.iter (render "") (roots ())
