type segment = {
  label : string;
  dur : Sim.Time.span;
  events : int; (* 0 for synthetic segments like "(untraced)" *)
}

type t = {
  span_name : string;
  start_at : Sim.Time.t;
  stop_at : Sim.Time.t;
  total : Sim.Time.span;
  segments : segment list; (* in time order, durations sum to [total] *)
  events : int; (* chain length (recorded events on the path) *)
}

(* Label match: exact, or [pat] is a dotted prefix ("tcp" matches
   "tcp.rto" but not "tcpdump"). *)
let label_matches pat l =
  String.equal pat l
  || (String.length l > String.length pat
     && String.starts_with ~prefix:pat l
     && l.[String.length pat] = '.')

(* The last finished span with this name: recovery queries ask about the
   run's final failover, and re-runs append. *)
let target_span name =
  let finished =
    List.filter
      (fun (s : Telemetry.Span.span) -> s.stop_at <> None)
      (Telemetry.Span.find ~name)
  in
  match List.rev finished with s :: _ -> Some s | [] -> None

(* Endpoint: the event whose execution closed the span (via the span
   finish binding), or — when the span was closed from harness code or
   the binding's event fell off the recorder cap — the last recorded
   event executed within the span window. [to_label] overrides both:
   the last in-window event whose label matches. *)
let endpoint ~to_label ~t0 ~t1 (span : Telemetry.Span.span) =
  let in_window (n : Recorder.node) = n.exec_at >= t0 && n.exec_at <= t1 in
  let last_matching pred =
    let r = ref None in
    let i = ref (Recorder.node_count () - 1) in
    while !r = None && !i >= 0 do
      let n = Recorder.get !i in
      if in_window n && pred n then r := Some n;
      decr i
    done;
    !r
  in
  match to_label with
  | Some pat -> last_matching (fun n -> label_matches pat n.label)
  | None -> (
      match Recorder.span_finish_binding span with
      | Some (id, track) -> (
          match Recorder.find ~track ~id with
          | Some n when in_window n -> Some n
          | Some _ | None -> last_matching (fun _ -> true))
      | None -> last_matching (fun _ -> true))

(* Walk causal parents back from the endpoint, staying on the endpoint's
   track, until the chain leaves the span window, reaches an external
   root, or hits [from_label]. Oldest first. *)
let chain_of ~from_label ~t0 (endp : Recorder.node) =
  let rec up acc (n : Recorder.node) =
    let acc = n :: acc in
    let stop_here =
      match from_label with
      | Some pat -> label_matches pat n.label
      | None -> false
    in
    if stop_here || n.parent < 0 then acc
    else
      match Recorder.find ~track:n.track ~id:n.parent with
      | Some p when p.exec_at >= t0 -> up acc p
      | Some _ | None -> acc
  in
  up [] endp

let segments_of ~t0 ~t1 chain =
  (* Each chain node contributes a hop: time from the previous node's
     execution (or the span start, for the first) to its own. The hops
     telescope, so together with the "(untraced)" tail they sum exactly
     to the span duration. *)
  let hops =
    List.rev
      (snd
         (List.fold_left
            (fun (prev_at, acc) (n : Recorder.node) ->
              (n.exec_at, (n.label, Sim.Time.diff n.exec_at prev_at) :: acc))
            (t0, []) chain))
  in
  let tail =
    match List.rev chain with
    | last :: _ when last.Recorder.exec_at < t1 ->
        [ ("(untraced)", Sim.Time.diff t1 last.Recorder.exec_at) ]
    | _ -> []
  in
  (* Merge consecutive same-label hops into segments. *)
  let merged =
    List.fold_left
      (fun acc (label, dur) ->
        match acc with
        | { label = l; dur = d; events = e } :: rest when String.equal l label
          ->
            { label; dur = d + dur; events = e + 1 } :: rest
        | _ -> { label; dur; events = 1 } :: acc)
      [] hops
  in
  let merged =
    match tail with
    | [ (label, dur) ] -> { label; dur; events = 0 } :: merged
    | _ -> merged
  in
  List.rev merged

let of_span ?from_label ?to_label ~name () =
  match target_span name with
  | None -> Error (Printf.sprintf "no finished span named %S" name)
  | Some span -> (
      let t0 = span.start_at in
      let t1 = match span.stop_at with Some t -> t | None -> assert false in
      match endpoint ~to_label ~t0 ~t1 span with
      | None ->
          Error
            (Printf.sprintf
               "no traced events inside span %S — was the recorder attached \
                during the run?"
               name)
      | Some endp ->
          let chain = chain_of ~from_label ~t0 endp in
          Ok
            {
              span_name = name;
              start_at = t0;
              stop_at = t1;
              total = Sim.Time.diff t1 t0;
              segments = segments_of ~t0 ~t1 chain;
              events = List.length chain;
            })

let segment_sum t =
  List.fold_left (fun acc s -> acc + s.dur) 0 t.segments

let to_text t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Format.asprintf "critical path: %s  (%a, %d events on path)@." t.span_name
       Sim.Time.pp_span t.total t.events);
  Buffer.add_string buf
    (Format.asprintf "  window: %a -> %a@." Sim.Time.pp t.start_at Sim.Time.pp
       t.stop_at);
  let total_f = Sim.Time.to_sec_f t.total in
  List.iter
    (fun s ->
      let frac =
        if total_f > 0.0 then 100.0 *. Sim.Time.to_sec_f s.dur /. total_f
        else 0.0
      in
      let dur = Format.asprintf "%a" Sim.Time.pp_span s.dur in
      Buffer.add_string buf
        (Format.asprintf "  %-24s %12s  %5.1f%%  %6d ev@." s.label dur frac
           s.events))
    t.segments;
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"span\":\"%s\",\"start_ns\":%d,\"stop_ns\":%d,\"total_ns\":%d,\"events\":%d,\"segments\":["
       (Telemetry.Event.json_escape t.span_name)
       t.start_at t.stop_at t.total t.events);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"label\":\"%s\",\"dur_ns\":%d,\"events\":%d}"
           (Telemetry.Event.json_escape s.label)
           s.dur s.events))
    t.segments;
  Buffer.add_string buf "]}";
  Buffer.contents buf
