open Sim
open Netsim

let m_rx_repl = Telemetry.Registry.counter "replicator.rx_replicated"
let m_tx_repl = Telemetry.Registry.counter "replicator.tx_replicated"
let m_acks_held = Telemetry.Registry.counter "replicator.acks_held"
let m_acks_released = Telemetry.Registry.counter "replicator.acks_released"
let m_store_retries = Telemetry.Registry.counter "replicator.store_retries"
let m_hold_s = Telemetry.Registry.histogram "replicator.ack_hold_s"
let m_acks_shed = Telemetry.Registry.counter "replicator.acks_shed"
let m_degrades = Telemetry.Registry.counter "replicator.degrades"
let m_degraded_s = Telemetry.Registry.histogram "replicator.degraded_s"

(* A strictly ordered, depth-one-pipelined stream of store operations.
   Consecutive sets (and consecutive deletes) coalesce into batches when
   the pump takes them, which is what keeps the per-message replication
   cost on the cheap side of the Figure 5(b) batching curve under update
   floods. *)
type op =
  | Set of (string * string) list * (unit -> unit) list
  | Del of string list

type lane = {
  queue : op Queue.t; (* submitted ops, oldest first *)
  mutable inflight : bool;
  mutable current : op option; (* the op the pump holds, for shedding *)
  mutable blocked_since : Time.t option; (* first unanswered store attempt *)
}

(* An inbound replica may be trimmed only once it is BOTH durable (its
   control-lane write completed) and applied to the routing table. The
   two events race across lanes, so track both. *)
type in_state = { in_key : string; mutable durable : bool; mutable applied : bool }

type t = {
  replicate : bool;
  ack_hold : bool;
  eng : Engine.t;
  client : Store.Client.t;
  cid : Keys.conn_id;
  service : string;
  mutable stopped : bool;
  (* Two write pumps, like two pipelined connections to Redis: the
     control lane carries everything the ACK watermark and message
     release wait on; the bulk lane carries routing-table checkpoints and
     trims, which must not delay ACK release. The only cross-record
     ordering the design needs — a received message's replica may be
     deleted only after its checkpoint entries are durable — is within
     the bulk lane, which is FIFO. *)
  ctl : lane;
  bulk : lane;
  (* Receive side. *)
  mutable wm : int option;
  mutable wm_target : int; (* highest durable ack, pending confirmation *)
  mutable confirm_inflight : bool;
  held : (int * Time.t * (Netfilter.verdict -> unit)) Queue.t;
  mutable holds_n : int;
  mutable holds_sum : float;
  mutable in_seq : int;
  unapplied : in_state Queue.t; (* in| records awaiting apply + durability *)
  (* Send side. *)
  mutable written : int; (* stream bytes handed to replication *)
  mutable outtrim : int; (* stream offset known acked *)
  out_records : (int * int) Queue.t; (* (offset, len), oldest first *)
  rib_enc : Keys.rib_encoder; (* one UPDATE's prefixes share its attrs *)
  mutable tail_source : (unit -> (int * int * string) option) option;
  mutable watchdog : Engine.timer option;
  mutable part_written : bool;
  (* Connection epoch: rolls forward each time the replicated session's
     transport dies, so every successor connection writes its
     stream-scoped records (ack/in/out/outtrim/part) under a fresh key
     space. Recovery follows the epoch recorded in the meta record. *)
  mutable epoch : int;
  (* Degraded pass-through (store-outage survival). When durability
     cannot be achieved within [degrade_after] of the oldest obligation
     — a held ACK aging past the deadline, or the control lane unable to
     land a write for that long — NSR protection is suspended rather
     than letting the peer's hold timer fire: held ACKs are shed,
     pending message releases fire without durability cover, and
     everything passes through until the store answers again. [gen]
     fences the stale store callbacks each transition orphans. *)
  mutable degrade_after : Time.span option;
  mutable degraded : bool;
  mutable degraded_since : Time.t option;
  mutable gen : int;
  mutable heal_probe : Engine.timer option;
  mutable heal_inflight : bool;
  mutable on_store_healed : unit -> unit;
}

let new_lane () =
  { queue = Queue.create (); inflight = false; current = None; blocked_since = None }

let create ?(replicate = true) ?(ack_hold = true) ~engine ~client ~conn_id
    ~service () =
  {
    replicate;
    ack_hold = replicate && ack_hold;
    eng = engine;
    client;
    cid = conn_id;
    service;
    stopped = false;
    ctl = new_lane ();
    bulk = new_lane ();
    wm = None;
    wm_target = 0;
    confirm_inflight = false;
    held = Queue.create ();
    holds_n = 0;
    holds_sum = 0.0;
    in_seq = 0;
    unapplied = Queue.create ();
    written = 0;
    outtrim = 0;
    out_records = Queue.create ();
    rib_enc = Keys.rib_encoder ();
    tail_source = None;
    watchdog = None;
    part_written = false;
    epoch = 0;
    degrade_after = None;
    degraded = false;
    degraded_since = None;
    gen = 0;
    heal_probe = None;
    heal_inflight = false;
    on_store_healed = (fun () -> ());
  }

let ecid t = Keys.epoch_cid t.cid t.epoch
let epoch t = t.epoch
let watermark t = t.wm
let held_segments t = Queue.length t.held
let mean_hold_s t =
  if t.holds_n = 0 then 0.0 else t.holds_sum /. float_of_int t.holds_n
let bytes_written t = t.written
let pending_unapplied t = Queue.length t.unapplied
let degraded t = t.degraded
let set_on_store_healed t f = t.on_store_healed <- f

(* --- Write pump ------------------------------------------------------------ *)

(* Cuts the next batch: the oldest op plus the run of same-kind ops
   behind it, while a Set batch holds fewer than [set_batch] pairs, or
   while a Del batch holds fewer than [del_batch] keys and the next
   delete has fewer than [del_small] (a mass withdrawal can queue 100K+
   checkpoint deletions at once). Deletions are unordered within a
   batch, so new keys go in front. *)
let set_batch = 128
let del_batch = 1024
let del_small = 64

let take_batch q =
  let rec go n batch =
    match (batch, Queue.peek_opt q) with
    | Set (ps, ks), Some (Set (p, k)) when n < set_batch ->
        ignore (Queue.pop q);
        go (n + List.length p)
          (Set (List.rev_append p ps, List.rev_append k ks))
    | Del ks, Some (Del k)
      when n < del_batch && List.compare_length_with k del_small < 0 ->
        ignore (Queue.pop q);
        go (n + List.length k) (Del (List.rev_append k ks))
    | Set (ps, ks), _ -> Set (List.rev ps, List.rev ks)
    | Del _, _ -> batch
  in
  match Queue.pop q with
  | Set (ps, ks) -> go (List.length ps) (Set (List.rev ps, List.rev ks))
  | Del ks as op -> go (List.length ks) op

(* A Set's callbacks fire; a Del is dropped. *)
let fire = function Set (_, ks) -> List.iter (fun k -> k ()) ks | Del _ -> ()

(* Each operation is retried until the store acknowledges it: a request
   lost to transient network trouble must neither block the lane for a
   long client timeout (stalled keepalive releases would let the peer's
   hold timer fire) nor — worse — release messages whose replication
   never actually happened. *)
let rec pump t lane =
  if
    (not lane.inflight) && (not t.stopped) && (not t.degraded)
    && not (Queue.is_empty lane.queue)
  then begin
    let op = take_batch lane.queue in
    lane.inflight <- true;
    lane.current <- Some op;
    (* A degrade entry (or re-arm) orphans this op: its store
       callbacks must then do nothing — the shed already fired the
       release callbacks, and touching lane state would corrupt the
       fresh generation's pipeline. *)
    let gen0 = t.gen in
    let live () = t.gen = gen0 in
    let finish () =
      lane.current <- None;
      lane.inflight <- false;
      lane.blocked_since <- None;
      pump t lane
    in
    let miss attempt =
      if live () then begin
        if lane.blocked_since = None then
          lane.blocked_since <- Some (Engine.now t.eng);
        Telemetry.Registry.incr m_store_retries;
        ignore
          (Engine.schedule_after t.eng ~label:"repl.retry" (Time.ms 100)
             attempt)
      end
    in
    let rec attempt () =
      if t.stopped || not (live ()) then ()
      else
        match op with
        | Set (pairs, _) ->
            Store.Client.set t.client ~timeout:(Time.sec 1) pairs
              (function
              | Ok () ->
                  if live () then begin
                    fire op;
                    finish ()
                  end
              | Error `Timeout -> miss attempt)
        | Del keys ->
            Store.Client.del t.client ~timeout:(Time.sec 1) keys
              (function
              | Ok _ -> if live () then finish ()
              | Error `Timeout -> miss attempt)
    in
    attempt ()
  end

(* While degraded the lanes are gone: a Set's callbacks (message
   releases, durability notifications — the latter inert against the
   cleared watermark) fire immediately, deletes are dropped; the re-arm
   rewrites every cursor the skipped writes would have maintained. *)
let submit t lane op =
  if t.degraded then fire op
  else begin
    Queue.push op lane.queue;
    pump t lane
  end

(* --- tcp_queue: the held-ACK discipline ------------------------------------ *)

let release_one t =
  let ack, since, reinject = Queue.pop t.held in
  let held_s = Time.to_sec_f (Time.diff (Engine.now t.eng) since) in
  t.holds_n <- t.holds_n + 1;
  t.holds_sum <- t.holds_sum +. held_s;
  Telemetry.Registry.incr m_acks_released;
  Telemetry.Registry.observe m_hold_s held_s;
  if Telemetry.Gate.on () then
    Telemetry.Bus.emit t.eng
      (Telemetry.Event.Ack_released { conn = t.cid; ack; held_s });
  reinject Netfilter.Accept

let release_ready t =
  match t.wm with
  | None -> ()
  | Some wm ->
      (* Seeded fault: silently swallow one ready-to-release ACK — the
         peer's cumulative ACKs make this behaviorally invisible, but
         the end-of-run held/released balance no longer closes. *)
      if
        !Monitor.Faults.leak_held_acks
        && (not (Queue.is_empty t.held))
        && (let ack, _, _ = Queue.peek t.held in
            ack <= wm)
      then begin
        Monitor.Faults.leak_held_acks := false;
        ignore (Queue.pop t.held)
      end;
      let continue = ref true in
      while !continue && not (Queue.is_empty t.held) do
        let ack, _, _ = Queue.peek t.held in
        if ack <= wm then release_one t else continue := false
      done;
      (* Seeded fault: release one held ACK beyond the durable
         watermark — exactly one message early. The in-flight store
         write completes moments later, so in a quiescent scenario only
         the safety invariant observes the early release. *)
      if !Monitor.Faults.early_ack_release && not (Queue.is_empty t.held)
      then begin
        Monitor.Faults.early_ack_release := false;
        release_one t
      end

(* The confirmation read of §3.1.2: tcp_queue trusts the watermark only
   after reading it back from the database. [durable] is an ACK whose
   write just completed; it raises the target the read confirms. *)
let rec confirm_watermark t ~durable =
  if durable > t.wm_target then t.wm_target <- durable;
  if (not t.confirm_inflight) && not t.stopped then begin
    match t.wm with
    | Some wm when t.wm_target > wm ->
        t.confirm_inflight <- true;
        Store.Client.get t.client ~timeout:(Time.sec 1)
          [ Keys.ack_key (ecid t) ] (fun result ->
            t.confirm_inflight <- false;
            (match result with
            | Ok [ (_, Some v) ] -> (
                match Keys.nat_of_string v with
                | Some confirmed ->
                    (match t.wm with
                    | Some old when confirmed > old ->
                        t.wm <- Some confirmed;
                        if Telemetry.Gate.on () then
                          Telemetry.Bus.emit t.eng
                            (Telemetry.Event.Wm_durable
                               { conn = t.cid; ack = confirmed })
                    | _ -> ());
                    release_ready t
                | None -> ())
            | Ok _ | Error `Timeout -> ());
            (* The target may have advanced again meanwhile. *)
            confirm_watermark t ~durable:0)
    | _ -> ()
  end

(* --- Degraded pass-through (store-outage survival) ----------------------------

   Holding ACKs (and messages) against a store that stays unreachable
   eventually trades an invisible recovery property for a very visible
   failure: the peer's hold timer. Past the configured deadline the
   replicator sheds its obligations, suspends NSR, and keeps the session
   alive; once the store answers again the app re-arms it under a fresh
   epoch and re-audits Adj-RIB-Out. *)

let stop_heal_probe t =
  match t.heal_probe with
  | Some p ->
      Engine.stop_timer p;
      t.heal_probe <- None
  | None -> ()

let degraded_seconds t =
  match t.degraded_since with
  | Some since -> Time.to_sec_f (Time.diff (Engine.now t.eng) since)
  | None -> 0.

(* The one way out of degraded mode, for a re-arm and a transport death
   alike: whichever path runs next sets the stream cursors. *)
let leave_degraded t =
  if t.degraded then begin
    let degraded_s = degraded_seconds t in
    t.degraded <- false;
    t.degraded_since <- None;
    t.gen <- t.gen + 1;
    t.heal_inflight <- false;
    stop_heal_probe t;
    Telemetry.Registry.observe m_degraded_s degraded_s;
    if Telemetry.Gate.on () then
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Degraded_exit
           { conn = t.cid; degraded_s; epoch = t.epoch })
  end

(* Lets every held ACK out without watermark cover, oldest first: [shed]
   when a degrade suspends NSR, dropped when the connection is gone (so
   the end-of-run balance held = released + shed + dropped closes). *)
let flush_held t ~shed =
  let now = Engine.now t.eng in
  while not (Queue.is_empty t.held) do
    let ack, since, reinject = Queue.pop t.held in
    if shed then begin
      Telemetry.Registry.incr m_acks_shed;
      if Telemetry.Gate.on () then
        Telemetry.Bus.emit t.eng
          (Telemetry.Event.Ack_shed
             { conn = t.cid; ack; held_s = Time.to_sec_f (Time.diff now since) })
    end
    else if Telemetry.Gate.on () then
      Telemetry.Bus.emit t.eng (Telemetry.Event.Ack_dropped { conn = t.cid; ack });
    reinject Netfilter.Accept
  done

(* Outside the per-message paths, the stream cursors are set here and
   nowhere else: every arming and disarming path differs only in the
   values it passes, and an omitted value is kept. [wm = None] disarms
   (pass-through: nothing is held); [Some ack] arms the stream at [ack],
   announces it durable and releases the held ACKs it covers.
   [out_records] replaces the retained send records; [drop_unapplied]
   forgets the in| replicas still awaiting apply. *)
let set_cursors t ?(epoch = t.epoch) ?(written = t.written)
    ?(outtrim = t.outtrim) ?(in_seq = t.in_seq)
    ?(part_written = t.part_written) ?out_records ?(drop_unapplied = false)
    wm =
  t.epoch <- epoch;
  t.wm <- wm;
  t.wm_target <- Option.value wm ~default:0;
  t.written <- written;
  t.outtrim <- outtrim;
  t.in_seq <- in_seq;
  t.part_written <- part_written;
  Option.iter
    (fun records ->
      Queue.clear t.out_records;
      List.iter (fun r -> Queue.push r t.out_records) records)
    out_records;
  if drop_unapplied then Queue.clear t.unapplied;
  match wm with
  | None -> ()
  | Some ack ->
      if Telemetry.Gate.on () then
        Telemetry.Bus.emit t.eng (Telemetry.Event.Wm_durable { conn = t.cid; ack });
      release_ready t

let shed_lane lane =
  Option.iter fire lane.current;
  Queue.iter fire lane.queue;
  lane.current <- None;
  Queue.clear lane.queue;
  lane.inflight <- false;
  lane.blocked_since <- None

let heal_probe_tick t =
  if t.degraded && (not t.stopped) && not t.heal_inflight then begin
    t.heal_inflight <- true;
    let gen0 = t.gen in
    (* Any answered read proves reachability; the meta key exists for
       every established session. *)
    Store.Client.get t.client ~timeout:(Time.sec 1) [ Keys.meta_key t.cid ]
      (fun result ->
        if t.gen = gen0 then begin
          t.heal_inflight <- false;
          if t.degraded && not t.stopped then
            match result with
            | Ok _ ->
                stop_heal_probe t;
                t.on_store_healed ()
            | Error `Timeout -> ()
        end)
  end

let enter_degraded t =
  if (not t.degraded) && not t.stopped then begin
    let now = Engine.now t.eng in
    let oldest_held_s =
      if Queue.is_empty t.held then 0.
      else
        let _, since, _ = Queue.peek t.held in
        Time.to_sec_f (Time.diff now since)
    in
    t.degraded <- true;
    t.degraded_since <- Some now;
    t.gen <- t.gen + 1;
    Telemetry.Registry.incr m_degrades;
    if Telemetry.Gate.on () then
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Degraded_enter
           { conn = t.cid; held = Queue.length t.held; oldest_held_s });
    (* Shed every held ACK — released to the peer without durability
       cover, which is exactly the suspension being declared. *)
    flush_held t ~shed:true;
    set_cursors t ~drop_unapplied:true None;
    shed_lane t.ctl;
    shed_lane t.bulk;
    if t.heal_probe = None then
      t.heal_probe <-
        Some
          (Engine.every t.eng ~label:"repl.heal_probe" (Time.sec 1) (fun () ->
               heal_probe_tick t))
  end

(* While degraded the watermark is already cleared: only the epoch
   moves. *)
let prepare_rearm t =
  if not t.degraded then invalid_arg "Replicator.prepare_rearm: not degraded";
  set_cursors t ~epoch:(t.epoch + 1) None;
  t.epoch

(* The stream was quiesced, so every send byte is acknowledged: the
   fresh epoch starts with no retained records. *)
let complete_rearm t ~watermark ~stream_offset ~part_written =
  if t.degraded then begin
    leave_degraded t;
    set_cursors t ~in_seq:0 ~written:stream_offset ~outtrim:stream_offset
      ~out_records:[] ~part_written ~drop_unapplied:true (Some watermark)
  end

(* Only the watermark: the handshake's OPEN and KEEPALIVEs were already
   replicated under this epoch's in| and out| counters. *)
let session_established t ~irs = set_cursors t (Some (irs + 1))

let session_down t =
  (* A transport death ends any degraded window: the successor session
     starts with NSR armed (and will re-degrade if the store is still
     out). *)
  leave_degraded t;
  (* The connection is gone; its sequence space dies with it. Flush
     anything still held: the dead connection cannot ACK it out. *)
  flush_held t ~shed:false;
  (* Retire the dead stream's send-side accounting and roll the epoch
     BEFORE a successor connection sends its first byte. Without this, a
     re-established session's tx offsets would continue where the dead
     stream stopped, and the next takeover would graft old-stream
     offsets onto the new connection's initial sequence number — a
     resumed sender permanently ahead of (or behind) the peer, whose
     ACKs then never advance snd_una (found by chaos fuzzing:
     kill.hostnet + cease during the partition + a second kill moments
     after the reconnect). The old epoch's records are deleted as
     hygiene only; recovery never reads them once the meta record names
     the new epoch. *)
  let old = ecid t in
  let stale =
    List.rev
      (Queue.fold (fun acc (off, _) -> Keys.out_key old off :: acc) []
         t.out_records)
  in
  let stale = if t.part_written then Keys.part_key old :: stale else stale in
  let stale =
    Queue.fold (fun acc st -> st.in_key :: acc) stale t.unapplied
  in
  let stale = Keys.ack_key old :: Keys.outtrim_key old :: stale in
  (* Pass-through, so the successor's handshake is not judged against a
     stale watermark. *)
  set_cursors t ~epoch:(t.epoch + 1) ~in_seq:0 ~written:0 ~outtrim:0
    ~out_records:[] ~part_written:false ~drop_unapplied:true None;
  if t.replicate && not t.stopped then submit t t.bulk (Del stale)

let resume_at t ~epoch ~watermark ~bytes_written ~in_seq ~outtrim ~out_records =
  set_cursors t ~epoch ~written:bytes_written ~outtrim ~in_seq ~out_records
    (Some watermark)

let attach_output_chain t chain ~local ~remote =
  if t.ack_hold then begin
    let qnum = Netfilter.fresh_queue_num chain in
    ignore
      (Netfilter.add_rule chain (fun pkt ->
           match pkt.Packet.payload with
           | Tcp.Segment.Tcp _
             when Addr.equal pkt.Packet.src local
                  && Addr.equal pkt.Packet.dst remote ->
               Netfilter.Queue qnum
           | _ -> Netfilter.Accept));
    let q = Netfilter.queue chain qnum in
    Netfilter.set_consumer q (fun pkt ~reinject ->
        match pkt.Packet.payload with
        | Tcp.Segment.Tcp seg -> (
            if t.stopped then reinject Netfilter.Accept
            else
              match t.wm with
              | None -> reinject Netfilter.Accept (* handshake *)
              | Some wm ->
                  if seg.Tcp.Segment.flags.Tcp.Segment.ack
                     && seg.Tcp.Segment.ack > wm
                  then begin
                    Queue.push
                      (seg.Tcp.Segment.ack, Engine.now t.eng, reinject)
                      t.held;
                    Telemetry.Registry.incr m_acks_held;
                    if Telemetry.Gate.on () then
                      Telemetry.Bus.emit t.eng
                        (Telemetry.Event.Ack_held
                           {
                             conn = t.cid;
                             ack = seg.Tcp.Segment.ack;
                             depth = Queue.length t.held;
                           })
                  end
                  else reinject Netfilter.Accept)
        | _ -> reinject Netfilter.Accept)
  end

(* --- Partial-frame tail replication --------------------------------------------

   A sender stalled in RTO backoff can deliver a message fragment whose
   ACK would otherwise wait forever (the rest of the message cannot
   arrive until the ACK opens the window). When a held segment ages past
   the stall threshold, replicate the fragment itself and release. *)

let stall_threshold = Time.ms 30

let check_stall t =
  if (not t.stopped) && not (Queue.is_empty t.held) then begin
    let _, since, _ = Queue.peek t.held in
    if Time.diff (Engine.now t.eng) since > stall_threshold then
      match t.tail_source with
      | Some source -> (
          match source () with
          | Some (offset, inferred_ack, bytes)
            when inferred_ack > t.wm_target && String.length bytes > 0 ->
              t.part_written <- true;
              submit t t.ctl
                (Set
                   ( [
                       (Keys.part_key (ecid t), Keys.encode_part ~offset ~bytes);
                       (Keys.ack_key (ecid t), string_of_int inferred_ack);
                     ],
                     [ (fun () -> confirm_watermark t ~durable:inferred_ack) ]
                   ))
          | Some _ | None -> ())
      | None -> ()
  end

(* Deadline watch: the oldest held ACK, or a control-lane write unable
   to land, aging past [degrade_after] is the signal that durability is
   not coming in time — the deadline is chosen well inside the peer's
   hold timer, so shedding here is what keeps the session alive. *)
let check_degrade t =
  match t.degrade_after with
  | None -> ()
  | Some d ->
      (* Seeded fault: watch at twice the configured deadline, so
         obligations age past the bound before being shed — tripping
         [degraded_mode_exclusion] and nothing else. *)
      let d = if !Monitor.Faults.late_degrade then 2 * d else d in
      if (not t.degraded) && (not t.stopped) && t.wm <> None then begin
        let now = Engine.now t.eng in
        let held_over =
          (not (Queue.is_empty t.held))
          &&
          let _, since, _ = Queue.peek t.held in
          Time.diff now since >= d
        in
        let ctl_over =
          match t.ctl.blocked_since with
          | Some since -> Time.diff now since >= d
          | None -> false
        in
        if held_over || ctl_over then enter_degraded t
      end

let ensure_watchdog t =
  if t.watchdog = None then
    t.watchdog <-
      Some
        (Engine.every t.eng ~label:"repl.watchdog" (Time.ms 25) (fun () ->
             check_stall t;
             check_degrade t))

let set_tail_source t source =
  t.tail_source <- Some source;
  ensure_watchdog t

let set_degrade_after t span =
  t.degrade_after <- span;
  (* The deadline must be watched even before a tail source exists. *)
  match span with Some _ -> ensure_watchdog t | None -> ()

(* --- Receive replication ----------------------------------------------------- *)

let on_rx_message t msg ~inferred_ack =
  if t.replicate && (not t.stopped) && not t.degraded then begin
    Telemetry.Registry.incr m_rx_repl;
    let raw = Bgp.Msg.encode msg in
    let seq = t.in_seq in
    t.in_seq <- seq + 1;
    let key = Keys.in_key (ecid t) seq in
    let is_update = match msg with Bgp.Msg.Update _ -> true | _ -> false in
    let st = { in_key = key; durable = false; applied = false } in
    if is_update then Queue.push st t.unapplied;
    (* A completed message supersedes any replicated fragment. *)
    if t.part_written then begin
      t.part_written <- false;
      submit t t.ctl (Del [ Keys.part_key (ecid t) ])
    end;
    let on_durable () =
      confirm_watermark t ~durable:inferred_ack;
      st.durable <- true;
      (* Non-update messages carry no table state: trim immediately;
         update replicas wait until they are also applied. *)
      if (not is_update) || st.applied then submit t t.bulk (Del [ key ])
    in
    submit t t.ctl
      (Set
         ( [
             (key, Keys.encode_in_record ~ack:inferred_ack ~raw);
             (Keys.ack_key (ecid t), string_of_int inferred_ack);
           ],
           [ on_durable ] ))
  end

let on_rx_applied t =
  if t.replicate && not (Queue.is_empty t.unapplied) then begin
    let st = Queue.pop t.unapplied in
    st.applied <- true;
    (* Ordered behind the routing-table checkpoint writes already queued
       by the apply step (same bulk lane, FIFO) — the paper's "remove
       only after applied". If the replica write is still in flight, the
       durability callback issues the delete instead. *)
    if st.durable then submit t t.bulk (Del [ st.in_key ])
  end

(* --- Delayed sending ---------------------------------------------------------- *)

let on_tx_message t ~raw ~release =
  if (not t.replicate) || t.stopped || t.degraded then release ()
  else begin
    Telemetry.Registry.incr m_tx_repl;
    let offset = t.written in
    let len = String.length raw in
    t.written <- offset + len;
    Queue.push (offset, len) t.out_records;
    submit t t.ctl
      (Set ([ (Keys.out_key (ecid t) offset, Keys.hex raw) ], [ release ]))
  end

(* --- Routing-table checkpoints ------------------------------------------------ *)

let on_rib_change t ~vrf change =
  if t.replicate && (not t.stopped) && not t.degraded then
    match change with
    | Bgp.Rib.Best_changed (prefix, path) ->
        submit t t.bulk
          (Set
             ( [
                 ( Keys.rib_key ~service:t.service ~vrf prefix,
                   Keys.encode_rib_entry_with t.rib_enc path.Bgp.Rib.source
                     prefix path.Bgp.Rib.attrs );
               ],
               [] ))
    | Bgp.Rib.Best_withdrawn prefix ->
        submit t t.bulk (Del [ Keys.rib_key ~service:t.service ~vrf prefix ])

(* --- Outbound trimming ---------------------------------------------------------- *)

let note_snd_una t ~iss ~snd_una =
  if t.replicate && (not t.stopped) && not t.degraded then begin
    let acked = snd_una - (iss + 1) in
    if acked > t.outtrim then begin
      t.outtrim <- acked;
      (* Offsets only grow, so the acked records are a prefix. *)
      let rec pop_acked acc =
        match Queue.peek_opt t.out_records with
        | Some (off, len) when off + len <= acked ->
            ignore (Queue.pop t.out_records);
            pop_acked (Keys.out_key (ecid t) off :: acc)
        | _ -> List.rev acc
      in
      let trimmed = pop_acked [] in
      if trimmed <> [] then begin
        submit t t.bulk
          (Set ([ (Keys.outtrim_key (ecid t), string_of_int acked) ], []));
        submit t t.bulk (Del trimmed)
      end
    end
  end

let drain t k =
  let rec poll () =
    if
      Queue.is_empty t.ctl.queue
      && Queue.is_empty t.bulk.queue
      && (not t.ctl.inflight)
      && not t.bulk.inflight
    then k ()
    else
      ignore (Engine.schedule_after t.eng ~label:"repl.flush" (Time.ms 5) poll)
  in
  poll ()

let stop t =
  t.stopped <- true;
  stop_heal_probe t;
  (match t.watchdog with
  | Some w ->
      Engine.stop_timer w;
      t.watchdog <- None
  | None -> ());
  flush_held t ~shed:false
