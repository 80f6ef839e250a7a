(* The four benchmark workloads.

   A workload runs in four stages, each a closure returned by the one
   before, so the harness can time each on its own:

   - [prepare ~seed] generates the inputs from the seed (not timed; once
     per run, the inputs are immutable and every repetition reuses them);
   - calling the result builds and converges the system (timed as
     [setup_s]);
   - calling that result runs the measured phase (timed as [wall_s]);
   - calling that result checks the outputs and reports (not timed).

   Every call into the library goes through a public entry point and
   sits inside a [Span.with_], which records it in the traced run. *)

open Sim
open Netsim
module Deploy = Tensor.Deploy
module App = Tensor.App
module Keys = Tensor.Keys

type sim_metric = {
  name : string;
  value : float;
  unit_ : string;
  paper : string;  (** Reference point from the paper, or [""]. *)
}

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** One line per failed output check. *)
  sim : sim_metric list;  (** Simulated-time results. *)
  digest_input : string;  (** Canonical rendering of the simulated outputs. *)
  probe_inputs : Probe.inputs;
  layer : (string * float) list;  (** Per-layer values only this level sees. *)
}

type t = {
  name : string;
  prepare : seed:int -> unit -> unit -> unit -> outcome;
}

let local_asn = 64900

(* Run the engine in slices until [cond] holds or [deadline] passes. *)
let run_until eng ?(slice = Time.ms 50) ~deadline cond =
  let rec loop () =
    if cond () then true
    else if Engine.now eng >= deadline then false
    else begin
      Engine.run_until eng (min deadline (Time.add (Engine.now eng) slice));
      loop ()
    end
  in
  loop ()

(* [n] routes over [n / 500] attribute sets, grouped per attribute set in
   first-seen order: one [Speaker.originate] call per group, as in the
   Figure 6(a) experiment. The eBGP export rewrites the next hop, so a
   documentation address stands in for the announcing peer's. *)
let grouped_routes rng n =
  Probe.group_by_attrs
    (Workload.Prefixes.attr_groups rng ~groups:(max 1 (n / 500))
       ~next_hop:(Addr.of_string "192.0.2.1") n)

let originate spk groups =
  Span.with_ "speaker.originate" (fun () ->
      List.iter
        (fun (attrs, pfxs) -> Bgp.Speaker.originate spk ~vrf:"v0" ~attrs pfxs)
        groups)

let speaker_of svc =
  match App.speaker (Deploy.service_app svc) with
  | Some s -> s
  | None -> failwith "perfbench: deployed service exposes no speaker"

let rib_routes spk =
  Bgp.Rib.fold_best (Bgp.Speaker.rib spk ~vrf:"v0") ~init:[]
    ~f:(fun acc pfx (p : Bgp.Rib.path) -> (p.source, pfx, p.attrs) :: acc)

(* Runs until every store write the services' replicators have queued
   is acknowledged. *)
let drain eng ~deadline svcs =
  let left = ref 0 in
  List.iter
    (fun svc ->
      match App.replicator (Deploy.service_app svc) ~vrf:"v0" with
      | Some r ->
          incr left;
          Tensor.Replicator.drain r (fun () -> decr left)
      | None -> ())
    svcs;
  run_until eng ~deadline (fun () -> !left = 0)

let rib_records server ~service =
  List.length (Store.Server.keys_with_prefix server (Keys.rib_prefix ~service))

type service = {
  id : string;
  peer : Deploy.peer_as;
  svc : Deploy.service;
  drops : int ref;  (** Session drops the peer saw. *)
}

(* TENSOR service [id] peering with its own external AS. *)
let deploy_service dep ~i ~id ?primary_host ?backup_host ~run_bfd () =
  let asn = 65010 + i in
  let peer =
    Span.with_ "deploy.add_peer_as" (fun () ->
        Deploy.add_peer_as dep ~asn (Printf.sprintf "peer%d" i))
  in
  let vip = Addr.of_octets 203 0 113 (10 + i) in
  let handle = Deploy.peer_expects peer ~vrf:"v0" ~vip ~local_asn in
  let drops = ref 0 in
  Bgp.Speaker.on_peer_down handle (fun _ -> incr drops);
  let svc =
    Span.with_ "deploy.deploy_service" (fun () ->
        Deploy.deploy_service dep ?primary_host ?backup_host ~id ~local_asn
          [
            App.vrf_spec ~vrf:"v0" ~vip ~peer_addr:peer.Deploy.pa_addr
              ~peer_asn:asn ~run_bfd ();
          ])
  in
  { id; peer; svc; drops }

let check problems cond fmt =
  Printf.ksprintf (fun s -> if not cond then problems := s :: !problems) fmt

(* --- update_flood -------------------------------------------------------- *)

let flood_updates = 150_000

let update_flood =
  let prepare ~seed =
    let n = flood_updates in
    let groups = grouped_routes (Rng.create seed) n in
    fun () ->
      let dep = Span.with_ "deploy.build" (fun () -> Deploy.build ~seed ()) in
      let eng = dep.Deploy.eng in
      let { peer; svc; drops; _ } = deploy_service dep ~i:0 ~id:"flood" ~run_bfd:false () in
      let up =
        Span.with_ "deploy.wait_established" (fun () ->
            Deploy.wait_established dep svc ())
      in
      Engine.run_for eng (Time.sec 2);
      let spk = speaker_of svc in
      let server = dep.Deploy.store_server in
      fun () ->
        let t0 = Engine.now eng in
        originate peer.Deploy.pa_speaker groups;
        let learned_ok =
          up
          && Span.with_ "originate->learned" (fun () ->
                 run_until eng ~deadline:(Time.add t0 (Time.minutes 10))
                   (fun () -> Bgp.Speaker.updates_learned spk >= n))
        in
        let learn_s = Time.to_sec_f (Time.diff (Bgp.Speaker.last_rx_applied spk) t0) in
        (* The routing-table checkpoint trails the learning: wait until
           every queued [rib|] write is durable. *)
        let checkpointed =
          learned_ok
          && Span.with_ "learned->checkpointed" (fun () ->
                 drain eng ~deadline:(Time.add t0 (Time.minutes 20)) [ svc ])
        in
        let checkpoint_s = Time.to_sec_f (Time.diff (Engine.now eng) t0) in
        fun () ->
          let problems = ref [] in
          let learned = Bgp.Speaker.updates_learned spk in
          let records = rib_records server ~service:"flood" in
          check problems up "session did not establish";
          check problems (learned_ok && learned = n) "learned %d of %d updates" learned n;
          check problems (checkpointed && records = n) "store holds %d rib| records, want %d"
            records n;
          check problems (!drops = 0) "peer saw %d session drops" !drops;
          let stored = Store.Server.stored_bytes server in
          {
            attempted = n;
            failed = min n (n - min n learned + abs (records - n) + !drops);
            problems = List.rev !problems;
            sim =
              [
                { name = "sim_learn_s"; value = learn_s; unit_ = "s";
                  paper = "Fig. 6(a) TENSOR receive-and-learn; this repo: 0.695 s at 100k, 3.33 s at 500k" };
                { name = "sim_checkpoint_s"; value = checkpoint_s; unit_ = "s";
                  paper = "" };
              ];
            digest_input =
              Printf.sprintf "learned=%d records=%d drops=%d learn=%.9f ckpt=%.9f rib=%s bytes=%d"
                learned records !drops learn_s checkpoint_s
                (Bgp.Rib.digest (Bgp.Speaker.rib spk ~vrf:"v0"))
                stored;
            probe_inputs =
              {
                Probe.routes = Array.of_list (rib_routes spk);
                store = Some server;
                scan_prefixes = [ Keys.rib_prefix ~service:"flood" ];
              };
            layer =
              [
                ("store.records", float_of_int (Store.Server.records server));
                ("store.stored_bytes", float_of_int stored);
                ("tensor.store_bytes_per_update", float_of_int stored /. float_of_int n);
              ];
          }
  in
  { name = "update_flood"; prepare }

(* --- rib_failover -------------------------------------------------------- *)

let failover_services = 4
let failover_routes = 30_000

let rib_failover =
  let prepare ~seed =
    let r = failover_routes in
    let rng = Rng.create seed in
    let inputs = List.init failover_services (fun _ -> grouped_routes (Rng.split rng) r) in
    fun () ->
      let dep = Span.with_ "deploy.build" (fun () -> Deploy.build ~seed ()) in
      let eng = dep.Deploy.eng in
      let server = dep.Deploy.store_server in
      let services =
        List.mapi
          (fun i groups ->
            ( groups,
              deploy_service dep ~i ~id:(Printf.sprintf "svc%d" i) ~primary_host:0
                ~backup_host:1 ~run_bfd:true () ))
          inputs
      in
      let up =
        List.for_all
          (fun (_, s) ->
            Span.with_ "deploy.wait_established" (fun () ->
                Deploy.wait_established dep s.svc ()))
          services
      in
      (* RIB loading: every service learns and checkpoints its routes. *)
      List.iter (fun (groups, s) -> originate s.peer.Deploy.pa_speaker groups) services;
      let services = List.map snd services in
      let svcs = List.map (fun s -> s.svc) services in
      let deadline = Time.add (Engine.now eng) (Time.minutes 20) in
      let loaded =
        up
        && Span.with_ "load->learned" (fun () ->
               run_until eng ~deadline (fun () ->
                   List.for_all
                     (fun svc -> Bgp.Speaker.updates_learned (speaker_of svc) >= r)
                     svcs))
        && Span.with_ "learned->checkpointed" (fun () -> drain eng ~deadline svcs)
      in
      Engine.run_for eng (Time.sec 2);
      let rib_digest svc = Bgp.Rib.digest (Bgp.Speaker.rib (speaker_of svc) ~vrf:"v0") in
      let before = List.map rib_digest svcs in
      let host0 = Orch.Host.name dep.Deploy.hosts.(0) in
      let moved svc =
        not (String.equal (Orch.Container.host_name (Deploy.service_container svc)) host0)
      in
      let resumed svc =
        moved svc
        && App.session_established (Deploy.service_app svc) ~vrf:"v0"
        && App.routes (Deploy.service_app svc) ~vrf:"v0" >= r
      in
      fun () ->
        let t0 = Engine.now eng in
        let recovered =
          loaded
          && Span.with_ "inject_host_failure->recovered" (fun () ->
                 Deploy.inject_host_failure dep (List.hd svcs);
                 run_until eng ~slice:(Time.ms 10)
                   ~deadline:(Time.add t0 (Time.sec 120))
                   (fun () -> List.for_all resumed svcs))
        in
        let recover_s = Time.to_sec_f (Time.diff (Engine.now eng) t0) in
        fun () ->
          let problems = ref [] in
          check problems up "sessions did not establish";
          check problems loaded "RIB loading did not complete";
          check problems recovered "not every backup resumed within 120 s";
          let lost = ref 0 and drops = ref 0 in
          let after =
            List.map
              (fun s ->
                let routes = App.routes (Deploy.service_app s.svc) ~vrf:"v0" in
                check problems (moved s.svc) "%s still on %s" s.id host0;
                check problems (routes = r) "%s resumed with %d of %d routes" s.id routes r;
                check problems (!(s.drops) = 0) "%s: peer saw %d session drops" s.id !(s.drops);
                lost := !lost + abs (r - routes);
                drops := !drops + !(s.drops);
                rib_digest s.svc)
              services
          in
          check problems (before = after) "restored RIBs differ from the checkpointed ones";
          let attempted = failover_services * r in
          let stored = Store.Server.stored_bytes server in
          {
            attempted;
            failed = min attempted (!lost + !drops);
            problems = List.rev !problems;
            sim =
              [
                { name = "sim_recover_s"; value = recover_s; unit_ = "s";
                  paper = "Table 1 host-failure total: paper 9.05 s, this repo 9.34 s (one service, 300 routes)" };
              ];
            digest_input =
              Printf.sprintf "recover=%.9f lost=%d drops=%d ribs=%s bytes=%d"
                recover_s !lost !drops (String.concat "," after) stored;
            probe_inputs =
              {
                Probe.routes =
                  Array.of_list
                    (List.concat_map (fun svc -> rib_routes (speaker_of svc)) svcs);
                store = Some server;
                scan_prefixes = List.map (fun s -> Keys.rib_prefix ~service:s.id) services;
              };
            layer =
              [
                ("store.records", float_of_int (Store.Server.records server));
                ("store.stored_bytes", float_of_int stored);
                ("tensor.store_bytes_per_update", float_of_int stored /. float_of_int attempted);
              ];
          }
  in
  { name = "rib_failover"; prepare }

(* --- fleet_failover ------------------------------------------------------ *)

let fleet_hosts = 16
let fleet_regions = 4
let fleet_instances = 120
let fleet_campaign = "host_kill@5000,region_store_outage@20000+8000,rolling_upgrade@35000:8"

let fleet_failover =
  let prepare ~seed =
    let faults =
      match Chaos.Descriptor.faults_of_string fleet_campaign with
      | Ok fs -> fs
      | Error e -> failwith ("perfbench: bad fleet campaign: " ^ e)
    in
    let spec =
      {
        Fleet.Campaign.default_spec with
        hosts = fleet_hosts;
        regions = fleet_regions;
        instances = fleet_instances;
        seed;
        faults;
      }
    in
    fun () ->
      (* [Campaign.run] builds its own topology and cannot be split, so
         set-up is timed as the same build and convergence through the
         topology's public calls, on a copy that is then dropped. *)
      let topo =
        Span.with_ "topology.build" (fun () ->
            Fleet.Topology.build ~seed ~hosts:fleet_hosts ~regions:fleet_regions
              ~instances:fleet_instances ())
      in
      let up =
        Span.with_ "topology.wait_all_established" (fun () ->
            Fleet.Topology.wait_all_established topo)
      in
      fun () ->
        let o = Span.with_ "campaign.run" (fun () -> Fleet.Campaign.run spec) in
        fun () ->
          let problems = ref [] in
          let n = Fleet.Topology.normalize_instances fleet_instances in
          let bad = List.length o.violations + List.length o.errors in
          check problems up "set-up fleet did not converge";
          check problems (Fleet.Campaign.ok o) "campaign not ok: %d violations, %d errors"
            (List.length o.violations) (List.length o.errors);
          let slo = o.slo in
          let fo = slo.Fleet.Slo.failover_s in
          let p50 = Fleet.Slo.percentile fo 0.5 and fmax = Fleet.Slo.percentile fo 1.0 in
          let avail =
            List.fold_left
              (fun acc rr -> Float.min acc rr.Fleet.Slo.rr_availability)
              1.0 slo.region_rows
          in
          let degraded_peak =
            List.fold_left (fun acc rr -> max acc rr.Fleet.Slo.rr_degraded_peak) 0 slo.region_rows
          in
          let bus_events =
            List.fold_left
              (fun acc c -> acc + Telemetry.Bus.total c)
              0 Telemetry.Event.categories
          in
          {
            attempted = n;
            failed = min n bad;
            problems = List.rev !problems;
            sim =
              [
                { name = "sim_failover_p50_s"; value = p50; unit_ = "s";
                  paper = "Table 1 host-failure total 9.05 s; section 4.4 fleet operation" };
                { name = "sim_failover_max_s"; value = fmax; unit_ = "s"; paper = "" };
                { name = "availability_min"; value = avail; unit_ = "ratio";
                  paper = "zero peer-visible downtime (section 4.4)" };
                { name = "sim_convergence_s"; value = o.convergence_s; unit_ = "s"; paper = "" };
              ];
            digest_input =
              Printf.sprintf "telemetry=%s events=%d slo=%s" o.digest o.events
                (Fleet.Slo.to_json slo);
            probe_inputs = Probe.no_inputs;
            layer =
              [
                ("fleet.failovers", float_of_int (List.length fo));
                ("fleet.upgrades_done", float_of_int slo.upgrades_done);
                ("fleet.degraded_peak", float_of_int degraded_peak);
                ("telemetry.bus_events", float_of_int bus_events);
                ("telemetry.bus_dropped", float_of_int (Telemetry.Bus.dropped_total ()));
              ];
          }
  in
  { name = "fleet_failover"; prepare }

(* --- ack_stream ---------------------------------------------------------- *)

(* The Figure 5(a) bulk stream at 100 B segments: endpoints with the
   experiment's per-segment and per-byte costs and a 400 KB window, the
   receiver's pure ACKs held in an NFQUEUE for [hold]. *)
let ack_holds_ms = [ 0; 5; 50 ]
let ack_mss = 100
let ack_rcv_wnd = 400_000
let ack_warmup = Time.ms 300
let ack_measure = Time.sec 1
let pattern_len = 64 * 1024 (* a power of two: offsets wrap with [land] *)

(* Whether [d], received at stream offset [base], equals the pattern
   from its byte [i] on. It runs in the timed phase, on every delivery,
   so it compares eight bytes at a time and allocates nothing. *)
let rec matches_pattern pattern d base i =
  let j = (base + i) land (pattern_len - 1) in
  if i + 8 <= String.length d && j + 8 <= pattern_len then
    Int64.equal (String.get_int64_ne d i) (String.get_int64_ne pattern j)
    && matches_pattern pattern d base (i + 8)
  else
    i >= String.length d
    || String.unsafe_get d i = String.unsafe_get pattern j
       && matches_pattern pattern d base (i + 1)

type stream = {
  s_eng : Engine.t;
  s_received : int ref;
  s_mismatches : int ref;
  s_timer : Engine.timer;
}

let build_stream ~pattern ~hold_ms =
  let eng = Engine.create () in
  let net = Network.create eng in
  let sender = Network.add_node net "sender" in
  let receiver = Network.add_node net "receiver" in
  let _, _, dst = Network.connect net ~delay:(Time.us 50) sender receiver in
  let proc_cost = Time.of_us_f 2.5 and proc_cost_per_kb = Time.of_us_f 2.9 in
  let s_tx = Tcp.create_stack ~proc_cost ~proc_cost_per_kb sender in
  let s_rx = Tcp.create_stack ~proc_cost ~proc_cost_per_kb receiver in
  if hold_ms > 0 then begin
    let chain = Netfilter.create () in
    ignore
      (Netfilter.add_rule chain (fun pkt ->
           match pkt.Packet.payload with
           | Tcp.Segment.Tcp seg when Tcp.Segment.is_pure_ack seg -> Netfilter.Queue 0
           | _ -> Netfilter.Accept));
    Netfilter.set_consumer (Netfilter.queue chain 0) (fun _ ~reinject ->
        ignore
          (Engine.schedule_after eng (Time.ms hold_ms) (fun () ->
               reinject Netfilter.Accept)));
    Tcp.set_output_chain s_rx (Some chain)
  end;
  (* The receiver checks every byte against the seeded pattern and
     counts the deliveries that differ. *)
  let received = ref 0 and mismatches = ref 0 in
  Tcp.listen s_rx ~port:5001 (fun c ->
      Tcp.on_data c (fun d ->
          if not (matches_pattern pattern d !received 0) then incr mismatches;
          received := !received + String.length d));
  let conn = Tcp.connect s_tx ~mss:ack_mss ~rcv_wnd:ack_rcv_wnd ~dst ~dst_port:5001 () in
  let written = ref 0 in
  let refill () =
    if Tcp.state conn = Tcp.Established then begin
      let acked = Tcp.snd_una conn - Tcp.iss conn in
      while !written - acked < 3 * ack_rcv_wnd do
        Tcp.write conn pattern;
        written := !written + pattern_len
      done
    end
  in
  Tcp.on_established conn refill;
  let timer = Engine.every eng (Time.ms 5) refill in
  Engine.run_until eng ack_warmup;
  { s_eng = eng; s_received = received; s_mismatches = mismatches; s_timer = timer }

let ack_stream =
  let prepare ~seed =
    let rng = Rng.create seed in
    let pattern = String.init pattern_len (fun _ -> Char.chr (Rng.int rng 256)) in
    fun () ->
      let streams =
        List.map
          (fun hold_ms ->
            Span.with_ (Printf.sprintf "stream.build+warmup hold=%dms" hold_ms)
              (fun () -> (hold_ms, build_stream ~pattern ~hold_ms)))
          ack_holds_ms
      in
      fun () ->
        let results =
          List.map
            (fun (hold_ms, s) ->
              Span.with_ (Printf.sprintf "stream.measure hold=%dms" hold_ms) (fun () ->
                  let start = !(s.s_received) in
                  Engine.run_until s.s_eng (Time.add ack_warmup ack_measure);
                  Engine.stop_timer s.s_timer;
                  let bytes = !(s.s_received) - start in
                  (hold_ms, float_of_int (bytes * 8) /. Time.to_sec_f ack_measure /. 1e6, s)))
            streams
        in
        fun () ->
          let problems = ref [] in
          let rec non_increasing = function
            | (_, a, _) :: ((_, b, _) :: _ as rest) -> a >= b && non_increasing rest
            | _ -> true
          in
          (* One check per stream, plus the ordering across streams. *)
          let stream_ok (hold_ms, mbps, s) =
            check problems (mbps > 0.) "no goodput at hold %d ms" hold_ms;
            check problems (!(s.s_mismatches) = 0) "%d corrupted deliveries at hold %d ms"
              !(s.s_mismatches) hold_ms;
            mbps > 0. && !(s.s_mismatches) = 0
          in
          let ordered = non_increasing results in
          check problems ordered "goodput rises with the hold delay";
          let oks = ordered :: List.map stream_ok results in
          let goodput h =
            match List.find_opt (fun (ms, _, _) -> ms = h) results with
            | Some (_, m, _) -> m
            | None -> 0.
          in
          {
            attempted = List.length oks;
            failed = List.length (List.filter not oks);
            problems = List.rev !problems;
            sim =
              List.map
                (fun (h, paper) ->
                  { name =
                      (if h = 5 then "sim_goodput_mbps"
                       else Printf.sprintf "sim_goodput_hold%dms_mbps" h);
                    value = goodput h; unit_ = "Mbps"; paper })
                [
                  (0, "");
                  (5, "Fig. 5(a) 100 B: within 15% of the 0 ms rate below the 20 ms threshold");
                  (50, "Fig. 5(a): W/(RTT+delay) regime, ~50-64 Mbps at 50 ms in this repo");
                ];
            digest_input =
              String.concat ";"
                (List.map
                   (fun (h, m, s) -> Printf.sprintf "%d:%.6f:%d" h m !(s.s_received))
                   results);
            probe_inputs = Probe.no_inputs;
            layer = [];
          }
  in
  { name = "ack_stream"; prepare }

let all = [ update_flood; rib_failover; fleet_failover; ack_stream ]
