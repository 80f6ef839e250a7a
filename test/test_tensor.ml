(* End-to-end tests for TENSOR: key codecs, the replication machinery's
   safety invariant (no ACK escapes before its message is durable), NSR
   migration across all Table 1 failure classes with zero link downtime,
   storage trimming, and the ablations. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let pfx s = Addr.prefix_of_string s
let vip1 = Addr.of_string "203.0.113.10"

(* --- Keys ------------------------------------------------------------------ *)

let sample_meta =
  {
    Tensor.Keys.epoch = 0;
    vrf = "v0";
    local_addr = vip1;
    local_port = 49152;
    peer_addr = Addr.of_string "198.51.100.7";
    peer_port = 179;
    local_asn = 64900;
    hold_time = 90;
    as4 = true;
    iss = 123456;
    irs = 654321;
    mss = 1460;
    rcv_wnd = 400_000;
    peer_open_raw =
      Bgp.Msg.encode
        (Bgp.Msg.Open
           {
             version = 4;
             asn = 65010;
             hold_time = 90;
             router_id = Addr.of_string "9.9.9.9";
             capabilities = [ Bgp.Msg.Cap_route_refresh ];
           });
    peer_supports_gr = true;
    peer_gr_restart_time = 120;
  }

let test_keys_meta_roundtrip () =
  match Tensor.Keys.decode_meta (Tensor.Keys.encode_meta sample_meta) with
  | Ok m -> checkb "meta roundtrip" true (m = sample_meta)
  | Error e -> Alcotest.failf "meta decode: %s" e

let test_keys_in_record_roundtrip () =
  let raw = Bgp.Msg.encode Bgp.Msg.Keepalive in
  match
    Tensor.Keys.decode_in_record (Tensor.Keys.encode_in_record ~ack:999 ~raw)
  with
  | Ok (ack, raw') -> checkb "in record" true (ack = 999 && raw' = raw)
  | Error e -> Alcotest.failf "in record decode: %s" e

let test_keys_rib_roundtrip () =
  let src =
    {
      Bgp.Rib.key = "v0/1.2.3.4";
      peer_asn = 65010;
      peer_addr = Addr.of_string "1.2.3.4";
      router_id = Addr.of_string "9.9.9.9";
      ebgp = true;
    }
  in
  let attrs =
    Bgp.Attrs.make
      ~as_path:[ Bgp.Attrs.Seq [ 65010; 7018 ] ]
      ~med:5
      ~communities:[ (65010, 300) ]
      ~next_hop:(Addr.of_string "1.2.3.4") ()
  in
  let p = pfx "100.1.2.0/24" in
  match
    Tensor.Keys.decode_rib_entry (Tensor.Keys.encode_rib_entry src p attrs)
  with
  | Ok (src', p', attrs') ->
      checkb "rib roundtrip" true
        (src' = src && Addr.equal_prefix p p' && Bgp.Attrs.equal attrs attrs')
  | Error e -> Alcotest.failf "rib decode: %s" e

let test_keys_parsers () =
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  checkb "in key parse" true
    (Tensor.Keys.seq_of_in_key cid (Tensor.Keys.in_key cid 42) = Some 42);
  checkb "out key parse" true
    (Tensor.Keys.offset_of_out_key cid (Tensor.Keys.out_key cid 1234) = Some 1234);
  let rk = Tensor.Keys.rib_key ~service:"svc1" ~vrf:"v0" (pfx "10.0.0.0/8") in
  match Tensor.Keys.vrf_prefix_of_rib_key ~service:"svc1" rk with
  | Some (vrf, p) ->
      checkb "rib key parse" true
        (vrf = "v0" && Addr.equal_prefix p (pfx "10.0.0.0/8"))
  | None -> Alcotest.fail "rib key parse"

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex/unhex roundtrip" ~count:200 QCheck.string
    (fun s -> Tensor.Keys.unhex (Tensor.Keys.hex s) = Ok s)

(* A hex string with one non-hex character inserted must be rejected
   wherever the character lands — including '_', which [int_of_string]
   would read as a digit separator. *)
let prop_unhex_rejects_non_hex =
  let hex_digits = "0123456789abcdefABCDEF" in
  let digit = QCheck.Gen.oneofl (List.of_seq (String.to_seq hex_digits)) in
  let gen =
    QCheck.Gen.(
      triple
        (string_size ~gen:digit (int_range 0 8))
        (frequency [ (1, return '_'); (1, char) ])
        nat)
  in
  QCheck.Test.make ~name:"unhex rejects non-hex characters" ~count:300
    (QCheck.make ~print:QCheck.Print.(triple string char int) gen)
    (fun (digits, c, pos) ->
      QCheck.assume (not (String.contains hex_digits c));
      let i = pos mod (String.length digits + 1) in
      let s =
        String.sub digits 0 i ^ String.make 1 c
        ^ String.sub digits i (String.length digits - i)
      in
      let s = if String.length s mod 2 = 0 then s else s ^ "0" in
      Result.is_error (Tensor.Keys.unhex s))

let prop_meta_roundtrip =
  QCheck.Test.make ~name:"meta roundtrip with arbitrary numbers" ~count:100
    QCheck.(quad (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 65535) bool)
    (fun (iss, irs, port, gr) ->
      let m =
        { sample_meta with Tensor.Keys.iss; irs; local_port = port;
          peer_supports_gr = gr }
      in
      Tensor.Keys.decode_meta (Tensor.Keys.encode_meta m) = Ok m)

(* --- Full deployment helpers ---------------------------------------------- *)

type world = {
  dep : Tensor.Deploy.t;
  peer : Tensor.Deploy.peer_as;
  peer_handle : Bgp.Speaker.peer;
  svc : Tensor.Deploy.service;
  peer_link : Link.t;
}

let make_world ?(replicate = true) ?(ack_hold = true) ?seed () =
  let dep = Tensor.Deploy.build ?seed () in
  let peer = Tensor.Deploy.add_peer_as dep ~asn:65010 "peerAS" in
  let peer_handle =
    Tensor.Deploy.peer_expects peer ~vrf:"v0" ~vip:vip1 ~local_asn:64900
  in
  let svc =
    Tensor.Deploy.deploy_service dep ~replicate ~ack_hold ~id:"svc1"
      ~local_asn:64900
      [
        Tensor.App.vrf_spec ~vrf:"v0" ~vip:vip1
          ~peer_addr:peer.Tensor.Deploy.pa_addr ~peer_asn:65010 ();
      ]
  in
  let peer_link =
    match Network.link_between dep.Tensor.Deploy.net dep.Tensor.Deploy.fabric
            peer.Tensor.Deploy.pa_node with
    | Some l -> l
    | None -> Alcotest.fail "no peer link"
  in
  { dep; peer; peer_handle; svc; peer_link }

let eng w = w.dep.Tensor.Deploy.eng

let establish w =
  checkb "service established" true
    (Tensor.Deploy.wait_established w.dep w.svc ());
  Engine.run_for (eng w) (Time.sec 2)

(* Watch the peer's view: session drops and RIB losses both count as
   downtime. *)
let watch_peer_continuity w =
  let drops = ref 0 in
  Bgp.Speaker.on_peer_down w.peer_handle (fun _ -> incr drops);
  drops

let peer_rib w = Bgp.Speaker.rib w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"

(* --- Establishment and propagation ------------------------------------------ *)

let test_deployment_establishes () =
  let w = make_world () in
  establish w;
  checkb "peer side established" true
    (Bgp.Speaker.peer_state w.peer_handle = Bgp.Session.Established)

let test_routes_propagate_both_ways () =
  let w = make_world () in
  establish w;
  (* Peer announces; TENSOR announces. *)
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 100);
  (match Tensor.App.speaker (Tensor.Deploy.service_app w.svc) with
  | Some spk ->
      Bgp.Speaker.originate spk ~vrf:"v0"
        (Workload.Prefixes.distinct_from ~base:500_000 50)
  | None -> Alcotest.fail "no speaker");
  Engine.run_for (eng w) (Time.sec 10);
  checki "tensor learned peer routes" 100
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0" - 50);
  checki "peer learned tensor routes" 50 (Bgp.Rib.size (peer_rib w) - 100)

let test_meta_written_to_store () =
  let w = make_world () in
  establish w;
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  checkb "meta record exists" true
    (Store.Server.peek w.dep.Tensor.Deploy.store_server
       (Tensor.Keys.meta_key cid)
    <> None);
  checkb "bfd record exists" true
    (Store.Server.peek w.dep.Tensor.Deploy.store_server
       (Tensor.Keys.bfd_key cid)
    <> None)

(* --- The NSR safety invariant ------------------------------------------------ *)

(* No TCP segment from the service may carry an ACK beyond the replicated
   watermark in the store. This is THE correctness property of §3.1.1. *)
let watch_ack_invariant w =
  let violations = ref 0 in
  let store = w.dep.Tensor.Deploy.store_server in
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  Link.tap w.peer_link (fun _side pkt ->
      match pkt.Packet.payload with
      | Tcp.Segment.Tcp seg
        when Addr.equal pkt.Packet.src vip1
             && seg.Tcp.Segment.flags.Tcp.Segment.ack ->
          let durable =
            match Store.Server.peek store (Tensor.Keys.ack_key cid) with
            | Some v -> ( match int_of_string_opt v with Some a -> a | None -> 0)
            | None -> max_int (* before establishment: no constraint *)
          in
          if seg.Tcp.Segment.ack > durable then incr violations
      | _ -> ());
  violations

let test_ack_never_precedes_replication () =
  let w = make_world () in
  let violations = watch_ack_invariant w in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 2_000);
  Engine.run_for (eng w) (Time.sec 20);
  checki "tensor learned the flood" 2_000
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0");
  checki "zero watermark violations" 0 !violations

let test_ack_invariant_under_loss () =
  (* Packet loss forces retransmissions, duplicate ACKs and fast
     retransmits: the watermark discipline must hold through all of it. *)
  let w = make_world () in
  let violations = watch_ack_invariant w in
  establish w;
  Link.set_loss w.peer_link 0.01;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 5_000);
  Engine.run_for (eng w) (Time.minutes 2);
  Link.set_loss w.peer_link 0.0;
  Engine.run_for (eng w) (Time.sec 30);
  checki "flood learned despite loss" 5_000
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0");
  checki "zero violations under loss" 0 !violations

let test_ablation_no_ack_hold_violates () =
  (* With the tcp_queue hold disabled, ACKs race ahead of replication:
     the consistency window the paper's design closes. *)
  let w = make_world ~ack_hold:false () in
  let violations = watch_ack_invariant w in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 2_000);
  Engine.run_for (eng w) (Time.sec 20);
  checkb "violations observed without the hold" true (!violations > 0)

let test_storage_bound_after_flood () =
  let w = make_world () in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 5_000);
  Engine.run_for (eng w) (Time.sec 30);
  (* Steady state: in| and out| queues drained; only meta/ack/rib and a
     few stragglers remain. *)
  let store = w.dep.Tensor.Deploy.store_server in
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  let in_keys = Store.Server.keys_with_prefix store (Tensor.Keys.in_prefix cid) in
  let out_keys = Store.Server.keys_with_prefix store (Tensor.Keys.out_prefix cid) in
  checkb
    (Printf.sprintf "in backlog small (%d)" (List.length in_keys))
    true
    (List.length in_keys <= 2);
  let out_bytes =
    List.fold_left
      (fun acc k ->
        acc
        + match Store.Server.peek store k with
          | Some v -> String.length v
          | None -> 0)
      0 out_keys
  in
  checkb
    (Printf.sprintf "out backlog under 64KB (%d B)" out_bytes)
    true (out_bytes < 64_000);
  (* The routing-table checkpoint covers the whole flood. *)
  let rib_keys =
    Store.Server.keys_with_prefix store (Tensor.Keys.rib_prefix ~service:"svc1")
  in
  checki "rib checkpoint complete" 5_000 (List.length rib_keys)

(* --- NSR migrations ------------------------------------------------------------ *)

let run_failure_scenario ~inject ?(post_failure_span = Time.sec 30) () =
  let w = make_world () in
  establish w;
  (* Routes in both directions before the failure. *)
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 500);
  (match Tensor.App.speaker (Tensor.Deploy.service_app w.svc) with
  | Some spk ->
      Bgp.Speaker.originate spk ~vrf:"v0"
        (Workload.Prefixes.distinct_from ~base:500_000 200)
  | None -> ());
  Engine.run_for (eng w) (Time.sec 10);
  let drops = watch_peer_continuity w in
  checki "peer has all routes pre-failure" 700 (Bgp.Rib.size (peer_rib w));
  let t0 = Engine.now (eng w) in
  let (), evs =
    Telemetry.Bus.capture (fun () ->
        inject w;
        Engine.run_for (eng w) post_failure_span)
  in
  (w, drops, (t0, evs))

let assert_zero_downtime (w, drops, _recovery) =
  checki "peer session never dropped" 0 !drops;
  checkb "peer session still established" true
    (Bgp.Speaker.peer_state w.peer_handle = Bgp.Session.Established);
  checki "peer kept every route" 700 (Bgp.Rib.size (peer_rib w));
  checki "no stale routes at peer" 0
    (Bgp.Rib.stale_count (peer_rib w)
       ~key:(Bgp.Speaker.peer_source_key w.peer_handle));
  (* The replacement instance serves the session now. *)
  checkb "service re-established on backup" true
    (Tensor.App.session_established (Tensor.Deploy.service_app w.svc) ~vrf:"v0");
  checkb "migrated off the original container" true
    (Orch.Container.id (Tensor.Deploy.service_container w.svc) <> "svc1")

let migration_total_seconds (t0, evs) =
  match
    Telemetry.Bus.first_at
      (function Telemetry.Event.Tcp_synced _ -> true | _ -> false)
      evs
  with
  | Some at -> Time.to_sec_f (Time.diff at t0)
  | None -> Alcotest.fail "no tcp-synced event"

let test_nsr_app_failure () =
  let ((_, _, recovery) as r) =
    run_failure_scenario ~inject:(fun w -> Tensor.Deploy.inject_app_failure w.dep w.svc) ()
  in
  assert_zero_downtime r;
  let total = migration_total_seconds recovery in
  checkb (Printf.sprintf "app failure total %.2fs (paper 2.26)" total) true
    (total > 1.0 && total < 5.0)

let test_nsr_container_failure () =
  let ((_, _, recovery) as r) =
    run_failure_scenario
      ~inject:(fun w -> Tensor.Deploy.inject_container_failure w.dep w.svc) ()
  in
  assert_zero_downtime r;
  let total = migration_total_seconds recovery in
  checkb (Printf.sprintf "container failure total %.2fs (paper 2.61)" total)
    true
    (total > 1.0 && total < 6.0)

let test_nsr_host_failure () =
  let ((_, _, recovery) as r) =
    run_failure_scenario
      ~inject:(fun w -> Tensor.Deploy.inject_host_failure w.dep w.svc)
      ~post_failure_span:(Time.sec 40) ()
  in
  assert_zero_downtime r;
  let total = migration_total_seconds recovery in
  checkb (Printf.sprintf "host failure total %.2fs (paper 9.05)" total) true
    (total > 6.0 && total < 13.0)

let test_nsr_host_network_failure () =
  let ((_, _, recovery) as r) =
    run_failure_scenario
      ~inject:(fun w -> Tensor.Deploy.inject_host_network_failure w.dep w.svc)
      ~post_failure_span:(Time.sec 40) ()
  in
  assert_zero_downtime r;
  let total = migration_total_seconds recovery in
  checkb (Printf.sprintf "host network total %.2fs (paper 9.17)" total) true
    (total > 6.0 && total < 13.0)

let test_updates_survive_migration () =
  (* Updates sent by the peer during the outage are not lost: TCP holds
     them (unacked) and the resumed backup receives them. *)
  let w = make_world () in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 100);
  Engine.run_for (eng w) (Time.sec 5);
  Tensor.Deploy.inject_container_failure w.dep w.svc;
  (* While the primary is dead, the peer announces more routes. *)
  ignore
    (Engine.schedule_after (eng w) (Time.ms 500) (fun () ->
         Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
           (Workload.Prefixes.distinct_from ~base:200_000 150)));
  Engine.run_for (eng w) (Time.sec 40);
  checki "all routes present after migration" 250
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0")

let test_double_failure_second_migration () =
  (* The replacement can itself fail and be migrated again. *)
  let ((w, drops, _) as r) =
    run_failure_scenario
      ~inject:(fun w -> Tensor.Deploy.inject_container_failure w.dep w.svc) ()
  in
  assert_zero_downtime r;
  Tensor.Deploy.inject_container_failure w.dep w.svc;
  Engine.run_for (eng w) (Time.sec 30);
  checki "still zero drops after second failure" 0 !drops;
  checkb "re-established again" true
    (Tensor.App.session_established (Tensor.Deploy.service_app w.svc) ~vrf:"v0")

let test_planned_migration_zero_downtime () =
  (* §4.4: software updates without graceful restart, frozen policies or
     downtime — freeze, drain, migrate a perfectly healthy service. *)
  let w = make_world () in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 400);
  Engine.run_for (eng w) (Time.sec 10);
  let drops = watch_peer_continuity w in
  let before = Orch.Container.id (Tensor.Deploy.service_container w.svc) in
  Tensor.Deploy.planned_migration w.dep w.svc;
  Engine.run_for (eng w) (Time.sec 30);
  checki "peer session never dropped" 0 !drops;
  checkb "service moved" true
    (Orch.Container.id (Tensor.Deploy.service_container w.svc) <> before);
  checkb "session live on the new instance" true
    (Tensor.App.session_established (Tensor.Deploy.service_app w.svc) ~vrf:"v0");
  checki "routes intact" 400 (Tensor.Deploy.service_routes w.svc ~vrf:"v0");
  (* Routing still works end to end: the peer announces more and the new
     instance learns it. *)
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct_from ~base:800_000 50);
  Engine.run_for (eng w) (Time.sec 5);
  checki "updates flow after planned move" 450
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0")

let test_two_vrf_container_migration () =
  (* One container, two VRFs, two peering ASes (the paper's Figure 3
     container layout). A container failure must migrate both sessions
     transparently. *)
  let dep = Tensor.Deploy.build () in
  let eng = dep.Tensor.Deploy.eng in
  let p1 = Tensor.Deploy.add_peer_as dep ~asn:65021 "as21" in
  let p2 = Tensor.Deploy.add_peer_as dep ~asn:65022 "as22" in
  let vip_a = Addr.of_string "203.0.113.31" in
  let vip_b = Addr.of_string "203.0.113.32" in
  let h1 = Tensor.Deploy.peer_expects p1 ~vrf:"v1" ~vip:vip_a ~local_asn:64900 in
  let h2 = Tensor.Deploy.peer_expects p2 ~vrf:"v2" ~vip:vip_b ~local_asn:64900 in
  let svc =
    Tensor.Deploy.deploy_service dep ~id:"dualvrf" ~local_asn:64900
      [
        Tensor.App.vrf_spec ~vrf:"v1" ~vip:vip_a
          ~peer_addr:p1.Tensor.Deploy.pa_addr ~peer_asn:65021 ();
        Tensor.App.vrf_spec ~vrf:"v2" ~vip:vip_b
          ~peer_addr:p2.Tensor.Deploy.pa_addr ~peer_asn:65022 ();
      ]
  in
  checkb "both sessions up" true (Tensor.Deploy.wait_established dep svc ());
  Bgp.Speaker.originate p1.Tensor.Deploy.pa_speaker ~vrf:"v1"
    (Workload.Prefixes.distinct 100);
  Bgp.Speaker.originate p2.Tensor.Deploy.pa_speaker ~vrf:"v2"
    (Workload.Prefixes.distinct_from ~base:300_000 200);
  Engine.run_for eng (Time.sec 10);
  let drops = ref 0 in
  Bgp.Speaker.on_peer_down h1 (fun _ -> incr drops);
  Bgp.Speaker.on_peer_down h2 (fun _ -> incr drops);
  Tensor.Deploy.inject_container_failure dep svc;
  Engine.run_for eng (Time.sec 30);
  checki "neither peer dropped" 0 !drops;
  checki "vrf v1 intact and isolated" 100
    (Tensor.Deploy.service_routes svc ~vrf:"v1");
  checki "vrf v2 intact and isolated" 200
    (Tensor.Deploy.service_routes svc ~vrf:"v2");
  checkb "both resumed" true
    (Tensor.App.session_established (Tensor.Deploy.service_app svc) ~vrf:"v1"
    && Tensor.App.session_established (Tensor.Deploy.service_app svc) ~vrf:"v2")

let test_baseline_without_nsr_peer_sees_outage () =
  (* Control: replication disabled = an ordinary BGP daemon in a
     container. The same container failure kills the peer's session. *)
  let w = make_world ~replicate:false () in
  establish w;
  let drops = watch_peer_continuity w in
  Orch.Container.fail (Tensor.Deploy.service_container w.svc);
  Engine.run_for (eng w) (Time.minutes 3);
  checkb "peer saw the failure without NSR" true (!drops > 0)

let () =
  Alcotest.run "tensor"
    [
      ( "keys",
        [
          Alcotest.test_case "meta roundtrip" `Quick test_keys_meta_roundtrip;
          Alcotest.test_case "in record" `Quick test_keys_in_record_roundtrip;
          Alcotest.test_case "rib entry" `Quick test_keys_rib_roundtrip;
          Alcotest.test_case "key parsers" `Quick test_keys_parsers;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "establishes" `Quick test_deployment_establishes;
          Alcotest.test_case "routes both ways" `Quick
            test_routes_propagate_both_ways;
          Alcotest.test_case "meta written" `Quick test_meta_written_to_store;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "ACK never precedes replication" `Quick
            test_ack_never_precedes_replication;
          Alcotest.test_case "ablation: no hold -> violations" `Quick
            test_ablation_no_ack_hold_violates;
          Alcotest.test_case "invariant holds under loss" `Quick
            test_ack_invariant_under_loss;
          Alcotest.test_case "storage bound" `Quick test_storage_bound_after_flood;
        ] );
      ( "nsr",
        [
          Alcotest.test_case "app failure" `Quick test_nsr_app_failure;
          Alcotest.test_case "container failure" `Quick
            test_nsr_container_failure;
          Alcotest.test_case "host failure" `Quick test_nsr_host_failure;
          Alcotest.test_case "host network failure" `Quick
            test_nsr_host_network_failure;
          Alcotest.test_case "updates survive migration" `Quick
            test_updates_survive_migration;
          Alcotest.test_case "double failure" `Quick
            test_double_failure_second_migration;
          Alcotest.test_case "planned migration" `Quick
            test_planned_migration_zero_downtime;
          Alcotest.test_case "two-VRF container" `Quick
            test_two_vrf_container_migration;
          Alcotest.test_case "control: no NSR -> outage" `Quick
            test_baseline_without_nsr_peer_sees_outage;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_hex_roundtrip; prop_meta_roundtrip; prop_unhex_rejects_non_hex;
          ] );
    ]
