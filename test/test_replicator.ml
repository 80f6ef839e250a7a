(* Direct unit tests of the Replicator against a free-cost store: write
   batching and ordering, watermark discipline, trimming, ablation flags,
   and resume bookkeeping — without a full deployment around it. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

type rig = {
  eng : Engine.t;
  server : Store.Server.t;
  repl : Tensor.Replicator.t;
  cid : Tensor.Keys.conn_id;
}

let make_rig ?(replicate = true) ?(ack_hold = true) () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let app = Network.add_node net "app" in
  let db = Network.add_node net "db" in
  let _, _, db_addr = Network.connect net ~delay:(Time.us 100) app db in
  let server = Store.Server.create ~cost:Store.free_cost_model db in
  let client = Store.Client.create app ~server:db_addr in
  let cid = Tensor.Keys.conn_id ~service:"rig" ~vrf:"v0" in
  let repl =
    Tensor.Replicator.create ~replicate ~ack_hold ~engine:eng ~client
      ~conn_id:cid ~service:"rig" ()
  in
  { eng; server; repl; cid }

let keepalive = Bgp.Msg.Keepalive

let update n =
  Bgp.Msg.Update
    {
      withdrawn = [];
      attrs =
        Some
          (Bgp.Attrs.make
             ~as_path:[ Bgp.Attrs.Seq [ 65010 ] ]
             ~next_hop:(Addr.of_string "10.0.0.2") ());
      nlri = [ Netsim.Addr.prefix (Netsim.Addr.of_octets 100 0 n 0) 24 ];
    }

let test_rx_message_becomes_durable () =
  let r = make_rig () in
  Tensor.Replicator.session_established r.repl ~irs:1000;
  Tensor.Replicator.on_rx_message r.repl (update 1) ~inferred_ack:1100;
  Engine.run r.eng;
  checkb "in record present" true
    (Store.Server.peek r.server (Tensor.Keys.in_key r.cid 0) <> None);
  Alcotest.(check (option string))
    "watermark written" (Some "1100")
    (Store.Server.peek r.server (Tensor.Keys.ack_key r.cid));
  checkb "watermark confirmed locally" true
    (Tensor.Replicator.watermark r.repl = Some 1100)

let test_keepalive_trimmed_immediately () =
  let r = make_rig () in
  Tensor.Replicator.session_established r.repl ~irs:1000;
  Tensor.Replicator.on_rx_message r.repl keepalive ~inferred_ack:1020;
  Engine.run r.eng;
  checkb "keepalive record trimmed" true
    (Store.Server.peek r.server (Tensor.Keys.in_key r.cid 0) = None);
  Alcotest.(check (option string))
    "but watermark advanced" (Some "1020")
    (Store.Server.peek r.server (Tensor.Keys.ack_key r.cid))

let test_update_trimmed_only_after_applied () =
  let r = make_rig () in
  Tensor.Replicator.session_established r.repl ~irs:1000;
  Tensor.Replicator.on_rx_message r.repl (update 1) ~inferred_ack:1100;
  Engine.run r.eng;
  checkb "retained while unapplied" true
    (Store.Server.peek r.server (Tensor.Keys.in_key r.cid 0) <> None);
  checki "pending count" 1 (Tensor.Replicator.pending_unapplied r.repl);
  Tensor.Replicator.on_rx_applied r.repl;
  Engine.run r.eng;
  checkb "trimmed after apply" true
    (Store.Server.peek r.server (Tensor.Keys.in_key r.cid 0) = None);
  checki "pending drained" 0 (Tensor.Replicator.pending_unapplied r.repl)

let test_tx_release_waits_for_durability () =
  let r = make_rig () in
  let released = ref false in
  Tensor.Replicator.on_tx_message r.repl ~raw:"0123456789" ~release:(fun () ->
      released := true);
  checkb "not released synchronously" false !released;
  Engine.run r.eng;
  checkb "released after write" true !released;
  checkb "out record stored" true
    (Store.Server.peek r.server (Tensor.Keys.out_key r.cid 0) <> None);
  checki "bytes accounted" 10 (Tensor.Replicator.bytes_written r.repl)

let test_tx_offsets_are_cumulative () =
  let r = make_rig () in
  Tensor.Replicator.on_tx_message r.repl ~raw:(String.make 19 'a')
    ~release:(fun () -> ());
  Tensor.Replicator.on_tx_message r.repl ~raw:(String.make 23 'b')
    ~release:(fun () -> ());
  Engine.run r.eng;
  checkb "second record at offset 19" true
    (Store.Server.peek r.server (Tensor.Keys.out_key r.cid 19) <> None);
  checki "total" 42 (Tensor.Replicator.bytes_written r.repl)

let test_note_snd_una_trims_out_records () =
  let r = make_rig () in
  let iss = 5000 in
  Tensor.Replicator.on_tx_message r.repl ~raw:(String.make 100 'a')
    ~release:(fun () -> ());
  Tensor.Replicator.on_tx_message r.repl ~raw:(String.make 100 'b')
    ~release:(fun () -> ());
  Engine.run r.eng;
  (* Peer acked the first message only. *)
  Tensor.Replicator.note_snd_una r.repl ~iss ~snd_una:(iss + 1 + 100);
  Engine.run r.eng;
  checkb "first trimmed" true
    (Store.Server.peek r.server (Tensor.Keys.out_key r.cid 0) = None);
  checkb "second retained" true
    (Store.Server.peek r.server (Tensor.Keys.out_key r.cid 100) <> None);
  Alcotest.(check (option string))
    "outtrim recorded" (Some "100")
    (Store.Server.peek r.server (Tensor.Keys.outtrim_key r.cid))

let test_snd_una_trims_prefix_then_session_down () =
  let r = make_rig () in
  let iss = 5000 in
  List.iter
    (fun c ->
      Tensor.Replicator.on_tx_message r.repl ~raw:(String.make 100 c)
        ~release:(fun () -> ()))
    [ 'a'; 'b'; 'c' ];
  Engine.run r.eng;
  let out off = Store.Server.peek r.server (Tensor.Keys.out_key r.cid off) in
  Tensor.Replicator.note_snd_una r.repl ~iss ~snd_una:(iss + 1 + 200);
  Engine.run r.eng;
  checkb "first trimmed" true (out 0 = None);
  checkb "second trimmed" true (out 100 = None);
  checkb "third retained" true (out 200 <> None);
  Tensor.Replicator.session_down r.repl;
  Engine.run r.eng;
  checki "epoch rolled" 1 (Tensor.Replicator.epoch r.repl);
  checkb "third deleted under the old epoch" true (out 200 = None)

(* Run lengths of equal consecutive values: the sizes of the batches
   whose completions landed at the same instant. *)
let runs xs =
  List.rev
    (List.fold_left
       (fun acc x ->
         match acc with
         | (y, n) :: rest when y = x -> (y, n + 1) :: rest
         | _ -> (x, 1) :: acc)
       [] xs)
  |> List.map snd

let test_set_batch_cuts () =
  (* The first message finds the lane idle and goes alone; the 299
     queued behind it are cut into batches of at most 128 pairs. *)
  let r = make_rig () in
  let released = ref [] in
  for _ = 1 to 300 do
    Tensor.Replicator.on_tx_message r.repl ~raw:"m" ~release:(fun () ->
        released := Engine.now r.eng :: !released)
  done;
  Engine.run r.eng;
  Alcotest.(check (list int))
    "release groups" [ 1; 128; 128; 43 ]
    (runs (List.rev !released))

let test_del_batch_cuts () =
  (* A delete of 64 or more keys starts its own batch, and the small
     deletes queued behind it join that batch. *)
  let r = make_rig () in
  let src =
    {
      Bgp.Rib.key = "v0/10.0.0.2";
      peer_asn = 65010;
      peer_addr = Addr.of_string "10.0.0.2";
      router_id = Addr.of_string "9.9.9.9";
      ebgp = true;
    }
  in
  let attrs = Bgp.Attrs.make ~next_hop:(Addr.of_string "10.0.0.2") () in
  let prefix i = Netsim.Addr.prefix (Netsim.Addr.of_octets 100 1 i 0) 24 in
  let rib i = Tensor.Keys.rib_key ~service:"rig" ~vrf:"v0" (prefix i) in
  for i = 0 to 3 do
    Tensor.Replicator.on_rib_change r.repl ~vrf:"v0"
      (Bgp.Rib.Best_changed
         (prefix i, { Bgp.Rib.source = src; attrs; stale = false }))
  done;
  for _ = 1 to 70 do
    Tensor.Replicator.on_tx_message r.repl ~raw:"m" ~release:(fun () -> ())
  done;
  Engine.run r.eng;
  let withdraw i =
    Tensor.Replicator.on_rib_change r.repl ~vrf:"v0"
      (Bgp.Rib.Best_withdrawn (prefix i))
  in
  (* One event: p0 goes out alone, p1 queues, then session_down's
     72-key delete (70 out records, ack, outtrim), then p2 and p3. *)
  withdraw 0;
  withdraw 1;
  Tensor.Replicator.session_down r.repl;
  withdraw 2;
  withdraw 3;
  let outs = List.init 70 (Tensor.Keys.out_key r.cid) in
  let watched = rib 0 :: rib 1 :: rib 2 :: rib 3 :: outs in
  let gone_at = Hashtbl.create 80 in
  let rec poll () =
    List.iter
      (fun k ->
        if (not (Hashtbl.mem gone_at k)) && Store.Server.peek r.server k = None
        then Hashtbl.replace gone_at k (Engine.now r.eng))
      watched;
    if Hashtbl.length gone_at < List.length watched then
      ignore (Engine.schedule_after r.eng (Time.us 10) poll)
  in
  poll ();
  Engine.run r.eng;
  let at k = Hashtbl.find gone_at k in
  checkb "p0 before p1" true (at (rib 0) < at (rib 1));
  checkb "p1 before the mass delete" true
    (at (rib 1) < at (Tensor.Keys.out_key r.cid 0));
  List.iter
    (fun k ->
      checkb "p2, p3 and the out records go together" true
        (at k = at (Tensor.Keys.out_key r.cid 0)))
    (rib 2 :: rib 3 :: outs)

let test_rib_checkpoint_roundtrip () =
  let r = make_rig () in
  let src =
    {
      Bgp.Rib.key = "v0/10.0.0.2";
      peer_asn = 65010;
      peer_addr = Addr.of_string "10.0.0.2";
      router_id = Addr.of_string "9.9.9.9";
      ebgp = true;
    }
  in
  let prefix = Netsim.Addr.prefix_of_string "100.1.0.0/24" in
  let attrs = Bgp.Attrs.make ~next_hop:(Addr.of_string "10.0.0.2") () in
  Tensor.Replicator.on_rib_change r.repl ~vrf:"v0"
    (Bgp.Rib.Best_changed (prefix, { Bgp.Rib.source = src; attrs; stale = false }));
  Engine.run r.eng;
  let key = Tensor.Keys.rib_key ~service:"rig" ~vrf:"v0" prefix in
  (match Store.Server.peek r.server key with
  | Some v -> (
      match Tensor.Keys.decode_rib_entry v with
      | Ok (src', p', attrs') ->
          checkb "entry roundtrips" true
            (src' = src
            && Netsim.Addr.equal_prefix p' prefix
            && Bgp.Attrs.equal attrs' attrs)
      | Error e -> Alcotest.failf "decode: %s" e)
  | None -> Alcotest.fail "checkpoint missing");
  (* Withdraw deletes it. *)
  Tensor.Replicator.on_rib_change r.repl ~vrf:"v0" (Bgp.Rib.Best_withdrawn prefix);
  Engine.run r.eng;
  checkb "withdrawn entry deleted" true (Store.Server.peek r.server key = None)

let test_replicate_false_is_inert () =
  let r = make_rig ~replicate:false () in
  let released = ref false in
  Tensor.Replicator.on_rx_message r.repl (update 1) ~inferred_ack:1100;
  Tensor.Replicator.on_tx_message r.repl ~raw:"xyz" ~release:(fun () ->
      released := true);
  checkb "tx released synchronously" true !released;
  Engine.run r.eng;
  checki "store untouched" 0 (Store.Server.records r.server)

let test_resume_continues_counters () =
  let r = make_rig () in
  Tensor.Replicator.resume_at r.repl ~epoch:0 ~watermark:2000 ~bytes_written:500
    ~in_seq:7 ~outtrim:300
    ~out_records:[ (300, 100); (400, 100) ];
  checkb "watermark restored" true
    (Tensor.Replicator.watermark r.repl = Some 2000);
  checki "bytes continue" 500 (Tensor.Replicator.bytes_written r.repl);
  (* Next rx message uses the continued sequence counter. *)
  Tensor.Replicator.on_rx_message r.repl (update 1) ~inferred_ack:2100;
  Engine.run r.eng;
  checkb "in record at seq 7" true
    (Store.Server.peek r.server (Tensor.Keys.in_key r.cid 7) <> None);
  (* Next tx continues at offset 500. *)
  Tensor.Replicator.on_tx_message r.repl ~raw:"abc" ~release:(fun () -> ());
  Engine.run r.eng;
  checkb "out record at offset 500" true
    (Store.Server.peek r.server (Tensor.Keys.out_key r.cid 500) <> None)

let test_drain_fires_when_quiet () =
  let r = make_rig () in
  Tensor.Replicator.session_established r.repl ~irs:1000;
  for i = 1 to 50 do
    Tensor.Replicator.on_rx_message r.repl (update i)
      ~inferred_ack:(1000 + (i * 50))
  done;
  let drained = ref false in
  Tensor.Replicator.drain r.repl (fun () -> drained := true);
  checkb "not drained yet" false !drained;
  Engine.run r.eng;
  checkb "drained" true !drained

let test_stop_releases_held () =
  (* A held reinjection must not be wedged by stop. *)
  let r = make_rig () in
  let chain = Netfilter.create () in
  Tensor.Replicator.attach_output_chain r.repl chain
    ~local:(Addr.of_string "1.1.1.1") ~remote:(Addr.of_string "2.2.2.2");
  Tensor.Replicator.session_established r.repl ~irs:1000;
  (* A segment acking beyond the watermark gets held. *)
  let seg =
    {
      Tcp.Segment.src_port = 179;
      dst_port = 179;
      seq = 0;
      ack = 99_999;
      window = 1000;
      payload = "";
      flags = Tcp.Segment.flag_ack;
    }
  in
  let emitted = ref 0 in
  Netfilter.traverse chain
    (Packet.make ~src:(Addr.of_string "1.1.1.1") ~dst:(Addr.of_string "2.2.2.2")
       ~size:40 (Tcp.Segment.Tcp seg))
    ~emit:(fun _ -> incr emitted);
  checki "held" 1 (Tensor.Replicator.held_segments r.repl);
  Tensor.Replicator.stop r.repl;
  checki "released on stop" 0 (Tensor.Replicator.held_segments r.repl);
  checki "emitted" 1 !emitted

let () =
  Alcotest.run "replicator"
    [
      ( "receive",
        [
          Alcotest.test_case "rx becomes durable" `Quick
            test_rx_message_becomes_durable;
          Alcotest.test_case "keepalive trimmed" `Quick
            test_keepalive_trimmed_immediately;
          Alcotest.test_case "update trimmed after apply" `Quick
            test_update_trimmed_only_after_applied;
        ] );
      ( "send",
        [
          Alcotest.test_case "release waits for durability" `Quick
            test_tx_release_waits_for_durability;
          Alcotest.test_case "offsets cumulative" `Quick
            test_tx_offsets_are_cumulative;
          Alcotest.test_case "snd_una trims" `Quick
            test_note_snd_una_trims_out_records;
          Alcotest.test_case "snd_una trims a prefix, session_down the rest"
            `Quick test_snd_una_trims_prefix_then_session_down;
        ] );
      ( "batching",
        [
          Alcotest.test_case "set batch cuts" `Quick test_set_batch_cuts;
          Alcotest.test_case "del batch cuts" `Quick test_del_batch_cuts;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "rib roundtrip" `Quick test_rib_checkpoint_roundtrip;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "replicate=false inert" `Quick
            test_replicate_false_is_inert;
          Alcotest.test_case "resume continues counters" `Quick
            test_resume_continues_counters;
          Alcotest.test_case "drain" `Quick test_drain_fires_when_quiet;
          Alcotest.test_case "stop releases held" `Quick test_stop_releases_held;
        ] );
    ]
