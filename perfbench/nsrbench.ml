(* The repository benchmark.

     nsrbench --workload NAME --seed N --seconds S --trace 0|1

   Generates one workload's inputs from the seed (see workloads.ml),
   then runs the workload on them repeatedly until [S] seconds have
   passed (at least four times), each repetition from scratch, and
   checks the outputs of every repetition.
   The simulated outputs of all repetitions must digest identically, so
   nondeterminism fails the run.

   With [--trace 0] the last stdout line is a JSON object with the gated
   end-to-end metrics (medians over the repetitions after a warm-up).
   With [--trace 1] repetitions alternate untraced and traced (profiler
   attached, benchmark spans on, layer probes after the timed phase)
   and the JSON carries the per-layer metrics of the last traced
   repetition. The exit code is 1 when any output check failed. *)

module Registry = Telemetry.Registry
module Profiler = Prof.Profiler

let now = Unix.gettimeofday

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type rep = {
  index : int;
  setup_s : float;
  wall_s : float;
  alloc_b : float;
  events : int;
  digest : string;
  observed : (string * float * string) list;
      (** Per-layer values read right after a traced timed phase. *)
  outcome : Workloads.outcome;
}

let reset_telemetry () =
  Registry.reset_values ();
  Telemetry.Bus.clear ()

(* --- Per-layer metrics -------------------------------------------------------- *)

let counter name = float_of_int (Registry.value (Registry.counter name))
let gauge name = Registry.gauge_value (Registry.gauge name)

let finite v = if Float.is_nan v then 0. else v

let label name =
  List.find_opt (fun (s : Profiler.stat) -> String.equal s.label name) (Profiler.stats ())

let label_events name = match label name with Some s -> float_of_int s.events | None -> 0.
let label_wall name = match label name with Some s -> s.wall_s | None -> 0.

let per_event f name =
  match label name with
  | Some s when s.events > 0 -> f s /. float_of_int s.events
  | _ -> 0.

(* The registry counters and profiler labels, read right after a traced
   timed phase: the output checks and the layer probes that follow call
   into the same layers and would add to them. *)
let observed_metrics ~events =
  let hold = Registry.histogram "replicator.ack_hold_s" in
  [
    ("sim.events", float_of_int events, "count");
    ("netsim.deliveries", label_events "net.deliver", "count");
    ("netsim.deliver_us", per_event (fun s -> s.wall_s *. 1e6) "net.deliver", "us");
    ("netsim.deliver_alloc_b", per_event (fun s -> s.alloc_bytes) "net.deliver", "B");
    ("tcp.segments_in", counter "tcp.segments_in", "count");
    ("tcp.segments_out", counter "tcp.segments_out", "count");
    ("tcp.retransmits", counter "tcp.retransmits", "count");
    ("tcp.rto_fires", counter "tcp.rto_fires", "count");
    ("tcp.rx_us", per_event (fun s -> s.wall_s *. 1e6) "tcp.rx", "us");
    ("tcp.tx_us", per_event (fun s -> s.wall_s *. 1e6) "tcp.tx", "us");
    ("netfilter.queued", counter "netfilter.queued", "count");
    ("netfilter.queue_depth_peak", gauge "netfilter.queue_depth_peak", "count");
    ("replicator.ack_hold_p50_s", finite (Registry.quantile hold 0.5), "s");
    ("replicator.ack_hold_max_s", finite (Registry.hist_max hold), "s");
    ("replicator.acks_held", counter "replicator.acks_held", "count");
    ("replicator.rx_replicated", counter "replicator.rx_replicated", "count");
    ("replicator.tx_replicated", counter "replicator.tx_replicated", "count");
    ("replicator.store_retries", counter "replicator.store_retries", "count");
    ("bgp.updates_in", counter "bgp.updates_in", "count");
    ("bgp.rib_changes", counter "bgp.rib_changes", "count");
    ("bgp.main_s", label_wall "bgp.main", "s");
    ("store.op_s", label_wall "store.op", "s");
    ("bfd.packets_out", counter "bfd.packets_out", "count");
    ("bfd.tx_s", label_wall "bfd.tx", "s");
    ("orch.migrations", counter "orch.migrations", "count");
    ("orch.failures_detected", counter "orch.failures_detected", "count");
    ("orch.heartbeat_s", label_wall "orch.heartbeat", "s");
  ]

(* The per-layer metrics of a traced repetition: what was observed in
   its timed phase, what its outputs report, and the layer probes. *)
let layer_metrics ~(traced : rep) (p : Probe.layer) =
  let from_outcome name unit_ =
    (name, Option.value ~default:0. (List.assoc_opt name traced.outcome.layer), unit_)
  in
  traced.observed
  @ [
      ("bgp.codec_ops", float_of_int p.msg_encode.ops, "count");
      ("bgp.decode_ns", p.msg_decode.ns, "ns");
      ("bgp.decode_alloc_b", p.msg_decode.alloc_b, "B");
      ("bgp.encode_ns", p.msg_encode.ns, "ns");
      ("bgp.encode_alloc_b", p.msg_encode.alloc_b, "B");
      ("bgp.rib_update_ops", float_of_int p.rib_update.ops, "count");
      ("bgp.rib_update_ns", p.rib_update.ns, "ns");
      ("bgp.rib_update_alloc_b", p.rib_update.alloc_b, "B");
      ("tensor.rib_codec_ops", float_of_int p.rib_encode.ops, "count");
      ("tensor.rib_encode_ns", p.rib_encode.ns, "ns");
      ("tensor.rib_encode_alloc_b", p.rib_encode.alloc_b, "B");
      ("tensor.rib_decode_ns", p.rib_decode.ns, "ns");
      ("tensor.rib_decode_alloc_b", p.rib_decode.alloc_b, "B");
      ("tensor.hex_bytes", float_of_int p.hex.units, "count");
      ("tensor.hex_ns_per_byte", p.hex.ns, "ns");
      ("tensor.hex_alloc_b_per_byte", p.hex.alloc_b, "B");
      ("tensor.unhex_ns_per_byte", p.unhex.ns, "ns");
      from_outcome "tensor.store_bytes_per_update" "B";
      from_outcome "store.records" "count";
      from_outcome "store.stored_bytes" "B";
      ("store.scan_keys", float_of_int p.scan_keys, "count");
      ("store.scan_ms", p.scan.ns /. 1e6, "ms");
      from_outcome "fleet.failovers" "count";
      from_outcome "fleet.upgrades_done" "count";
      from_outcome "fleet.degraded_peak" "count";
      from_outcome "telemetry.bus_events" "count";
      from_outcome "telemetry.bus_dropped" "count";
    ]

(* One repetition. With [traced], the profiler is attached around the
   timed phase and benchmark spans are recorded throughout. *)
let repetition setup ~traced ~index =
  Span.set_recording traced;
  reset_telemetry ();
  Gc.compact ();
  let t0 = now () in
  let timed = Span.with_ "setup" setup in
  let setup_s = now () -. t0 in
  reset_telemetry ();
  Gc.full_major ();
  let e0 = Sim.Engine.global_processed_events () in
  let a0 = Gc.allocated_bytes () in
  if traced then Profiler.attach ();
  let t1 = now () in
  let finish = Span.with_ "timed" timed in
  let wall_s = now () -. t1 in
  if traced then Profiler.detach ();
  let alloc_b = Gc.allocated_bytes () -. a0 in
  let events = Sim.Engine.global_processed_events () - e0 in
  let observed = if traced then observed_metrics ~events else [] in
  let outcome = Span.with_ "check" finish in
  Span.set_recording false;
  let digest = Digest.to_hex (Digest.string outcome.Workloads.digest_input) in
  { index; setup_s; wall_s; alloc_b; events; digest; observed; outcome }

(* --- Output ---------------------------------------------------------------- *)

let json_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit_) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let print_metric ~kind (name, value, unit_) =
  Printf.printf "metric %-28s %14.6f %-6s (%s)\n" name value unit_ kind

(* --- Main --------------------------------------------------------------------- *)

let min_reps = 3

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "nsrbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload; one of: "
          ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let traced_mode = !trace = 1 in
  Printf.printf "workload %s seed %d seconds %d trace %d; host: %d cpus, OCaml %s\n%!"
    w.name !seed !seconds !trace (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let setup = w.prepare ~seed:!seed in
  let start = now () in
  let untraced = ref [] and traced = ref [] in
  let k = ref 0 in
  (* The heap high-water mark of a cold process running the workload
     once: later repetitions only add GC-timing noise to it. *)
  let peak_heap_mb = ref nan in
  let layer = ref [] and probe_failures = ref 0 in
  (* A warm-up, then [min_reps] timed repetitions; the traced run needs
     one timed untraced and one traced repetition. *)
  let enough () =
    if traced_mode then List.length !untraced >= 2 && !traced <> []
    else List.length !untraced > min_reps
  in
  while (not (enough ())) || now () -. start < float_of_int !seconds do
    let as_traced = traced_mode && !k mod 2 = 1 in
    let r = repetition setup ~traced:as_traced ~index:!k in
    Printf.printf
      "rep %d%s: setup %.3f s, timed %.3f s, %d events, %.1f MB allocated, digest %s\n%!"
      !k (if as_traced then " (traced)" else "") r.setup_s r.wall_s r.events
      (r.alloc_b /. 1e6) r.digest;
    if !k = 0 then
      peak_heap_mb :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    if as_traced then begin
      Span.set_recording true;
      let probes = Span.with_ "probes" (fun () -> Probe.all r.outcome.probe_inputs) in
      Span.set_recording false;
      probe_failures := !probe_failures + probes.roundtrip_failures;
      layer := layer_metrics ~traced:r probes
    end;
    (* The probe inputs hold the whole simulated system: drop them so
       they cannot slow the repetitions that follow. *)
    let r = { r with outcome = { r.outcome with probe_inputs = Probe.no_inputs } } in
    if as_traced then traced := r :: !traced else untraced := r :: !untraced;
    incr k
  done;
  let reps = List.rev_append !untraced (List.rev !traced) in
  let attempted = List.fold_left (fun a r -> a + r.outcome.Workloads.attempted) 0 reps in
  let failed =
    List.fold_left (fun a r -> a + r.outcome.Workloads.failed) !probe_failures reps
  in
  List.iter (fun r -> List.iter (Printf.printf "check failed: %s\n") r.outcome.problems) reps;
  if !probe_failures > 0 then
    Printf.printf "check failed: %d codec round-trip failures in the layer probes\n"
      !probe_failures;
  let digests = List.sort_uniq String.compare (List.map (fun r -> r.digest) reps) in
  let deterministic = List.length digests = 1 in
  if not deterministic then
    Printf.printf "check failed: simulated outputs differ between repetitions (%s)\n"
      (String.concat ", " digests);
  let first = List.hd reps in
  Printf.printf "digest %s\n" first.digest;
  let med f l = median (List.map f l) in
  (* The first repetition of a process warms the heap up (page faults,
     heap growth) and is left out of the timings. *)
  let timed_reps = List.filter (fun r -> r.index > 0) !untraced in
  let untraced_wall = med (fun r -> r.wall_s) timed_reps in
  let metrics =
    if not traced_mode then begin
      (* The JSON carries the host metrics whose run-to-run spread fits
         a gate; [wall_s] drifts with the host by more than any bound a
         gate could use (README.md), so it is printed but not gated. *)
      let gated =
        [
          ("setup_s", med (fun r -> r.setup_s) timed_reps, "s");
          ("alloc_mb", med (fun r -> r.alloc_b /. 1e6) timed_reps, "MB");
          ("peak_heap_mb", !peak_heap_mb, "MB");
        ]
      in
      List.iter (print_metric ~kind:"host") (("wall_s", untraced_wall, "s") :: gated);
      List.iter
        (fun (m : Workloads.sim_metric) ->
          print_metric ~kind:(if m.paper = "" then "sim" else "sim; " ^ m.paper)
            (m.name, m.value, m.unit_))
        first.outcome.sim;
      print_metric ~kind:"failed / attempted"
        ("fail_ratio", float_of_int failed /. float_of_int (max 1 attempted), "ratio");
      gated
    end
    else begin
      let events = float_of_int first.events in
      let layer =
        !layer
        @ [
            ("sim.ns_per_event", untraced_wall *. 1e9 /. Float.max 1. events, "ns");
            ( "trace.overhead_pct",
              ((med (fun r -> r.wall_s) !traced /. untraced_wall) -. 1.) *. 100.,
              "%" );
          ]
      in
      List.iter (print_metric ~kind:"layer") layer;
      Printf.printf "spans (name, count, total s, self s):\n";
      List.iter
        (fun (name, n, total, self) ->
          Printf.printf "  %-40s %5d %10.4f %10.4f\n" name n total self)
        (Span.summary ());
      let dir = ".perfbench-out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir w.name !seed in
      Span.write_jsonl path;
      Printf.printf "spans written to %s\n" path;
      layer
    end
  in
  let correct = failed = 0 && deterministic in
  json_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
