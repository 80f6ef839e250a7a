(* lib/prof: per-label engine cost attribution must be correct (counts,
   inheritance, queue dwell), strictly observation-only (telemetry
   digests byte-identical with the profiler on or off), and exportable
   in formats external tools actually parse (folded stacks, speedscope
   JSON). Plus the bus-drop accounting the health report now gates on. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let find_stat label =
  List.find_opt
    (fun (st : Prof.Profiler.stat) -> st.label = label)
    (Prof.Profiler.stats ())

let stat label =
  match find_stat label with
  | Some st -> st
  | None -> Alcotest.failf "no profiler row for label %S" label

(* --- attribution ---------------------------------------------------------- *)

let test_label_attribution_and_inheritance () =
  Prof.Profiler.attach ();
  checkb "observer installed" true (Sim.Engine.observed ());
  let eng = Sim.Engine.create () in
  (* A labeled event whose handler schedules an unlabeled child: the
     child books under the parent's label, so labeling a subsystem's
     entry point attributes its whole cascade. *)
  ignore
    (Sim.Engine.schedule_after eng ~label:"root" (Sim.Time.ms 10) (fun () ->
         ignore (Sim.Engine.schedule_after eng (Sim.Time.ms 5) (fun () -> ()))));
  ignore
    (Sim.Engine.schedule_after eng ~label:"other" (Sim.Time.ms 1) (fun () ->
         ignore (Sys.opaque_identity (List.init 1000 Fun.id))));
  (* No label and no running event: defaults to "main". *)
  ignore (Sim.Engine.schedule_after eng (Sim.Time.ms 2) (fun () -> ()));
  Sim.Engine.run eng;
  Prof.Profiler.detach ();
  checkb "observer removed" false (Sim.Engine.observed ());
  checki "root books parent + inherited child" 2 (stat "root").events;
  checki "other books one event" 1 (stat "other").events;
  checki "top-level default label" 1 (stat "main").events;
  checki "total events" 4 (Prof.Profiler.total_events ());
  checkb "allocation attributed to the allocating label" true
    ((stat "other").alloc_bytes > 0.0);
  (* Queue dwell is simulated time from schedule to dispatch: the root
     event waited 10 ms, its child 5 ms. *)
  Alcotest.(check (float 1e-9))
    "root dwell = 10ms + 5ms" 0.015 (stat "root").dwell_s;
  Alcotest.(check (float 1e-9))
    "root max dwell = 10ms" 0.010 (stat "root").dwell_max_s;
  (* top is ordered and capped. *)
  let top2 = Prof.Profiler.top ~by:Prof.Profiler.By_events 2 in
  checki "top bounded" 2 (List.length top2);
  checks "most events first" "root" (List.hd top2).Prof.Profiler.label;
  Prof.Profiler.reset ();
  checki "reset clears rows" 0 (List.length (Prof.Profiler.stats ()))

(* --- one observer at a time ------------------------------------------------ *)

let test_one_observer () =
  Prof.Profiler.attach ();
  let eng = Sim.Engine.create () in
  let tick () =
    ignore (Sim.Engine.schedule_after eng ~label:"tick" (Sim.Time.ms 1) ignore);
    Sim.Engine.run eng
  in
  tick ();
  (match Causal.Recorder.attach () with
  | () -> Alcotest.fail "a second observer must be refused"
  | exception Invalid_argument _ -> ());
  checkb "recorder not attached" false (Causal.Recorder.enabled ());
  Causal.Recorder.detach ();
  checkb "profiler still installed" true
    (Prof.Profiler.enabled () && Sim.Engine.observed ());
  tick ();
  Prof.Profiler.detach ();
  checki "profiler kept counting" 2 (stat "tick").events;
  checki "recorder saw nothing" 0 (Causal.Recorder.node_count ());
  checkb "observer removed" false (Sim.Engine.observed ())

(* --- determinism: profiler on/off must not change telemetry ---------------- *)

let corpus_dir () = if Sys.file_exists "corpus" then "corpus" else "../corpus"

let test_digests_identical_with_profiler () =
  let entries = Chaos.Corpus.load_dir (corpus_dir ()) in
  checkb "committed corpus present" true (List.length entries >= 2);
  List.iteri
    (fun i (name, d) ->
      if i < 2 then
        match d with
        | Error e -> Alcotest.failf "%s: %s" name e
        | Ok desc ->
            let off = Chaos.Runner.run desc in
            Prof.Profiler.attach ();
            let on_ = Chaos.Runner.run desc in
            Prof.Profiler.detach ();
            checkb (name ^ " replays green") true
              (Chaos.Runner.ok off && Chaos.Runner.ok on_);
            checks
              (name ^ ": telemetry digest identical with profiler attached")
              off.Chaos.Runner.digest on_.Chaos.Runner.digest;
            checkb (name ^ ": profiler saw the run") true
              (Prof.Profiler.total_events () > 0))
    entries

(* --- export formats -------------------------------------------------------- *)

let json_mem name j =
  match Monitor.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON member %S" name

let test_export_formats () =
  Prof.Profiler.attach ();
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.schedule_after eng ~label:"a.x" (Sim.Time.ms 1) (fun () ->
         ignore (Sys.opaque_identity (List.init 50_000 Fun.id))));
  ignore
    (Sim.Engine.schedule_after eng ~label:"b.y" (Sim.Time.ms 2) (fun () ->
         ignore (Sys.opaque_identity (List.init 50_000 Fun.id))));
  Sim.Engine.run eng;
  Prof.Profiler.detach ();
  let folded = Prof.Export.folded_alloc () in
  checkb "rows present" true (List.length folded >= 2);
  checkb "stacks rooted at engine" true
    (List.for_all
       (fun (s, w) ->
         w > 0 && String.length s > 7 && String.sub s 0 7 = "engine;")
       folded);
  checks "folded lines are 'stack weight', sorted by stack"
    "a 1\na;b 3\n"
    (Prof.Export.folded_to_string [ ("a;b", 3); ("a", 1) ]);
  let json = Prof.Export.speedscope ~name:"t" (Prof.Export.standard_profiles ()) in
  match Monitor.Json.parse json with
  | Error e -> Alcotest.failf "speedscope output is not valid JSON: %s" e
  | Ok j ->
      checkb "declares the speedscope schema" true
        (Monitor.Json.to_str (json_mem "$schema" j)
        = Some "https://www.speedscope.app/file-format-schema.json");
      let profiles =
        match Monitor.Json.to_list (json_mem "profiles" j) with
        | Some l -> l
        | None -> Alcotest.fail "profiles is not a list"
      in
      checki "three standard views" 3 (List.length profiles);
      let frames =
        match
          Monitor.Json.to_list (json_mem "frames" (json_mem "shared" j))
        with
        | Some l -> l
        | None -> Alcotest.fail "shared.frames is not a list"
      in
      checkb "shared frame table non-empty" true (List.length frames >= 3);
      List.iter
        (fun p ->
          let samples =
            match Monitor.Json.to_list (json_mem "samples" p) with
            | Some l -> l
            | None -> Alcotest.fail "samples is not a list"
          in
          let weights =
            match Monitor.Json.to_list (json_mem "weights" p) with
            | Some l -> l
            | None -> Alcotest.fail "weights is not a list"
          in
          checki "one weight per sample" (List.length samples)
            (List.length weights))
        profiles

(* --- bus drop accounting ---------------------------------------------------- *)

let test_bus_drop_accounting () =
  Telemetry.Control.reset ();
  Telemetry.Bus.set_capacity 4;
  Telemetry.Control.set_enabled true;
  let eng = Sim.Engine.create () in
  let dropped0 =
    Telemetry.Registry.value (Telemetry.Registry.counter "telemetry.bus_dropped")
  in
  for i = 1 to 10 do
    Telemetry.Bus.emit eng
      (Telemetry.Event.Generic
         { cat = Telemetry.Event.Tcp; name = "t"; detail = string_of_int i })
  done;
  checki "6 of 10 entries overwritten" 6 (Telemetry.Bus.dropped_total ());
  checki "telemetry.bus_dropped counter tracks overwrites" 6
    (Telemetry.Registry.value
       (Telemetry.Registry.counter "telemetry.bus_dropped")
    - dropped0);
  Alcotest.(check (float 0.0))
    "ring high-water gauge saturates at capacity" 4.0
    (Telemetry.Registry.gauge_value
       (Telemetry.Registry.gauge "telemetry.ring_hwm.tcp"));
  (* Health gates on it: a report cut while drops happened is unhealthy. *)
  let mon = Monitor.Checker.install () in
  let report = Monitor.Health.make ~scenario:"drop-test" mon in
  checki "report carries the drop count" 6 report.Monitor.Health.bus_dropped;
  checkb "drops fail the health report" false (Monitor.Health.ok report);
  Telemetry.Control.set_enabled false;
  (* Restore the default capacity (clears the rings) for later suites. *)
  Telemetry.Bus.set_capacity 8192;
  Telemetry.Control.reset ();
  checki "clear resets drop accounting" 0 (Telemetry.Bus.dropped_total ())

let () =
  Alcotest.run "prof"
    [
      ( "profiler",
        [
          Alcotest.test_case "label attribution, inheritance, dwell" `Quick
            test_label_attribution_and_inheritance;
          Alcotest.test_case "export formats" `Quick test_export_formats;
          Alcotest.test_case "one observer at a time" `Quick test_one_observer;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "corpus digests identical with profiler on" `Slow
            test_digests_identical_with_profiler;
        ] );
      ( "bus",
        [
          Alcotest.test_case "drop counter, hwm gauge, health gate" `Quick
            test_bus_drop_accounting;
        ] );
    ]
