(* bench/trend_core: the best-so-far trajectory analysis behind
   bench/trend.exe — previously only exercised via CI. Covers best
   selection across a series, the noise floor (fast experiments gate on
   real doublings, not jitter), and mixed schema v1/v2 snapshots. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let parse s =
  match Monitor.Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad test snapshot: %s" e

let snap ?(schema = 2) exps =
  let body =
    String.concat ","
      (List.map
         (fun (id, wall) ->
           Printf.sprintf "{\"id\":\"%s\",\"wall_s\":%g,\"sim_events\":1}" id
             wall)
         exps)
  in
  parse
    (Printf.sprintf
       "{\"schema_version\":%d,\"quick\":true,\"experiments\":[%s]}" schema
       body)

let exps j =
  match Trend_core.experiments j with
  | Ok e -> e
  | Error m -> Alcotest.failf "experiments: %s" m

let vs_best (r : Trend_core.row) =
  match r.verdict with
  | Trend_core.Vs_best v -> v
  | _ -> Alcotest.failf "expected a vs-best verdict for %s" r.id

let row id rows =
  match List.find_opt (fun (r : Trend_core.row) -> r.id = id) rows with
  | Some r -> r
  | None -> Alcotest.failf "no row for %s" id

(* --- snapshot parsing ------------------------------------------------------- *)

let test_experiments_parsing () =
  let j = snap [ ("fig5a", 4.0); ("table1", 0.08) ] in
  Alcotest.(check (list (pair string (float 1e-9))))
    "id/wall pairs in order"
    [ ("fig5a", 4.0); ("table1", 0.08) ]
    (exps j);
  match Trend_core.experiments (parse "{\"quick\":true}") with
  | Ok _ -> Alcotest.fail "missing experiments array must be an error"
  | Error _ -> ()

(* --- best-so-far selection -------------------------------------------------- *)

let test_best_so_far () =
  (* Best is the minimum across *history* (1.0), not the adjacent
     snapshot (3.0): a creeping regression is judged against the best. *)
  let series =
    List.map exps
      [
        snap [ ("fig5a", 1.0) ];
        snap [ ("fig5a", 3.0) ];
        snap [ ("fig5a", 2.0) ];
      ]
  in
  let rows = Trend_core.analyze ~threshold:1.5 series in
  let v = vs_best (row "fig5a" rows) in
  checkf "best is the series minimum" 1.0 v.best;
  checkf "ratio vs best, not vs previous" 2.0 v.ratio;
  checkb "2x of best with headroom over the floor regresses" true v.regression;
  checki "regressions lists it" 1 (List.length (Trend_core.regressions rows));
  (* The newest snapshot itself never lowers its own bar. *)
  let rows =
    Trend_core.analyze ~threshold:1.5
      (List.map exps [ snap [ ("fig5a", 2.0) ]; snap [ ("fig5a", 1.0) ] ])
  in
  let v = vs_best (row "fig5a" rows) in
  checkb "improvement is not a regression" false v.regression;
  checkf "ratio below 1" 0.5 v.ratio

let test_new_and_gone () =
  let series =
    List.map exps [ snap [ ("old", 1.0) ]; snap [ ("fresh", 1.0) ] ]
  in
  let rows = Trend_core.analyze series in
  (match (row "fresh" rows).verdict with
  | Trend_core.New w -> checkf "new carries its wall time" 1.0 w
  | _ -> Alcotest.fail "fresh should be New");
  (match (row "old" rows).verdict with
  | Trend_core.Gone -> ()
  | _ -> Alcotest.fail "old should be Gone");
  checki "neither counts as a regression" 0
    (List.length (Trend_core.regressions rows));
  Alcotest.(check (list (option (float 1e-9))))
    "points keep per-snapshot holes"
    [ Some 1.0; None ]
    (row "old" rows).Trend_core.points

let test_nothing_shared () =
  let disjoint =
    Trend_core.analyze
      (List.map exps [ snap [ ("old", 1.0) ]; snap [ ("fresh", 1.0) ] ])
  in
  checkb "disjoint newest shares nothing with history" false
    (Trend_core.shares_history disjoint);
  let overlap =
    Trend_core.analyze
      (List.map exps
         [
           snap [ ("old", 1.0) ];
           snap [ ("fig5a", 2.0) ];
           snap [ ("fresh", 1.0); ("fig5a", 2.0) ];
         ])
  in
  checkb "one common experiment is enough" true
    (Trend_core.shares_history overlap)

(* --- noise floor ------------------------------------------------------------ *)

let test_noise_floor () =
  checkf "slow experiments: 50ms absolute floor" 0.05 (Trend_core.noise_floor 4.0);
  checkf "fast experiments: relative floor" 0.03 (Trend_core.noise_floor 0.03);
  checkf "floor never below 10ms" 0.01 (Trend_core.noise_floor 0.001);
  (* 1.9x on a 10ms experiment is 9ms of drift — under the 10ms floor,
     so not a regression even though the ratio is past the threshold. *)
  let rows =
    Trend_core.analyze ~threshold:1.5
      (List.map exps [ snap [ ("tiny", 0.010) ]; snap [ ("tiny", 0.019) ] ])
  in
  let v = vs_best (row "tiny" rows) in
  checkb "ratio past threshold" true (v.ratio > 1.5);
  checkb "but under the noise floor: no regression" false v.regression;
  (* The same ratio on a slow experiment does regress. *)
  let rows =
    Trend_core.analyze ~threshold:1.5
      (List.map exps [ snap [ ("slow", 1.0) ]; snap [ ("slow", 3.0) ] ])
  in
  checkb "3x on a 1s experiment regresses" true (vs_best (row "slow" rows)).regression

(* --- mixed v1/v2 series ----------------------------------------------------- *)

let test_mixed_schema_series () =
  (* A v1 seed followed by v2 snapshots must analyze as one series:
     both schemas expose id/wall_s. *)
  let v1 = snap ~schema:1 [ ("fig5a", 4.0); ("table1", 0.08) ] in
  let v2a = snap ~schema:2 [ ("fig5a", 3.5); ("table1", 0.08); ("fig7", 1.0) ] in
  let v2b = snap ~schema:2 [ ("fig5a", 3.6); ("table1", 0.09); ("fig7", 9.0) ] in
  let rows = Trend_core.analyze ~threshold:1.5 (List.map exps [ v1; v2a; v2b ]) in
  checki "union of ids across schemas" 3 (List.length rows);
  let v = vs_best (row "fig5a" rows) in
  checkf "v1 wall times participate in best" 3.5 v.best;
  checkb "fig5a healthy" false v.regression;
  checkb "fig7 9x vs its v2 best regresses" true (vs_best (row "fig7" rows)).regression;
  checkb "10ms drift on table1 stays under the floor" false
    (vs_best (row "table1" rows)).regression;
  (* quick-flag mixing detection used by the CLI warning. *)
  checkb "uniform flags are not mixed" false
    (Trend_core.mixed_quick [ Some true; Some true; None ]);
  checkb "disagreeing flags are mixed" true
    (Trend_core.mixed_quick [ Some true; Some false ])

(* --- result digests ------------------------------------------------------ *)

let dsnap ?(quick = true) exps =
  parse
    (Printf.sprintf "{\"schema_version\":2,\"quick\":%b,\"experiments\":[%s]}"
       quick
       (String.concat ","
          (List.map
             (fun (id, digest) ->
               match digest with
               | Some d ->
                   Printf.sprintf
                     "{\"id\":\"%s\",\"wall_s\":1,\"result_digest\":\"%s\"}"
                     id d
               | None -> Printf.sprintf "{\"id\":\"%s\",\"wall_s\":1}" id)
             exps)))

let changes snaps =
  List.map
    (fun (c : Trend_core.digest_change) -> (c.exp, c.pinned, c.now))
    (Trend_core.digest_changes
       (List.map
          (fun j ->
            ( Option.bind (Monitor.Json.member "quick" j) Monitor.Json.to_bool,
              Trend_core.result_digests j ))
          snaps))

let test_result_digests () =
  let triples = Alcotest.(list (triple string string string)) in
  Alcotest.(check (list (pair string string)))
    "digests parsed; none for an experiment without one"
    [ ("fig6a", "aa") ]
    (Trend_core.result_digests (dsnap [ ("fig6a", Some "aa"); ("micro", None) ]));
  Alcotest.check triples "equal digests pass" []
    (changes [ dsnap [ ("fig6a", Some "aa") ]; dsnap [ ("fig6a", Some "aa") ] ]);
  Alcotest.check triples "a changed digest names its experiment"
    [ ("fig6b", "bb", "xx") ]
    (changes
       [
         dsnap [ ("fig6a", Some "aa"); ("fig6b", Some "bb") ];
         dsnap [ ("fig6a", Some "aa"); ("fig6b", Some "xx") ];
       ]);
  (* Pinned by the latest earlier snapshot that records the experiment:
     a re-pin supersedes the older value, and a snapshot without the
     digest (or from before digests) is skipped. *)
  Alcotest.check triples "latest recorded digest pins" []
    (changes
       [
         dsnap [ ("fig6a", Some "old") ];
         dsnap [ ("fig6a", Some "new") ];
         dsnap [ ("fig6a", None) ];
         snap [ ("fig6a", 1.0) ];
         dsnap [ ("fig6a", Some "new") ];
       ]);
  Alcotest.check triples "the older pin no longer applies"
    [ ("fig6a", "new", "old") ]
    (changes
       [
         dsnap [ ("fig6a", Some "old") ];
         dsnap [ ("fig6a", Some "new") ];
         dsnap [ ("fig6a", Some "old") ];
       ]);
  Alcotest.check triples "first digest of an experiment pins nothing" []
    (changes [ dsnap [ ("fig6a", None) ]; dsnap [ ("fig6a", Some "aa") ] ]);
  (* A full run prints other rows than a quick one: only the same mode
     pins. *)
  Alcotest.check triples "full run does not pin a quick run" []
    (changes
       [ dsnap ~quick:false [ ("fig6a", Some "full") ]; dsnap [ ("fig6a", Some "aa") ] ])

let () =
  Alcotest.run "trend"
    [
      ( "core",
        [
          Alcotest.test_case "snapshot parsing" `Quick test_experiments_parsing;
          Alcotest.test_case "best-so-far selection" `Quick test_best_so_far;
          Alcotest.test_case "new and gone experiments" `Quick test_new_and_gone;
          Alcotest.test_case "newest shares nothing with history" `Quick
            test_nothing_shared;
          Alcotest.test_case "noise floor" `Quick test_noise_floor;
          Alcotest.test_case "mixed v1/v2 series" `Quick test_mixed_schema_series;
          Alcotest.test_case "result digests" `Quick test_result_digests;
        ] );
    ]
