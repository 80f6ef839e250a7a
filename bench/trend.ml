(* Per-experiment performance trajectory over a series of --emit-bench
   snapshots, gated against best-so-far.

     dune exec bench/trend.exe -- BENCH_seed.json BENCH_pr4.json BENCH_pr.json
     dune exec bench/trend.exe -- --gate --threshold 1.5 BENCH_*.json NEW.json

   Files are taken in the order given (oldest first, newest last). For
   every experiment the full wall-time trajectory is printed, then the
   newest snapshot is compared against the *best* (minimum) wall time
   any earlier snapshot achieved — a creeping regression that stays
   under a pairwise threshold between adjacent PRs still trips the gate
   once it drifts past threshold x best-so-far. A noise floor applies
   (50 ms absolute, relative below that), so fast experiments gate on
   real doublings, not jitter. The analysis itself lives in [Trend_core]
   (unit-tested); this file is IO and rendering.

   The newest snapshot's result digests (the MD5 of each experiment's
   printed results) must also equal those of the latest earlier snapshot
   of the same mode that records them. A deliberate change of output
   re-pins by committing a fresh snapshot into the series.

   Exit 0 unless --gate is given and a regression or a changed result
   digest is found (exit 1);
   exit 2 on unreadable snapshots, fewer than two files, or a newest
   snapshot that shares no experiment with the earlier ones. *)

let read_file path =
  let ic = try open_in_bin path with Sys_error e -> prerr_endline e; exit 2 in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse path =
  match Monitor.Json.parse (read_file path) with
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "%s: malformed snapshot: %s\n" path msg;
      exit 2

let () =
  let threshold = ref 1.5 in
  let gate = ref false in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--gate" :: rest ->
        gate := true;
        parse_args rest
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 1.0 -> threshold := f
        | _ ->
            prerr_endline "--threshold expects a float > 1.0";
            exit 2);
        parse_args rest
    | a :: rest ->
        files := a :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let files = List.rev !files in
  if List.length files < 2 then begin
    prerr_endline "usage: trend [--gate] [--threshold R] OLDEST.json ... NEWEST.json";
    exit 2
  end;
  let snaps = List.map (fun f -> (Filename.basename f, parse f)) files in
  if
    Trend_core.mixed_quick
      (List.map
         (fun (_, j) ->
           Option.bind (Monitor.Json.member "quick" j) Monitor.Json.to_bool)
         snaps)
  then
    prerr_endline
      "warning: series mixes quick and full runs — ratios are not meaningful";
  let series =
    List.map
      (fun (name, j) ->
        match Trend_core.experiments j with
        | Ok exps -> exps
        | Error msg ->
            Printf.eprintf "%s: %s\n" name msg;
            exit 2)
      snaps
  in
  let newest_name = fst (List.nth snaps (List.length snaps - 1)) in
  let rows = Trend_core.analyze ~threshold:!threshold series in
  Printf.printf "Trajectory over %d snapshot(s); gate: newest (%s) vs best-so-far\n\n"
    (List.length series) newest_name;
  Printf.printf "%-12s" "experiment";
  List.iter (fun (name, _) -> Printf.printf " %14s" name) snaps;
  Printf.printf " %10s\n" "vs best";
  List.iter
    (fun (r : Trend_core.row) ->
      Printf.printf "%-12s" r.id;
      List.iter
        (function
          | Some w -> Printf.printf " %13.3fs" w
          | None -> Printf.printf " %14s" "-")
        r.points;
      (match r.verdict with
      | Trend_core.Vs_best { ratio; regression; _ } ->
          Printf.printf " %8.2fx%s" ratio
            (if regression then " << REGRESSION" else "")
      | Trend_core.New _ -> Printf.printf " %10s" "new"
      | Trend_core.Gone -> Printf.printf " %10s" "gone");
      print_newline ())
    rows;
  if not (Trend_core.shares_history rows) then begin
    Printf.eprintf "%s shares no experiment with the earlier snapshots\n"
      newest_name;
    exit 2
  end;
  let regressions = List.length (Trend_core.regressions rows) in
  if regressions > 0 then
    Printf.printf
      "\n%d experiment(s) beyond %.2fx of their best-so-far.\n"
      regressions !threshold
  else Printf.printf "\nNo experiment beyond %.2fx of its best-so-far.\n" !threshold;
  let changes =
    Trend_core.digest_changes
      (List.map
         (fun (_, j) ->
           ( Option.bind (Monitor.Json.member "quick" j) Monitor.Json.to_bool,
             Trend_core.result_digests j ))
         snaps)
  in
  List.iter
    (fun (c : Trend_core.digest_change) ->
      Printf.printf "result digest of %s changed: %s, pinned %s\n" c.exp c.now
        c.pinned)
    changes;
  if changes = [] then print_endline "Result digests unchanged.";
  if regressions > 0 || changes <> [] then
    if !gate then exit 1
    else print_endline "(warn-only: run with --gate to fail)"
