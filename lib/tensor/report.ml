(* Report output settings are domain-local: the CSV sink, section slugs
   and the digest of the printed text belong to whichever domain is
   printing an experiment, so a campaign worker can never redirect (or
   renumber, or fold its text into) the main domain's report. *)
type state = {
  mutable csv_dir : string option;
  mutable current_slug : string;
  mutable slug_counter : int;
  mutable digest : Digest.t; (* of the text printed so far *)
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        csv_dir = None;
        current_slug = "output";
        slug_counter = 0;
        digest = Digest.string "";
      })

let state () = Domain.DLS.get key

(* Every line of a report goes through here: printed, and folded into
   the domain's running digest. *)
let print s =
  let st = state () in
  st.digest <- Digest.string (st.digest ^ s);
  Format.printf "%s@?" s

let digest_of f =
  let st = state () in
  st.digest <- Digest.string "";
  f ();
  Digest.to_hex st.digest

let set_csv_dir d =
  (state ()).csv_dir <- d;
  match d with
  | Some dir -> ( try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
  | None -> ()

let slugify title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '_')
    title

let section title =
  let st = state () in
  st.current_slug <- slugify title;
  st.slug_counter <- 0;
  let line = String.make (String.length title + 4) '=' in
  print (Printf.sprintf "\n%s\n= %s =\n%s\n" line title line)

let subsection title = print (Printf.sprintf "\n-- %s --\n" title)

let kv label fmt =
  Format.kasprintf (fun v -> print (Printf.sprintf "  %-34s: %s\n" label v)) fmt

let wall_kv label fmt =
  Format.kasprintf (fun v -> Format.printf "  %-34s: %s@." label v) fmt

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let write_csv ~header rows =
  let st = state () in
  match st.csv_dir with
  | None -> ()
  | Some dir ->
      st.slug_counter <- st.slug_counter + 1;
      let name =
        if st.slug_counter = 1 then st.current_slug
        else Printf.sprintf "%s_%d" st.current_slug st.slug_counter
      in
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      List.iter
        (fun row ->
          output_string oc (String.concat "," (List.map csv_escape row));
          output_char oc '\n')
        (header :: rows);
      close_out oc

let table ~header rows =
  write_csv ~header rows;
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let print_row row =
    let b = Buffer.create 80 in
    Buffer.add_string b "  ";
    List.iteri
      (fun c w ->
        let cell = match List.nth_opt row c with Some s -> s | None -> "" in
        Printf.bprintf b "%-*s  " w cell)
      widths;
    Buffer.add_char b '\n';
    print (Buffer.contents b)
  in
  print_row header;
  print
    (Printf.sprintf "  %s\n"
       (String.concat "  " (List.map (fun w -> String.make w '-') widths)));
  List.iter print_row rows

let note fmt = Format.kasprintf (fun v -> print ("  > " ^ v ^ "\n")) fmt

let fseconds s =
  if Float.is_nan s then "-"
  else if s >= 1.0 then Printf.sprintf "%.2f s" s
  else if s >= 0.001 then Printf.sprintf "%.1f ms" (s *. 1e3)
  else Printf.sprintf "%.0f us" (s *. 1e6)

let fbps v =
  if v >= 1e9 then Printf.sprintf "%.2f Gbps" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.1f Mbps" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1f Kbps" (v /. 1e3)
  else Printf.sprintf "%.0f bps" v
