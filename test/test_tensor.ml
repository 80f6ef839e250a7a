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

let sample_src =
  {
    Bgp.Rib.key = "v0/1.2.3.4";
    peer_asn = 65010;
    peer_addr = Addr.of_string "1.2.3.4";
    router_id = Addr.of_string "9.9.9.9";
    ebgp = true;
  }

let sample_attrs () =
  Bgp.Attrs.make
    ~as_path:[ Bgp.Attrs.Seq [ 65010; 7018 ] ]
    ~med:5
    ~communities:[ (65010, 300) ]
    ~next_hop:(Addr.of_string "1.2.3.4") ()

let test_keys_rib_roundtrip () =
  let src = sample_src and attrs = sample_attrs () in
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
  let vrf k = Tensor.Keys.vrf_of_rib_key ~service:"svc1" k in
  Alcotest.(check (option string)) "rib key vrf" (Some "v0") (vrf rk);
  List.iter
    (fun k -> Alcotest.(check (option string)) ("not a rib key: " ^ k) None (vrf k))
    [ "rib|svc1|v0"; "rib|svc1|"; "rib|svc2|v0|10.0.0.0/8"; "rib|svc|v0|x";
      "in|svc1|v0|1"; ""; "rib|svc1x|v0|1" ]

(* Every writer prints non-negative decimals, so a decoder that accepts
   a sign, an underscore, a radix prefix or an out-of-range value reads a
   record no writer produced (and reads "0x10" as 16). *)
let test_keys_reject_non_canonical_integers () =
  let open Tensor.Keys in
  let cid = conn_id ~service:"svc" ~vrf:"v0" in
  let rejects name = function
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error _ -> ()
  in
  List.iter
    (fun s -> rejects ("bfd " ^ s) (decode_bfd s))
    [ "0x1|2"; "1_0|+2"; "-1|2"; "1|0b1"; "1| 2"; "|2"; "99999999999999999999|1" ];
  checkb "bfd canonical, leading zeros" true (decode_bfd "007|2" = Ok (7, 2));
  List.iter
    (fun k ->
      checkb ("in key " ^ k) true (seq_of_in_key cid k = None);
      checkb ("out key " ^ k) true (offset_of_out_key cid k = None))
    [
      "in|svc|v0|-00000000001"; "out|svc|v0|-00000000001";
      "in|svc|v0|0x00000000ff"; "out|svc|v0|0x00000000ff";
      "in|svc|v0|00000000_001"; "out|svc|v0|+00000000001";
      "in|svc|v0|"; "out|svc|v0|99999999999999999999";
    ];
  checkb "in key canonical" true (seq_of_in_key cid "in|svc|v0|000000000255" = Some 255);
  List.iter
    (fun s -> rejects ("in record " ^ s) (decode_in_record s))
    [ "0x10:abc"; "+16:abc"; "-16:abc"; "1_6:abc"; ":abc" ];
  checkb "in record canonical" true (decode_in_record "16:abc" = Ok (16, "abc"));
  List.iter
    (fun s -> rejects ("part " ^ s) (decode_part s))
    [ "-5:00"; "0x5:00"; "5_0:00"; "+5:00" ];
  checkb "part canonical" true (decode_part "5:00" = Ok (5, "\000"));
  let meta = encode_meta sample_meta in
  let swap field bad =
    String.concat ";"
      (List.map
         (fun kv ->
           match String.index_opt kv '=' with
           | Some i when String.sub kv 0 i = field -> field ^ "=" ^ bad
           | _ -> kv)
         (String.split_on_char ';' meta))
  in
  List.iter
    (fun (field, bad) ->
      rejects
        (Printf.sprintf "meta %s=%s" field bad)
        (decode_meta (swap field bad)))
    [
      ("lp", "0xc000"); ("iss", "-5"); ("hold", "9_0"); ("irs", "+654321");
      ("grt", "0o170"); ("ep", "0x1"); ("ep", "-1"); ("mss", "");
    ];
  checkb "meta canonical" true (decode_meta (swap "ep" "0") = Ok sample_meta);
  let rib = encode_rib_entry sample_src (pfx "100.1.2.0/24") (sample_attrs ()) in
  let bad_pasn =
    String.concat ";"
      (List.map
         (fun kv -> if kv = "pasn=65010" then "pasn=0xfdf2" else kv)
         (String.split_on_char ';' rib))
  in
  checkb "rib fixture has pasn" true (bad_pasn <> rib);
  rejects "rib pasn=0xfdf2" (decode_rib_entry bad_pasn);
  let nat s want = Alcotest.(check (option int)) s want (nat_of_string s) in
  nat "0" (Some 0);
  nat "000000000042" (Some 42);
  nat (string_of_int max_int) (Some max_int);
  List.iter
    (fun s -> nat s None)
    [ ""; "-0"; "+1"; "0x1"; "0o7"; "0b1"; "1_000"; " 1"; "1 "; "1e3";
      "4611686018427387904"; "99999999999999999999" ]

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

(* --- RIB checkpoint encoder ------------------------------------------------ *)

(* The stored record format as first written: a whole one-prefix UPDATE
   re-encoded per route and hexed one [Printf] call per byte. The
   memoised encoder must reproduce it byte for byte. *)
let ref_hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let ref_rib_entry (src : Bgp.Rib.source) prefix attrs =
  let update =
    Bgp.Msg.Update { withdrawn = []; attrs = Some attrs; nlri = [ prefix ] }
  in
  String.concat ";"
    [
      "sk=" ^ src.Bgp.Rib.key;
      "pasn=" ^ string_of_int src.Bgp.Rib.peer_asn;
      "paddr=" ^ Addr.to_string src.Bgp.Rib.peer_addr;
      "rid=" ^ Addr.to_string src.Bgp.Rib.router_id;
      "ebgp=" ^ (if src.Bgp.Rib.ebgp then "1" else "0");
      "u=" ^ ref_hex (Bgp.Msg.encode update);
    ]

let gen_src =
  QCheck.Gen.(
    map
      (fun (i, asn, (pa, rid), ebgp) ->
        {
          Bgp.Rib.key = Printf.sprintf "v%d/%s" i (Addr.to_string (Addr.of_int pa));
          peer_asn = asn;
          peer_addr = Addr.of_int pa;
          router_id = Addr.of_int rid;
          ebgp;
        })
      (quad (int_bound 9) (int_bound 0xFFFFFFFF)
         (pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))
         bool))

(* Short paths, and two-segment paths over 255 bytes that force the
   extended-length flag; likewise for communities. *)
let gen_attrs =
  QCheck.Gen.(
    let asn = int_bound 0xFFFFFFFF in
    let seg =
      map2
        (fun set asns -> if set then Bgp.Attrs.Set asns else Bgp.Attrs.Seq asns)
        bool
        (list_size (int_range 0 10) asn)
    in
    let long_seg = map (fun asns -> Bgp.Attrs.Seq asns) (list_repeat 40 asn) in
    let as_path =
      frequency
        [ (4, list_size (int_range 0 3) seg); (1, list_repeat 2 long_seg) ]
    in
    let community = pair (int_bound 0xFFFF) (int_bound 0xFFFF) in
    let communities =
      frequency
        [ (4, list_size (int_range 0 5) community); (1, list_repeat 70 community) ]
    in
    map
      (fun ((origin, as_path, nh), (med, local_pref), (atomic_aggregate, communities)) ->
        Bgp.Attrs.make ~origin ~as_path ?med ?local_pref ~atomic_aggregate
          ~communities ~next_hop:(Addr.of_int nh) ())
      (triple
         (triple
            (oneofl [ Bgp.Attrs.Igp; Bgp.Attrs.Egp; Bgp.Attrs.Incomplete ])
            as_path (int_bound 0xFFFFFFFF))
         (pair (opt (int_bound 0xFFFFFFFF)) (opt (int_bound 0xFFFFFFFF)))
         (pair bool communities)))

let gen_prefix =
  QCheck.Gen.(
    map
      (fun (raw, len) -> Addr.prefix (Addr.of_int raw) len)
      (pair (int_bound 0xFFFFFFFF) (int_range 0 32)))

(* Each case is a run of routes sharing one (source, attrs) pair, as the
   prefixes of one UPDATE do; a shared encoder carries its memo from one
   run to the next. *)
let prop_rib_entry_matches_reference =
  QCheck.Test.make ~name:"rib entry bytes equal the reference encoder"
    ~count:300
    QCheck.(
      make
        Gen.(list_size (int_range 1 4)
               (triple gen_src gen_attrs (list_size (int_range 1 6) gen_prefix))))
    (fun runs ->
      let enc = Tensor.Keys.rib_encoder () in
      List.for_all
        (fun (src, attrs, prefixes) ->
          List.for_all
            (fun p ->
              let want = ref_rib_entry src p attrs in
              String.equal (Tensor.Keys.encode_rib_entry src p attrs) want
              && String.equal
                   (Tensor.Keys.encode_rib_entry_with enc src p attrs)
                   want)
            prefixes)
        runs)

let test_rib_encoder_memo () =
  let enc = Tensor.Keys.rib_encoder () in
  let same what src p attrs =
    Alcotest.(check string)
      what (ref_rib_entry src p attrs)
      (Tensor.Keys.encode_rib_entry_with enc src p attrs)
  in
  let a = sample_attrs () in
  for i = 0 to 49 do
    same "repeated attrs" sample_src
      (Addr.prefix (Addr.of_int (0x64000000 + (i lsl 8))) (24 - (i mod 8)))
      a
  done;
  (* Structurally equal but physically distinct: a miss, same bytes. *)
  same "equal attrs copy" sample_src (pfx "10.0.0.0/8") (sample_attrs ());
  same "back to the first" sample_src (pfx "10.1.0.0/16") a;
  let src2 = { sample_src with Bgp.Rib.key = "v1/5.6.7.8"; ebgp = false } in
  same "new source, same attrs" src2 (pfx "10.2.0.0/16") a;
  same "other attrs" src2 (pfx "10.3.0.0/16")
    (Bgp.Attrs.with_local_pref a (Some 200));
  (* Over Bgp.Msg.max_size: the same exception as the full encoder, and
     the encoder stays usable. *)
  let huge =
    Bgp.Attrs.make ~communities:(List.init 1100 (fun i -> (i, i)))
      ~next_hop:(Addr.of_string "1.2.3.4") ()
  in
  let raised f =
    match f () with _ -> None | exception Invalid_argument m -> Some m
  in
  let want = raised (fun () -> ref_rib_entry sample_src (pfx "10.4.0.0/16") huge) in
  checkb "reference raises" true (Option.is_some want);
  checkb "same Invalid_argument" true
    (raised (fun () ->
         Tensor.Keys.encode_rib_entry_with enc sample_src (pfx "10.4.0.0/16") huge)
    = want);
  same "after the oversize" sample_src (pfx "10.5.0.0/16") a

let test_hex_all_bytes () =
  let s = String.init 256 Char.chr in
  Alcotest.(check string) "hex of 0..255" (ref_hex s) (Tensor.Keys.hex s)

(* The stored format, pinned: a change here is a record-format change
   and needs re-pinned digests. *)
let test_rib_entry_golden () =
  Alcotest.(check string)
    "golden record"
    ("sk=v0/1.2.3.4;pasn=65010;paddr=1.2.3.4;rid=9.9.9.9;ebgp=1;u="
   ^ "ffffffffffffffffffffffffffffffff" (* marker *)
   ^ "0041" ^ "02" ^ "0000" (* length 65, UPDATE, no withdrawals *)
   ^ "0026" (* 38 bytes of attributes: *)
   ^ "40010100" (* ORIGIN IGP *)
   ^ "40020a02020000fdf200001b6a" (* AS_PATH SEQ 65010 7018 *)
   ^ "4003040102030480040400000005" (* NEXT_HOP 1.2.3.4, MED 5 *)
   ^ "c00804fdf2012c" (* COMMUNITY 65010:300 *)
   ^ "18640102" (* NLRI 100.1.2.0/24 *))
    (Tensor.Keys.encode_rib_entry sample_src (pfx "100.1.2.0/24")
       (sample_attrs ()))

(* Encoding through the memo allocates about the record itself: the
   per-byte [Printf] hex this replaced cost ~23 KB per route. *)
let test_rib_encode_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let enc = Tensor.Keys.rib_encoder () in
  let a = sample_attrs () in
  let prefixes =
    Array.init 1000 (fun i -> Addr.prefix (Addr.of_int (0x64000000 + (i lsl 8))) 24)
  in
  let len =
    String.length
      (Tensor.Keys.encode_rib_entry_with enc sample_src prefixes.(0) a)
  in
  let before = Gc.minor_words () in
  Array.iter
    (fun p ->
      ignore
        (Sys.opaque_identity
           (Tensor.Keys.encode_rib_entry_with enc sample_src p a)))
    prefixes;
  let per_entry = (Gc.minor_words () -. before) /. 1000.0 in
  let budget = 4.0 *. float_of_int (len / (Sys.word_size / 8)) in
  if per_entry >= budget then
    Alcotest.failf "%.1f words per %d-byte entry, budget %.0f" per_entry len
      budget

(* A damaged record: up to three one-character edits (replace, insert,
   delete), then an optional cut. *)
let gen_damaged_rib_entry =
  let edit =
    QCheck.Gen.(
      triple (int_bound 2) nat
        (frequency [ (3, oneofl (List.of_seq (String.to_seq "0123456789abcdef;=|/"))); (1, char) ]))
  in
  QCheck.Gen.(
    map
      (fun (((src, attrs), p), (edits, cut)) ->
        let apply s (op, pos, c) =
          let n = String.length s in
          let i = pos mod (n + 1) in
          match op with
          | 0 when i < n -> String.mapi (fun j x -> if j = i then c else x) s
          | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
          | _ when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
          | _ -> s
        in
        let s = List.fold_left apply (ref_rib_entry src p attrs) edits in
        match cut with
        | Some k -> String.sub s 0 (k mod (String.length s + 1))
        | None -> s)
      (pair (pair (pair gen_src gen_attrs) gen_prefix)
         (pair (list_size (int_range 1 3) edit) (opt nat))))

(* Recovery reads every rib| record back: a damaged one must come back
   as an [Error], never as an exception. *)
let prop_decode_rib_entry_total =
  QCheck.Test.make ~name:"decode_rib_entry is total on damaged records"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_damaged_rib_entry)
    (fun s ->
      match Tensor.Keys.decode_rib_entry s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) s)

(* The record decoder as first written: split into [key=value] fields,
   look each one up in the list (the first occurrence wins), then parse.
   The in-place decoder must give the same [Ok] value or the same
   [Error] string on every input. *)
let ref_fields s =
  String.split_on_char ';' s
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i ->
             Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
         | None -> None)

let ref_nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let ref_unhex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd hex length"
  else if not (String.for_all (fun c -> ref_nibble c >= 0) s) then Error "bad hex"
  else
    Ok
      (String.init (n / 2) (fun i ->
           Char.chr ((ref_nibble s.[2 * i] lsl 4) lor ref_nibble s.[(2 * i) + 1])))

let ref_nat s =
  if s <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) s
  then int_of_string_opt s
  else None

let ref_decode_rib_entry s =
  let f = ref_fields s in
  let get k = List.assoc_opt k f in
  match (get "sk", get "pasn", get "paddr", get "rid", get "ebgp", get "u") with
  | Some key, Some pasn, Some paddr, Some rid, Some ebgp, Some u_hex -> (
      match (ref_nat pasn, ref_unhex u_hex) with
      | Some peer_asn, Ok raw -> (
          match Bgp.Msg.decode raw with
          | Ok (Bgp.Msg.Update { attrs = Some attrs; nlri = [ prefix ]; _ }) -> (
              try
                Ok
                  ( {
                      Bgp.Rib.key;
                      peer_asn;
                      peer_addr = Addr.of_string paddr;
                      router_id = Addr.of_string rid;
                      ebgp = ebgp = "1";
                    },
                    prefix,
                    attrs )
              with Invalid_argument e -> Error e)
          | Ok _ -> Error "unexpected rib payload"
          | Error e -> Error (Format.asprintf "%a" Bgp.Msg.pp_error e))
      | _ -> Error "bad rib fields")
  | _ -> Error "missing rib field"

let same_decode s =
  match (Tensor.Keys.decode_rib_entry s, ref_decode_rib_entry s) with
  | Ok (src, p, a), Ok (src', p', a') ->
      src = src' && Addr.equal_prefix p p' && Bgp.Attrs.equal a a'
  | Error e, Error e' when String.equal e e' -> true
  | got, want ->
      let show = function Ok _ -> "Ok" | Error e -> "Error " ^ e in
      QCheck.Test.fail_reportf "on %S: got %s, reference %s" s (show got)
        (show want)

(* Fields shuffled, some repeated with another value before or after the
   original, plus unknown and [=]-less fields: the first occurrence of
   each name must win, wherever it sits. *)
let gen_reordered_rib_entry =
  let field_value =
    QCheck.Gen.(
      oneof
        [
          oneofl [ ""; "0"; "1"; "65010"; "0x10"; "1.2.3.4"; "300.1.1.1"; "ff"; "f"; "a=b" ];
          string_size ~gen:(oneofl [ '0'; '9'; 'a'; 'f'; '.'; '=' ]) (int_range 0 6);
        ])
  in
  QCheck.Gen.(
    map
      (fun ((((src, attrs), p), dups), (extra, perm_seed)) ->
        let fields = String.split_on_char ';' (ref_rib_entry src p attrs) in
        let name kv = match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv in
        let dup_fields =
          List.map (fun (i, v) -> name (List.nth fields (i mod 6)) ^ "=" ^ v) dups
        in
        let all = fields @ dup_fields @ extra in
        let rng = Random.State.make [| perm_seed |] in
        let keyed = List.map (fun f -> (Random.State.bits rng, f)) all in
        String.concat ";" (List.map snd (List.sort compare keyed)))
      (pair
         (pair (pair (pair gen_src gen_attrs) gen_prefix)
            (list_size (int_range 0 4) (pair nat field_value)))
         (pair
            (list_size (int_range 0 2) (oneofl [ ""; "x=1"; "sk"; "SK=v0"; "u"; "ridx=1.2.3.4" ]))
            int)))

let prop_decode_rib_entry_matches_reference =
  QCheck.Test.make ~name:"decode_rib_entry equals the field-list reference"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         frequency
           [
             ( 1,
               map
                 (fun (((src, attrs), p)) -> ref_rib_entry src p attrs)
                 (pair (pair gen_src gen_attrs) gen_prefix) );
             (2, gen_damaged_rib_entry);
             (2, gen_reordered_rib_entry);
           ]))
    same_decode

(* Decoding allocates what it returns plus the frame decode: splitting
   the record into a list of substring pairs cost about four times the
   record layer's share of this. *)
let test_rib_decode_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let a = sample_attrs () in
  let prefixes =
    Array.init 1000 (fun i -> Addr.prefix (Addr.of_int (0x64000000 + (i lsl 8))) 24)
  in
  let records =
    Array.map (fun p -> Tensor.Keys.encode_rib_entry sample_src p a) prefixes
  in
  let frames =
    Array.map
      (fun p ->
        Bgp.Msg.encode
          (Bgp.Msg.Update { withdrawn = []; attrs = Some a; nlri = [ p ] }))
      prefixes
  in
  let words f xs =
    let before = Gc.minor_words () in
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    (Gc.minor_words () -. before) /. float_of_int (Array.length xs)
  in
  checkb "records decode" true
    (Array.for_all (fun r -> Result.is_ok (Tensor.Keys.decode_rib_entry r)) records);
  let frame = words Bgp.Msg.decode frames in
  let per_entry = words Tensor.Keys.decode_rib_entry records in
  let len = String.length records.(0) in
  let budget = frame +. float_of_int (len / (Sys.word_size / 8)) +. 40.0 in
  if per_entry >= budget then
    Alcotest.failf "%.1f words per %d-byte record, budget %.0f (frame decode %.0f)"
      per_entry len budget frame

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
          Alcotest.test_case "non-canonical integers rejected" `Quick
            test_keys_reject_non_canonical_integers;
          Alcotest.test_case "rib encoder memo" `Quick test_rib_encoder_memo;
          Alcotest.test_case "hex of every byte" `Quick test_hex_all_bytes;
          Alcotest.test_case "rib entry golden" `Quick test_rib_entry_golden;
          Alcotest.test_case "rib encode allocation budget" `Quick
            test_rib_encode_alloc_budget;
          Alcotest.test_case "rib decode allocation budget" `Quick
            test_rib_decode_alloc_budget;
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
            prop_rib_entry_matches_reference; prop_decode_rib_entry_total;
            prop_decode_rib_entry_matches_reference;
          ] );
    ]
