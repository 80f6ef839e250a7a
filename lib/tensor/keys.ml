type conn_id = string

let conn_id ~service ~vrf = service ^ "|" ^ vrf

(* Stream-scoped records (out/in/ack/outtrim/part) are keyed by the
   connection *epoch*: each successor TCP connection of the same peer
   gets a fresh key space, so a half-dead write from a torn-down stream
   can never be grafted onto the next connection's sequence numbers at
   recovery time. Epoch 0 maps to the bare conn id, which keeps fresh
   bring-up keys (and every pre-epoch store dump) unchanged. *)
let epoch_cid cid epoch =
  if epoch = 0 then cid else Printf.sprintf "%s@%d" cid epoch

let meta_key cid = "meta|" ^ cid
let ack_key cid = "ack|" ^ cid
let in_key cid seq = Printf.sprintf "in|%s|%012d" cid seq
let in_prefix cid = "in|" ^ cid ^ "|"
let out_key cid off = Printf.sprintf "out|%s|%012d" cid off
let out_prefix cid = "out|" ^ cid ^ "|"
let outtrim_key cid = "outtrim|" ^ cid
let bfd_key cid = "bfd|" ^ cid
let part_key cid = "part|" ^ cid

let rib_key ~service ~vrf prefix =
  String.concat "|" [ "rib"; service; vrf; Netsim.Addr.prefix_to_string prefix ]

let rib_prefix ~service = "rib|" ^ service ^ "|"

(* [has_prefix_at p s i]: [s] holds [p] from index [i] on. Compared in
   place: [String.starts_with] allocates a closure per call (no
   flambda) and [String.sub] copies. *)
let rec prefix_from p s i j =
  j = String.length p || (p.[j] = s.[i + j] && prefix_from p s i (j + 1))

let has_prefix_at p s i =
  String.length s - i >= String.length p && prefix_from p s i 0

(* The non-negative decimal in [s] from [i] to [stop] as every writer
   here prints it: ASCII digits only, so no sign, underscore or radix
   prefix; -1 when empty, on any other character or past [max_int]. *)
let rec nat_from s i stop acc =
  if i = stop then acc
  else
    match s.[i] with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if acc > (max_int - d) / 10 then -1
        else nat_from s (i + 1) stop ((acc * 10) + d)
    | _ -> -1

let nat_sub s i stop = if i >= stop then -1 else nat_from s i stop 0
let nat_opt = function -1 -> None | v -> Some v
let nat_of_string s = nat_opt (nat_sub s 0 (String.length s))

let tail_int ~prefix key =
  if has_prefix_at prefix key 0 then
    nat_opt (nat_sub key (String.length prefix) (String.length key))
  else None

let seq_of_in_key cid key = tail_int ~prefix:(in_prefix cid) key
let offset_of_out_key cid key = tail_int ~prefix:(out_prefix cid) key

(* The index of the first [c] in [s] from [i] up to [stop], or [stop]:
   [String.index_from_opt] would box its answer. *)
let rec index_before s i stop c =
  if i = stop || s.[i] = c then i else index_before s (i + 1) stop c

let vrf_of_rib_key ~service key =
  (* [rib_prefix ~service], matched in place. *)
  let v0 = String.length service + 5 in
  if
    has_prefix_at "rib|" key 0
    && has_prefix_at service key 4
    && String.length key >= v0
    && key.[v0 - 1] = '|'
  then
    let i = index_before key v0 (String.length key) '|' in
    if i < String.length key then Some (String.sub key v0 (i - v0)) else None
  else None

(* --- Hex ----------------------------------------------------------------- *)

let hex_digits = "0123456789abcdef"

(* Writes the two lowercase hex digits of [v]'s low byte at [pos]. *)
let put_hex dst pos v =
  Bytes.set dst pos hex_digits.[(v lsr 4) land 0xF];
  Bytes.set dst (pos + 1) hex_digits.[v land 0xF]

let hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    put_hex b (2 * i) (Char.code s.[i])
  done;
  Bytes.unsafe_to_string b

(* The value of one hex digit, or -1 for anything outside [0-9a-fA-F]. *)
let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Unhexes [s] from [i] into [dst] from [j] until [dst] is full; [false]
   at the first non-hex digit. *)
let rec unhex_into s i dst j =
  j = Bytes.length dst
  ||
  let hi = nibble s.[i] and lo = nibble s.[i + 1] in
  hi >= 0 && lo >= 0
  && begin
       Bytes.unsafe_set dst j (Char.unsafe_chr ((hi lsl 4) lor lo));
       unhex_into s (i + 2) dst (j + 1)
     end

(* [unhex] of the [len] characters of [s] from [pos], read in place. *)
let unhex_sub s pos len =
  if len mod 2 <> 0 then Error "odd hex length"
  else
    let b = Bytes.create (len / 2) in
    if unhex_into s pos b 0 then Ok (Bytes.unsafe_to_string b)
    else Error "bad hex"

let unhex s = unhex_sub s 0 (String.length s)

(* --- Meta ---------------------------------------------------------------- *)

type meta = {
  epoch : int; (* connection epoch naming the stream-scoped key space *)
  vrf : string;
  local_addr : Netsim.Addr.t;
  local_port : int;
  peer_addr : Netsim.Addr.t;
  peer_port : int;
  local_asn : int;
  hold_time : int;
  as4 : bool;
  iss : int;
  irs : int;
  mss : int;
  rcv_wnd : int;
  peer_open_raw : string;
  peer_supports_gr : bool;
  peer_gr_restart_time : int;
}

let encode_meta m =
  String.concat ";"
    [
      "ep=" ^ string_of_int m.epoch;
      "vrf=" ^ m.vrf;
      "la=" ^ Netsim.Addr.to_string m.local_addr;
      "lp=" ^ string_of_int m.local_port;
      "pa=" ^ Netsim.Addr.to_string m.peer_addr;
      "pp=" ^ string_of_int m.peer_port;
      "asn=" ^ string_of_int m.local_asn;
      "hold=" ^ string_of_int m.hold_time;
      "as4=" ^ (if m.as4 then "1" else "0");
      "iss=" ^ string_of_int m.iss;
      "irs=" ^ string_of_int m.irs;
      "mss=" ^ string_of_int m.mss;
      "rwnd=" ^ string_of_int m.rcv_wnd;
      "gr=" ^ (if m.peer_supports_gr then "1" else "0");
      "grt=" ^ string_of_int m.peer_gr_restart_time;
      "open=" ^ hex m.peer_open_raw;
    ]

let fields s =
  String.split_on_char ';' s
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i ->
             Some
               ( String.sub kv 0 i,
                 String.sub kv (i + 1) (String.length kv - i - 1) )
         | None -> None)

let decode_meta s =
  let f = fields s in
  let get k = List.assoc_opt k f in
  let geti k = Option.bind (get k) nat_of_string in
  (* Records from before connection epochs carry no [ep]: epoch 0. *)
  let epoch = match get "ep" with None -> Some 0 | Some v -> nat_of_string v in
  match
    ( epoch, get "vrf", get "la", geti "lp", get "pa", geti "pp", geti "asn",
      geti "hold", get "as4", geti "iss", geti "irs", geti "mss",
      geti "rwnd", get "gr", geti "grt", get "open" )
  with
  | ( Some epoch, Some vrf, Some la, Some local_port, Some pa, Some peer_port,
      Some local_asn, Some hold_time, Some as4, Some iss, Some irs, Some mss,
      Some rcv_wnd, Some gr, Some peer_gr_restart_time, Some open_hex ) -> (
      match unhex open_hex with
      | Error e -> Error e
      | Ok peer_open_raw -> (
          try
            Ok
              {
                epoch;
                vrf;
                local_addr = Netsim.Addr.of_string la;
                local_port;
                peer_addr = Netsim.Addr.of_string pa;
                peer_port;
                local_asn;
                hold_time;
                as4 = as4 = "1";
                iss;
                irs;
                mss;
                rcv_wnd;
                peer_open_raw;
                peer_supports_gr = gr = "1";
                peer_gr_restart_time;
              }
          with Invalid_argument e -> Error e))
  | _ -> Error "missing meta field"

(* --- In records ------------------------------------------------------------ *)

let encode_in_record ~ack ~raw = string_of_int ack ^ ":" ^ raw

let decode_in_record s =
  match String.index_opt s ':' with
  | None -> Error "no ack separator"
  | Some i -> (
      match nat_sub s 0 i with
      | -1 -> Error "bad ack"
      | ack -> Ok (ack, String.sub s (i + 1) (String.length s - i - 1)))

(* --- RIB entries ------------------------------------------------------------ *)

(* The value is the source's fields, then [u=] and the hex of the
   one-prefix UPDATE frame [Bgp.Msg.encode] writes for the route:

     marker (16 x ff) | length (2) | type 02 | withdrawn length 0000
     | attribute length (2) | attributes | prefix length (1) | prefix bytes

   Everything except the frame length and the prefix is fixed by
   (source, attrs), so it is built once per pair: [head] runs up to the
   marker, [mid] from the type byte through the attribute hex. *)
type rib_head = {
  src : Bgp.Rib.source;
  attrs : Bgp.Attrs.t;
  head : string;
  mid : string;
  alen : int;
}

type rib_encoder = { mutable last : rib_head option }

let rib_encoder () = { last = None }

let rib_head (src : Bgp.Rib.source) attrs =
  let a = Bgp.Msg.encode_attrs ~as4:true attrs in
  let alen = String.length a in
  let head =
    String.concat ";"
      [
        "sk=" ^ src.Bgp.Rib.key;
        "pasn=" ^ string_of_int src.Bgp.Rib.peer_asn;
        "paddr=" ^ Netsim.Addr.to_string src.Bgp.Rib.peer_addr;
        "rid=" ^ Netsim.Addr.to_string src.Bgp.Rib.router_id;
        "ebgp=" ^ (if src.Bgp.Rib.ebgp then "1" else "0");
        "u=" ^ String.make 32 'f';
      ]
  in
  let lens = Bytes.create 4 in
  put_hex lens 0 (alen lsr 8);
  put_hex lens 2 alen;
  { src; attrs; head; mid = "020000" ^ Bytes.to_string lens ^ hex a; alen }

let encode_rib_entry_with enc src (prefix : Netsim.Addr.prefix) attrs =
  let h =
    match enc.last with
    | Some h when h.src == src && h.attrs == attrs -> h
    | _ ->
        let h = rib_head src attrs in
        enc.last <- Some h;
        h
  in
  let plen = prefix.Netsim.Addr.len in
  let nbytes = (plen + 7) / 8 in
  let total = 19 + 4 + h.alen + 1 + nbytes in
  (* [Bgp.Msg.encode]'s size check, with its message. *)
  if total > Bgp.Msg.max_size then
    invalid_arg
      (Printf.sprintf "Msg.encode: %d bytes exceeds max %d" total
         Bgp.Msg.max_size);
  let hl = String.length h.head and ml = String.length h.mid in
  let out = Bytes.create (hl + 4 + ml + (2 * (1 + nbytes))) in
  Bytes.blit_string h.head 0 out 0 hl;
  put_hex out hl (total lsr 8);
  put_hex out (hl + 2) total;
  Bytes.blit_string h.mid 0 out (hl + 4) ml;
  let pos = hl + 4 + ml in
  put_hex out pos plen;
  let base = Netsim.Addr.to_int prefix.Netsim.Addr.base in
  for i = 0 to nbytes - 1 do
    put_hex out (pos + 2 + (2 * i)) (base lsr (24 - (8 * i)))
  done;
  Bytes.unsafe_to_string out

let encode_rib_entry src prefix attrs =
  encode_rib_entry_with (rib_encoder ()) src prefix attrs

(* The value spans of the record's six fields, as (start, stop) pairs
   in an [int array]: each name below is the index of its field's start,
   and a start of -1 means the field is unseen. *)
let sk = 0 and pasn = 2 and paddr = 4 and rid = 6 and ebgp = 8 and u = 10
let rib_slots_len = 12

let key_is name s i eq = eq - i = String.length name && has_prefix_at name s i

(* The slot of the field named by [s] from [i] to [eq], or -1. *)
let rib_slot s i eq =
  if key_is "sk" s i eq then sk
  else if key_is "pasn" s i eq then pasn
  else if key_is "paddr" s i eq then paddr
  else if key_is "rid" s i eq then rid
  else if key_is "ebgp" s i eq then ebgp
  else if key_is "u" s i eq then u
  else -1

(* Records the value span of every [name=value] field from [i] on,
   keeping the first occurrence of each name. Fields are
   [';']-separated; one without ['='] is skipped, and a value runs from
   the first ['='] to the next [';'], as [fields] splits them. *)
let rec rib_slots s i slots =
  let semi = index_before s i (String.length s) ';' in
  let eq = index_before s i semi '=' in
  (if eq < semi then
     match rib_slot s i eq with
     | -1 -> ()
     | f ->
         if slots.(f) < 0 then begin
           slots.(f) <- eq + 1;
           slots.(f + 1) <- semi
         end);
  if semi < String.length s then rib_slots s (semi + 1) slots

let span_len slots f = slots.(f + 1) - slots.(f)
let span_addr s slots f = Netsim.Addr.of_substring s slots.(f) (span_len slots f)

(* Reads the fields in place from their spans: only the source key is
   copied out, and [u=] is unhexed straight into the frame it decodes. *)
let decode_rib_entry s =
  let slots = Array.make rib_slots_len (-1) in
  rib_slots s 0 slots;
  if Array.exists (fun p -> p < 0) slots then Error "missing rib field"
  else
    match
      ( nat_sub s slots.(pasn) slots.(pasn + 1),
        unhex_sub s slots.(u) (span_len slots u) )
    with
    | peer_asn, Ok raw when peer_asn >= 0 -> (
        match Bgp.Msg.decode raw with
        | Ok (Bgp.Msg.Update { attrs = Some attrs; nlri = [ prefix ]; _ }) -> (
            (* [rid] first: a record bad in both reports [rid]. *)
            match span_addr s slots rid with
            | exception Invalid_argument e -> Error e
            | router_id -> (
                match span_addr s slots paddr with
                | exception Invalid_argument e -> Error e
                | peer_addr ->
                    Ok
                      ( {
                          Bgp.Rib.key = String.sub s slots.(sk) (span_len slots sk);
                          peer_asn;
                          peer_addr;
                          router_id;
                          ebgp = span_len slots ebgp = 1 && s.[slots.(ebgp)] = '1';
                        },
                        prefix,
                        attrs )))
        | Ok _ -> Error "unexpected rib payload"
        | Error e -> Error (Format.asprintf "%a" Bgp.Msg.pp_error e))
    | _ -> Error "bad rib fields"

(* --- BFD ------------------------------------------------------------------- *)

let encode_bfd ~my_disc ~your_disc =
  string_of_int my_disc ^ "|" ^ string_of_int your_disc

let encode_part ~offset ~bytes = string_of_int offset ^ ":" ^ hex bytes

let decode_part s =
  match String.index_opt s ':' with
  | None -> Error "no part separator"
  | Some i -> (
      match
        (nat_sub s 0 i, unhex_sub s (i + 1) (String.length s - i - 1))
      with
      | offset, Ok bytes when offset >= 0 -> Ok (offset, bytes)
      | _ -> Error "bad part record")

let decode_bfd s =
  match String.split_on_char '|' s with
  | [ a; b ] -> (
      match (nat_of_string a, nat_of_string b) with
      | Some my_disc, Some your_disc -> Ok (my_disc, your_disc)
      | _ -> Error "bad bfd discs")
  | _ -> Error "bad bfd record"
