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

(* A non-negative decimal as every writer here prints it: ASCII digits
   only, so no sign, underscore or radix prefix; [None] on overflow.
   Top-level recursion rather than [String.for_all], whose local loop
   allocates a closure per call. *)
let rec digits_from s i =
  i = String.length s
  || (match s.[i] with '0' .. '9' -> digits_from s (i + 1) | _ -> false)

let nat_of_string s =
  if s <> "" && digits_from s 0 then int_of_string_opt s else None

let tail_int ~prefix key =
  if String.starts_with ~prefix key then
    let plen = String.length prefix in
    nat_of_string (String.sub key plen (String.length key - plen))
  else None

let seq_of_in_key cid key = tail_int ~prefix:(in_prefix cid) key
let offset_of_out_key cid key = tail_int ~prefix:(out_prefix cid) key

let vrf_prefix_of_rib_key ~service key =
  let pfx = rib_prefix ~service in
  let plen = String.length pfx in
  if String.starts_with ~prefix:pfx key then
    let rest = String.sub key plen (String.length key - plen) in
    match String.index_opt rest '|' with
    | Some i -> (
        let vrf = String.sub rest 0 i in
        let pstr = String.sub rest (i + 1) (String.length rest - i - 1) in
        match Netsim.Addr.prefix_of_string pstr with
        | p -> Some (vrf, p)
        | exception Invalid_argument _ -> None)
    | None -> None
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

let unhex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd hex length"
  else if not (String.for_all (fun c -> nibble c >= 0) s) then Error "bad hex"
  else
    Ok
      (String.init (n / 2) (fun i ->
           Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1])))

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
      match nat_of_string (String.sub s 0 i) with
      | None -> Error "bad ack"
      | Some ack -> Ok (ack, String.sub s (i + 1) (String.length s - i - 1)))

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

let decode_rib_entry s =
  let f = fields s in
  let get k = List.assoc_opt k f in
  match (get "sk", get "pasn", get "paddr", get "rid", get "ebgp", get "u") with
  | Some key, Some pasn, Some paddr, Some rid, Some ebgp, Some u_hex -> (
      match (nat_of_string pasn, unhex u_hex) with
      | Some peer_asn, Ok raw -> (
          match Bgp.Msg.decode raw with
          | Ok (Bgp.Msg.Update { attrs = Some attrs; nlri = [ prefix ]; _ }) -> (
              try
                Ok
                  ( {
                      Bgp.Rib.key;
                      peer_asn;
                      peer_addr = Netsim.Addr.of_string paddr;
                      router_id = Netsim.Addr.of_string rid;
                      ebgp = ebgp = "1";
                    },
                    prefix,
                    attrs )
              with Invalid_argument e -> Error e)
          | Ok _ -> Error "unexpected rib payload"
          | Error e -> Error (Format.asprintf "%a" Bgp.Msg.pp_error e))
      | _ -> Error "bad rib fields")
  | _ -> Error "missing rib field"

(* --- BFD ------------------------------------------------------------------- *)

let encode_bfd ~my_disc ~your_disc =
  string_of_int my_disc ^ "|" ^ string_of_int your_disc

let encode_part ~offset ~bytes = string_of_int offset ^ ":" ^ hex bytes

let decode_part s =
  match String.index_opt s ':' with
  | None -> Error "no part separator"
  | Some i -> (
      match
        ( nat_of_string (String.sub s 0 i),
          unhex (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some offset, Ok bytes -> Ok (offset, bytes)
      | _ -> Error "bad part record")

let decode_bfd s =
  match String.split_on_char '|' s with
  | [ a; b ] -> (
      match (nat_of_string a, nat_of_string b) with
      | Some my_disc, Some your_disc -> Ok (my_disc, your_disc)
      | _ -> Error "bad bfd discs")
  | _ -> Error "bad bfd record"
