(** Store key schema and record codecs (§3.1.2).

    Every replicated datum lives under a key whose leading component
    selects the record kind and whose connection id scopes it to one BGP
    session (one container VRF = one peering AS):

    - [meta|<conn>] — session metadata: addresses, ports, negotiated
      parameters, the peer's OPEN, initial sequence numbers (the
      TCP_REPAIR bootstrap of "Matching ACK numbers");
    - [ack|<conn>] — the replicated-ACK watermark: the highest inferred
      ACK whose message is durable;
    - [in|<conn>|<seq>] — a received message awaiting application
      (deleted once applied and checkpointed — the ≤ 64 KB storage-bound
      argument);
    - [out|<conn>|<offset>] — a sent message, keyed by its byte offset in
      the TCP send stream (rebuilds the sender buffer on takeover);
    - [outtrim|<conn>] — send-stream offset acknowledged by the peer
      (records below it are deleted);
    - [bfd|<conn>] — the BFD discriminator pair (the agent relay's and
      the resumed session's identity);
    - [rib|<service>|<vrf>|<prefix>] — routing-table checkpoint entries.

    Values with binary content (BGP frames) are hex-encoded inside
    line-oriented records, so the store holds plain strings. *)

type conn_id = string
(** ["<service>|<vrf>"]. *)

val conn_id : service:string -> vrf:string -> conn_id

val epoch_cid : conn_id -> int -> conn_id
(** Epoch-qualified connection id naming one TCP connection's stream
    key space. Stream-scoped records (ack/in/out/outtrim/part) are
    written under [epoch_cid cid epoch]; the meta record carries the
    epoch, so recovery reads exactly the key space of the connection it
    resumes and a straggler write from a torn-down predecessor stream
    can never corrupt the successor's cursors. [epoch_cid cid 0 = cid]. *)

val meta_key : conn_id -> string
val ack_key : conn_id -> string
val in_key : conn_id -> int -> string
val in_prefix : conn_id -> string
val out_key : conn_id -> int -> string
val out_prefix : conn_id -> string
val outtrim_key : conn_id -> string
val bfd_key : conn_id -> string
val part_key : conn_id -> string
(** Key of the replicated partial-frame tail: written when a stalled
    sender has delivered only a fragment of a message, so the fragment's
    ACK can be released without breaking recoverability. *)

val rib_key : service:string -> vrf:string -> Netsim.Addr.prefix -> string
val rib_prefix : service:string -> string

val nat_of_string : string -> int option
(** The one integer reader of every decoder here: a non-negative decimal
    of ASCII digits only (leading zeros allowed), as [string_of_int] and
    [%012d] write it. A sign, an underscore, a radix prefix or a value
    past [max_int] gives [None]. *)

val seq_of_in_key : conn_id -> string -> int option
val offset_of_out_key : conn_id -> string -> int option
val vrf_of_rib_key : service:string -> string -> string option
(** The [<vrf>] of a [rib|<service>|<vrf>|<prefix>] key, or [None] when
    the key is not under [rib_prefix ~service] or has no [|] after the
    VRF. The prefix is not read: the record's value carries it. *)

(** {1 Record codecs} *)

type meta = {
  epoch : int;  (** Connection epoch naming the stream-scoped key space. *)
  vrf : string;
  local_addr : Netsim.Addr.t;
  local_port : int;
  peer_addr : Netsim.Addr.t;
  peer_port : int;
  local_asn : int;
  hold_time : int;  (** Negotiated. *)
  as4 : bool;
  iss : int;
  irs : int;
  mss : int;
  rcv_wnd : int;
  peer_open_raw : string;  (** Encoded OPEN frame. *)
  peer_supports_gr : bool;
  peer_gr_restart_time : int;
}

val encode_meta : meta -> string
val decode_meta : string -> (meta, string) result

val encode_in_record : ack:int -> raw:string -> string
val decode_in_record : string -> (int * string, string) result
(** [(inferred_ack, raw_frame)]. *)

val encode_rib_entry : Bgp.Rib.source -> Netsim.Addr.prefix -> Bgp.Attrs.t -> string
(** [sk=<key>;pasn=<asn>;paddr=<addr>;rid=<addr>;ebgp=<0|1>;u=<hex>],
    where [<hex>] is {!hex} of the one-prefix UPDATE frame
    [Bgp.Msg.encode (Update {withdrawn = []; attrs = Some attrs; nlri =
    [prefix]})]. Raises that encoder's [Invalid_argument] when the frame
    would exceed [Bgp.Msg.max_size]. *)

type rib_encoder
(** A one-entry memo for encoding many routes that share a source and
    attributes, as every prefix of one UPDATE does. It holds the record
    bytes fixed by the (source, attrs) pair: the source fields, the
    frame marker and the hex of the attribute block. *)

val rib_encoder : unit -> rib_encoder

val encode_rib_entry_with :
  rib_encoder -> Bgp.Rib.source -> Netsim.Addr.prefix -> Bgp.Attrs.t -> string
(** Same bytes as {!encode_rib_entry}, allocating about the record's
    size per call while the memo hits. The memo hits when [source] and
    [attrs] are physically equal ([==]) to the previous call's; both are
    immutable, so a hit is always correct. A miss (a new source, or
    attributes rebuilt per prefix, even if structurally equal) encodes
    the pair again and replaces the memo; it costs time, never
    correctness. An encoder is owned by one writer: it is not shared
    across domains. *)

val decode_rib_entry :
  string -> (Bgp.Rib.source * Netsim.Addr.prefix * Bgp.Attrs.t, string) result
(** Inverse of {!encode_rib_entry}. Fields may come in any order and the
    first of each name wins; a missing field, a bad number, address or
    hex, or a frame that is not a one-prefix UPDATE is an [Error]. *)

val encode_bfd : my_disc:int -> your_disc:int -> string
val decode_bfd : string -> (int * int, string) result

val encode_part : offset:int -> bytes:string -> string
(** [offset] is the count of parsed stream bytes the fragment follows. *)

val decode_part : string -> (int * string, string) result

val hex : string -> string
val unhex : string -> (string, string) result
(** Inverse of {!hex}. Accepts exactly even-length strings of
    [[0-9a-fA-F]]; anything else is an [Error]. *)
