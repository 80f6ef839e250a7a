type t = int

let mask32 = 0xFFFFFFFF
let of_int v = v land mask32
let to_int t = t

let of_octets a b c d =
  ((a land 0xFF) lsl 24)
  lor ((b land 0xFF) lsl 16)
  lor ((c land 0xFF) lsl 8)
  lor (d land 0xFF)

(* The value of the [len] ASCII decimal digits of [s] from [pos], or -1
   when [len] is 0 or over [max_digits] or a character is not a digit.
   [int_of_string] would also read "0x0a", "1_0", "+10", "0b1010" and
   "-0". A top-level loop over indices: no substring, no closure. *)
let rec digits s i stop acc =
  if i = stop then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> digits s (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

let decimal ~max_digits s pos len =
  if len = 0 || len > max_digits then -1 else digits s pos (pos + len) 0

let bad_addr s pos len =
  invalid_arg (Printf.sprintf "Addr.of_string: %S" (String.sub s pos len))

let rec dot_or_stop s i stop =
  if i = stop || s.[i] = '.' then i else dot_or_stop s (i + 1) stop

(* Octets [k..3] of the dotted quad in [s] from [i] to [stop], folded
   into [acc]; -1 unless the span holds exactly [4 - k] dot-separated
   octets. *)
let rec octets s i stop k acc =
  let j = dot_or_stop s i stop in
  let o = decimal ~max_digits:3 s i (j - i) in
  if o < 0 || o > 255 then -1
  else if k = 3 then if j = stop then (acc lsl 8) lor o else -1
  else if j = stop then -1
  else octets s (j + 1) stop (k + 1) ((acc lsl 8) lor o)

let of_substring s pos len =
  match octets s pos (pos + len) 0 0 with
  | -1 -> bad_addr s pos len
  | v -> v

let of_string s = of_substring s 0 (String.length s)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d"
    ((t lsr 24) land 0xFF)
    ((t lsr 16) land 0xFF)
    ((t lsr 8) land 0xFF)
    (t land 0xFF)

let pp fmt t = Format.pp_print_string fmt (to_string t)
let compare = Int.compare
let equal = Int.equal
let hash = Hashtbl.hash
let succ t = (t + 1) land mask32
let offset t n = (t + n) land mask32

type prefix = { base : t; len : int }

let netmask len = if len = 0 then 0 else mask32 land (mask32 lsl (32 - len))

let prefix addr len =
  if len < 0 || len > 32 then
    invalid_arg (Printf.sprintf "Addr.prefix: bad length %d" len);
  { base = addr land netmask len; len }

let prefix_of_string s =
  match String.index_opt s '/' with
  | None -> invalid_arg (Printf.sprintf "Addr.prefix_of_string: %S" s)
  | Some i -> (
      let addr = of_substring s 0 i in
      match decimal ~max_digits:2 s (i + 1) (String.length s - i - 1) with
      | len when len >= 0 -> prefix addr len
      | _ -> invalid_arg (Printf.sprintf "Addr.prefix_of_string: %S" s))

let prefix_to_string p = Printf.sprintf "%s/%d" (to_string p.base) p.len
let pp_prefix fmt p = Format.pp_print_string fmt (prefix_to_string p)

let compare_prefix p q =
  match Int.compare p.base q.base with 0 -> Int.compare p.len q.len | c -> c

let equal_prefix p q = p.base = q.base && p.len = q.len
let contains p a = a land netmask p.len = p.base

let subsumes p q = q.len >= p.len && contains p q.base

let prefix_size p = if p.len = 0 then 1 lsl 32 else 1 lsl (32 - p.len)

let host_in p n =
  if n < 0 || n >= prefix_size p then
    invalid_arg
      (Printf.sprintf "Addr.host_in: %d outside %s" n (prefix_to_string p));
  offset p.base n
