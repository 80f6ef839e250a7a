type t = int

let mask32 = 0xFFFFFFFF
let of_int v = v land mask32
let to_int t = t

let of_octets a b c d =
  ((a land 0xFF) lsl 24)
  lor ((b land 0xFF) lsl 16)
  lor ((c land 0xFF) lsl 8)
  lor (d land 0xFF)

(* The value of a field of 1 to [max_digits] ASCII decimal digits, or -1
   for anything else. [int_of_string] would also read "0x0a", "1_0",
   "+10", "0b1010" and "-0". *)
let decimal ~max_digits s =
  let n = String.length s in
  if n = 0 || n > max_digits then -1
  else
    String.fold_left
      (fun acc c ->
        match c with
        | '0' .. '9' when acc >= 0 -> (acc * 10) + Char.code c - Char.code '0'
        | _ -> -1)
      0 s

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let octet f = decimal ~max_digits:3 f in
      match (octet a, octet b, octet c, octet d) with
      | a, b, c, d
        when a >= 0 && a < 256 && b >= 0 && b < 256 && c >= 0 && c < 256
             && d >= 0 && d < 256 ->
          of_octets a b c d
      | _ -> invalid_arg (Printf.sprintf "Addr.of_string: %S" s))
  | _ -> invalid_arg (Printf.sprintf "Addr.of_string: %S" s)

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
      let addr = of_string (String.sub s 0 i) in
      match
        decimal ~max_digits:2 (String.sub s (i + 1) (String.length s - i - 1))
      with
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
