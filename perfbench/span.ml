(* Benchmark-side spans: wall-clock intervals the harness records around
   its own calls into the library's public entry points.

   Recording is off unless switched on by [set_recording] (the traced
   repetitions); then every [with_] call keeps one record in memory,
   whose parent is the span open when it started. Nothing is written
   until [write_jsonl] at the end of the run, so recording costs two
   clock reads, two allocation reads and one cons per span. *)

type t = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  name : string;
  start_s : float;
  mutable stop_s : float;
  mutable alloc_b : float;
}

let on = ref false
let next_id = ref 0
let stack : t list ref = ref []
let finished : t list ref = ref []

let set_recording b = on := b

let with_ name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let sp =
      { id = !next_id; parent; name; start_s = Unix.gettimeofday ();
        stop_s = 0.; alloc_b = Gc.allocated_bytes () }
    in
    incr next_id;
    stack := sp :: !stack;
    Fun.protect
      ~finally:(fun () ->
        sp.stop_s <- Unix.gettimeofday ();
        sp.alloc_b <- Gc.allocated_bytes () -. sp.alloc_b;
        stack := List.tl !stack;
        finished := sp :: !finished)
      f
  end

let spans () = List.rev !finished
let duration sp = sp.stop_s -. sp.start_s

(* Self time: the span's duration minus the part its direct children
   cover. Children of one span run sequentially on one thread, so the
   covered part is the sum of their durations. *)
let self_times () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace child_time sp.parent
          (duration sp
          +. Option.value ~default:0. (Hashtbl.find_opt child_time sp.parent)))
    !finished;
  List.map
    (fun sp ->
      ( sp,
        duration sp
        -. Option.value ~default:0. (Hashtbl.find_opt child_time sp.id) ))
    (spans ())

(* Per-name totals, in first-seen order: (name, count, total_s, self_s). *)
let summary () =
  let rows = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (sp, self) ->
      match Hashtbl.find_opt rows sp.name with
      | Some (n, total, s) ->
          Hashtbl.replace rows sp.name (n + 1, total +. duration sp, s +. self)
      | None ->
          order := sp.name :: !order;
          Hashtbl.replace rows sp.name (1, duration sp, self))
    (self_times ());
  List.rev_map
    (fun name ->
      let n, total, self = Hashtbl.find rows name in
      (name, n, total, self))
    !order

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun (sp, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f,\"self_s\":%.6f,\"alloc_b\":%.0f}\n"
        sp.id sp.parent sp.name sp.start_s sp.stop_s self sp.alloc_b)
    (self_times ());
  close_out oc
