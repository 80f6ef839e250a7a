(* Layer replay probes: time one public layer function over a workload's
   own inputs, after its timed phase, in the traced run only.

   Each probe is one pass over the inputs under a benchmark span, so the
   span table shows it beside the workload's calls. The result is the
   op count, the mean host time per op and the mean bytes allocated per
   op; [units] lets a probe count bytes instead of calls (hex). *)

type result = { ops : int; units : int; ns : float; alloc_b : float }

let zero = { ops = 0; units = 0; ns = 0.; alloc_b = 0. }

let run name ?(units = fun _ -> 1) inputs f =
  if Array.length inputs = 0 then zero
  else
    Span.with_ ("probe." ^ name) (fun () ->
        let total_units = Array.fold_left (fun acc x -> acc + units x) 0 inputs in
        let a0 = Gc.allocated_bytes () in
        let t0 = Unix.gettimeofday () in
        Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
        let dt = Unix.gettimeofday () -. t0 in
        let da = Gc.allocated_bytes () -. a0 in
        let u = float_of_int (max 1 total_units) in
        {
          ops = Array.length inputs;
          units = total_units;
          ns = dt *. 1e9 /. u;
          alloc_b = da /. u;
        })

(* The inputs a workload leaves behind for the probes: the routes it
   checkpointed, and the store (with the RIB key prefixes) that holds
   them. Workloads whose inputs never reach these layers leave them
   empty and every probe reports zero ops. *)
type inputs = {
  routes : (Bgp.Rib.source * Netsim.Addr.prefix * Bgp.Attrs.t) array;
  store : Store.Server.t option;
  scan_prefixes : string list;
}

let no_inputs = { routes = [||]; store = None; scan_prefixes = [] }

(* [(prefix, attrs)] pairs grouped per attribute set, in first-seen
   order: how a speaker packs routes into UPDATE messages. *)
let group_by_attrs pairs =
  let groups = Hashtbl.create 512 in
  let order = ref [] in
  List.iter
    (fun (pfx, attrs) ->
      match Hashtbl.find_opt groups attrs with
      | Some l -> Hashtbl.replace groups attrs (pfx :: l)
      | None ->
          order := attrs :: !order;
          Hashtbl.replace groups attrs [ pfx ])
    pairs;
  List.rev_map (fun a -> (a, List.rev (Hashtbl.find groups a))) !order

let routes_per_update = 500

(* UPDATE messages carrying [routes], at most [routes_per_update]
   prefixes each. *)
let updates_of_routes routes =
  let update attrs nlri = Bgp.Msg.Update { withdrawn = []; attrs = Some attrs; nlri } in
  let rec chunks attrs acc n = function
    | [] -> if acc = [] then [] else [ update attrs acc ]
    | p :: rest when n = routes_per_update -> update attrs acc :: chunks attrs [ p ] 1 rest
    | p :: rest -> chunks attrs (p :: acc) (n + 1) rest
  in
  Array.of_list
    (List.concat_map
       (fun (attrs, pfxs) -> chunks attrs [] 0 pfxs)
       (group_by_attrs (Array.to_list (Array.map (fun (_, p, a) -> (p, a)) routes))))

type layer = {
  rib_encode : result;
  rib_decode : result;
  hex : result;
  unhex : result;
  msg_encode : result;
  msg_decode : result;
  rib_update : result;
  scan : result;
  scan_keys : int;
  roundtrip_failures : int;
}

(* Runs every probe and checks that each codec round-trips on these
   inputs (a mismatch counts as a failed operation of the traced run). *)
let all (inp : inputs) =
  let failures = ref 0 in
  let routes = inp.routes in
  let rib_encode =
    run "keys.encode_rib_entry" routes (fun (src, pfx, attrs) ->
        Tensor.Keys.encode_rib_entry src pfx attrs)
  in
  let encoded =
    Array.map (fun (s, p, a) -> Tensor.Keys.encode_rib_entry s p a) routes
  in
  let rib_decode =
    run "keys.decode_rib_entry" encoded Tensor.Keys.decode_rib_entry
  in
  Array.iteri
    (fun i e ->
      let _, pfx, attrs = routes.(i) in
      match Tensor.Keys.decode_rib_entry e with
      | Ok (_, p, a) when p = pfx && Bgp.Attrs.equal a attrs -> ()
      | _ -> incr failures)
    encoded;
  let msgs = updates_of_routes routes in
  let msg_encode = run "msg.encode" msgs (fun m -> Bgp.Msg.encode m) in
  let frames = Array.map (fun m -> Bgp.Msg.encode m) msgs in
  let msg_decode = run "msg.decode" frames (fun f -> Bgp.Msg.decode f) in
  Array.iteri
    (fun i f ->
      match Bgp.Msg.decode f with
      | Ok m when Bgp.Msg.update_count m = Bgp.Msg.update_count msgs.(i) -> ()
      | _ -> incr failures)
    frames;
  let hex = run "keys.hex" ~units:String.length frames Tensor.Keys.hex in
  let hexed = Array.map Tensor.Keys.hex frames in
  let unhex =
    run "keys.unhex" ~units:(fun s -> String.length s / 2) hexed
      Tensor.Keys.unhex
  in
  Array.iteri
    (fun i h ->
      match Tensor.Keys.unhex h with
      | Ok s when String.equal s frames.(i) -> ()
      | _ -> incr failures)
    hexed;
  let rib = Bgp.Rib.create () in
  let rib_update =
    run "rib.update" routes (fun (src, pfx, attrs) ->
        Bgp.Rib.update rib src pfx (Some attrs))
  in
  if Bgp.Rib.path_count rib <> Array.length routes then incr failures;
  let scan, scan_keys =
    match inp.store with
    | None -> (zero, 0)
    | Some server ->
        let prefixes = Array.of_list inp.scan_prefixes in
        let keys =
          Array.fold_left
            (fun acc p ->
              acc + List.length (Store.Server.keys_with_prefix server p))
            0 prefixes
        in
        (run "store.keys_with_prefix" prefixes (fun p ->
             Store.Server.keys_with_prefix server p),
         keys)
  in
  {
    rib_encode;
    rib_decode;
    hex;
    unhex;
    msg_encode;
    msg_decode;
    rib_update;
    scan;
    scan_keys;
    roundtrip_failures = !failures;
  }
