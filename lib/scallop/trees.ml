module Pre = Tofino.Pre
module Dd = Av1.Dd

type design = Two_party | Nra | Ra_r | Ra_sr

let meetings_per_tree = 2
let qualities = 3

exception Capacity of string

(* Participant index inside a meeting slot; RIDs must be unique per tree, so
   slot k uses the range [k * rid_stride, (k+1) * rid_stride). *)
let rid_stride = 1024

type group = {
  g_design : design;
  mgids : int array;  (** 1 for Nra; [qualities] for Ra_r *)
  slot_used : bool array;  (** length [meetings_per_tree] *)
}

type ra_sr_pair = {
  pair_mgids : int array;  (** per quality *)
  mutable pair_senders : int list;
      (** 1 or 2 sender ids; tag = position + 1, so positions are stable:
          a removed sender becomes a [-1] hole, refilled before new pairs
          open *)
}

type impl =
  | I_two_party
  | I_shared of {
      group : group;
      slot : int;
      pidx : (int, int) Hashtbl.t;  (** participant -> index *)
      nodes : (int * int, Pre.node_id) Hashtbl.t;  (** (participant, quality) -> node *)
    }
  | I_ra_sr of {
      mutable pairs : ra_sr_pair list;
      ridx : (int, int) Hashtbl.t;  (** participant -> receiver index *)
      nodes : (int * int * int, Pre.node_id) Hashtbl.t;
          (** (sender, receiver, quality) -> node *)
    }

type handle = {
  id : int;
  h_design : design;
  mutable h_participants : (int * int) list;
  mutable h_senders : int list;
  targets : (int, Dd.decode_target) Hashtbl.t;  (** receiver -> target *)
  pair_targets : (int * int, Dd.decode_target) Hashtbl.t;  (** (sender, receiver) *)
  mutable impl : impl;
  mutable next_pidx : int;
  mutable free_pidx : int list;  (** indices reclaimed from removed participants *)
  mutable rev : int array;
      (** index -> participant (-1 = hole): the inverse of the impl's
          pidx/ridx table, consulted once per fan-out replica on the data
          path — an O(participants) fold there would make every packet
          O(receivers x participants) *)
  mutable rev_valid : bool;
}

type t = {
  pre : Pre.t;
  mutable next_mgid : int;
  mutable free_mgids : int list;
  mutable half_open : (design * group) list;
  mutable next_handle : int;
  l2_refs : (int, int ref) Hashtbl.t;
      (** L2-XID -> number of live L1 nodes excluding on it; the PRE entry
          is released when the count drops to zero *)
}

let create pre =
  {
    pre;
    next_mgid = 1;
    free_mgids = [];
    half_open = [];
    next_handle = 0;
    l2_refs = Hashtbl.create 64;
  }

let alloc_mgid t =
  match t.free_mgids with
  | m :: rest ->
      t.free_mgids <- rest;
      m
  | [] ->
      let m = t.next_mgid in
      t.next_mgid <- t.next_mgid + 1;
      m

let free_mgid t m = t.free_mgids <- m :: t.free_mgids

let wrap_capacity f = try f () with Pre.Resource_exhausted what -> raise (Capacity what)

let port_of h p =
  match List.assoc_opt p h.h_participants with
  | Some port -> port
  | None -> invalid_arg (Printf.sprintf "Trees: participant %d not in meeting %d" p h.id)

let layer_index = Dd.layer_index

let target_of h receiver =
  Option.value (Hashtbl.find_opt h.targets receiver) ~default:Dd.DT_30fps

let pair_target_of h sender receiver =
  match Hashtbl.find_opt h.pair_targets (sender, receiver) with
  | Some dt -> dt
  | None -> target_of h receiver

(* Ensure an L2 XID exists that excludes exactly this port. Reference-
   counted per participant registration: migration registers the new
   design's nodes before the old ones are torn down, so the count covers
   the overlap and the PRE entry survives exactly as long as some tree
   membership needs it. *)
let ensure_l2_xid t port =
  match Hashtbl.find_opt t.l2_refs port with
  | Some r -> incr r
  | None ->
      Hashtbl.replace t.l2_refs port (ref 1);
      Pre.set_l2_xid_ports t.pre ~xid:port ~ports:[ port ]

let release_l2_xid t port =
  match Hashtbl.find_opt t.l2_refs port with
  | None -> ()
  | Some r ->
      decr r;
      if !r <= 0 then begin
        Hashtbl.remove t.l2_refs port;
        Pre.remove_l2_xid t.pre ~xid:port
      end

(* --- shared-group designs (Nra, Ra_r) ------------------------------------ *)

let group_tree_count = function Nra -> 1 | Ra_r -> qualities | _ -> assert false

(* Which quality-trees a receiver belongs to, given its target. Tree 0
   carries T0 packets (everyone needs those); tree [i] only members whose
   target index >= i. Nra has the single tree 0. *)
let member_trees design target_idx =
  match design with
  | Nra -> [ 0 ]
  | Ra_r -> List.filter (fun i -> i <= target_idx) [ 0; 1; 2 ]
  | _ -> assert false

let take_slot t design =
  let rec find = function
    | [] -> None
    | (d, g) :: rest when d = design -> (
        match Array.to_list g.slot_used |> List.mapi (fun i u -> (i, u)) |> List.find_opt (fun (_, u) -> not u) with
        | Some (slot, _) -> Some (g, slot, rest)
        | None -> find rest)
    | _ :: rest -> find rest
  in
  match find t.half_open with
  | Some (g, slot, _) ->
      g.slot_used.(slot) <- true;
      if Array.for_all Fun.id g.slot_used then
        t.half_open <- List.filter (fun (_, g') -> g' != g) t.half_open;
      (g, slot)
  | None ->
      wrap_capacity (fun () ->
          let n = group_tree_count design in
          let mgids = Array.init n (fun _ -> alloc_mgid t) in
          Array.iter (fun m -> Pre.create_tree t.pre ~mgid:m ~nodes:[]) mgids;
          let g = { g_design = design; mgids; slot_used = Array.make meetings_per_tree false } in
          g.slot_used.(0) <- true;
          t.half_open <- (design, g) :: t.half_open;
          (g, 0))

let release_slot t g slot =
  g.slot_used.(slot) <- false;
  if Array.exists Fun.id g.slot_used then begin
    if not (List.exists (fun (_, g') -> g' == g) t.half_open) then
      t.half_open <- (g.g_design, g) :: t.half_open
  end
  else begin
    t.half_open <- List.filter (fun (_, g') -> g' != g) t.half_open;
    Array.iter
      (fun m ->
        Pre.destroy_tree t.pre m;
        free_mgid t m)
      g.mgids
  end

let pidx_of h tbl p =
  match Hashtbl.find_opt tbl p with
  | Some i -> i
  | None ->
      let i =
        match h.free_pidx with
        | i :: rest ->
            h.free_pidx <- rest;
            i
        | [] ->
            if h.next_pidx >= rid_stride then
              raise (Capacity "participants per meeting slot");
            let i = h.next_pidx in
            h.next_pidx <- i + 1;
            i
      in
      Hashtbl.replace tbl p i;
      h.rev_valid <- false;
      i

(* Reclaim a departed participant's index (and thus its RID) for reuse —
   without this, a long-lived meeting with churn exhausts its slot's
   [rid_stride] after 1024 cumulative joins. *)
let free_pidx_of h tbl p =
  match Hashtbl.find_opt tbl p with
  | None -> ()
  | Some i ->
      Hashtbl.remove tbl p;
      h.free_pidx <- i :: h.free_pidx;
      h.rev_valid <- false

let shared_add_participant t h group slot pidx nodes (p, port) =
  ensure_l2_xid t port;
  let idx = pidx_of h pidx p in
  let rid = (slot * rid_stride) + idx in
  let tag = slot + 1 in
  let tidx = Dd.index_of_target (target_of h p) in
  List.iter
    (fun q ->
      wrap_capacity (fun () ->
          let node =
            Pre.create_l1_node t.pre ~rid ~l1_xid:tag ~prune_enabled:true ~ports:[ port ] ()
          in
          Pre.add_node_to_tree t.pre group.mgids.(q) node;
          Hashtbl.replace nodes (p, q) node))
    (member_trees group.g_design tidx)

let shared_remove_participant t group nodes p =
  let released = ref false in
  List.iter
    (fun q ->
      match Hashtbl.find_opt nodes (p, q) with
      | Some node ->
          if not !released then begin
            (* one ensure_l2_xid per registration; release it once, on the
               port this participant's nodes were built for *)
            List.iter (release_l2_xid t) (Pre.node_ports t.pre node);
            released := true
          end;
          Pre.remove_node_from_tree t.pre group.mgids.(q) node;
          Pre.destroy_l1_node t.pre node;
          Hashtbl.remove nodes (p, q)
      | None -> ())
    [ 0; 1; 2 ]

(* --- Ra_sr ----------------------------------------------------------------- *)

let ridx_of h tbl p = pidx_of h tbl p

let ra_sr_pair_of pairs sender =
  List.find_opt (fun pair -> List.mem sender pair.pair_senders) pairs

let ra_sr_node_sync t h (impl_pairs, ridx, nodes) ~sender ~receiver ~port =
  (* ensure the (sender, receiver) node set matches the pair target *)
  match ra_sr_pair_of impl_pairs sender with
  | None -> ()
  | Some pair ->
      let tag =
        match pair.pair_senders with
        | [ s ] when s = sender -> 1
        | [ _; s ] when s = sender -> 2
        | s :: _ when s = sender -> 1
        | _ -> 1
      in
      let target_idx = Dd.index_of_target (pair_target_of h sender receiver) in
      let idx = ridx_of h ridx receiver in
      let rid = (tag * rid_stride) + idx in
      List.iter
        (fun q ->
          let key = (sender, receiver, q) in
          let want = q <= target_idx in
          match (Hashtbl.find_opt nodes key, want) with
          | None, true ->
              wrap_capacity (fun () ->
                  let node =
                    Pre.create_l1_node t.pre ~rid ~l1_xid:tag ~prune_enabled:true
                      ~ports:[ port ] ()
                  in
                  Pre.add_node_to_tree t.pre pair.pair_mgids.(q) node;
                  Hashtbl.replace nodes key node)
          | Some node, false ->
              Pre.remove_node_from_tree t.pre pair.pair_mgids.(q) node;
              Pre.destroy_l1_node t.pre node;
              Hashtbl.remove nodes key
          | None, false | Some _, true -> ())
        [ 0; 1; 2 ]

let ra_sr_add_sender t h (pairs_ref, ridx, nodes) sender =
  (* A sender's tag (and with it the RID range and L1-XID of all its
     nodes) is its *position* in the pair, so positions must stay stable
     across removals: departed senders leave a [-1] hole, refilled here
     before any new pair is opened. *)
  let fill_hole p =
    let filled = ref false in
    p.pair_senders <-
      List.map
        (fun s ->
          if s = -1 && not !filled then begin
            filled := true;
            sender
          end
          else s)
        p.pair_senders
  in
  (match List.find_opt (fun p -> List.mem (-1) p.pair_senders) !pairs_ref with
  | Some p -> fill_hole p
  | None -> (
      match List.find_opt (fun p -> List.length p.pair_senders < 2) !pairs_ref with
      | Some p -> p.pair_senders <- p.pair_senders @ [ sender ]
      | None ->
          wrap_capacity (fun () ->
              let mgids = Array.init qualities (fun _ -> alloc_mgid t) in
              Array.iter (fun m -> Pre.create_tree t.pre ~mgid:m ~nodes:[]) mgids;
              pairs_ref := !pairs_ref @ [ { pair_mgids = mgids; pair_senders = [ sender ] } ])));
  (* add nodes towards every other participant *)
  List.iter
    (fun (r, port) ->
      if r <> sender then
        ra_sr_node_sync t h (!pairs_ref, ridx, nodes) ~sender ~receiver:r ~port)
    h.h_participants

(* --- registration ----------------------------------------------------------- *)

let register_meeting t design ~participants ~senders =
  let h =
    {
      id = t.next_handle;
      h_design = design;
      h_participants = [];
      h_senders = [];
      targets = Hashtbl.create 8;
      pair_targets = Hashtbl.create 8;
      impl = I_two_party;
      next_pidx = 0;
      free_pidx = [];
      rev = [||];
      rev_valid = false;
    }
  in
  t.next_handle <- t.next_handle + 1;
  (match design with
  | Two_party ->
      if List.length participants <> 2 then
        invalid_arg "Trees.register_meeting: Two_party needs exactly 2 participants";
      h.impl <- I_two_party;
      h.h_participants <- participants;
      h.h_senders <- senders
  | Nra | Ra_r ->
      let group, slot = take_slot t design in
      let pidx = Hashtbl.create 8 and nodes = Hashtbl.create 16 in
      h.impl <- I_shared { group; slot; pidx; nodes };
      h.h_senders <- senders;
      List.iter
        (fun (p, port) ->
          h.h_participants <- h.h_participants @ [ (p, port) ];
          shared_add_participant t h group slot pidx nodes (p, port))
        participants
  | Ra_sr ->
      let pairs = ref [] and ridx = Hashtbl.create 8 and nodes = Hashtbl.create 32 in
      h.impl <- I_ra_sr { pairs = []; ridx; nodes };
      h.h_participants <- participants;
      h.h_senders <- [];
      List.iter
        (fun s ->
          h.h_senders <- h.h_senders @ [ s ];
          ra_sr_add_sender t h (pairs, ridx, nodes) s)
        senders;
      h.impl <- I_ra_sr { pairs = !pairs; ridx; nodes });
  h

let unregister_meeting t h =
  match h.impl with
  | I_two_party -> ()
  | I_shared { group; slot; nodes; _ } ->
      List.iter (fun (p, _) -> shared_remove_participant t group nodes p) h.h_participants;
      release_slot t group slot
  | I_ra_sr { pairs; nodes; _ } ->
      Hashtbl.iter
        (fun (sender, _, q) node ->
          match ra_sr_pair_of pairs sender with
          | Some pair ->
              Pre.remove_node_from_tree t.pre pair.pair_mgids.(q) node;
              Pre.destroy_l1_node t.pre node
          | None -> ())
        nodes;
      Hashtbl.reset nodes;
      List.iter
        (fun pair ->
          Array.iter
            (fun m ->
              Pre.destroy_tree t.pre m;
              free_mgid t m)
            pair.pair_mgids)
        pairs

let design_of h = h.h_design

let add_participant t h (p, port) ~sends =
  (match h.impl with
  | I_two_party ->
      if List.length h.h_participants >= 2 then
        invalid_arg "Trees.add_participant: Two_party is full"
  | _ -> ());
  h.h_participants <- h.h_participants @ [ (p, port) ];
  if sends then h.h_senders <- h.h_senders @ [ p ];
  match h.impl with
  | I_two_party -> ()
  | I_shared { group; slot; pidx; nodes } ->
      shared_add_participant t h group slot pidx nodes (p, port)
  | I_ra_sr ({ ridx; nodes; _ } as impl) ->
      (* new participant receives from every existing sender *)
      List.iter
        (fun s ->
          if s <> p then ra_sr_node_sync t h (impl.pairs, ridx, nodes) ~sender:s ~receiver:p ~port)
        h.h_senders;
      if sends then begin
        let pairs_ref = ref impl.pairs in
        ra_sr_add_sender t h (pairs_ref, ridx, nodes) p;
        impl.pairs <- !pairs_ref
      end

let remove_participant t h p =
  h.h_participants <- List.filter (fun (x, _) -> x <> p) h.h_participants;
  h.h_senders <- List.filter (fun x -> x <> p) h.h_senders;
  Hashtbl.remove h.targets p;
  match h.impl with
  | I_two_party -> ()
  | I_shared { group; pidx; nodes; _ } ->
      shared_remove_participant t group nodes p;
      free_pidx_of h pidx p
  | I_ra_sr ({ pairs; ridx; nodes; _ } as impl) ->
      let snapshot = Hashtbl.copy nodes in
      Hashtbl.iter
        (fun (s, r, q) node ->
          if s = p || r = p then begin
            (match ra_sr_pair_of pairs s with
            | Some pair ->
                Pre.remove_node_from_tree t.pre pair.pair_mgids.(q) node;
                Pre.destroy_l1_node t.pre node
            | None -> ());
            Hashtbl.remove nodes (s, r, q)
          end)
        snapshot;
      free_pidx_of h ridx p;
      (* leave a hole so the surviving sender keeps its position — the
         position encodes its tag, i.e. the RID range and L1-XID its
         nodes were created under; compacting the list would make the
         sender's own route exclude its own branches *)
      List.iter
        (fun pair ->
          pair.pair_senders <-
            List.map (fun s -> if s = p then -1 else s) pair.pair_senders)
        pairs;
      let live, dead =
        List.partition (fun pair -> List.exists (fun s -> s >= 0) pair.pair_senders) pairs
      in
      List.iter
        (fun pair -> Array.iter (fun m -> Pre.destroy_tree t.pre m) pair.pair_mgids)
        dead;
      impl.pairs <- live

(* --- targets ------------------------------------------------------------- *)

let resync_receiver t h receiver =
  match h.impl with
  | I_two_party -> ()
  | I_shared { group; slot; pidx; nodes } ->
      if group.g_design = Ra_r then begin
        let port = port_of h receiver in
        shared_remove_participant t group nodes receiver;
        (* re-add with current target; pidx is stable so the RID persists *)
        ignore (pidx_of h pidx receiver);
        shared_add_participant t h group slot pidx nodes (receiver, port)
      end
  | I_ra_sr ({ ridx; nodes; _ } as impl) ->
      let port = port_of h receiver in
      List.iter
        (fun s ->
          if s <> receiver then
            ra_sr_node_sync t h (impl.pairs, ridx, nodes) ~sender:s ~receiver ~port)
        h.h_senders

let set_receiver_target t h ~receiver target =
  Hashtbl.replace h.targets receiver target;
  (match h.impl with
  | I_ra_sr _ ->
      List.iter (fun s -> Hashtbl.replace h.pair_targets (s, receiver) target) h.h_senders
  | _ -> ());
  resync_receiver t h receiver

let set_pair_target t h ~sender ~receiver target =
  (match h.impl with
  | I_ra_sr _ -> ()
  | _ -> invalid_arg "Trees.set_pair_target: meeting is not Ra_sr");
  Hashtbl.replace h.pair_targets (sender, receiver) target;
  resync_receiver t h receiver

(* --- routing --------------------------------------------------------------- *)

type route =
  | Unicast of { port : int; receiver : int }
  | Replicate of { mgid : int; l1_xid : int; rid : int; l2_xid : int }
  | No_receivers

let route_media _t h ~sender ~layer =
  match h.impl with
  | I_two_party -> (
      match List.find_opt (fun (p, _) -> p <> sender) h.h_participants with
      | Some (receiver, port) -> Unicast { port; receiver }
      | None -> No_receivers)
  | I_shared { group; slot; pidx; _ } ->
      let q = match group.g_design with Nra -> 0 | _ -> layer_index layer in
      (* the packet's L1-XID names the *other* slot so its branches prune *)
      let other_tag = meetings_per_tree - slot in
      let rid =
        match Hashtbl.find_opt pidx sender with
        | Some idx -> (slot * rid_stride) + idx
        | None -> -1
      in
      let l2_xid = try port_of h sender with Invalid_argument _ -> 0 in
      Replicate { mgid = group.mgids.(q); l1_xid = other_tag; rid; l2_xid }
  | I_ra_sr { pairs; _ } -> (
      match ra_sr_pair_of pairs sender with
      | None -> No_receivers
      | Some pair ->
          let q = layer_index layer in
          let tag =
            match pair.pair_senders with
            | [ a; _ ] when a = sender -> 1
            | [ _; b ] when b = sender -> 2
            | _ -> 1
          in
          let other_tag = 3 - tag in
          Replicate { mgid = pair.pair_mgids.(q); l1_xid = other_tag; rid = -1; l2_xid = 0 })

(* Lazily (re)built inverse of the handle's participant-index table;
   invalidated by [pidx_of]/[free_pidx_of]. The indices are injective, so
   the array holds at most one participant per slot. *)
let rev_of h tbl =
  if not h.rev_valid then begin
    if Array.length h.rev < rid_stride then h.rev <- Array.make rid_stride (-1)
    else Array.fill h.rev 0 rid_stride (-1);
    Hashtbl.iter (fun p i -> h.rev.(i) <- p) tbl;
    h.rev_valid <- true
  end;
  h.rev

let receiver_of_replica _t h ~mgid ~rid =
  ignore mgid;
  match h.impl with
  | I_two_party -> -1
  | I_shared { slot; pidx; _ } ->
      if rid / rid_stride <> slot then -1 else (rev_of h pidx).(rid mod rid_stride)
  | I_ra_sr { ridx; _ } -> (rev_of h ridx).(rid mod rid_stride)

let participants h = h.h_participants

(* --- introspection (snapshot layer) ---------------------------------------- *)

let handle_id h = h.id

type node_binding = {
  nb_node : Pre.node_id;
  nb_receiver : int;
  nb_sender : int option;  (** [Some s] only under Ra_sr *)
  nb_quality : int;
}

let node_bindings h =
  match h.impl with
  | I_two_party -> []
  | I_shared { nodes; _ } ->
      Hashtbl.fold
        (fun (p, q) node acc ->
          { nb_node = node; nb_receiver = p; nb_sender = None; nb_quality = q } :: acc)
        nodes []
  | I_ra_sr { nodes; _ } ->
      Hashtbl.fold
        (fun (s, r, q) node acc ->
          { nb_node = node; nb_receiver = r; nb_sender = Some s; nb_quality = q } :: acc)
        nodes []

let l2_xid_refs t = Hashtbl.fold (fun xid r acc -> (xid, !r) :: acc) t.l2_refs []

let migrate t h design =
  (* step 1: build the new trees; step 2 is the caller swapping handles;
     step 3: free the old trees *)
  let h' = register_meeting t design ~participants:h.h_participants ~senders:h.h_senders in
  Hashtbl.iter (fun r dt -> set_receiver_target t h' ~receiver:r dt) h.targets;
  if design = Ra_sr then
    Hashtbl.iter (fun (s, r) dt -> set_pair_target t h' ~sender:s ~receiver:r dt) h.pair_targets;
  unregister_meeting t h;
  h'
