type params = {
  pre_trees : int;
  pre_l1_nodes : int;
  meetings_per_tree : int;
  qualities : int;
  switch_bps : float;
  uplink_bps_per_sender : float;
  tracker_cells : int;
  adapted_fraction : float;
  leg_table_entries : int;  (** egress match-action entries (2^20) *)
}

let default =
  {
    pre_trees = 65_536;
    pre_l1_nodes = 16_777_216;
    meetings_per_tree = 2;
    qualities = 3;
    switch_bps = 12.8e12;
    uplink_bps_per_sender = 3.1e6;
    tracker_cells = 6 * 65_536;
    adapted_fraction = 0.1;
    leg_table_entries = 1 lsl 20;
  }

type design = Two_party | Nra | Ra_r | Ra_sr

let ceil_div a b = (a + b - 1) / b

(* Concurrent rate-adapted output streams the Stream Tracker can hold. *)
let tracker_streams p variant = p.tracker_cells / Seq_rewrite.words_per_stream variant

let check ~participants ~senders =
  if participants < 2 then invalid_arg "Capacity: participants < 2";
  if senders < 1 || senders > participants then invalid_arg "Capacity: senders"

let bottlenecks p variant design ~participants:n ~senders:s =
  check ~participants:n ~senders:s;
  let unlimited = max_int / 2 in
  let fabric_bps_per_meeting =
    (* every sender's stream crosses the fabric once in and once out per
       receiver; ingress + egress are both charged *)
    let ingress = float_of_int s *. p.uplink_bps_per_sender in
    let egress =
      match design with
      | Two_party -> float_of_int s *. p.uplink_bps_per_sender
      | _ -> float_of_int (s * (n - 1)) *. p.uplink_bps_per_sender
    in
    ingress +. egress
  in
  let bandwidth = int_of_float (p.switch_bps /. fabric_bps_per_meeting) in
  (* The per-participant address table only binds the two-party fast path:
     multi-party meetings exhaust PRE trees/nodes long before exact-match
     state, while two-party meetings use no PRE resources at all, leaving
     the 2^20-entry table (2 entries per meeting) as their ~533K ceiling. *)
  let leg_table =
    match design with
    | Two_party -> p.leg_table_entries / 2
    | Nra | Ra_r | Ra_sr -> max_int / 2
  in
  let trees =
    match design with
    | Two_party -> unlimited
    | Nra -> p.meetings_per_tree * p.pre_trees
    | Ra_r -> p.meetings_per_tree * p.pre_trees / p.qualities
    | Ra_sr ->
        (* two senders per tree; meetings with an odd sender count share
           their leftover pair slot with another meeting, giving the
           paper's 2T/(qN) closed form *)
        2 * p.pre_trees / (p.qualities * s)
  in
  let l1_nodes =
    match design with
    | Two_party -> unlimited
    | Nra -> p.pre_l1_nodes / n
    | Ra_r -> p.pre_l1_nodes / (p.qualities * n)
    | Ra_sr -> p.pre_l1_nodes / (p.qualities * ceil_div s 2 * 2 * (n - 1))
  in
  let tracker =
    match design with
    | Two_party | Nra -> unlimited
    | Ra_r | Ra_sr ->
        let adapted_legs =
          max 1
            (int_of_float
               (Float.round (p.adapted_fraction *. float_of_int (s * (n - 1)))))
        in
        tracker_streams p variant / adapted_legs
  in
  [
    ("PRE trees", trees);
    ("PRE L1 nodes", l1_nodes);
    ("switch bandwidth", bandwidth);
    ("egress leg table", leg_table);
    ("stream tracker", tracker);
  ]

let bottleneck ?(rewrite = Seq_rewrite.S_LR) design ~participants ~senders () =
  bottlenecks default rewrite design ~participants ~senders
  |> List.fold_left (fun (bn, bv) (name, v) -> if v < bv then (name, v) else (bn, bv))
       ("none", max_int)

let meetings_supported ?rewrite design ~participants ~senders () =
  snd (bottleneck ?rewrite design ~participants ~senders ())

let best_design ?(rewrite = Seq_rewrite.S_LR) ~rate_adapted ~sender_specific ~participants
    ~senders () =
  let candidates =
    if participants = 2 then [ Two_party ]
    else if not rate_adapted then [ Nra ]
    else if sender_specific then [ Ra_sr ]
    else [ Ra_r ]
  in
  let scored =
    List.map
      (fun d -> (d, meetings_supported ~rewrite d ~participants ~senders ()))
      candidates
  in
  List.fold_left (fun (bd, bv) (d, v) -> if v > bv then (d, v) else (bd, bv))
    (List.hd scored) (List.tl scored)

let gain_over_software ?rewrite design ~participants ~senders () =
  let scallop = meetings_supported ?rewrite design ~participants ~senders () in
  let software = Sfu.Capacity.meetings_supported ~participants ~senders ~media_types:2 () in
  float_of_int scallop /. float_of_int software
