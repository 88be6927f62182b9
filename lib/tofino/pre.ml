type limits = { max_trees : int; max_l1_nodes : int; max_rids_per_tree : int }

let tofino2_limits = { max_trees = 65_536; max_l1_nodes = 16_777_216; max_rids_per_tree = 65_536 }

type node_id = int
type mgid = int

exception Resource_exhausted of string

type node = {
  rid : int;
  l1_xid : int;
  prune_enabled : bool;
  ports : int list;
  mutable tree : mgid option;
}

type replica = { rid : int; port : int }

module Metrics = Scallop_obs.Metrics
module Trace = Scallop_obs.Trace

type t = {
  lim : limits;
  obs_label : string;
  nodes : (node_id, node) Hashtbl.t;
  trees : (mgid, node_id list ref) Hashtbl.t;
  l2_xids : (int, int list) Hashtbl.t;
  mutable next_node_id : int;
  (* Fan-out memo: packet metadata tuple -> surviving replicas, flat.
     Any mutation of trees, nodes or L2-XID sets flushes the whole table —
     correctness over retention, mutations are control-plane-rare. *)
  cache : (int * int * int * int, replica array) Hashtbl.t;
  (* registry-backed (same O(1) field mutation as a plain int): read
     through [Metrics.read] under [pre=<obs_label>] *)
  cache_hits : Metrics.counter;
  cache_misses : Metrics.counter;
  cache_invalidations : Metrics.counter;
}

let create ?(limits = tofino2_limits) ?(obs_label = "pre0") () =
  let labels = [ ("pre", obs_label) ] in
  let t =
    {
      lim = limits;
      obs_label;
      nodes = Hashtbl.create 1024;
      trees = Hashtbl.create 256;
      l2_xids = Hashtbl.create 64;
      next_node_id = 0;
      cache = Hashtbl.create 1024;
      cache_hits =
        Metrics.counter ~labels ~help:"PRE fan-out cache hits" "scallop_pre_cache_hits";
      cache_misses =
        Metrics.counter ~labels ~help:"PRE fan-out cache misses" "scallop_pre_cache_misses";
      cache_invalidations =
        Metrics.counter ~labels ~help:"PRE fan-out cache flushes that dropped entries"
          "scallop_pre_cache_invalidations";
    }
  in
  Metrics.register_callback ~labels ~help:"resident PRE fan-out cache entries"
    "scallop_pre_cache_entries" (fun () -> float_of_int (Hashtbl.length t.cache));
  t

let flush_cache t =
  if Hashtbl.length t.cache > 0 then begin
    Metrics.incr t.cache_invalidations;
    if Trace.enabled Trace.Packet then
      (* the PRE has no engine handle; Trace.now is the engine-installed
         shared clock — an invalidation storm here is attribution evidence *)
      Trace.instant ~ts:(Trace.now ()) ~cat:"pre" "pre_invalidate"
        ~args:
          [
            ("pre", Trace.S t.obs_label);
            ("entries", Trace.I (Hashtbl.length t.cache));
          ];
    Hashtbl.reset t.cache
  end

let create_l1_node t ~rid ?(l1_xid = 0) ?(prune_enabled = false) ~ports () =
  if Hashtbl.length t.nodes >= t.lim.max_l1_nodes then
    raise (Resource_exhausted "PRE L1 nodes");
  let id = t.next_node_id in
  t.next_node_id <- t.next_node_id + 1;
  Hashtbl.replace t.nodes id { rid; l1_xid; prune_enabled; ports; tree = None };
  id

let find_node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Pre: unknown L1 node %d" id)

let destroy_l1_node t id =
  let n = find_node t id in
  if n.tree <> None then invalid_arg "Pre.destroy_l1_node: node is in a tree";
  Hashtbl.remove t.nodes id;
  flush_cache t

let check_rids t ids =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let n = find_node t id in
      if Hashtbl.mem seen n.rid then begin
        (* Same RID may appear on several nodes only with distinct ports;
           the paper relies on RID-uniqueness per sender, so keep strict. *)
        invalid_arg "Pre.create_tree: duplicate RID within tree"
      end;
      Hashtbl.replace seen n.rid ())
    ids;
  if Hashtbl.length seen > t.lim.max_rids_per_tree then
    raise (Resource_exhausted "PRE RIDs per tree")

(* Tree members are stored in insertion order, so replication never has to
   reverse the list on the per-packet path. *)
let create_tree t ~mgid ~nodes =
  if Hashtbl.mem t.trees mgid then invalid_arg "Pre.create_tree: MGID in use";
  if Hashtbl.length t.trees >= t.lim.max_trees then raise (Resource_exhausted "PRE trees");
  check_rids t nodes;
  List.iter
    (fun id ->
      let n = find_node t id in
      if n.tree <> None then invalid_arg "Pre.create_tree: node already in a tree")
    nodes;
  List.iter (fun id -> (find_node t id).tree <- Some mgid) nodes;
  Hashtbl.replace t.trees mgid (ref nodes);
  flush_cache t

let find_tree t mgid =
  match Hashtbl.find_opt t.trees mgid with
  | Some nodes -> nodes
  | None -> invalid_arg (Printf.sprintf "Pre: unknown MGID %d" mgid)

let destroy_tree t mgid =
  let nodes = find_tree t mgid in
  List.iter (fun id -> (find_node t id).tree <- None) !nodes;
  Hashtbl.remove t.trees mgid;
  flush_cache t

let add_node_to_tree t mgid id =
  let nodes = find_tree t mgid in
  let n = find_node t id in
  if n.tree <> None then invalid_arg "Pre.add_node_to_tree: node already in a tree";
  check_rids t (id :: !nodes);
  n.tree <- Some mgid;
  nodes := !nodes @ [ id ];
  flush_cache t

let remove_node_from_tree t mgid id =
  let nodes = find_tree t mgid in
  let n = find_node t id in
  if n.tree <> Some mgid then invalid_arg "Pre.remove_node_from_tree: not a member";
  n.tree <- None;
  nodes := List.filter (fun x -> not (Int.equal x id)) !nodes;
  flush_cache t

let set_l2_xid_ports t ~xid ~ports =
  Hashtbl.replace t.l2_xids xid ports;
  flush_cache t

let remove_l2_xid t ~xid =
  Hashtbl.remove t.l2_xids xid;
  flush_cache t

let replicate t ~mgid ~l1_xid ~rid ~l2_xid =
  match Hashtbl.find_opt t.trees mgid with
  | None -> []
  | Some nodes ->
      let excluded_ports =
        Option.value (Hashtbl.find_opt t.l2_xids l2_xid) ~default:[]
      in
      List.concat_map
        (fun id ->
          let n = find_node t id in
          if n.prune_enabled && n.l1_xid = l1_xid then []
          else
            List.filter_map
              (fun port ->
                if n.rid = rid && List.mem port excluded_ports then None
                else Some { rid = n.rid; port })
              n.ports)
        !nodes

let replicate_cached t ~mgid ~l1_xid ~rid ~l2_xid =
  let key = (mgid, l1_xid, rid, l2_xid) in
  match Hashtbl.find_opt t.cache key with
  | Some arr ->
      Metrics.incr t.cache_hits;
      arr
  | None ->
      Metrics.incr t.cache_misses;
      let arr = Array.of_list (replicate t ~mgid ~l1_xid ~rid ~l2_xid) in
      Hashtbl.replace t.cache key arr;
      arr

let cache_hit_count t = Metrics.value t.cache_hits

let iter_cache t f =
  Hashtbl.iter
    (fun (mgid, l1_xid, rid, l2_xid) replicas -> f ~mgid ~l1_xid ~rid ~l2_xid ~replicas)
    t.cache

let trees_used t = Hashtbl.length t.trees
let l1_nodes_used t = Hashtbl.length t.nodes
let limits t = t.lim
let tree_nodes t mgid = !(find_tree t mgid)
let node_rid t id = (find_node t id).rid
let node_ports t id = (find_node t id).ports
let node_l1_xid t id = (find_node t id).l1_xid
let node_prune_enabled t id = (find_node t id).prune_enabled
let node_tree t id = (find_node t id).tree

let iter_trees t f = Hashtbl.iter (fun mgid nodes -> f ~mgid ~nodes:!nodes) t.trees

let iter_nodes t f = Hashtbl.iter (fun id _ -> f id) t.nodes

let iter_l2_xids t f = Hashtbl.iter (fun xid ports -> f ~xid ~ports) t.l2_xids

module Unsafe = struct
  let set_node_rid t id rid =
    let n = find_node t id in
    Hashtbl.replace t.nodes id { n with rid };
    flush_cache t

  let drop_tree_record t mgid =
    Hashtbl.remove t.trees mgid;
    flush_cache t

  let poison_cache t ~mgid ~l1_xid ~rid ~l2_xid ~replicas =
    Hashtbl.replace t.cache (mgid, l1_xid, rid, l2_xid) (Array.of_list replicas)
end
