module Rng = Scallop_util.Rng
module Table = Scallop_util.Table
module Sr = Scallop.Seq_rewrite
module Dd = Av1.Dd

type point = {
  loss : float;
  overhead_slr : float;
  overhead_slm : float;
  overhead_slr_bursty : float;
  duplicates : int;
}
type result = { points : point list }

type packet = {
  seq : int;  (** unwrapped *)
  frame : int;  (** unwrapped *)
  sof : bool;
  eof : bool;
  suppressed : bool;  (** the SFU's 15 fps cadence drops this frame *)
}

(* Packets per frame loosely follow the codec's layer weights. *)
let packets_in_frame rng frame =
  let base = match frame land 3 with 0 -> 9 | 2 -> 7 | _ -> 5 in
  max 1 (base + Rng.int rng 5 - 2)

let generate rng ~frames =
  let packets = ref [] in
  let seq = ref 0 in
  for frame = 0 to frames - 1 do
    let n = packets_in_frame rng frame in
    let suppressed = Sr.suppressed_by_cadence Dd.DT_15fps frame in
    for i = 0 to n - 1 do
      packets :=
        { seq = !seq; frame; sof = i = 0; eof = i = n - 1; suppressed } :: !packets;
      incr seq
    done
  done;
  List.rev !packets

(* The lossy, reordering uplink between the sender and the SFU. [burst]
   switches from iid loss to a two-state Gilbert-Elliott chain with the
   same average rate: lossless good state, 80%-loss bad state, mean burst
   length of five packets. *)
let wire rng ?(burst = false) ~loss ~reorder packets =
  let surviving =
    if not burst then List.filter (fun _ -> not (Rng.bernoulli rng loss)) packets
    else begin
      let loss_bad = 0.8 in
      let p_bad_to_good = 0.2 in
      let stationary_bad = Float.min 0.95 (loss /. loss_bad) in
      let p_good_to_bad =
        stationary_bad *. p_bad_to_good /. Float.max 0.01 (1.0 -. stationary_bad)
      in
      let in_bad = ref false in
      List.filter
        (fun _ ->
          if !in_bad then begin
            if Rng.bernoulli rng p_bad_to_good then in_bad := false
          end
          else if Rng.bernoulli rng p_good_to_bad then in_bad := true;
          not (!in_bad && Rng.bernoulli rng loss_bad))
        packets
    end
  in
  let keyed =
    List.mapi
      (fun i p ->
        let displacement = if Rng.bernoulli rng reorder then 1 + Rng.int rng 4 else 0 in
        (i + displacement, i, p))
      surviving
  in
  List.sort compare keyed |> List.map (fun (_, _, p) -> p)

(* Drive one heuristic over the arrival stream, scoring each decision
   against ground truth:

   - a gap the heuristic leaves beyond the genuinely lost kept packets
     makes the receiver NACK sequence numbers that were intentional
     suppression (spurious retransmission requests);
   - a gap the heuristic masks beyond the genuinely suppressed packets
     hides real loss, so those packets can never be recovered by NACK
     (they eventually cost a retransmission-equivalent recovery);
   - a surviving kept packet the heuristic drops also surfaces as a
     receiver gap.

   Ground truth comes from [suppressed_at] (per original sequence number)
   and the set of sequence numbers that actually arrived. *)
let run_heuristic variant arrivals ~suppressed_at ~arrived =
  let rw = Sr.create variant ~target:Dd.DT_15fps in
  let seen = Hashtbl.create 4096 in
  let forwarded = ref 0 in
  let duplicates = ref 0 in
  let spurious = ref 0 in
  let masked_wrong = ref 0 in
  let mirror_last = ref None in
  List.iter
    (fun p ->
      if not p.suppressed then begin
        let off0 = Sr.offset rw in
        let out =
          Sr.on_packet rw ~seq:(p.seq land 0xFFFF) ~frame:(p.frame land 0xFFFF)
            ~start_of_frame:p.sof ~end_of_frame:p.eof
        in
        let off1 = Sr.offset rw in
        let m = off1 - off0 in
        (match !mirror_last with
        | Some last when p.seq > last + 1 ->
            (* gap in original space: classify its members *)
            let gap = p.seq - last - 1 in
            let s = ref 0 in
            for q = last + 1 to p.seq - 1 do
              if suppressed_at q then incr s
            done;
            let lost_kept =
              (* kept packets in the gap that never arrived *)
              let missing = ref 0 in
              for q = last + 1 to p.seq - 1 do
                if (not (suppressed_at q)) && not (Hashtbl.mem arrived q) then incr missing
              done;
              !missing
            in
            ignore gap;
            let left_unmasked = gap - m in
            spurious := !spurious + max 0 (left_unmasked - lost_kept);
            masked_wrong := !masked_wrong + max 0 (m - !s)
        | _ -> ());
        (match !mirror_last with
        | Some last when p.seq <= last -> ()
        | _ -> mirror_last := Some p.seq);
        (match !mirror_last with
        | Some last when p.seq > last -> mirror_last := Some p.seq
        | _ -> ());
        if out < 0 then
          (* an arrived kept packet silently dropped becomes a receiver
             gap unless its slot was already masked away *)
          incr spurious
        else begin
          incr forwarded;
            (match Hashtbl.find_opt seen out with
            | Some original when original <> p.seq -> incr duplicates
            | Some _ -> ()
            | None -> Hashtbl.replace seen out p.seq)
        end
      end)
    arrivals;
  ( float_of_int (!spurious + !masked_wrong) /. float_of_int (max 1 !forwarded),
    !duplicates )

let losses = [ 0.0; 0.02; 0.05; 0.1; 0.15; 0.2; 0.3; 0.4 ]

(* probability a packet is held back past its successors *)
let reorder = 0.01

let compute ?(quick = false) () =
  let frames = if quick then 1_200 else 6_000 in
  let points =
    List.map
      (fun loss ->
        let rng = Rng.create (42 + int_of_float (loss *. 1000.0)) in
        let packets = generate rng ~frames in
        let suppressed = Array.make (List.length packets) false in
        List.iter (fun p -> suppressed.(p.seq) <- p.suppressed) packets;
        let suppressed_at q = q >= 0 && q < Array.length suppressed && suppressed.(q) in
        let score ?burst variant =
          let arrivals = wire rng ?burst ~loss ~reorder packets in
          let arrived = Hashtbl.create 8192 in
          List.iter (fun p -> Hashtbl.replace arrived p.seq ()) arrivals;
          run_heuristic variant arrivals ~suppressed_at ~arrived
        in
        let o_slr, d1 = score Sr.S_LR in
        let o_slm, d2 = score Sr.S_LM in
        let o_bursty, d3 = score ~burst:true Sr.S_LR in
        {
          loss;
          overhead_slr = o_slr;
          overhead_slm = o_slm;
          overhead_slr_bursty = o_bursty;
          duplicates = d1 + d2 + d3;
        })
      losses
  in
  { points }

let at loss r = List.find (fun p -> Float.abs (p.loss -. loss) < 1e-9) r.points

let claims =
  let pct f r = 100.0 *. f r in
  [
    Claim.int "Fig 18" "duplicate sequence numbers" ~paper:"never" ~eq:0
      (fun r -> List.fold_left (fun acc p -> acc + p.duplicates) 0 r.points);
    Claim.float "Fig 18" "S-LR overhead % at 10% loss" ~paper:"<5%" ~lt:5.0
      (pct (fun r -> (at 0.1 r).overhead_slr));
    Claim.float "Fig 18" "S-LR overhead % at 20% loss" ~paper:"~7.5%" ~lt:10.0
      (pct (fun r -> (at 0.2 r).overhead_slr));
    Claim.float "Fig 18" "S-LR overhead % at 40% loss" ~paper:"<20%" ~lt:20.0
      (pct (fun r -> (at 0.4 r).overhead_slr));
    Claim.float "Fig 18" "S-LR bursty overhead % at 20% loss"
      ~paper:"bounded under high loss" ~lt:20.0
      (pct (fun r -> (at 0.2 r).overhead_slr_bursty));
    Claim.float "Fig 18" "S-LM minus S-LR overhead pts at 20% loss"
      ~paper:"S-LM trades overhead for memory" ~gt:0.0
      (pct (fun r -> (at 0.2 r).overhead_slm -. (at 0.2 r).overhead_slr));
  ]

let print r =
  let table =
    Table.create ~title:"Fig 18: retransmission overhead of sequence rewriting"
      ~columns:[ "loss"; "S-LR overhead"; "S-LM overhead"; "S-LR (bursty loss)"; "duplicates" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Table.cell_pct p.loss;
          Table.cell_pct p.overhead_slr;
          Table.cell_pct p.overhead_slm;
          Table.cell_pct p.overhead_slr_bursty;
          Table.cell_i p.duplicates;
        ])
    r.points;
  Table.print table
