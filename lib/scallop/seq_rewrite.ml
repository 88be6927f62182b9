module Dd = Av1.Dd

type variant = S_LM | S_LR

let words_per_stream = function S_LM -> 3 | S_LR -> 6

type t = {
  variant : variant;
  mutable target : Dd.decode_target;
  mutable initialized : bool;
  mutable last_seq : int;  (** highest original sequence observed *)
  mutable last_frame : int;  (** frame number of [last_seq] *)
  mutable offset : int;  (** original - rewritten *)
  mutable mask_boundary : int;
      (** first seq at/after the most recent masked gap; masked seqs below
          this must never be emitted (duplicate-avoidance guard) *)
  (* S-LR extra state *)
  mutable first_seq_cur : int;  (** first seq seen of the latest frame *)
  mutable cur_frame_ended : bool;  (** end-of-frame packet observed *)
}

let create variant ~target =
  {
    variant;
    target;
    initialized = false;
    last_seq = 0;
    last_frame = 0;
    offset = 0;
    mask_boundary = 0;
    first_seq_cur = 0;
    cur_frame_ended = false;
  }

let set_target t target = t.target <- target
let offset t = t.offset

(* L1T3 cycle position -> temporal layer (paper Fig. 9): T0 T2 T1 T2. *)
let layer_of_frame frame =
  match frame land 3 with 0 -> Dd.T0 | 1 -> Dd.T2 | 2 -> Dd.T1 | _ -> Dd.T2

let suppressed_by_cadence target frame =
  not (Dd.target_includes target (layer_of_frame frame))

(* Frames strictly between [f1] and [f2] (16-bit space). Returns None when
   the distance is implausibly large (treat as loss/garbage). *)
let frames_between f1 f2 =
  let d = (f2 - f1) land 0xFFFF in
  if d = 0 || d > 64 then None
  else Some (List.init (d - 1) (fun i -> (f1 + i + 1) land 0xFFFF))

let drop = -1
let emit t seq = (seq - t.offset) land 0xFFFF

let enter_frame t ~seq ~frame ~end_of_frame =
  t.last_frame <- frame;
  t.first_seq_cur <- seq;
  t.cur_frame_ended <- end_of_frame

let advance t ~seq ~frame ~end_of_frame =
  if frame <> t.last_frame then enter_frame t ~seq ~frame ~end_of_frame
  else if end_of_frame then t.cur_frame_ended <- true;
  t.last_seq <- seq

(* How much of a [gap] before this packet can be masked as intentional. *)
let maskable t ~gap ~frame ~start_of_frame =
  match frames_between t.last_frame frame with
  | None -> 0
  | Some [] -> 0 (* consecutive or same frame: any gap is pure loss *)
  | Some between ->
      if not (List.for_all (suppressed_by_cadence t.target) between) then 0
      else begin
        match t.variant with
        | S_LM ->
            (* trust the cadence: the whole gap was suppression *)
            gap
        | S_LR ->
            (* If the previous frame completed and this packet opens its
               frame, the gap is exactly the suppressed frames. Otherwise
               part of the gap is loss inside a kept frame; stay
               conservative and leave two sequence numbers unmasked so the
               receiver recovers the lost data via NACK. *)
            if t.cur_frame_ended && start_of_frame then gap else max 0 (gap - 2)
      end

let on_packet t ~seq ~frame ~start_of_frame ~end_of_frame =
  if not t.initialized then begin
    t.initialized <- true;
    t.last_seq <- seq;
    t.mask_boundary <- seq;
    enter_frame t ~seq ~frame ~end_of_frame;
    emit t seq
  end
  else begin
    let delta = Rtp.Packet.seq_sub seq t.last_seq in
    if delta = 1 then begin
      advance t ~seq ~frame ~end_of_frame;
      emit t seq
    end
    else if delta > 1 then begin
      let gap = delta - 1 in
      let masked = maskable t ~gap ~frame ~start_of_frame in
      if masked > 0 then begin
        t.offset <- t.offset + masked;
        t.mask_boundary <- seq
      end;
      advance t ~seq ~frame ~end_of_frame;
      emit t seq
    end
    else if delta = 0 then drop
    else if t.offset = 0 then
      (* no rewriting has happened on this stream yet, so the mapping is
         the identity and any old packet (a retransmission, say) can pass
         through without any duplication risk *)
      emit t seq
    else begin
      (* reordered (old) packet under an active offset *)
      match t.variant with
      | S_LM ->
          (* one step back is safe if it is not inside a masked region *)
          if delta = -1 && Rtp.Packet.seq_sub seq t.mask_boundary >= 0 then emit t seq
          else drop
      | S_LR ->
          if
            frame = t.last_frame
            && Rtp.Packet.seq_sub seq t.first_seq_cur >= 0
            && Rtp.Packet.seq_sub seq t.mask_boundary >= 0
          then begin
            (* late packet of the current frame: offset unchanged since the
               frame began, rewrite is exact *)
            if end_of_frame then t.cur_frame_ended <- true;
            emit t seq
          end
          else if suppressed_by_cadence t.target frame then
            (* straggler of a suppressed frame: silence it *)
            drop
          else if delta = -1 && Rtp.Packet.seq_sub seq t.mask_boundary >= 0 then emit t seq
          else drop
    end
  end

module Oracle = struct
  type t = { mutable suppressed : int array; mutable n : int }

  let create () = { suppressed = Array.make 64 0; n = 0 }

  let note_suppressed_at t seq =
    if t.n = Array.length t.suppressed then begin
      let bigger = Array.make (2 * t.n) 0 in
      Array.blit t.suppressed 0 bigger 0 t.n;
      t.suppressed <- bigger
    end;
    t.suppressed.(t.n) <- seq;
    t.n <- t.n + 1

  (* count of suppressed seqs strictly below [seq]; the array is built in
     ascending order, so binary search *)
  let count_below t seq =
    let lo = ref 0 and hi = ref t.n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.suppressed.(mid) < seq then lo := mid + 1 else hi := mid
    done;
    !lo

  let on_packet t ~seq = seq - count_below t seq
  let note_suppressed = note_suppressed_at
end
