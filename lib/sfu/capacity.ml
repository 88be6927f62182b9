let legs_per_32core = 38_400

let stream_legs ~participants ~senders ~media_types =
  if participants < 2 || senders < 1 || senders > participants then
    invalid_arg "Sfu.Capacity.stream_legs";
  senders * media_types * participants
(* each sender: media_types uplink legs + media_types*(participants-1)
   downlink legs = media_types * participants legs in total *)

let meetings_supported ?(cores = 32) ~participants ~senders ~media_types () =
  let legs = stream_legs ~participants ~senders ~media_types in
  legs_per_32core * cores / 32 / legs
