type config = {
  base_ssrc : int;
  payload_type : int;
  bitrates : int array;
  mtu : int;
  keyframe_interval : int;
}

let default_config ~base_ssrc =
  {
    base_ssrc;
    payload_type = 96;
    bitrates = [| 2_500_000; 900_000; 300_000 |];
    mtu = 1160;
    keyframe_interval = 300;
  }

type t = { sources : Video_source.t array; ssrcs : int array }

let create rng cfg =
  let ssrcs = Array.mapi (fun i _ -> cfg.base_ssrc + (2 * i)) cfg.bitrates in
  let sources =
    Array.mapi
      (fun i bitrate ->
        Video_source.create
          (Scallop_util.Rng.split rng)
          {
            (Video_source.default_config ~ssrc:ssrcs.(i)) with
            payload_type = cfg.payload_type;
            target_bitrate_bps = bitrate;
            mtu = cfg.mtu;
            keyframe_interval = cfg.keyframe_interval;
          })
      cfg.bitrates
  in
  { sources; ssrcs }

let next_frames t ~time_ns =
  Array.to_list (Array.map (fun src -> Video_source.next_frame src ~time_ns) t.sources)

let request_keyframe t ~rendition =
  if rendition >= 0 && rendition < Array.length t.sources then
    Video_source.request_keyframe t.sources.(rendition)

let rendition_of_ssrc t ssrc =
  let rec find i =
    if i >= Array.length t.ssrcs then None
    else if t.ssrcs.(i) = ssrc then Some i
    else find (i + 1)
  in
  find 0
