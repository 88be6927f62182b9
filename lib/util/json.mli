(** JSON string escaping shared by the trace, metrics, attribution and
    bench writers. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the surrounding
    quotes: ['"'] and ['\\'] are backslash-escaped and every other byte
    below 0x20 becomes [\u00XX]. Bytes from 0x20 up pass through. *)
