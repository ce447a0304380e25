(** Framed records, the on-disk unit of the experiment journal and of the
    validation service's campaign log.  A framed file is a magic first
    line, then one record per write:

    {v R <payload-length> <crc32-hex>\n<payload>\n v}

    The length prefix and checksum make a torn or corrupted tail
    detectable, so a reader keeps the longest clean prefix of records and
    knows how many bytes it dropped. *)

val add : ?corrupt_crc:bool -> Buffer.t -> string -> unit
(** Append one frame around the payload.  [corrupt_crc] (chaos testing
    only) writes a checksum that does not match. *)

val records_start : magic:string -> string -> int option
(** The offset of the first frame when the content opens with the magic
    line, else [None]. *)

val torn_magic : magic:string -> string -> bool
(** The content is a strict prefix of the magic line, the empty file
    included: what a kill between creating a framed file and its first
    flush leaves behind. *)

val fold :
  string -> pos:int -> init:'a -> ('a -> offset:int -> string -> 'a option) -> 'a * int
(** Fold over the payloads of the clean frames from [pos] on, each with
    the offset its frame starts at.  The scan stops at the first frame
    that is torn, fails its checksum or that the function rejects
    ([None]), without skipping forward; returns the accumulator and the
    offset the clean prefix ends at. *)

val next : string -> int -> (int * string * int) option
(** [next content pos] skips forward to the first clean frame that starts
    at or after [pos]: its offset, its payload and the offset after it.
    For files whose records stand alone (the campaign log), so that one
    damaged record costs that record only; the checksum makes a stray
    match in damaged bytes vanishingly unlikely. *)

val input : in_channel -> string option
(** Read the frame at the channel's position: its payload, or [None]
    when it is torn or fails its checksum. *)
