(* Framed records: [R <len> <crc32-hex>\n<payload>\n] after a magic first
   line.  The journal and the service's campaign log share this module:
   the journal keeps the longest clean prefix of frames, the log every
   clean frame. *)

let add ?(corrupt_crc = false) buf payload =
  let crc = Crc32.string payload in
  let crc = if corrupt_crc then crc lxor 0xFF else crc in
  Printf.bprintf buf "R %d %s\n%s\n" (String.length payload) (Crc32.to_hex crc)
    payload

let records_start ~magic content =
  let m = String.length magic in
  if String.length content > m && String.starts_with ~prefix:magic content
     && content.[m] = '\n'
  then Some (m + 1)
  else None

let torn_magic ~magic content =
  String.length content <= String.length magic
  && String.starts_with ~prefix:content magic

(* Only the header [add] writes is accepted, "R <length> <crc32-hex>": a
   decimal length without leading zeros (at most nine digits) and eight
   lower-case hex digits.  A damaged header therefore never reads back
   as the same frame, and a header line is at most [header_max] bytes. *)
let header_max = String.length "R 123456789 0123abcd"

let header line =
  let n = String.length line in
  let digits = n - 11 in
  let digit c = c >= '0' && c <= '9' in
  let hex c = digit c || (c >= 'a' && c <= 'f') in
  if digits < 1 || digits > 9 || line.[0] <> 'R' || line.[1] <> ' '
     || line.[n - 9] <> ' ' || (digits > 1 && line.[2] = '0')
  then None
  else
    let len = String.sub line 2 digits and crc = String.sub line (n - 8) 8 in
    if String.for_all digit len && String.for_all hex crc then
      Some (int_of_string len, int_of_string ("0x" ^ crc))
    else None

(* The payload of a frame whose header says [(len, crc)] and whose body
   starts at [at] in [s]: [len] bytes that match the checksum, then a
   newline.  The bounds test is a difference, so a huge length cannot
   overflow. *)
let body s ~at (len, crc) =
  if len >= 0 && len < String.length s - at && s.[at + len] = '\n' then
    let payload = String.sub s at len in
    if Crc32.string payload = crc then Some payload else None
  else None

(* The payload of the clean frame at [pos] and the offset after it.  The
   header line is looked for in its first [header_max + 1] bytes only, so
   probing an arbitrary offset costs a constant. *)
let read content pos =
  let ( let* ) = Option.bind in
  let head = String.sub content pos (min (header_max + 1) (String.length content - pos)) in
  let* nl = String.index_opt head '\n' in
  let* payload = Option.bind (header (String.sub head 0 nl)) (body content ~at:(pos + nl + 1)) in
  Some (payload, pos + nl + 2 + String.length payload)

let fold content ~pos ~init f =
  let rec go acc pos =
    match read content pos with
    | None -> (acc, pos)
    | Some (payload, next) -> (
      match f acc ~offset:pos payload with
      | Some acc -> go acc next
      | None -> (acc, pos))
  in
  go init pos

let rec next content pos =
  match String.index_from_opt content pos 'R' with
  | None -> None
  | Some at -> (
    match read content at with
    | Some (payload, after) -> Some (at, payload, after)
    | None -> next content (at + 1))

let input ic =
  match Option.bind (In_channel.input_line ic) header with
  | Some (len, crc) when len >= 0 && len < Int64.to_int (In_channel.length ic) ->
    Option.bind (In_channel.really_input_string ic (len + 1)) (fun b -> body b ~at:0 (len, crc))
  | _ -> None
