(** Minimal JSON values: emission, parsing and a few accessors, enough for
    the benchmark trajectory files ([BENCH_*.json]) and the validation
    service's wire format without an external dependency.  Not a
    general-purpose JSON library: surrogate pairs are not combined and
    numbers are all floats.

    Strings are {e byte} strings.  The emitter escapes control characters
    and every byte outside printable ASCII as [\u00XX], so emitted
    documents are pure 7-bit ASCII (safe on any wire), and the parser
    decodes [\u] escapes up to [ÿ] back to the single byte they name
    (ISO-8859-1 style; higher BMP code points decode to UTF-8).  Arbitrary
    byte strings therefore round-trip exactly through
    [of_string (to_string (Str s))] — the property the journal relies on
    to stream records with embedded failure text safely. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : ?pretty:bool -> t -> string
(** Serialize; [pretty] adds 2-space indentation and a trailing newline.
    Integral numbers below 1e15 print without a decimal point; NaN and
    infinities (which JSON cannot spell) print as [null]. *)

val write : ?pretty:bool -> out_channel -> t -> unit
(** Incremental serializer: emits exactly the bytes of {!to_string}
    directly into the channel, without materializing the document — what
    the validation service uses to stream journal records.  The channel is
    not flushed. *)

val of_string : string -> t
(** Parse a complete JSON document.
    @raise Parse_error on malformed input, trailing garbage, or arrays
    and objects nested more than 1024 levels deep. *)

val member : string -> t -> t option
(** Field of an object ([None] on missing field or non-object). *)

val to_float : t -> float option
val to_str : t -> string option
