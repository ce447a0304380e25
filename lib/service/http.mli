(** Minimal server-side HTTP/1.1, hand-rolled over a small buffered
    reader — the validation service's wire layer, with no dependencies
    beyond the compiler-shipped [Unix] and [Threads] libraries.

    Scope: persistent (keep-alive) connections with the standard
    [Connection] semantics for HTTP/1.1 and HTTP/1.0, [Content-Length]
    request bodies (4 MiB cap), fixed-length responses, and chunked
    transfer encoding for the NDJSON verdict streams (chunked bodies are
    self-delimiting, so a finished stream leaves the connection
    reusable).  Request smuggling vectors (pipelining ahead of the
    response, [Transfer-Encoding] request bodies) are simply rejected by
    omission.

    Idle waits are cooperative: {!read_request} takes an optional
    {!Scamv_util.Deadline} token and polls it through short select(2)
    slices, so a server can bound how long a keep-alive connection may
    sit idle, and a supervisor can {!Scamv_util.Deadline.cancel} the
    token to wake a parked reader within a fraction of a second. *)

exception Bad_request of string
(** Raised by {!read_request} on any protocol violation; the server turns
    it into a 400 response and closes the connection (framing can no
    longer be trusted). *)

exception Timeout
(** Raised by {!read_request} when the idle deadline expires (or is
    cancelled) before a complete request arrives. *)

type request = {
  meth : string;  (** uppercase method, e.g. ["GET"] *)
  target : string;  (** raw request target as received *)
  path : string;  (** percent-decoded path, query string stripped *)
  query : (string * string) list;  (** decoded query parameters, in order *)
  version : string;  (** ["HTTP/1.1"] or ["HTTP/1.0"] *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

(** {2 Reading requests} *)

type reader
(** A buffered byte source a connection's requests are parsed from.  The
    buffer persists across requests, so bytes of a pipelined second
    request are not lost between {!read_request} calls. *)

val reader_of_fd : Unix.file_descr -> reader
(** Reader over a (blocking) socket. *)

val reader_of_string : string -> reader
(** Reader over an in-memory byte string (tests). *)

val read_request : ?idle:Scamv_util.Deadline.t -> reader -> request option
(** Read one request (head and body).  [None] means the peer closed the
    connection before sending anything — the normal end of a keep-alive
    connection.  [idle] bounds the whole read cooperatively.
    @raise Bad_request on malformed or oversized input.
    @raise Timeout when [idle] expires or is cancelled first. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val query : request -> string -> string option
(** First query parameter with the given (already-decoded) name. *)

val wants_keep_alive : request -> bool
(** The client's connection intent: HTTP/1.1 defaults to persistent
    unless [Connection: close]; HTTP/1.0 defaults to close unless
    [Connection: keep-alive].  Token list parsing is case-insensitive. *)

(** {2 Responses} *)

type conn
(** The write side of one connection.  Carries the keep-alive decision
    the next response head will advertise: the server sets it per
    request (client intent x request cap x shutdown state), a handler
    may force it off with {!set_keep_alive}, and after the handler
    returns the connection loop reads {!keep_alive} back to decide
    whether to serve another request on the same socket. *)

val conn_of_channel : ?keep_alive:bool -> out_channel -> conn
(** Wrap a response channel ([keep_alive] defaults to [false], matching
    one-shot uses such as an overload rejection). *)

val keep_alive : conn -> bool
val set_keep_alive : conn -> bool -> unit

val respond :
  ?headers:(string * string) list ->
  ?content_type:string ->
  conn ->
  status:int ->
  string ->
  unit
(** Write a complete fixed-length response (with the connection's
    [Connection] header) and flush. *)

val respond_json :
  ?status:int ->
  ?headers:(string * string) list ->
  conn ->
  Scamv_util.Json.t ->
  unit
(** {!respond} with [application/json] and a trailing newline. *)

(** {2 Chunked streaming} *)

type stream

val start_stream :
  ?headers:(string * string) list ->
  ?content_type:string ->
  conn ->
  status:int ->
  stream
(** Write the response head with [Transfer-Encoding: chunked] (default
    content type [application/x-ndjson]) and return a handle for the
    body. *)

val stream_chunk : stream -> string -> unit
(** Send one chunk (empty strings are skipped — an empty chunk would
    terminate the encoding) and flush, so the client sees each NDJSON
    line as soon as the verdict lands. *)

val stream_close : stream -> unit
(** Send the terminating zero-length chunk.  Idempotent. *)
