(* Minimal keep-alive HTTP/1.1 client for the served workload: one
   connection per tenant, Content-Length or chunked responses, and a
   line-by-line reader for the NDJSON verdict stream.  A connection the
   server rolls over ([Connection: close]) is reopened on the next
   request. *)

type conn = {
  port : int;
  mutable fd : Unix.file_descr option;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

exception Closed

let open_fd port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let connect port = { port; fd = Some (open_fd port); buf = Bytes.create 65536; pos = 0; len = 0 }

let close c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None;
  c.pos <- 0;
  c.len <- 0

let fd c =
  match c.fd with
  | Some fd -> fd
  | None ->
    let fd = open_fd c.port in
    c.fd <- Some fd;
    fd

let fill c =
  if c.pos >= c.len then begin
    let n = Unix.read (fd c) c.buf 0 (Bytes.length c.buf) in
    if n = 0 then raise Closed;
    c.pos <- 0;
    c.len <- n
  end

let read_line c =
  let b = Buffer.create 128 in
  let rec go () =
    fill c;
    match Bytes.index_from_opt c.buf c.pos '\n' with
    | Some i when i < c.len ->
      Buffer.add_subbytes b c.buf c.pos (i - c.pos);
      c.pos <- i + 1
    | _ ->
      Buffer.add_subbytes b c.buf c.pos (c.len - c.pos);
      c.pos <- c.len;
      go ()
  in
  go ();
  let s = Buffer.contents b in
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let read_exact c n =
  let b = Buffer.create n in
  let rec go rem =
    if rem > 0 then begin
      fill c;
      let k = min rem (c.len - c.pos) in
      Buffer.add_subbytes b c.buf c.pos k;
      c.pos <- c.pos + k;
      go (rem - k)
    end
  in
  go n;
  Buffer.contents b

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send c meth path body =
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
      meth path (String.length body) body
  in
  write_all (fd c) req 0

(* Status line and headers (names lower-cased). *)
let read_head c =
  let status =
    match String.split_on_char ' ' (read_line c) with
    | _ :: code :: _ -> int_of_string code
    | _ -> failwith "malformed status line"
  in
  let rec headers acc =
    match read_line c with
    | "" -> acc
    | line -> (
      match String.index_opt line ':' with
      | Some i ->
        let name = String.lowercase_ascii (String.sub line 0 i) in
        let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        headers ((name, value) :: acc)
      | None -> headers acc)
  in
  (status, headers [])

(* Chunked body, delivered chunk by chunk. *)
let read_chunks c on_chunk =
  let rec go () =
    let size = int_of_string ("0x" ^ String.trim (read_line c)) in
    if size = 0 then ignore (read_line c)
    else begin
      on_chunk (read_exact c size);
      ignore (read_line c);
      go ()
    end
  in
  go ()

let read_body c headers =
  match List.assoc_opt "transfer-encoding" headers with
  | Some "chunked" ->
    let b = Buffer.create 1024 in
    read_chunks c (Buffer.add_string b);
    Buffer.contents b
  | _ -> (
    match List.assoc_opt "content-length" headers with
    | Some n -> read_exact c (int_of_string n)
    | None -> "")

let finish c headers =
  if List.assoc_opt "connection" headers = Some "close" then close c

let request c meth path body =
  send c meth path body;
  let status, headers = read_head c in
  let body = read_body c headers in
  finish c headers;
  (status, body)

(* GET a chunked NDJSON stream, calling [on_line] on each complete line
   as soon as it arrives. *)
let stream c path on_line =
  send c "GET" path "";
  let status, headers = read_head c in
  if status <> 200 then begin
    let body = read_body c headers in
    finish c headers;
    (status, body)
  end
  else begin
    let pending = Buffer.create 1024 in
    read_chunks c (fun chunk ->
        Buffer.add_string pending chunk;
        let s = Buffer.contents pending in
        let lines = String.split_on_char '\n' s in
        let rec emit = function
          | [ rest ] ->
            Buffer.clear pending;
            Buffer.add_string pending rest
          | line :: tl ->
            if line <> "" then on_line line;
            emit tl
          | [] -> ()
        in
        emit lines);
    if Buffer.length pending > 0 then on_line (Buffer.contents pending);
    finish c headers;
    (status, "")
  end
