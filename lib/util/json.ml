(* Minimal JSON: just enough for the service API, the Chrome-trace
   export and the benchmark's files to be emitted, re-read and validated
   without an external dependency.  Numbers are floats, as in JSON itself. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse_error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* ---- emission ----

   One emitter over an abstract byte sink serves both the in-memory
   serializer (to_string) and the incremental channel writer (write):
   journal records streamed over a socket never materialize the whole
   document, and both paths produce the same bytes by construction. *)

type sink = { put_char : char -> unit; put_string : string -> unit }

let buffer_sink b =
  { put_char = Buffer.add_char b; put_string = Buffer.add_string b }

let channel_sink oc =
  { put_char = output_char oc; put_string = output_string oc }

(* JSON strings are byte strings here: printable ASCII passes through,
   everything else — control characters and all bytes >= 0x7f — escapes as
   [\u00XX].  The emitted document is therefore pure (7-bit) ASCII, safe
   to embed in any wire encoding, and because the parser maps [\u00XX]
   back to the single byte [XX] (ISO-8859-1 style, see below), arbitrary
   byte strings round-trip exactly. *)
let escape_string k s =
  k.put_char '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> k.put_string "\\\""
      | '\\' -> k.put_string "\\\\"
      | '\n' -> k.put_string "\\n"
      | '\r' -> k.put_string "\\r"
      | '\t' -> k.put_string "\\t"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
        k.put_string (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> k.put_char c)
    s;
  k.put_char '"'

let number_string x =
  match Float.classify_float x with
  | FP_nan | FP_infinite ->
    (* nan/inf have no JSON spelling; null keeps the document parseable *)
    "null"
  | _ ->
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.9g" x

let emit ?(pretty = false) k t =
  let pad depth = if pretty then k.put_string (String.make (2 * depth) ' ') in
  let newline () = if pretty then k.put_char '\n' in
  let rec go depth = function
    | Null -> k.put_string "null"
    | Bool v -> k.put_string (if v then "true" else "false")
    | Num x -> k.put_string (number_string x)
    | Str s -> escape_string k s
    | Arr [] -> k.put_string "[]"
    | Arr items ->
      k.put_char '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            k.put_char ',';
            newline ()
          end;
          pad (depth + 1);
          go (depth + 1) item)
        items;
      newline ();
      pad depth;
      k.put_char ']'
    | Obj [] -> k.put_string "{}"
    | Obj fields ->
      k.put_char '{';
      newline ();
      List.iteri
        (fun i (kf, v) ->
          if i > 0 then begin
            k.put_char ',';
            newline ()
          end;
          pad (depth + 1);
          escape_string k kf;
          k.put_string (if pretty then ": " else ":");
          go (depth + 1) v)
        fields;
      newline ();
      pad depth;
      k.put_char '}'
  in
  go 0 t;
  if pretty then k.put_char '\n'

let to_string ?pretty t =
  let b = Buffer.create 256 in
  emit ?pretty (buffer_sink b) t;
  Buffer.contents b

let write ?pretty oc t = emit ?pretty (channel_sink oc) t

(* ---- parsing (recursive descent) ---- *)

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> parse_error "expected %c at offset %d, got %c" c !pos c'
    | None -> parse_error "expected %c, got end of input" c
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else parse_error "bad literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> parse_error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance (); go ()
        | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
        | Some '/' -> Buffer.add_char b '/'; advance (); go ()
        | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
        | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then parse_error "truncated \\u escape";
          (* Validate the four hex digits by hand: [int_of_string "0x.."]
             would raise Failure (not Parse_error) on junk and accepts
             OCaml-isms like underscores that are not legal JSON. *)
          let hex_digit c =
            match c with
            | '0' .. '9' -> Char.code c - Char.code '0'
            | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
            | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
            | _ -> parse_error "bad \\u escape at offset %d" !pos
          in
          let code = ref 0 in
          for i = 0 to 3 do
            code := (!code * 16) + hex_digit s.[!pos + i]
          done;
          let code = !code in
          pos := !pos + 4;
          (* Code points up to 0xff decode to the single byte they name
             (ISO-8859-1 style): the emitter escapes every non-ASCII byte
             as [\u00XX], so this is what makes arbitrary byte strings
             round-trip exactly.  Higher BMP code points are encoded as
             UTF-8 (surrogates untreated: our files never contain them). *)
          if code < 0x100 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end;
          go ()
        | _ -> parse_error "bad escape at offset %d" !pos)
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some x -> Num x
    | None -> parse_error "bad number %S at offset %d" text start
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> parse_error "expected , or ] at offset %d" !pos
        in
        Arr (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            List.rev (kv :: acc)
          | _ -> parse_error "expected , or } at offset %d" !pos
        in
        Obj (fields [])
      end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_error "trailing garbage at offset %d" !pos;
  v

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num x -> Some x | _ -> None
let to_list = function Arr items -> Some items | _ -> None
let to_str = function Str s -> Some s | _ -> None
