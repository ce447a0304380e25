module Executor = Scamv_microarch.Executor
module Isa = Scamv_arch.Isa
module Crc32 = Scamv_util.Crc32
module Chaos = Scamv_util.Chaos

type entry = {
  campaign : string;
  program_index : int;
  test_index : int;
  template : string;
  path_pair : int * int;
  verdict : Executor.verdict;
  generation_seconds : float;
  execution_seconds : float;
  retries : int;
  faults : int;
  isa : Isa.t;
}

type event =
  | Experiment of entry
  | Quarantined of {
      campaign : string;
      program_index : int;
      pair : int * int;
      reason : string;
    }
  | Program_failed of { campaign : string; program_index : int; reason : string }
  | Crashed of { campaign : string; program_index : int; reason : string }
  | Diverged of {
      campaign : string;
      program_index : int;
      pair : int * int;
      aarch64 : Executor.verdict;
      riscv : Executor.verdict;
    }

let event_program_index = function
  | Experiment e -> e.program_index
  | Quarantined q -> q.program_index
  | Program_failed f -> f.program_index
  | Crashed c -> c.program_index
  | Diverged d -> d.program_index

type t = {
  mutable events_rev : event list;
  mutable count : int;  (* experiments only *)
  path : string option;
  chaos : Chaos.t option;
  mutable persisted : int;  (* records framed so far (chaos keying) *)
  pending : Buffer.t;  (* frames withheld by an injected write delay *)
  mutable oc : out_channel option;  (* opened lazily on first record *)
}

let create ?path ?chaos () =
  {
    events_rev = [];
    count = 0;
    path;
    chaos;
    persisted = 0;
    pending = Buffer.create 256;
    oc = None;
  }

(* ---- CSV row rendering ---- *)

let verdict_string = function
  | Executor.Distinguishable -> "distinguishable"
  | Executor.Indistinguishable -> "indistinguishable"
  | Executor.Inconclusive -> "inconclusive"

let quote s = "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""

let csv_header =
  "campaign,kind,program,test,template,path1,path2,verdict,gen_seconds,exe_seconds,retries,faults,reason\n"

let event_row ev =
  match ev with
  | Experiment e ->
    (* The ISA rides in a 14th column appended only for non-AArch64 rows,
       so every journal ever written before the column existed — and every
       AArch64 row written after — keeps the exact same 13-field bytes. *)
    let isa_suffix =
      match e.isa with Isa.Aarch64 -> "" | isa -> "," ^ Isa.to_string isa
    in
    Printf.sprintf "%s,experiment,%d,%d,%s,%d,%d,%s,%.6f,%.6f,%d,%d,%s\n"
      (quote e.campaign) e.program_index e.test_index (quote e.template)
      (fst e.path_pair) (snd e.path_pair) (verdict_string e.verdict)
      e.generation_seconds e.execution_seconds e.retries e.faults isa_suffix
  | Quarantined q ->
    Printf.sprintf "%s,quarantined,%d,,,%d,%d,,,,,,%s\n" (quote q.campaign)
      q.program_index (fst q.pair) (snd q.pair) (quote q.reason)
  | Program_failed f ->
    Printf.sprintf "%s,program-failed,%d,,,,,,,,,,%s\n" (quote f.campaign)
      f.program_index (quote f.reason)
  | Crashed c ->
    Printf.sprintf "%s,crashed,%d,,,,,,,,,,%s\n" (quote c.campaign)
      c.program_index (quote c.reason)
  | Diverged d ->
    (* The AArch64 verdict takes the verdict column; the RISC-V verdict
       rides in the reason column (both render as verdict words). *)
    Printf.sprintf "%s,diverged,%d,,,%d,%d,%s,,,,,%s\n" (quote d.campaign)
      d.program_index (fst d.pair) (snd d.pair) (verdict_string d.aarch64)
      (verdict_string d.riscv)

(* ---- v2 on-disk framing ----

   The incremental on-disk format frames each CSV row (sans trailing
   newline) as

     R <payload-length> <crc32-hex>\n<payload>\n

   after a magic first line.  Length prefix and checksum make a torn or
   corrupted tail detectable: the loader keeps the longest clean prefix of
   records and reports what it dropped, instead of failing to parse — the
   property [--resume] relies on after a mid-write kill. *)

let magic = "scamv-journal v2"

let frame ?(corrupt_crc = false) payload =
  let crc = Crc32.string payload in
  let crc = if corrupt_crc then crc lxor 0xFF else crc in
  Printf.sprintf "R %d %s\n%s\n" (String.length payload) (Crc32.to_hex crc)
    payload

let event_payload ev =
  let row = event_row ev in
  (* rows always end in '\n'; the frame supplies its own terminator *)
  String.sub row 0 (String.length row - 1)

(* ---- recording (with optional append-to-disk persistence) ---- *)

let persist t ev =
  match t.path with
  | None -> ()
  | Some path ->
    let oc =
      match t.oc with
      | Some oc -> oc
      | None ->
        (* Lazy open: the file is only (re)created once something is
           actually recorded, so a resume source named as the output path
           is read in full before being truncated. *)
        let oc = open_out_bin path in
        output_string oc (magic ^ "\n");
        t.oc <- Some oc;
        oc
    in
    let index = Int64.of_int t.persisted in
    t.persisted <- t.persisted + 1;
    let injected site =
      match t.chaos with
      | None -> false
      | Some c ->
        let hit = Chaos.roll c ~site ~key:index in
        if hit then Scamv_telemetry.Collector.incr "chaos.injections";
        hit
    in
    (* Chaos: poison corrupts this record's checksum in place (recovery
       must drop it and everything after it); delay withholds the frame
       from the channel until the next undelayed record, widening the
       torn-tail window a crash can hit.  Neither changes the bytes a
       surviving run eventually writes, so chaos journals stay
       byte-identical across jobs levels. *)
    let corrupt_crc = injected "journal.poison" in
    Buffer.add_string t.pending (frame ~corrupt_crc (event_payload ev));
    if not (injected "journal.delay") then begin
      Buffer.output_buffer oc t.pending;
      Buffer.clear t.pending;
      flush oc
    end

let record_event t ev =
  t.events_rev <- ev :: t.events_rev;
  (match ev with Experiment _ -> t.count <- t.count + 1 | _ -> ());
  persist t ev

let record t e = record_event t (Experiment e)

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
    if Buffer.length t.pending > 0 then begin
      Buffer.output_buffer oc t.pending;
      Buffer.clear t.pending
    end;
    close_out oc;
    t.oc <- None

let events t = List.rev t.events_rev

let length t = t.count

(* ---- JSON rendering (the service wire format) ----

   One JSON object per event, field order fixed, every number integral or
   printed via the Json emitter — so the rendered bytes are a pure
   function of the event and the validation service can assert that a
   streamed campaign is byte-identical to a batch run by comparing these
   strings directly. *)

let as_stored = function
  | Experiment e ->
    let round x = float_of_string (Printf.sprintf "%.6f" x) in
    Experiment
      {
        e with
        generation_seconds = round e.generation_seconds;
        execution_seconds = round e.execution_seconds;
      }
  | ev -> ev

let event_to_json ev =
  let module J = Scamv_util.Json in
  match ev with
  | Experiment e ->
    J.Obj
      ([
        ("kind", J.Str "experiment");
        ("campaign", J.Str e.campaign);
        ("program", J.Num (float_of_int e.program_index));
        ("test", J.Num (float_of_int e.test_index));
        ("template", J.Str e.template);
        ("path1", J.Num (float_of_int (fst e.path_pair)));
        ("path2", J.Num (float_of_int (snd e.path_pair)));
        ("verdict", J.Str (verdict_string e.verdict));
        ("gen_seconds", J.Num e.generation_seconds);
        ("exe_seconds", J.Num e.execution_seconds);
        ("retries", J.Num (float_of_int e.retries));
        ("faults", J.Num (float_of_int e.faults));
      ]
      (* appended last so AArch64 streams keep their historical bytes *)
      @ (match e.isa with
        | Isa.Aarch64 -> []
        | isa -> [ ("isa", J.Str (Isa.to_string isa)) ]))
  | Quarantined q ->
    J.Obj
      [
        ("kind", J.Str "quarantined");
        ("campaign", J.Str q.campaign);
        ("program", J.Num (float_of_int q.program_index));
        ("path1", J.Num (float_of_int (fst q.pair)));
        ("path2", J.Num (float_of_int (snd q.pair)));
        ("reason", J.Str q.reason);
      ]
  | Program_failed f ->
    J.Obj
      [
        ("kind", J.Str "program-failed");
        ("campaign", J.Str f.campaign);
        ("program", J.Num (float_of_int f.program_index));
        ("reason", J.Str f.reason);
      ]
  | Crashed c ->
    J.Obj
      [
        ("kind", J.Str "crashed");
        ("campaign", J.Str c.campaign);
        ("program", J.Num (float_of_int c.program_index));
        ("reason", J.Str c.reason);
      ]
  | Diverged d ->
    J.Obj
      [
        ("kind", J.Str "diverged");
        ("campaign", J.Str d.campaign);
        ("program", J.Num (float_of_int d.program_index));
        ("path1", J.Num (float_of_int (fst d.pair)));
        ("path2", J.Num (float_of_int (snd d.pair)));
        ("aarch64", J.Str (verdict_string d.aarch64));
        ("riscv", J.Str (verdict_string d.riscv));
      ]

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf csv_header;
  List.iter (fun ev -> Buffer.add_string buf (event_row ev)) (events t);
  Buffer.contents buf

(* ---- parsing ---- *)

exception Parse_error of string

(* Quote-aware record splitter: fields may be double-quoted, with [""] as
   the escaped quote; quoted fields may contain commas and newlines. *)
let parse_records content =
  let records = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 64 in
  let n = String.length content in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_record () =
    flush_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let i = ref 0 in
  let in_quotes = ref false in
  while !i < n do
    let c = content.[!i] in
    (if !in_quotes then
       match c with
       | '"' ->
         if !i + 1 < n && content.[!i + 1] = '"' then begin
           Buffer.add_char buf '"';
           incr i
         end
         else in_quotes := false
       | c -> Buffer.add_char buf c
     else
       match c with
       | '"' -> in_quotes := true
       | ',' -> flush_field ()
       | '\n' -> flush_record ()
       | '\r' -> ()
       | c -> Buffer.add_char buf c);
    incr i
  done;
  if !in_quotes then raise (Parse_error "unterminated quoted field");
  if Buffer.length buf > 0 || !fields <> [] then flush_record ();
  List.rev !records

let verdict_of_string = function
  | "distinguishable" -> Executor.Distinguishable
  | "indistinguishable" -> Executor.Indistinguishable
  | "inconclusive" -> Executor.Inconclusive
  | s -> raise (Parse_error ("unknown verdict: " ^ s))

let int_field name s =
  try int_of_string s
  with _ -> raise (Parse_error (Printf.sprintf "field %s: bad integer %S" name s))

let float_field name s =
  try float_of_string s
  with _ -> raise (Parse_error (Printf.sprintf "field %s: bad float %S" name s))

let event_of_fields fields =
  (* A 14th field, when present, names the guest ISA; 13-field rows are
     the historical format and mean AArch64. *)
  let fields, isa =
    match fields with
    | [ _; _; _; _; _; _; _; _; _; _; _; _; _; isa_s ] ->
      (List.filteri (fun i _ -> i < 13) fields,
       (match Isa.of_string isa_s with
       | Ok isa -> isa
       | Error msg -> raise (Parse_error msg)))
    | _ -> (fields, Isa.Aarch64)
  in
  match fields with
  | [
      campaign; kind; program; test; template; path1; path2; verdict; gen; exe;
      retries; faults; reason;
    ] -> (
    let program_index = int_field "program" program in
    match kind with
    | "experiment" ->
      Experiment
        {
          campaign;
          program_index;
          test_index = int_field "test" test;
          template;
          path_pair = (int_field "path1" path1, int_field "path2" path2);
          verdict = verdict_of_string verdict;
          generation_seconds = float_field "gen_seconds" gen;
          execution_seconds = float_field "exe_seconds" exe;
          retries = (if retries = "" then 0 else int_field "retries" retries);
          faults = (if faults = "" then 0 else int_field "faults" faults);
          isa;
        }
    | "quarantined" ->
      Quarantined
        {
          campaign;
          program_index;
          pair = (int_field "path1" path1, int_field "path2" path2);
          reason;
        }
    | "diverged" ->
      Diverged
        {
          campaign;
          program_index;
          pair = (int_field "path1" path1, int_field "path2" path2);
          aarch64 = verdict_of_string verdict;
          riscv = verdict_of_string reason;
        }
    | "program-failed" -> Program_failed { campaign; program_index; reason }
    | "crashed" -> Crashed { campaign; program_index; reason }
    | k -> raise (Parse_error ("unknown event kind: " ^ k)))
  | fields ->
    raise
      (Parse_error
         (Printf.sprintf "expected 13 fields, got %d" (List.length fields)))

let of_csv content =
  let t = create () in
  (match parse_records content with
  | [] -> ()
  | header :: rows ->
    (match header with
    | "campaign" :: "kind" :: _ -> ()
    | _ -> raise (Parse_error "missing journal CSV header"));
    List.iter
      (fun fields ->
        (* Tolerate a trailing blank record from a final newline. *)
        match fields with [ "" ] | [] -> () | _ -> record_event t (event_of_fields fields))
      rows);
  t

(* ---- v2 parsing with tail recovery ---- *)

type recovery = { records : int; dropped_bytes : int }

let is_v2 content =
  let m = magic ^ "\n" in
  String.length content >= String.length m
  && String.sub content 0 (String.length m) = m

(* Parse the longest clean prefix of framed records.  Any structural or
   checksum failure stops the scan — deliberately without skipping forward:
   once one record is suspect, nothing after it can be trusted to align,
   and resume semantics only need a clean prefix (the campaign re-runs
   everything from the first damaged program). *)
let parse_v2 content =
  let t = create () in
  let n = String.length content in
  let pos = ref (String.length magic + 1) in
  let records = ref 0 in
  let stopped = ref false in
  while (not !stopped) && !pos < n do
    let record_ok =
      match String.index_from_opt content !pos '\n' with
      | None -> None
      | Some nl -> (
        let header = String.sub content !pos (nl - !pos) in
        match Scanf.sscanf_opt header "R %d %x%!" (fun len crc -> (len, crc)) with
        | None -> None
        | Some (len, crc) ->
          let start = nl + 1 in
          (* a difference, so that a huge [len] cannot overflow *)
          if len < 0 || len >= n - start || content.[start + len] <> '\n' then
            None
          else
            let payload = String.sub content start len in
            if Crc32.string payload <> crc then None
            else begin
              match parse_records (payload ^ "\n") with
              | exception Parse_error _ -> None
              | [ fields ] -> (
                match event_of_fields fields with
                | ev -> Some (ev, start + len + 1)
                | exception Parse_error _ -> None)
              | _ -> None
            end)
    in
    match record_ok with
    | Some (ev, next_pos) ->
      record_event t ev;
      incr records;
      pos := next_pos
    | None -> stopped := true
  done;
  (t, { records = !records; dropped_bytes = n - !pos })

let of_string_tolerant content =
  if is_v2 content then parse_v2 content
  else
    (* v1 plain-CSV files were only ever written whole, by earlier
       builds, so there is no torn tail to recover from: parse strictly
       and report a clean recovery. *)
    let t = of_csv content in
    (t, { records = List.length (events t); dropped_bytes = 0 })

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ~path = of_string_tolerant (read_file path)
