module Bits = Scamv_util.Bits
module Splitmix = Scamv_util.Splitmix
module Text_table = Scamv_util.Text_table
module Json = Scamv_util.Json
module Crc32 = Scamv_util.Crc32
module Deadline = Scamv_util.Deadline
module Chaos = Scamv_util.Chaos
module Stopwatch = Scamv_util.Stopwatch

let check = Alcotest.check
let int64 = Alcotest.int64

(* ---- Bits ---- *)

let test_mask () =
  check int64 "mask 0" 0L (Bits.mask 0);
  check int64 "mask 1" 1L (Bits.mask 1);
  check int64 "mask 8" 0xFFL (Bits.mask 8);
  check int64 "mask 63" Int64.max_int (Bits.mask 63);
  check int64 "mask 64" (-1L) (Bits.mask 64)

let test_truncate () =
  check int64 "truncate 8" 0x34L (Bits.truncate 8 0x1234L);
  check int64 "truncate 64 id" (-1L) (Bits.truncate 64 (-1L));
  check int64 "truncate 1" 1L (Bits.truncate 1 0xFFL)

let test_bit_ops () =
  Alcotest.(check bool) "bit 0 of 1" true (Bits.bit 1L 0);
  Alcotest.(check bool) "bit 1 of 1" false (Bits.bit 1L 1);
  Alcotest.(check bool) "bit 63 of -1" true (Bits.bit (-1L) 63);
  check int64 "set bit" 5L (Bits.set_bit 1L 2 true);
  check int64 "clear bit" 1L (Bits.set_bit 5L 2 false)

let test_sign_extend () =
  check int64 "sext 8 of 0x80" (-128L) (Bits.sign_extend 8 0x80L);
  check int64 "sext 8 of 0x7F" 0x7FL (Bits.sign_extend 8 0x7FL);
  check int64 "sext 64 id" (-1L) (Bits.sign_extend 64 (-1L));
  check int64 "sext 1 of 1" (-1L) (Bits.sign_extend 1 1L)

let test_extract () =
  check int64 "extract nibble" 0x3L (Bits.extract ~hi:7 ~lo:4 0x34L);
  check int64 "extract lsb" 0x34L (Bits.extract ~hi:7 ~lo:0 0x1234L);
  check int64 "extract msb" 1L (Bits.extract ~hi:63 ~lo:63 (-1L))

let test_unsigned_compare () =
  Alcotest.(check bool) "ult simple" true (Bits.ult 1L 2L);
  Alcotest.(check bool) "ult wraparound" true (Bits.ult 1L (-1L));
  Alcotest.(check bool) "ult not refl" false (Bits.ult 5L 5L);
  Alcotest.(check bool) "ule refl" true (Bits.ule 5L 5L);
  Alcotest.(check bool) "slt negative" true (Bits.slt ~width:64 (-1L) 0L);
  Alcotest.(check bool) "slt width 8" true (Bits.slt ~width:8 0x80L 0x7FL)

let test_popcount () =
  Alcotest.(check Alcotest.int) "popcount 0" 0 (Bits.popcount 0L);
  Alcotest.(check Alcotest.int) "popcount -1" 64 (Bits.popcount (-1L));
  Alcotest.(check Alcotest.int) "popcount 0b1011" 3 (Bits.popcount 0b1011L)

(* ---- Splitmix ---- *)

let test_rng_deterministic () =
  let g1 = Splitmix.of_seed 42L and g2 = Splitmix.of_seed 42L in
  let v1, _ = Splitmix.next g1 and v2, _ = Splitmix.next g2 in
  check int64 "same seed, same value" v1 v2

let test_rng_seed_sensitivity () =
  let v1, _ = Splitmix.next (Splitmix.of_seed 1L) in
  let v2, _ = Splitmix.next (Splitmix.of_seed 2L) in
  Alcotest.(check bool) "different seeds differ" true (not (Int64.equal v1 v2))

let test_rng_int_bounds () =
  let g = ref (Splitmix.of_seed 7L) in
  for _ = 1 to 1000 do
    let v, g' = Splitmix.int !g 17 in
    g := g';
    Alcotest.(check bool) "in bounds" true (v >= 0 && v < 17)
  done

let test_rng_int_in_bounds () =
  let g = ref (Splitmix.of_seed 7L) in
  for _ = 1 to 1000 do
    let v, g' = Splitmix.int_in !g (-5) 5 in
    g := g';
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_rng_split_independence () =
  let a, b = Splitmix.split (Splitmix.of_seed 9L) in
  let va, _ = Splitmix.next a and vb, _ = Splitmix.next b in
  Alcotest.(check bool) "split streams differ" true (not (Int64.equal va vb))

let test_rng_choose () =
  let v, _ = Splitmix.choose (Splitmix.of_seed 3L) [ "only" ] in
  Alcotest.(check string) "singleton choose" "only" v;
  Alcotest.check_raises "empty choose" (Invalid_argument "Splitmix.choose: empty list")
    (fun () -> ignore (Splitmix.choose (Splitmix.of_seed 3L) []))

let test_rng_shuffle_permutation () =
  let xs = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let ys, _ = Splitmix.shuffle (Splitmix.of_seed 11L) xs in
  Alcotest.(check (list Alcotest.int)) "same multiset" xs (List.sort compare ys)

let prop_rng_float_range =
  QCheck.Test.make ~name:"float stays in [0,1)" ~count:500 QCheck.int64 (fun seed ->
      let v, _ = Splitmix.float (Splitmix.of_seed seed) in
      v >= 0.0 && v < 1.0)

(* [fill_bools] is [bool] iterated: the same values in the given range,
   nothing outside it, and the same next state. *)
let prop_rng_fill_bools =
  QCheck.Test.make ~name:"fill_bools matches iterated bool" ~count:500
    QCheck.(triple int64 (int_bound 300) (pair small_nat small_nat))
    (fun (seed, size, (a, b)) ->
      let pos = if size = 0 then 0 else a mod (size + 1) in
      let len = if size = pos then 0 else b mod (size - pos + 1) in
      let g = Splitmix.of_seed seed in
      let filled = Array.make size false in
      let g_fill = Splitmix.fill_bools g filled pos len in
      let expected = Array.make size false in
      let g_iter = ref g in
      for i = pos to pos + len - 1 do
        let v, g' = Splitmix.bool !g_iter in
        expected.(i) <- v;
        g_iter := g'
      done;
      filled = expected && fst (Splitmix.next g_fill) = fst (Splitmix.next !g_iter))

let test_rng_fill_bools_bounds () =
  let a = Array.make 4 false and g = Splitmix.of_seed 1L in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %d" pos len)
        (Invalid_argument "Splitmix.fill_bools: range out of bounds")
        (fun () -> ignore (Splitmix.fill_bools g a pos len)))
    [ (-1, 1); (0, 5); (3, 2); (2, -1) ]

(* ---- Json edge cases ---- *)

let test_json_unicode_escapes () =
  (* \u escapes up to 0xff decode to the single byte they name (the
     emitter's byte-transparent convention); higher BMP code points decode
     to UTF-8 (surrogate pairs are out of scope for the files this parser
     serves). *)
  let decodes input expected =
    match Json.of_string input with
    | Json.Str s -> Alcotest.(check string) input expected s
    | _ -> Alcotest.fail (Printf.sprintf "%s did not parse to a string" input)
  in
  decodes "\"\\u0041\"" "A";
  decodes "\"\\u00e9\"" "\xe9";
  decodes "\"\\u20AC\"" "\xe2\x82\xac";
  decodes "\"\\u0000\"" "\x00";
  decodes "\"a\\u0009b\"" "a\tb"

let test_json_control_char_roundtrip () =
  (* The emitter escapes every control character (< 0x20), so strings
     containing them survive an emit/parse round-trip. *)
  let all_controls = String.init 0x20 Char.chr in
  let doc = Json.Obj [ ("ctl", Json.Str all_controls); ("mix", Json.Str "a\x01\x1fz") ] in
  Alcotest.(check bool)
    "control chars round-trip" true
    (Json.of_string (Json.to_string doc) = doc);
  let emitted = Json.to_string (Json.Str "\x01") in
  Alcotest.(check string) "C0 controls use \\u form" "\"\\u0001\"" emitted

let prop_json_bytes_roundtrip =
  (* Arbitrary byte strings — control characters, raw high bytes, junk
     that is not UTF-8 — survive emit/parse exactly, and the emitted
     document is pure 7-bit ASCII (wire-safe for streamed journal
     records). *)
  QCheck.Test.make ~name:"arbitrary bytes round-trip through Str" ~count:500
    QCheck.(string_gen (Gen.char_range '\x00' '\xff'))
    (fun s ->
      let doc = Json.Obj [ ("s", Json.Str s); ("l", Json.Arr [ Json.Str s ]) ] in
      let emitted = Json.to_string doc in
      String.for_all (fun c -> Char.code c < 0x80) emitted
      && Json.of_string emitted = doc)

let test_json_write_matches_to_string () =
  (* The incremental channel serializer emits exactly the to_string
     bytes, compact and pretty. *)
  let doc =
    Json.Obj
      [
        ("s", Json.Str "bytes \x00\x7f\xff and \"quotes\"");
        ("n", Json.Num 1.5);
        ("l", Json.Arr [ Json.Null; Json.Bool false; Json.Obj [ ("k", Json.Num 2.) ] ]);
      ]
  in
  let via_channel ?pretty () =
    let path = Filename.temp_file "scamv_json" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> Json.write ?pretty oc doc);
        In_channel.with_open_bin path In_channel.input_all)
  in
  Alcotest.(check string) "compact" (Json.to_string doc) (via_channel ());
  Alcotest.(check string) "pretty"
    (Json.to_string ~pretty:true doc)
    (via_channel ~pretty:true ())

let test_json_deep_nesting () =
  let depth = 1000 in
  let deep_arr =
    String.make depth '[' ^ "0" ^ String.make depth ']'
  in
  (match Json.of_string deep_arr with
  | Json.Arr _ as v ->
    Alcotest.(check bool)
      "deep array round-trips" true
      (Json.of_string (Json.to_string v) = v)
  | _ -> Alcotest.fail "deep array did not parse to an array");
  let b = Buffer.create (depth * 8) in
  for _ = 1 to depth do
    Buffer.add_string b {|{"k":|}
  done;
  Buffer.add_string b "null";
  for _ = 1 to depth do
    Buffer.add_char b '}'
  done;
  match Json.of_string (Buffer.contents b) with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "deep object did not parse to an object"

let test_json_bad_unicode_escapes_rejected () =
  (* Malformed \u escapes must raise Parse_error — not Failure, and not
     silently accept OCaml-isms like underscore separators. *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | exception e ->
        Alcotest.fail
          (Printf.sprintf "%S raised %s instead of Parse_error" s
             (Printexc.to_string e))
      | _ -> Alcotest.fail (Printf.sprintf "accepted bad escape %S" s))
    [
      {|"\u"|};
      {|"\u12"|};
      {|"\u12|};
      {|"\uzzzz"|};
      {|"\u1_23"|};
      {|"\u 123"|};
      {|"\u123g"|};
      {|"\x41"|};
    ]

(* ---- Crc32 ---- *)

let test_crc32_vectors () =
  (* The IEEE 802.3 check value, plus edge cases. *)
  Alcotest.(check Alcotest.int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check Alcotest.int) "empty" 0 (Crc32.string "");
  Alcotest.(check Alcotest.int) "all bytes survive" (Crc32.string "\x00\xff\n")
    (Crc32.string "\x00\xff\n");
  Alcotest.(check bool) "corruption detected" true
    (Crc32.string "journal record" <> Crc32.string "journal recorD")

let test_crc32_update () =
  let whole = Crc32.string "abcdef" in
  Alcotest.(check Alcotest.int) "incremental = whole" whole
    (Crc32.update (Crc32.string "abc") "def");
  Alcotest.(check Alcotest.int) "update from empty" whole (Crc32.update (Crc32.string "") "abcdef")

let test_crc32_hex () =
  Alcotest.(check string) "zero pads" "00000000" (Crc32.to_hex 0);
  Alcotest.(check string) "lower case" "cbf43926" (Crc32.to_hex 0xCBF43926)

(* ---- Deadline ---- *)

let test_deadline_conflicts () =
  let d = Deadline.create (Deadline.Conflicts 3) in
  Alcotest.(check bool) "fresh" false (Deadline.expired d);
  Deadline.tick d 2;
  Alcotest.(check bool) "under limit" false (Deadline.expired d);
  Deadline.tick d 1;
  Alcotest.(check bool) "at limit" true (Deadline.expired d);
  (match Deadline.with_current d Deadline.poll with
  | exception Deadline.Expired _ -> ()
  | () -> Alcotest.fail "poll did not raise");
  (* Sticky: once expired, stays expired. *)
  Alcotest.(check bool) "sticky" true (Deadline.expired d)

let test_deadline_wall_frozen () =
  (* Under the frozen clock a wall deadline never advances, so frozen
     (deterministic) campaigns are unaffected by watchdogs. *)
  let d = Deadline.create ~clock:Stopwatch.frozen (Deadline.Wall_seconds 0.001) in
  for _ = 1 to 10_000 do Deadline.tick d 1 done;
  Alcotest.(check bool) "frozen clock never expires" false (Deadline.expired d);
  Deadline.cancel d;
  Alcotest.(check bool) "cancel forces expiry" true (Deadline.expired d)

let test_deadline_invalid () =
  Alcotest.(check bool) "zero conflicts rejected" true
    (match Deadline.create (Deadline.Conflicts 0) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative seconds rejected" true
    (match Deadline.create (Deadline.Wall_seconds (-1.0)) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_deadline_ambient () =
  Alcotest.(check bool) "no ambient token" true (Deadline.current () = None);
  (* poll is a no-op without a token. *)
  Deadline.poll ();
  let d = Deadline.create (Deadline.Conflicts 2) in
  let observed =
    Deadline.with_current d (fun () ->
        (* the SAT search's charge: tick the ambient token per conflict *)
        Option.iter (fun d -> Deadline.tick d 2) (Deadline.current ());
        match Deadline.poll () with
        | exception Deadline.Expired _ -> true
        | () -> false)
  in
  Alcotest.(check bool) "ambient tick expires token" true observed;
  Alcotest.(check bool) "token restored after scope" true (Deadline.current () = None)

(* ---- Chaos ---- *)

let test_chaos_pure_and_rate () =
  let a = Chaos.create ~rate:0.5 ~seed:99L () in
  let b = Chaos.create ~rate:0.5 ~seed:99L () in
  for key = 0 to 499 do
    let k = Int64.of_int key in
    Alcotest.(check bool) "same (seed,site,key) same decision"
      (Chaos.roll a ~site:"pool.worker" ~key:k)
      (Chaos.roll b ~site:"pool.worker" ~key:k)
  done;
  (* Decisions are stateless: re-rolling a key gives the same answer. *)
  Alcotest.(check bool) "re-roll is stable"
    (Chaos.roll a ~site:"pool.worker" ~key:7L)
    (Chaos.roll a ~site:"pool.worker" ~key:7L);
  (* Empirical rate is in the right ballpark for rate 0.5. *)
  let hits = ref 0 in
  for key = 0 to 999 do
    if Chaos.roll a ~site:"rate.check" ~key:(Int64.of_int key) then incr hits
  done;
  Alcotest.(check bool) "rate plausible" true (!hits > 350 && !hits < 650)

let test_chaos_sites_independent () =
  let c = Chaos.create ~rate:0.5 ~seed:3L () in
  let differs = ref false in
  for key = 0 to 63 do
    let k = Int64.of_int key in
    if Chaos.roll c ~site:"journal.poison" ~key:k
       <> Chaos.roll c ~site:"journal.delay" ~key:k
    then differs := true
  done;
  Alcotest.(check bool) "sites draw independently" true !differs

let test_chaos_off_and_invalid () =
  let off = Chaos.create () in
  for key = 0 to 99 do
    Alcotest.(check bool) "rate 0 never injects" false
      (Chaos.roll off ~site:"pool.worker" ~key:(Int64.of_int key))
  done;
  Alcotest.(check Alcotest.int) "no injections counted" 0 (Chaos.injections off);
  Alcotest.(check bool) "rate > 1 rejected" true
    (match Chaos.create ~rate:1.5 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_chaos_kill_counts () =
  let c = Chaos.create ~rate:1.0 ~seed:1L () in
  (match Chaos.kill c ~site:"pool.worker" ~key:0L with
  | exception Chaos.Killed site -> Alcotest.(check string) "site name" "pool.worker" site
  | () -> Alcotest.fail "rate 1 did not kill");
  Alcotest.(check Alcotest.int) "injection counted" 1 (Chaos.injections c)

(* ---- Text_table ---- *)

let contains_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_table_renders () =
  let s =
    Text_table.render ~header:[ "a"; "bb" ] ~rows:[ [ "xxx"; "y" ]; [ "1"; "2" ] ]
  in
  Alcotest.(check bool) "contains header" true (contains_substring s "bb");
  Alcotest.(check bool) "contains cell" true (contains_substring s "xxx")

let test_table_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Text_table.render: ragged row")
    (fun () -> ignore (Text_table.render ~header:[ "a"; "b" ] ~rows:[ [ "1" ] ]))

let () =
  Alcotest.run "scamv_util"
    [
      ( "bits",
        [
          Alcotest.test_case "mask" `Quick test_mask;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "bit get/set" `Quick test_bit_ops;
          Alcotest.test_case "sign_extend" `Quick test_sign_extend;
          Alcotest.test_case "extract" `Quick test_extract;
          Alcotest.test_case "unsigned compare" `Quick test_unsigned_compare;
          Alcotest.test_case "popcount" `Quick test_popcount;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "choose" `Quick test_rng_choose;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_rng_float_range;
          QCheck_alcotest.to_alcotest prop_rng_fill_bools;
          Alcotest.test_case "fill_bools bounds" `Quick test_rng_fill_bools_bounds;
        ] );
      ( "json",
        [
          Alcotest.test_case "unicode escapes decode" `Quick test_json_unicode_escapes;
          Alcotest.test_case "control chars round-trip" `Quick
            test_json_control_char_roundtrip;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
          Alcotest.test_case "bad \\u escapes rejected" `Quick
            test_json_bad_unicode_escapes_rejected;
          QCheck_alcotest.to_alcotest prop_json_bytes_roundtrip;
          Alcotest.test_case "Json.write matches to_string" `Quick
            test_json_write_matches_to_string;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "incremental update" `Quick test_crc32_update;
          Alcotest.test_case "hex rendering" `Quick test_crc32_hex;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "virtual conflicts" `Quick test_deadline_conflicts;
          Alcotest.test_case "wall under frozen clock" `Quick test_deadline_wall_frozen;
          Alcotest.test_case "invalid specs rejected" `Quick test_deadline_invalid;
          Alcotest.test_case "ambient token" `Quick test_deadline_ambient;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "pure decisions, plausible rate" `Quick
            test_chaos_pure_and_rate;
          Alcotest.test_case "sites independent" `Quick test_chaos_sites_independent;
          Alcotest.test_case "off and invalid rates" `Quick test_chaos_off_and_invalid;
          Alcotest.test_case "kill counts injections" `Quick test_chaos_kill_counts;
        ] );
      ( "text_table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "ragged rejected" `Quick test_table_ragged_rejected;
        ] );
    ]
