(* SiSCloak end-to-end (Sec. 6.4, Fig. 6): a real Flush+Reload attack on
   the simulated Cortex-A53 that recovers a secret through a *single*
   speculative load — the vulnerability Scam-V exposed.

   Two victims are attacked:
   - variant 1 (Fig. 6, middle column): Spectre-PHT with the first load
     anticipated before the bounds check;
   - variant 2 (Fig. 6, right column): the classification bit of an array
     element is checked in a branch whose misprediction leaks the element.

   Run with:  dune exec examples/siscloak_attack.exe *)

module Ast = Scamv_isa.Ast
module Reg = Scamv_isa.Reg
module Machine = Scamv_isa.Machine
module Core = Scamv_microarch.Core
module Flush_reload = Scamv_microarch.Flush_reload
module Platform = Scamv_isa.Platform

let x = Reg.x
let a_base = 0x8000_0000L (* array A *)
let b_base = 0x8010_0000L (* probe array B *)
let line = 64L

(* Fig. 6 (middle): ldr x2,[#A+x0]; cmp x0,x1; b.hs end; ldr x4,[#B+x2].
   x10 = #A, x11 = #B. *)
let victim_variant1 =
  [|
    Ast.Ldr (x 2, { Ast.base = x 10; offset = Ast.Reg (x 0); scale = 0 });
    Ast.Cmp (x 0, Ast.Reg (x 1));
    Ast.B_cond (Ast.Hs, 4);
    Ast.Ldr (x 4, { Ast.base = x 11; offset = Ast.Reg (x 2); scale = 0 });
  |]

(* Fig. 6 (right): the element's top bit classifies it as public/secret;
   the load is guarded by that bit.  tst is modelled with and+cmp. *)
let victim_variant2 =
  [|
    Ast.Ldr (x 2, { Ast.base = x 10; offset = Ast.Reg (x 0); scale = 0 });
    Ast.And_ (x 3, x 2, Ast.Imm 0x8000_0000L);
    Ast.Cmp (x 3, Ast.Imm 0L);
    Ast.B_cond (Ast.Ne, 5) (* secret element: skip the load *);
    Ast.Ldr (x 4, { Ast.base = x 11; offset = Ast.Reg (x 2); scale = 0 });
  |]

(* The attacker probes one B line per candidate value. *)
let recover_secret fr victim ~train_input ~attack_input ~setup_memory ~candidates =
  let core = Flush_reload.core fr in
  let victim = Core.decode (Scamv_arch.Isa.Aarch64_program victim) in
  (* 1. Train the predictor with benign inputs. *)
  for _ = 1 to 5 do
    let m = Machine.create () in
    setup_memory m;
    Machine.set_reg m (x 0) train_input;
    ignore (Core.run core victim m)
  done;
  (* 2. Flush the probe lines. *)
  List.iter (fun c -> Flush_reload.flush fr (Int64.add b_base c)) candidates;
  (* 3. Victim runs once with the malicious input. *)
  let m = Machine.create () in
  setup_memory m;
  Machine.set_reg m (x 0) attack_input;
  ignore (Core.run core victim m);
  (* 4. Reload: the cached line reveals the secret. *)
  List.find_opt (fun c -> Flush_reload.was_cached fr (Int64.add b_base c)) candidates

let quiet = { Core.cortex_a53 with Core.mispredict_noise = 0.0 }

let attack_variant1 secret =
  let fr = Flush_reload.create quiet in
  let setup_memory m =
    Machine.set_reg m (x 10) a_base;
    Machine.set_reg m (x 11) b_base;
    Machine.set_reg m (x 1) 0x100L (* size of A *);
    (* In-bounds elements are small public values. *)
    Machine.store m (Int64.add a_base 0x10L) 0L;
    (* The secret sits beyond the bounds of A, scaled to line granularity. *)
    Machine.store m (Int64.add a_base 0x200L) (Int64.mul secret line)
  in
  let candidates = List.init 16 (fun i -> Int64.mul (Int64.of_int i) line) in
  recover_secret fr victim_variant1 ~train_input:0x10L ~attack_input:0x200L
    ~setup_memory ~candidates

let attack_variant2 secret =
  let fr = Flush_reload.create quiet in
  let setup_memory m =
    Machine.set_reg m (x 10) a_base;
    Machine.set_reg m (x 11) b_base;
    (* Public element at index 0x10 (top bit clear). *)
    Machine.store m (Int64.add a_base 0x10L) 0L;
    (* Confidential element: top bit set marks it secret; low bits are the
       secret payload. *)
    Machine.store m (Int64.add a_base 0x300L)
      (Int64.logor 0x8000_0000L (Int64.mul secret line))
  in
  let candidates =
    (* The transient probe address includes the classification bit. *)
    List.init 16 (fun i -> Int64.logor 0x8000_0000L (Int64.mul (Int64.of_int i) line))
  in
  recover_secret fr victim_variant2 ~train_input:0x10L ~attack_input:0x300L
    ~setup_memory ~candidates
  |> Option.map (fun c -> Int64.logand c (Int64.lognot 0x8000_0000L))

let run_attack name attack =
  Format.printf "@.=== %s ===@." name;
  let secrets = [ 3L; 7L; 11L; 14L ] in
  let ok = ref 0 in
  List.iter
    (fun secret ->
      match attack secret with
      | Some leaked when Int64.equal leaked (Int64.mul secret line) ->
        incr ok;
        Format.printf "secret %Ld: recovered (probe line 0x%Lx)@." secret leaked
      | Some leaked -> Format.printf "secret %Ld: WRONG recovery 0x%Lx@." secret leaked
      | None -> Format.printf "secret %Ld: nothing leaked@." secret)
    secrets;
  Format.printf "%d/%d secrets recovered@." !ok (List.length secrets)

let () =
  Format.printf
    "SiSCloak: a single speculative load on the Cortex-A53 leaks data@.";
  Format.printf "through the cache despite the absence of speculative forwarding.@.";
  run_attack "Variant 1: anticipated load before the bounds check" attack_variant1;
  run_attack "Variant 2: classification bit stored in the array" attack_variant2;
  (* Negative control: with speculation disabled (window 0), the attack
     recovers nothing — the leak is purely speculative. *)
  Format.printf "@.=== Negative control: speculation disabled ===@.";
  let no_spec = { quiet with Core.spec_window = 0 } in
  let fr = Flush_reload.create no_spec in
  let setup_memory m =
    Machine.set_reg m (x 10) a_base;
    Machine.set_reg m (x 11) b_base;
    Machine.set_reg m (x 1) 0x100L;
    Machine.store m (Int64.add a_base 0x10L) 0L;
    Machine.store m (Int64.add a_base 0x200L) (Int64.mul 7L line)
  in
  let candidates = List.init 16 (fun i -> Int64.mul (Int64.of_int i) line) in
  (match
     recover_secret fr victim_variant1 ~train_input:0x10L ~attack_input:0x200L
       ~setup_memory ~candidates
   with
  | None -> Format.printf "nothing leaked, as expected@."
  | Some c -> Format.printf "UNEXPECTED leak of 0x%Lx@." c)
