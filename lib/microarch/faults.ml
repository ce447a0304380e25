module Splitmix = Scamv_util.Splitmix

(* Noise model for the paper's physical setup (Sec. 6.1): four Raspberry
   Pi 3 boards measured over days, where individual cache dumps come back
   perturbed, measurements are lost by the debugging channel, and unrelated
   bus traffic transiently pollutes the cache.  Everything is driven by a
   splitmix stream so campaigns remain reproducible from a single seed. *)

type config = { rate : float; seed : int64 }

let config ?(rate = 0.0) ?(seed = 0xFA17L) () =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Faults.config: rate must be within [0, 1]";
  { rate; seed }

type kind = Perturbation | Dropped_measurement | Cache_pollution

type t = {
  cfg : config;
  mutable rng : Splitmix.t;
  mutable injected : int;
}

let start cfg ~run_seed =
  (* Mix the configuration seed with the per-run seed so each measured run
     sees an independent but reproducible fault stream. *)
  let mixed = Int64.logxor cfg.seed (Int64.mul run_seed 0x9E3779B97F4A7C15L) in
  { cfg; rng = Splitmix.of_seed mixed; injected = 0 }

let injected t = t.injected

let draw t f =
  let x, rng = f t.rng in
  t.rng <- rng;
  x

let rand64 t = draw t Splitmix.next

(* Flip one bit of one observed word: a mis-read tag or a timing wobble. *)
let perturb t view =
  match view with
  | [] -> view
  | _ ->
    let target = draw t (fun r -> Splitmix.int r (List.length view)) in
    List.mapi
      (fun i (set, words) ->
        if i <> target then (set, words)
        else
          match words with
          | [] -> (set, [ rand64 t ])
          | _ ->
            let j = draw t (fun r -> Splitmix.int r (List.length words)) in
            let bit = draw t (fun r -> Splitmix.int r 64) in
            ( set,
              List.mapi
                (fun k w ->
                  if k = j then Int64.logxor w (Int64.shift_left 1L bit) else w)
                words ))
      view

(* A transiently resident line left by unrelated traffic: one extra tag
   appears in one observed set. *)
let pollute t view =
  match view with
  | [] -> [ (0, [ rand64 t ]) ]
  | _ ->
    let target = draw t (fun r -> Splitmix.int r (List.length view)) in
    List.mapi
      (fun i (set, words) ->
        if i <> target then (set, words) else (set, words @ [ rand64 t ]))
      view

let apply t view =
  let p = draw t Splitmix.float in
  if p >= t.cfg.rate then Some view
  else begin
    t.injected <- t.injected + 1;
    match draw t (fun r -> Splitmix.int r 3) with
    | 0 -> None (* the measurement never came back *)
    | 1 -> Some (perturb t view)
    | _ -> Some (pollute t view)
  end
