(* Reference kernel and the interval scaler built on it.

   The host alternates between a fast and a slow state for stretches of
   0.3-5 s; the slow state costs allocation- and hash-table-heavy code
   (this pipeline) about 1.5x, while pure integer loops are untouched.
   The kernel below is a fixed workload of the same kind: it builds a
   20k-entry Hashtbl of short lists and probes it.  Timed right next to a
   stretch of pipeline work, its duration tells how slow the host was
   during that stretch, and the stretch's time is rescaled to the host
   state in which the kernel takes [reference_s]. *)

let now = Unix.gettimeofday

(* Nominal kernel duration defining one "reference second". *)
let reference_s = 0.010

(* Nominal launch time of the reference process (see [scamv_perf.ml]),
   defining the reference second of set-up times. *)
let spawn_reference_s = 0.001

let table_size = 20_000

let run () =
  let h = Hashtbl.create 1024 in
  for i = 0 to table_size - 1 do
    Hashtbl.replace h (i * 7919) [ i; i + 1; i + 2 ]
  done;
  let s = ref 0 in
  for _ = 1 to 4 do
    for i = 0 to table_size - 1 do
      match Hashtbl.find_opt h (i * 7919) with
      | Some (a :: _) -> s := !s + a
      | _ -> ()
    done
  done;
  ignore (Sys.opaque_identity !s)

(* Start time and duration of one kernel run. *)
let stamped () =
  let t0 = now () in
  run ();
  (t0, now () -. t0)

let timed () = snd (stamped ())

(* A scaler cuts a run into intervals at calls to [boundary].  Each
   boundary runs the kernel once and the kernel's own time is excluded
   from every interval.  Interval [i] lies between kernel runs [i] and
   [i + 1]; it is scaled by the median of those two and of every other
   kernel run within [window_s] of them.  On short intervals the median
   drops single-run outliers (a GC slice landing in the kernel); on long
   ones it stays with the two bracketing runs, which are the only ones
   that saw the same host state. *)
type interval = { raw_s : float; scaled_s : float }

let window_s = 0.05

type t = {
  mutable mark : float;  (* start of the open interval *)
  mutable kernels_rev : (float * float) list;  (* start time, duration *)
  mutable raws_rev : float list;
  mutable count : int;  (* closed intervals *)
}

let create () =
  (* Warm the kernel up once so its first timing is not a cold start. *)
  ignore (timed ());
  let k = stamped () in
  { mark = now (); kernels_rev = [ k ]; raws_rev = []; count = 0 }

(* Close the open interval, run the kernel, open the next interval.
   Returns the closed interval's index. *)
let boundary t =
  let raw = now () -. t.mark in
  let k = stamped () in
  t.raws_rev <- raw :: t.raws_rev;
  t.kernels_rev <- k :: t.kernels_rev;
  t.mark <- now ();
  t.count <- t.count + 1;
  t.count - 1

(* Exclude [f]'s time from the open interval (bench-side bookkeeping
   that is not program work). *)
let excluded t f =
  let t0 = now () in
  let v = f () in
  t.mark <- t.mark +. (now () -. t0);
  v

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  let m = Array.length a in
  if m mod 2 = 1 then a.(m / 2) else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.0

let intervals t =
  let ks = Array.of_list (List.rev t.kernels_rev) in
  let n = Array.length ks in
  let rec down j t0 acc =
    if j >= 0 && t0 -. fst ks.(j) <= window_s then down (j - 1) t0 (snd ks.(j) :: acc) else acc
  in
  let rec up j t1 acc =
    if j < n && fst ks.(j) -. t1 <= window_s then up (j + 1) t1 (snd ks.(j) :: acc) else acc
  in
  Array.of_list
    (List.mapi
       (fun i raw_s ->
         let w = snd ks.(i) :: snd ks.(i + 1) :: down (i - 1) (fst ks.(i)) (up (i + 2) (fst ks.(i + 1)) []) in
         { raw_s; scaled_s = raw_s *. reference_s /. median_of w })
       (List.rev t.raws_rev))

let kernels t = List.rev_map snd t.kernels_rev
let kernel_total t = List.fold_left (fun a (_, d) -> a +. d) 0.0 t.kernels_rev
