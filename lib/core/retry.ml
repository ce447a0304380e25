module Executor = Scamv_microarch.Executor

(* Retry with majority voting, the software analogue of the paper's
   practice of re-running flaky experiments on the boards. *)

type policy = { max_attempts : int; confirm : int }

let default = { max_attempts = 1; confirm = 1 }

let make ?(max_attempts = 1) ?(confirm = 1) () =
  if max_attempts < 1 then invalid_arg "Retry.make: max_attempts must be >= 1";
  if confirm < 1 then invalid_arg "Retry.make: confirm must be >= 1";
  { max_attempts; confirm }

type outcome = {
  verdict : Executor.verdict;
  attempts : int;
  retries : int;
  faults : int;
}

let execute policy run =
  let dist = ref 0 and indist = ref 0 in
  let attempts = ref 0 in
  let faults = ref 0 in
  let confirmed () = !dist >= policy.confirm || !indist >= policy.confirm in
  while (not (confirmed ())) && !attempts < policy.max_attempts do
    let verdict, fault_count = run ~attempt:!attempts in
    incr attempts;
    faults := !faults + fault_count;
    match verdict with
    | Executor.Distinguishable -> incr dist
    | Executor.Indistinguishable -> incr indist
    | Executor.Inconclusive -> ()
  done;
  (* Majority vote over the conclusive attempts; persistent disagreement
     (or nothing conclusive at all) downgrades to Inconclusive. *)
  let verdict =
    if !dist > !indist then Executor.Distinguishable
    else if !indist > !dist then Executor.Indistinguishable
    else Executor.Inconclusive
  in
  { verdict; attempts = !attempts; retries = max 0 (!attempts - 1); faults = !faults }
