(* Reference process for set-up times (see scamv_perf.ml): it starts the
   OCaml runtime with the threads library initialized, like the bench
   driver and the server do, prints one line and exits. *)
let () =
  ignore (Thread.self ());
  print_endline "ready"
