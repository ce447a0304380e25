module Platform = Scamv_isa.Platform
module Splitmix = Scamv_util.Splitmix

type t = {
  platform : Platform.t;
  threshold : int;
  fire_prob : float;
  mutable last : int64 option;
  mutable stride : int64;
  mutable streak : int;  (* number of consecutive accesses with this stride *)
}

let create ?(threshold = 3) ?(fire_prob = 0.97) platform =
  if threshold < 2 then invalid_arg "Prefetcher.create: threshold must be >= 2";
  { platform; threshold; fire_prob; last = None; stride = 0L; streak = 1 }

let reset t =
  t.last <- None;
  t.stride <- 0L;
  t.streak <- 1

let observe t ~rng addr =
  let fire_target =
    match t.last with
    | None ->
      t.streak <- 1;
      None
    | Some prev ->
      let stride = Int64.sub addr prev in
      if Int64.equal stride 0L then None (* same address: stream unchanged *)
      else begin
        if Int64.equal stride t.stride then t.streak <- t.streak + 1
        else begin
          t.stride <- stride;
          t.streak <- 2
        end;
        if t.streak >= t.threshold then begin
          let next = Int64.add addr t.stride in
          (* The A53 prefetcher does not cross page boundaries. *)
          if
            Int64.equal
              (Platform.page_index t.platform next)
              (Platform.page_index t.platform addr)
          then Some next
          else None
        end
        else None
      end
  in
  t.last <- Some addr;
  match fire_target with
  | None -> None
  | Some next ->
    (* Prefetch issue is timing-sensitive on the real core. *)
    let p, rng' = Splitmix.float !rng in
    rng := rng';
    if p < t.fire_prob then Some next else None
