(* Multi-tenancy primitives: tenant naming, per-tenant admission quotas
   and the deterministic seed namespace.

   A tenant's runtime state (FIFO backlog, sequence counter, unfinished
   count) carries no internal locking: the scheduler touches it only under
   its own lock. *)

module Splitmix = Scamv_util.Splitmix

type quota = {
  max_backlog : int;  (** queued-but-not-running sessions allowed *)
  max_active : int;  (** unfinished (queued + running) sessions allowed *)
}

let default_quota = { max_backlog = 8; max_active = 16 }

type rejection = Backlog_full | Quota_exceeded

let rejection_reason = function
  | Backlog_full -> "tenant backlog full"
  | Quota_exceeded -> "tenant quota exceeded"

type t = {
  name : string;
  quota : quota;
  pending : string Queue.t;  (** session ids awaiting a runner, FIFO *)
  mutable sequence : int;  (** sessions ever admitted; names the next id *)
  mutable active : int;  (** admitted and not yet terminal *)
}

let valid_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
  | _ -> false

let validate_name name =
  let n = String.length name in
  if n = 0 then Error "tenant name must be non-empty"
  else if n > 64 then Error "tenant name longer than 64 bytes"
  else if not (String.for_all valid_name_char name) then
    Error "tenant name may only contain [A-Za-z0-9._-]"
  else Ok name

let create ~name ~quota =
  { name; quota; pending = Queue.create (); sequence = 0; active = 0 }

let admit t =
  if Queue.length t.pending >= t.quota.max_backlog then Error Backlog_full
  else if t.active >= t.quota.max_active then Error Quota_exceeded
  else begin
    let seq = t.sequence in
    t.sequence <- seq + 1;
    t.active <- t.active + 1;
    Ok seq
  end

let finish t = t.active <- max 0 (t.active - 1)

(* FNV-1a, the 64-bit variant — a stable, dependency-free string hash. *)
let fnv1a64 s =
  let open Int64 in
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := mul (logxor !h (of_int (Char.code c))) prime) s;
  !h

let derive_seed ~tenant ~sequence =
  (* One splitmix64 step over (hash(tenant) ^ sequence): a fixed function
     of the pair, so a tenant's nth campaign always draws the same seed no
     matter what other tenants are doing — and a batch CLI run given the
     same seed is byte-identical to the served campaign. *)
  let g =
    Splitmix.of_seed (Int64.logxor (fnv1a64 tenant) (Int64.of_int sequence))
  in
  fst (Splitmix.next g)
