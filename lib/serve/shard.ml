type t = {
  index : int;
  breaker : Breaker.t;
  mutable clock : int;
  mutable admitted : int;
  mutable shed : int;
  mutable processed : int;
  mutable expired : int;
}

type stat = {
  shard : int;
  s_admitted : int;
  s_shed : int;
  s_processed : int;
  s_expired : int;
  transitions : (int * Breaker.state) list;
}

let create ~config ~index =
  { index; breaker = Breaker.create ~config (); clock = 0; admitted = 0;
    shed = 0; processed = 0; expired = 0 }

(* Expired requests left the queue without being processed, so they
   no longer count against the shard's admission backlog. *)
let backlog t = t.admitted - t.processed - t.expired

let stat t =
  { shard = t.index; s_admitted = t.admitted; s_shed = t.shed;
    s_processed = t.processed; s_expired = t.expired;
    transitions = Breaker.transitions t.breaker }

(* Content-addressed routing: FNV-1a of the request id, reduced mod the
   shard count. The same id lands on the same shard in every run and
   every process — shard assignment is part of the deterministic
   service semantics, not an artifact of arrival order or core count. *)
let of_id ~shards id =
  if shards < 1 then invalid_arg "Shard.of_id: shards must be >= 1";
  let h = Lepts_robust.Checkpoint.fnv1a id in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int shards))
