(** Tiered admission control: per-client caps, dead-on-arrival deadline
    shedding, and least-loaded routing under the one per-worker backlog
    bound, reusing the existing [timeout]/[overloaded] error kinds (the
    [where] field names the tier that shed).  No gate reads the
    artifact. *)

type config = {
  per_client_inflight : int;
      (** eval requests one connection may have in flight at once *)
}

val default_config : config

val precheck :
  config ->
  client_inflight:int ->
  deadline:float option ->
  now:float ->
  Awesym_error.t option
(** Gates 1–2: [Some] error (kind [Overloaded] at
    [serve.admission.client], or [Timeout] at
    [serve.admission.deadline]) when the connection is over its inflight
    cap or the deadline already passed; [None] means proceed to
    routing. *)

val route :
  workers:int ->
  depth:(int -> int) ->
  capacity:int ->
  (int, Awesym_error.t) result
(** Gate 3: the worker in [0 .. workers - 1] with the least [depth]
    (requests admitted to it and not yet answered; ties to the lower
    index), if that depth is below [capacity].  Otherwise every worker
    is at the bound and the request sheds [Overloaded] at
    [serve.admission.queue]. *)
