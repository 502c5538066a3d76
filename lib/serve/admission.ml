(* Tiered admission control between the acceptor and the worker shards.

   Every model-bound request passes three gates before it may queue:

     1. per-client inflight cap — one greedy pipelining connection must
        not monopolize the shards; past the cap it sheds [Overloaded]
        while other clients keep flowing.
     2. dead-on-arrival deadline — a request whose deadline has already
        passed answers [Timeout] immediately instead of wasting a queue
        slot on work nobody will read.
     3. least-loaded routing under one backlog bound — the worker with
        the fewest requests admitted and not yet answered is chosen; if
        even that worker is at the bound, the request sheds
        [Overloaded].  This is the only bound on a worker's backlog:
        neither its mailbox nor its batcher holds another.

   No gate reads the artifact: the chosen worker resolves it through its
   own registry.  Shedding at admission costs one JSON error frame;
   shedding after queueing costs queue occupancy everyone else pays for.
   The existing [timeout]/[overloaded] error kinds are reused so clients
   cannot tell the tiers apart except by the [where] field — which names
   the tier precisely to make load problems diagnosable from the client
   side. *)

module Err = Awesym_error

type config = {
  per_client_inflight : int;
      (* eval requests one connection may have queued/batched at once *)
}

let default_config = { per_client_inflight = 64 }

(* Gates 1+2: cheap per-request checks. *)
let precheck config ~client_inflight ~deadline ~now =
  if client_inflight >= config.per_client_inflight then begin
    Obs.Metrics.incr "serve.rejected.overloaded";
    Some
      (Err.make Overloaded ~where:"serve.admission.client"
         (Printf.sprintf "client already has %d requests in flight (cap %d)"
            client_inflight config.per_client_inflight))
  end
  else
    match deadline with
    | Some d when now > d ->
      Obs.Metrics.incr "serve.rejected.timeout";
      Some
        (Err.make Timeout ~where:"serve.admission.deadline"
           (Printf.sprintf "deadline expired %.3f ms before admission"
              ((now -. d) *. 1e3)))
    | _ -> None

(* Gate 3: the least-loaded worker, if it is under the bound.  Ties
   break toward the lower worker index so routing is stable under equal
   load; each worker's load is read once. *)
let route ~workers ~depth ~capacity =
  let best = ref 0 and least = ref (depth 0) in
  for w = 1 to workers - 1 do
    let d = depth w in
    if d < !least then begin
      best := w;
      least := d
    end
  done;
  if !least < capacity then Ok !best
  else begin
    Obs.Metrics.incr "serve.rejected.overloaded";
    Error
      (Err.make Overloaded ~where:"serve.admission.queue"
         (Printf.sprintf
            "every worker has %d requests admitted and not yet answered \
             (%d workers)"
            capacity workers))
  end
