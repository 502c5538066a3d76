(** Micro-batching scheduler: coalesces concurrent point-evaluation
    requests for the same model into single batch-kernel calls.

    Admitted requests wait in a FIFO ({!submit}), whose bound is the
    acceptor's per-worker admission bound; a flush is due
    ({!ready}) once the oldest request has lingered [linger_s], once
    [max_batch] points are pending, or once any pending deadline is about
    to pass.  {!flush} drains the whole queue: expired requests answer
    [Timeout], the rest group by model digest and each group becomes one
    call into the entry's single-owner batch evaluator.  Lanes of the
    batch kernel are independent, so result bits never depend on how
    requests were coalesced — served evaluations are bit-identical to
    offline [awesym eval] at any batch/jobs setting.

    Obs: counters [serve.batch.count], [serve.points],
    [serve.rejected.timeout]; histograms
    [serve.batch.points] (occupancy), [serve.queue.depth],
    [serve.latency_us]. *)

type config = {
  max_batch : int;  (** pending points that force an immediate flush *)
  linger_s : float;  (** max seconds the oldest request waits for company *)
}

val default_config : config
(** 4096-point batches, 2 ms linger. *)

type pending = {
  key : int;  (** connection slot, opaque to the batcher *)
  id : Obs.Json.t option;  (** request id, echoed into the response *)
  entry : Registry.entry;
  points : float array array;  (** row-major, widths pre-validated *)
  arrived : float;  (** admission timestamp, seconds *)
  deadline : float option;  (** absolute deadline, seconds *)
  trace : Reqtrace.builder option;
      (** request trace; {!flush} records [serve.queue.wait] and
          [serve.kernel.eval] spans into it and hands it back with the
          response so the server can finish the record *)
}

type t

val create : config -> t
(** Raises [Invalid_argument] on a non-positive [max_batch] or a
    negative linger. *)

val length : t -> int

val submit : t -> pending -> unit
(** Queue an admitted request (histogram [serve.queue.depth]). *)

val due : t -> now:float -> float option
(** Seconds until the next flush must run ([Some 0.] = overdue), [None]
    when the queue is empty.  The serving loop's select timeout. *)

val ready : t -> now:float -> bool

val flush :
  t ->
  now:float ->
  (int * Obs.Json.t option * Reqtrace.builder option * Protocol.response) list
(** Drain and evaluate everything pending; returns
    [(key, id, trace, response)] per request, in request order within
    each model group.  Never raises: a batch-kernel failure answers
    every member of that group with the classified error. *)
