(** Blocking client for the serving daemon.

    One connection, synchronous request/response; requests carry a
    monotone id echoed back by the server.  Not thread-safe — give each
    domain its own connection (the [bench serve] load generator does
    exactly that).  Server-side errors come back as the [Error] arm of
    each call, already classified through the {!Awesym_error} taxonomy
    ([Timeout] for expired deadlines, [Overloaded] for load shed, ...). *)

type t

val connect : string -> (t, Awesym_error.t) result
(** Connect to a daemon address: [unix:PATH], [tcp:HOST:PORT], or a
    bare Unix socket path (back-compat). *)

val connect_addr : Transport.addr -> (t, Awesym_error.t) result
(** Connect to an already-parsed address (e.g. {!Server.bound_addr}).
    Every connect ignores SIGPIPE process-wide, so a request written to
    a daemon that has just died fails with a retryable [unavailable]
    error instead of killing the caller. *)

val close : t -> unit

(** {1 Backoff-with-jitter retry}

    Exponential backoff capped at [max_s] with a deterministic jitter
    derived from MD5 of [(salt, attempt)] — every retry schedule is
    reproducible given its salt, and distinct salts (one per peer)
    decorrelate concurrent retriers. *)

module Backoff : sig
  type t = {
    attempts : int;  (** total attempts, including the first (>= 1) *)
    base_s : float;  (** delay before attempt 1; doubles per attempt *)
    max_s : float;  (** cap on the uncapped exponential *)
    jitter : float;  (** fraction shaved off: delay ∈ [(1-j)·d, d] *)
  }

  val default : t
  (** 5 attempts, 50 ms base, 2 s cap, 0.5 jitter. *)

  val delay : t -> salt:string -> attempt:int -> float
  (** Seconds to sleep after failed [attempt] (0-based); deterministic
      in [(salt, attempt)]. *)

  val retryable : Awesym_error.t -> bool
  (** True for the transient kinds worth another attempt:
      [unavailable], [timeout], [overloaded], [worker_crash],
      [injected_fault].  Everything else fails fast. *)
end

val with_retry :
  ?backoff:Backoff.t ->
  salt:string ->
  (attempt:int -> ('a, Awesym_error.t) result) ->
  ('a, Awesym_error.t) result
(** Run [f ~attempt] until it succeeds, fails non-retryably, or the
    attempt budget is spent; sleeps {!Backoff.delay} between attempts
    and counts each retry in the [serve.client.retries] metric. *)

val connect_retry :
  ?backoff:Backoff.t -> string -> (t, Awesym_error.t) result
(** {!connect} with backoff-and-retry on [unavailable] failures — the
    peer not being up {e yet} (daemon still binding its socket) or not
    {e right now} (restarting) is handled here instead of by ad-hoc
    retry loops at call sites. *)

val connect_addr_retry :
  ?backoff:Backoff.t -> Transport.addr -> (t, Awesym_error.t) result

val set_timeout : t -> float -> unit
(** Arm a send/receive deadline (seconds; [0.] disarms) on the
    connection via socket timeouts.  When a receive deadline fires,
    {!rpc} returns a classified [timeout] — and the connection is no
    longer framed-synchronized, so close it and reconnect. *)

val new_trace_id : unit -> string
(** A fresh client-generated trace id (pid + clock + counter), unique
    per process.  Pass it in a {!Protocol.trace_context} to find this
    request again in the server's trace ring / [--trace-log]. *)

val rpc :
  ?trace:Protocol.trace_context ->
  t ->
  Protocol.request ->
  (Protocol.response, Awesym_error.t) result
(** One framed round-trip.  [R_error] replies are folded into [Error]. *)

val ping : t -> ((string * string) list, Awesym_error.t) result
(** Liveness probe; returns the server's version inventory. *)

val info : t -> string -> (Protocol.info_result, Awesym_error.t) result
(** Model metadata for a server-side artifact path. *)

val eval :
  t ->
  ?trace:Protocol.trace_context ->
  ?deadline_ms:float ->
  model:string ->
  float array array ->
  (Protocol.eval_result, Awesym_error.t) result
(** Evaluate points (row-major, in the model's positional symbol order).
    Result moments are bit-identical to offline [Slp.eval_batch]. *)

val stats : t -> (Obs.Json.t, Awesym_error.t) result

val metrics : t -> (string, Awesym_error.t) result
(** The server's metric surface in Prometheus text exposition format. *)

val traces : t -> limit:int -> (Obs.Json.t list, Awesym_error.t) result
(** The server's most recent completed request traces, oldest first. *)

val sweep_chunk :
  t ->
  ?trace:Protocol.trace_context ->
  Protocol.sweep_chunk ->
  (Protocol.chunk_reply, Awesym_error.t) result
(** Evaluate one sweep chunk on the server.  The reply's record is in
    the checkpoint format; the caller (the dsweep coordinator) verifies
    [cr_key] against its own before merging. *)

val optimize :
  t ->
  ?trace:Protocol.trace_context ->
  Protocol.optimize ->
  (Protocol.opt_reply, Awesym_error.t) result
(** Run a sizing / yield-maximization request on the server.  The reply
    carries the ["awesymbolic-opt/1"] report verbatim — serializing it
    is byte-identical to the offline [awesym optimize --json] output of
    the same request. *)

val shutdown : t -> (unit, Awesym_error.t) result
(** Ask the server to drain and exit; returns once acknowledged. *)
