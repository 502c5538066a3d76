(* Blocking client for the serving daemon: one connection, synchronous
   request/response.  The CLI (`awesym call`) and the load generator
   (`bench serve`) both sit on this; each of the load generator's client
   domains owns a private connection, so no locking is needed here. *)

module Json = Obs.Json
module Err = Awesym_error

type t = { fd : Unix.file_descr; mutable seq : int }

let protocol_error ~where fmt =
  Printf.ksprintf (fun m -> Err.make Parse ~where m) fmt

(* A write to a peer that has just died must come back as EPIPE, which
   [rpc] classifies retryable, not kill the process: the coordinator then
   retries the chunk on another worker.  Whoever opens a connection owns
   that decision, as the daemon does for its own sockets. *)
let connect_addr addr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Transport.connect addr with
  | Ok fd -> Ok { fd; seq = 0 }
  | Error e -> Error e

(* Accepts the same spellings the daemon's --listen flag does:
   [unix:PATH], [tcp:HOST:PORT], or a bare Unix path (back-compat). *)
let connect spec =
  match Transport.parse spec with
  | Error e -> Error e
  | Ok addr -> connect_addr addr

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Backoff-with-jitter retry.

   Exponential backoff capped at [max_s], with a deterministic jitter
   drawn from MD5 of (salt, attempt): every retry schedule is
   reproducible given its salt, so tests can assert on it and two
   workers hammering the same dead peer still spread out (different
   salts).  Retryability is decided by the taxonomy: the peer being
   gone or busy right now ([unavailable], [timeout], [overloaded]), a
   peer that died mid-conversation ([worker_crash]), or an injected
   fault are worth another attempt; everything else (parse errors,
   invalid requests, ...) fails fast because retrying cannot fix it. *)

module Backoff = struct
  type t = { attempts : int; base_s : float; max_s : float; jitter : float }

  let default = { attempts = 5; base_s = 0.05; max_s = 2.0; jitter = 0.5 }

  (* Uniform [0,1) from the first 8 hex digits of MD5 (salt # attempt). *)
  let unit_jitter ~salt ~attempt =
    let h =
      Digest.to_hex (Digest.string (Printf.sprintf "%s#%d" salt attempt))
    in
    let bits = Int64.of_string ("0x" ^ String.sub h 0 8) in
    Int64.to_float bits /. 4294967296.0

  let delay t ~salt ~attempt =
    let exp = t.base_s *. (2.0 ** float_of_int attempt) in
    let capped = Float.min t.max_s exp in
    (* jitter = j scales the delay into [1-j, 1] * capped *)
    capped *. (1.0 -. (t.jitter *. unit_jitter ~salt ~attempt))

  let retryable (e : Err.t) =
    match e.Err.kind with
    | Err.Unavailable | Err.Timeout | Err.Overloaded | Err.Worker_crash
    | Err.Injected_fault ->
      true
    | _ -> false
end

let with_retry ?(backoff = Backoff.default) ~salt f =
  let rec go attempt =
    match f ~attempt with
    | Ok _ as ok -> ok
    | Error e when Backoff.retryable e && attempt + 1 < backoff.Backoff.attempts
      ->
      Obs.Metrics.incr "serve.client.retries";
      Unix.sleepf (Backoff.delay backoff ~salt ~attempt);
      go (attempt + 1)
    | Error _ as err -> err
  in
  go 0

let connect_addr_retry ?backoff addr =
  with_retry ?backoff
    ~salt:("connect:" ^ Transport.to_string addr)
    (fun ~attempt:_ -> connect_addr addr)

let connect_retry ?backoff spec =
  match Transport.parse spec with
  | Error e -> Error e
  | Ok addr -> connect_addr_retry ?backoff addr

(* Per-connection receive/send deadline via socket timeouts.  After a
   receive timeout fires mid-response the stream is unsynchronized
   (the reply may still arrive later); the caller must close and
   reconnect rather than reuse the connection. *)
let set_timeout t seconds =
  try
    Unix.setsockopt_float t.fd SO_RCVTIMEO seconds;
    Unix.setsockopt_float t.fd SO_SNDTIMEO seconds
  with Unix.Unix_error _ | Invalid_argument _ -> ()

(* Client-generated trace ids: unique per process without any global
   coordination — pid + wall clock + a per-process counter. *)
let trace_counter = ref 0

let new_trace_id () =
  Stdlib.incr trace_counter;
  Printf.sprintf "cli-%d-%.0f-%d" (Unix.getpid ())
    (Unix.gettimeofday () *. 1e6)
    !trace_counter

let rpc ?trace t req =
  t.seq <- t.seq + 1;
  let id = Json.Num (float_of_int t.seq) in
  match
    Protocol.write_frame t.fd
      (Json.to_string (Protocol.request_to_json ~id ?trace req))
  with
  | exception Unix.Unix_error ((ECONNRESET | EPIPE) as e, _, _) ->
    (* The peer vanished between requests: retryable after reconnect. *)
    Error
      (Err.make Unavailable ~where:"serve.client"
         ("send failed: " ^ Unix.error_message e))
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Err.make Worker_crash ~where:"serve.client"
         ("send failed: " ^ Unix.error_message e))
  | () -> (
    match Protocol.read_frame t.fd with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
      (* A SO_RCVTIMEO deadline (see {!set_timeout}) expired mid-read;
         the connection is no longer framed-synchronized — close it. *)
      Error
        (Err.make Timeout ~where:"serve.client"
           "rpc deadline expired waiting for the response")
    | exception Unix.Unix_error (ECONNRESET, _, _) ->
      Error
        (Err.make Unavailable ~where:"serve.client"
           "connection reset while reading the response")
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Err.make Worker_crash ~where:"serve.client"
           ("recv failed: " ^ Unix.error_message e))
    | Error `Closed ->
      Error
        (Err.make Worker_crash ~where:"serve.client"
           "server closed the connection mid-response")
    | Error (`Oversized n) ->
      Error
        (protocol_error ~where:"serve.client" "oversized response frame (%d bytes)"
           n)
    | Ok payload -> (
      match Json.of_string payload with
      | Error msg ->
        Error
          (protocol_error ~where:"serve.client" "malformed response JSON: %s" msg)
      | Ok j -> (
        match Protocol.response_of_json j with
        | Error e -> Error e
        | Ok (_id, Protocol.R_error e) -> Error e
        | Ok (_id, resp) -> Ok resp)))

(* One round trip whose reply must be the shape [pick] selects. *)
let call ?trace t ~op req pick =
  match rpc ?trace t req with
  | Ok resp -> (
    match pick resp with
    | Some v -> Ok v
    | None -> Error (protocol_error ~where:"serve.client" "unexpected reply to %s" op))
  | Error e -> Error e

let ping t =
  call t ~op:"ping" Protocol.Ping (function Protocol.R_pong v -> Some v | _ -> None)

let info t model =
  call t ~op:"info" (Protocol.Info model) (function
    | Protocol.R_info i -> Some i
    | _ -> None)

let eval t ?trace ?deadline_ms ~model points =
  call ?trace t ~op:"eval"
    (Protocol.Eval { Protocol.model; points; deadline_ms })
    (function Protocol.R_eval e -> Some e | _ -> None)

let stats t =
  call t ~op:"stats" Protocol.Stats (function Protocol.R_stats s -> Some s | _ -> None)

let metrics t =
  call t ~op:"metrics" Protocol.Metrics (function
    | Protocol.R_metrics m -> Some m
    | _ -> None)

let traces t ~limit =
  call t ~op:"trace" (Protocol.Trace limit) (function
    | Protocol.R_traces ts -> Some ts
    | _ -> None)

let sweep_chunk t ?trace req =
  call ?trace t ~op:"sweep_chunk" (Protocol.Sweep_chunk req) (function
    | Protocol.R_chunk c -> Some c
    | _ -> None)

let optimize t ?trace req =
  call ?trace t ~op:"optimize" (Protocol.Optimize req) (function
    | Protocol.R_optimize o -> Some o
    | _ -> None)

let shutdown t =
  call t ~op:"shutdown" Protocol.Shutdown (function
    | Protocol.R_draining -> Some ()
    | _ -> None)
