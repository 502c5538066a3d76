(** Wire protocol of the serving daemon (schema ["awesymbolic-serve/1"]).

    Frames are a 4-byte big-endian payload length followed by that many
    bytes of JSON.  Every float on the wire — request points, nominals,
    result moments — is carried as its IEEE-754 bit pattern in 16 hex
    digits, so served evaluations are bit-identical to offline ones: no
    decimal round-trip sits between the client and the batch kernel.
    Requests and responses both carry a ["schema"] field; either end
    rejects a mismatched peer with a classified [Parse] error, which is
    what makes client/server version skew diagnosable (see also
    [awesym --version]). *)

val schema : string
(** ["awesymbolic-serve/1"]. *)

val max_frame : int
(** Largest admissible frame payload (64 MiB).  A length prefix past this
    is rejected before any allocation and the connection is closed — the
    stream cannot be resynchronized. *)

(** {1 Framing} *)

val frame : string -> string
(** Prepend the 4-byte length header. *)

val frame_of_json : Obs.Json.t -> string
(** [frame] of the compact serialization. *)

val pop_frame : Buffer.t -> [ `Frame of string | `Need_more | `Oversized of int ]
(** Extract (and consume) the next complete frame from a receive buffer.
    [`Need_more] leaves the buffer untouched; [`Oversized] reports a
    hostile or corrupt length prefix. *)

val write_frame : Unix.file_descr -> string -> unit
(** Blocking framed write (client side). *)

val read_frame :
  Unix.file_descr -> (string, [ `Closed | `Oversized of int ]) result
(** Blocking framed read (client side).  [`Closed] on EOF, including EOF
    mid-frame (a truncated frame). *)

(** {1 Requests} *)

type eval = {
  model : string;  (** server-side artifact path *)
  points : float array array;
      (** row-major: [points.(i).(k)] is symbol [k] of point [i], in the
          model's positional symbol order *)
  deadline_ms : float option;
      (** relative deadline; the server answers [Timeout] instead of
          evaluating once it expires *)
}

type trace_context = {
  trace_id : string;  (** client-generated, opaque to the server *)
  parent_span : string;  (** the client-side span this request belongs to *)
}
(** Optional envelope-level trace context.  The server copies both fields
    verbatim into the request's server-side trace record, which is what
    lets a client-generated id be found again in [--trace-log] output. *)

type sweep_chunk = {
  sc_model : string;  (** server-side artifact path *)
  sc_plan : Obs.Json.t;  (** [Sweep.Plan.to_json] of the coordinator's plan *)
  sc_seed : int;
  sc_block : int;
  sc_measures : string list;  (** measure spellings, e.g. ["\"moment:1\""] *)
  sc_specs : string list;  (** spec spellings, e.g. ["\"bw3db>=1e6\""] *)
  sc_policy : string;  (** ["fail_fast"] | ["skip"] | ["retry:K"] *)
  sc_chunk : int;  (** chunk index into the deterministic layout *)
  sc_key : string;  (** coordinator's checkpoint key (hex MD5) *)
  sc_deadline_ms : float option;
}
(** A distributed-sweep work item: the full sweep parameterization (so
    the worker can rebuild the coordinator's preparation bit-for-bit,
    including the RNG jump-ahead streams) plus one chunk index.  The
    worker recomputes the checkpoint key from the same inputs and
    refuses with [invalid_request] on mismatch — model/plan skew is
    caught before any evaluation. *)

type optimize = {
  op_model : string;  (** server-side artifact path *)
  op_request : Obs.Json.t;
      (** the full ["awesymbolic-opt/1"] request document, carried
          opaquely — the daemon decodes it with [Opt.Request.of_json] and
          runs it unchanged, so the served report is byte-identical to an
          offline [awesym optimize] run of the same request *)
  op_deadline_ms : float option;
}

type request =
  | Ping  (** liveness + version inventory *)
  | Info of string  (** model metadata: digest, order, symbols, nominals *)
  | Eval of eval
  | Stats  (** serve metrics snapshot *)
  | Metrics  (** Prometheus text exposition of the metric surface *)
  | Trace of int  (** the [n] most recent completed request traces *)
  | Sweep_chunk of sweep_chunk  (** evaluate one sweep chunk remotely *)
  | Optimize of optimize  (** run a sizing / yield-max request remotely *)
  | Shutdown  (** graceful drain: finish queued work, then exit *)

val request_to_json :
  ?id:Obs.Json.t -> ?trace:trace_context -> request -> Obs.Json.t

val request_of_json :
  Obs.Json.t ->
  (Obs.Json.t option * trace_context option * request, Awesym_error.t) result
(** Decode a request envelope, only in the shape {!request_to_json}
    writes ([trace]'s [limit] may be omitted and defaults to 16); anything
    else is a [Parse] error naming the JSON path of the first bad node.
    The [id] field (any JSON value) is echoed in the response so clients
    may pipeline, and the optional [trace] context is propagated into the
    server-side request trace. *)

(** {1 Responses} *)

type info_result = {
  digest : string;  (** hex MD5 of the artifact bytes — the registry key *)
  order : int;
  symbols : string array;
  nominals : float array;
}

type eval_result = {
  digest : string;
  order : int;
  moments : float array array;  (** one row per request point *)
}

type chunk_reply = {
  cr_digest : string;  (** digest of the artifact the worker evaluated *)
  cr_key : string;  (** worker-side checkpoint key — equals the request's *)
  cr_chunk : int;
  cr_record : Obs.Json.t;
      (** checkpoint-format chunk record ([{lo; len; vals; failed}], hex
          float bits) — exactly a sweep checkpoint's chunk line, so
          the coordinator merges remote chunks through the same
          validation path as a local resume *)
}

type opt_reply = {
  or_digest : string;  (** digest of the artifact the optimizer ran on *)
  or_report : Obs.Json.t;
      (** the ["awesymbolic-opt/1"] report, verbatim — serializing it is
          byte-identical to the offline CLI's [--json] output *)
}

type response =
  | R_pong of (string * string) list  (** (component, version) pairs *)
  | R_info of info_result
  | R_eval of eval_result
  | R_stats of Obs.Json.t
  | R_metrics of string  (** Prometheus text exposition *)
  | R_traces of Obs.Json.t list  (** recent request traces, oldest first *)
  | R_chunk of chunk_reply  (** one evaluated sweep chunk *)
  | R_optimize of opt_reply  (** one finished optimization report *)
  | R_draining
  | R_error of Awesym_error.t

val response_to_json : ?id:Obs.Json.t -> response -> Obs.Json.t
val response_of_json :
  Obs.Json.t -> (Obs.Json.t option * response, Awesym_error.t) result
(** [response_of_json (response_to_json r) = Ok r] up to float bits — the
    round-trip property test in [test_serve.ml] — and, like
    {!request_of_json}, a [Parse] error naming the path on anything
    [response_to_json] cannot write. *)
