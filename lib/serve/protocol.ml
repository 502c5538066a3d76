(* Wire protocol of the serving daemon: length-prefixed JSON frames over a
   Unix-domain socket, schema "awesymbolic-serve/1".

   A frame is a 4-byte big-endian payload length followed by that many
   bytes of JSON.  Every float crossing the wire — request points, nominal
   values, result moments — travels as its IEEE-754 bit pattern in 16 hex
   digits, so a served evaluation is bit-identical to the same evaluation
   run offline: no decimal round-trip sits between the client and the
   batch kernel.  Human-readable JSON numbers are reserved for metadata
   (ids, orders, deadlines, stats). *)

module Json = Obs.Json
module Err = Awesym_error
module C = Obs.Codec

let schema = "awesymbolic-serve/1"

(* Largest admissible frame.  At 16 hex digits + quotes + comma per float
   this is room for ~3M points in one request — far past the batching
   sweet spot — while bounding what a garbage length prefix can make the
   server allocate. *)
let max_frame = 64 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Framing *)

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let frame_of_json j = frame (Json.to_string j)

(* Incremental frame extraction from a connection's receive buffer.
   [`Frame payload] consumes the frame from [buf]; [`Need_more] leaves it
   untouched; [`Oversized n] reports a length prefix past {!max_frame} —
   the stream cannot be resynchronized after that, so the caller should
   answer with an error and close. *)
let pop_frame buf =
  let have = Buffer.length buf in
  if have < 4 then `Need_more
  else begin
    let header = Buffer.sub buf 0 4 in
    let n = Int32.to_int (String.get_int32_be header 0) in
    if n < 0 || n > max_frame then `Oversized n
    else if have < 4 + n then `Need_more
    else begin
      let payload = Buffer.sub buf 4 n in
      let rest = Buffer.sub buf (4 + n) (have - 4 - n) in
      Buffer.clear buf;
      Buffer.add_string buf rest;
      `Frame payload
    end
  end

(* Blocking frame I/O for clients (and tests).  The server side never
   blocks on a peer; it uses {!pop_frame} under select instead. *)

let write_frame fd payload =
  let s = frame payload in
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b !sent (n - !sent)
  done

let read_frame fd =
  let rec exactly b off len =
    if len = 0 then true
    else
      match Unix.read fd b off len with
      | 0 -> false
      | k -> exactly b (off + k) (len - k)
  in
  let header = Bytes.create 4 in
  if not (exactly header 0 4) then Error `Closed
  else
    let n = Int32.to_int (Bytes.get_int32_be header 0) in
    if n < 0 || n > max_frame then Error (`Oversized n)
    else
      let payload = Bytes.create n in
      if not (exactly payload 0 n) then Error `Closed
      else Ok (Bytes.unsafe_to_string payload)

(* ------------------------------------------------------------------ *)
(* Requests *)

type eval = {
  model : string;  (** server-side artifact path *)
  points : float array array;  (** row-major: [points.(i).(k)] = symbol k *)
  deadline_ms : float option;
}

(* Client-generated trace context, carried at the envelope level so every
   op can be traced.  Both fields are opaque strings; the server copies
   them into the request's trace record verbatim. *)
type trace_context = { trace_id : string; parent_span : string }

(* A distributed-sweep work item: everything a worker needs to rebuild
   the coordinator's sweep preparation bit-for-bit (plan JSON, seed,
   block, measures/specs/policy spellings) plus the chunk index to
   evaluate.  [key] is the coordinator's checkpoint key; the worker
   recomputes its own from the same inputs and refuses on mismatch,
   which catches model or plan skew before any cycles are spent. *)
type sweep_chunk = {
  sc_model : string;  (** server-side artifact path *)
  sc_plan : Json.t;  (** [Sweep.Plan.to_json] of the coordinator's plan *)
  sc_seed : int;
  sc_block : int;
  sc_measures : string list;
  sc_specs : string list;
  sc_policy : string;  (** ["fail_fast"] | ["skip"] | ["retry:K"] *)
  sc_chunk : int;  (** chunk index into the deterministic layout *)
  sc_key : string;  (** coordinator's checkpoint key (hex MD5) *)
  sc_deadline_ms : float option;
}

(* An optimization job: the server-side model path plus the full
   "awesymbolic-opt/1" request document, carried opaquely — the daemon
   hands it to [Opt.Request.of_json]/[run] unchanged, which is what
   makes the served report byte-identical to an offline [awesym
   optimize] run of the same request. *)
type optimize = {
  op_model : string;  (** server-side artifact path *)
  op_request : Json.t;  (** schema "awesymbolic-opt/1" request document *)
  op_deadline_ms : float option;
}

type request =
  | Ping
  | Info of string
  | Eval of eval
  | Stats
  | Metrics
  | Trace of int
  | Sweep_chunk of sweep_chunk
  | Optimize of optimize
  | Shutdown

(* A case with no payload, selected by its tag alone. *)
let nullary name v =
  C.case name (C.record () []) (fun () -> v) (fun r -> if r = v then Some () else None)

let points = C.array (C.array C.hexfloat)

let request_codec =
  C.tagged "op"
    [
      nullary "ping" Ping;
      nullary "stats" Stats;
      nullary "metrics" Metrics;
      (* [limit] defaults to 16 when absent (docs/SERVING.md). *)
      C.case "trace" (C.record Fun.id [ C.opt "limit" C.int Fun.id ])
        (fun l -> Trace (Option.value l ~default:16))
        (function Trace n -> Some (Some n) | _ -> None);
      nullary "shutdown" Shutdown;
      C.case "info" (C.record Fun.id [ C.req "model" C.string Fun.id ])
        (fun m -> Info m) (function Info m -> Some m | _ -> None);
      C.case "eval"
        (C.record (fun model points deadline_ms -> { model; points; deadline_ms })
           [ C.req "model" C.string (fun e -> e.model);
             C.req "points" points (fun e -> e.points);
             C.opt "deadline_ms" C.num (fun e -> e.deadline_ms) ])
        (fun e -> Eval e) (function Eval e -> Some e | _ -> None);
      C.case "sweep_chunk"
        (C.record
           (fun sc_model sc_plan sc_seed sc_block sc_measures sc_specs sc_policy
                sc_chunk sc_key sc_deadline_ms ->
             { sc_model; sc_plan; sc_seed; sc_block; sc_measures; sc_specs;
               sc_policy; sc_chunk; sc_key; sc_deadline_ms })
           [ C.req "model" C.string (fun c -> c.sc_model);
             C.req "plan" C.json (fun c -> c.sc_plan);
             C.req "seed" C.int (fun c -> c.sc_seed);
             C.req "block" C.int (fun c -> c.sc_block);
             C.req "measures" (C.list C.string) (fun c -> c.sc_measures);
             C.req "specs" (C.list C.string) (fun c -> c.sc_specs);
             C.req "policy" C.string (fun c -> c.sc_policy);
             C.req "chunk" C.int (fun c -> c.sc_chunk);
             C.req "key" C.string (fun c -> c.sc_key);
             C.opt "deadline_ms" C.num (fun c -> c.sc_deadline_ms) ])
        (fun c -> Sweep_chunk c) (function Sweep_chunk c -> Some c | _ -> None);
      C.case "optimize"
        (C.record
           (fun op_model op_request op_deadline_ms ->
             { op_model; op_request; op_deadline_ms })
           [ C.req "model" C.string (fun o -> o.op_model);
             C.req "request" C.json (fun o -> o.op_request);
             C.opt "deadline_ms" C.num (fun o -> o.op_deadline_ms) ])
        (fun o -> Optimize o) (function Optimize o -> Some o | _ -> None);
    ]

let request_envelope =
  let trace =
    C.record (fun trace_id parent_span -> { trace_id; parent_span })
      [ C.req "trace_id" C.string (fun t -> t.trace_id);
        C.req "parent_span" C.string (fun t -> t.parent_span) ]
  in
  C.record (fun id trace req -> (id, trace, req))
    [ C.const "schema" (Json.Str schema);
      C.opt "id" C.json (fun (id, _, _) -> id);
      C.opt "trace" trace (fun (_, trace, _) -> trace);
      C.inline request_codec (fun (_, _, req) -> req) ]

let request_to_json ?id ?trace req = C.encode request_envelope (id, trace, req)
let request_of_json = Err.decode ~kind:Parse ~where:"serve.request" request_envelope

(* ------------------------------------------------------------------ *)
(* Responses *)

type info_result = {
  digest : string;  (** hex MD5 of the artifact bytes — the registry key *)
  order : int;
  symbols : string array;
  nominals : float array;
}

type eval_result = {
  digest : string;
  order : int;
  moments : float array array;  (** row-major, one row per request point *)
}

type chunk_reply = {
  cr_digest : string;  (** digest of the artifact the worker evaluated *)
  cr_key : string;  (** worker-side checkpoint key — must equal the request's *)
  cr_chunk : int;
  cr_record : Json.t;  (** checkpoint-format chunk record (hex float bits) *)
}

type opt_reply = {
  or_digest : string;  (** digest of the artifact the optimizer ran on *)
  or_report : Json.t;  (** the "awesymbolic-opt/1" report, verbatim *)
}

type response =
  | R_pong of (string * string) list  (** (component, version) pairs *)
  | R_info of info_result
  | R_eval of eval_result
  | R_stats of Json.t
  | R_metrics of string
  | R_traces of Json.t list
  | R_chunk of chunk_reply
  | R_optimize of opt_reply
  | R_draining
  | R_error of Err.t

(* Responses carry no tag: each shape is recognized by a member only it
   has.  Every success starts with ["ok": true]. *)
let response_codec =
  let flag name = C.const name (Json.Bool true) in
  let digest get = C.req "digest" C.string get and order get = C.req "order" C.int get in
  let payload name c =
    C.case name (C.record Fun.id [ flag "ok"; C.req name c Fun.id ])
  in
  C.marked
    [
      C.case "pong"
        (C.record Fun.id
           [ flag "ok"; flag "pong"; C.req "versions" (C.dict C.string) Fun.id ])
        (fun v -> R_pong v) (function R_pong v -> Some v | _ -> None);
      C.case "draining" (C.record () [ flag "ok"; flag "draining" ])
        (fun () -> R_draining) (function R_draining -> Some () | _ -> None);
      C.case "symbols"
        (C.record
           (fun digest order symbols nominals -> { digest; order; symbols; nominals })
           [ flag "ok";
             digest (fun (i : info_result) -> i.digest);
             order (fun (i : info_result) -> i.order);
             C.req "symbols" (C.array C.string) (fun i -> i.symbols);
             C.req "nominals" (C.array C.hexfloat) (fun i -> i.nominals) ])
        (fun i -> R_info i) (function R_info i -> Some i | _ -> None);
      C.case "moments"
        (C.record (fun digest order moments -> { digest; order; moments })
           [ flag "ok";
             digest (fun (e : eval_result) -> e.digest);
             order (fun (e : eval_result) -> e.order);
             C.req "moments" points (fun e -> e.moments) ])
        (fun e -> R_eval e) (function R_eval e -> Some e | _ -> None);
      C.case "chunk_record"
        (C.record
           (fun cr_digest cr_key cr_chunk cr_record ->
             { cr_digest; cr_key; cr_chunk; cr_record })
           [ flag "ok";
             digest (fun c -> c.cr_digest);
             C.req "key" C.string (fun c -> c.cr_key);
             C.req "chunk" C.int (fun c -> c.cr_chunk);
             C.req "chunk_record" C.json (fun c -> c.cr_record) ])
        (fun c -> R_chunk c) (function R_chunk c -> Some c | _ -> None);
      C.case "opt_report"
        (C.record (fun or_digest or_report -> { or_digest; or_report })
           [ flag "ok";
             digest (fun o -> o.or_digest);
             C.req "opt_report" C.json (fun o -> o.or_report) ])
        (fun o -> R_optimize o) (function R_optimize o -> Some o | _ -> None);
      payload "stats" C.json
        (fun s -> R_stats s)
        (function R_stats s -> Some s | _ -> None);
      payload "traces" (C.list C.json)
        (fun ts -> R_traces ts)
        (function R_traces ts -> Some ts | _ -> None);
      payload "metrics_text" C.string
        (fun t -> R_metrics t)
        (function R_metrics t -> Some t | _ -> None);
      C.case "error"
        (C.record Fun.id
           [ C.const "ok" (Json.Bool false); C.req "error" Err.codec Fun.id ])
        (fun e -> R_error e) (function R_error e -> Some e | _ -> None);
    ]

let response_envelope =
  C.record (fun id resp -> (id, resp))
    [ C.const "schema" (Json.Str schema);
      C.opt "id" C.json fst;
      C.inline response_codec snd ]

let response_to_json ?id resp = C.encode response_envelope (id, resp)
let response_of_json = Err.decode ~kind:Parse ~where:"serve.response" response_envelope
