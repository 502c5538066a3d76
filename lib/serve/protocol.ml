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

let schema = "awesymbolic-serve/1"

(* Largest admissible frame.  At 16 hex digits + quotes + comma per float
   this is room for ~3M points in one request — far past the batching
   sweet spot — while bounding what a garbage length prefix can make the
   server allocate. *)
let max_frame = 64 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Bit-exact floats *)

let hex_of_float v = Printf.sprintf "%016Lx" (Int64.bits_of_float v)

(* Exactly the 16 lowercase hex digits [hex_of_float] writes: anything
   else — "_" separators, uppercase — would decode to some other float. *)
let float_of_hex s =
  let digit c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  if String.length s = 16 && String.for_all digit s then
    Some (Int64.float_of_bits (Int64.of_string ("0x" ^ s)))
  else None

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

let floats_to_json vs =
  Json.List (Array.to_list (Array.map (fun v -> Json.Str (hex_of_float v)) vs))

let floats_of_json ~what = function
  | Json.List items ->
    let n = List.length items in
    let out = Array.make n 0.0 in
    let rec go i = function
      | [] -> Some out
      | Json.Str s :: rest -> (
        match float_of_hex s with
        | Some v ->
          out.(i) <- v;
          go (i + 1) rest
        | None -> None)
      | _ -> None
    in
    ignore what;
    go 0 items
  | _ -> None

let request_to_json ?id ?trace req =
  let base = [ ("schema", Json.Str schema) ] in
  let base =
    match id with None -> base | Some id -> base @ [ ("id", id) ]
  in
  let base =
    match trace with
    | None -> base
    | Some t ->
      base
      @ [
          ( "trace",
            Json.Obj
              [
                ("trace_id", Json.Str t.trace_id);
                ("parent_span", Json.Str t.parent_span);
              ] );
        ]
  in
  let fields =
    match req with
    | Ping -> [ ("op", Json.Str "ping") ]
    | Stats -> [ ("op", Json.Str "stats") ]
    | Metrics -> [ ("op", Json.Str "metrics") ]
    | Trace limit ->
      [ ("op", Json.Str "trace"); ("limit", Json.Num (float_of_int limit)) ]
    | Shutdown -> [ ("op", Json.Str "shutdown") ]
    | Info model -> [ ("op", Json.Str "info"); ("model", Json.Str model) ]
    | Eval e ->
      [ ("op", Json.Str "eval");
        ("model", Json.Str e.model);
        ( "points",
          Json.List (Array.to_list (Array.map floats_to_json e.points)) );
      ]
      @ (match e.deadline_ms with
        | None -> []
        | Some ms -> [ ("deadline_ms", Json.Num ms) ])
    | Sweep_chunk c ->
      [ ("op", Json.Str "sweep_chunk");
        ("model", Json.Str c.sc_model);
        ("plan", c.sc_plan);
        ("seed", Json.Num (float_of_int c.sc_seed));
        ("block", Json.Num (float_of_int c.sc_block));
        ("measures", Json.List (List.map (fun s -> Json.Str s) c.sc_measures));
        ("specs", Json.List (List.map (fun s -> Json.Str s) c.sc_specs));
        ("policy", Json.Str c.sc_policy);
        ("chunk", Json.Num (float_of_int c.sc_chunk));
        ("key", Json.Str c.sc_key);
      ]
      @ (match c.sc_deadline_ms with
        | None -> []
        | Some ms -> [ ("deadline_ms", Json.Num ms) ])
    | Optimize o ->
      [ ("op", Json.Str "optimize");
        ("model", Json.Str o.op_model);
        ("request", o.op_request);
      ]
      @ (match o.op_deadline_ms with
        | None -> []
        | Some ms -> [ ("deadline_ms", Json.Num ms) ])
  in
  Json.Obj (base @ fields)

let bad ~where fmt = Printf.ksprintf (fun m -> Error (Err.make Parse ~where m)) fmt

let check_schema j =
  match Json.member "schema" j with
  | Some (Json.Str s) when s = schema -> Ok ()
  | Some (Json.Str s) ->
    bad ~where:"serve.frame" "schema mismatch: peer speaks %S, this end %S" s
      schema
  | _ -> bad ~where:"serve.frame" "missing schema field (want %S)" schema

let member_string name j =
  match Json.member name j with Some (Json.Str s) -> Some s | _ -> None

let member_num name j =
  match Json.member name j with Some (Json.Num v) -> Some v | _ -> None

let member_strings name j =
  match Json.member name j with
  | Some (Json.List items) ->
    let ss = List.filter_map (function Json.Str s -> Some s | _ -> None) items in
    if List.length ss = List.length items then Some ss else None
  | _ -> None

let trace_of_json j =
  match Json.member "trace" j with
  | None -> Ok None
  | Some tj -> (
    match (member_string "trace_id" tj, member_string "parent_span" tj) with
    | Some trace_id, Some parent_span -> Ok (Some { trace_id; parent_span })
    | _ ->
      bad ~where:"serve.request"
        "malformed trace context (want trace_id and parent_span strings)")

let request_of_json j =
  match check_schema j with
  | Error _ as e -> e
  | Ok () -> (
    match trace_of_json j with
    | Error _ as e -> e
    | Ok trace -> (
    let id = Json.member "id" j in
    let with_id r = Ok (id, trace, r) in
    match member_string "op" j with
    | Some "ping" -> with_id Ping
    | Some "stats" -> with_id Stats
    | Some "metrics" -> with_id Metrics
    | Some "trace" -> (
      match Json.member "limit" j with
      | Some (Json.Num l) -> with_id (Trace (int_of_float l))
      | None -> with_id (Trace 16)
      | Some _ -> bad ~where:"serve.request" "malformed limit (want a number)")
    | Some "shutdown" -> with_id Shutdown
    | Some "info" -> (
      match member_string "model" j with
      | Some m -> with_id (Info m)
      | None -> bad ~where:"serve.request" "info without a model field")
    | Some "eval" -> (
      match (member_string "model" j, Json.member "points" j) with
      | None, _ -> bad ~where:"serve.request" "eval without a model field"
      | _, None -> bad ~where:"serve.request" "eval without a points field"
      | Some model, Some (Json.List rows) -> (
        let n = List.length rows in
        let points = Array.make n [||] in
        let rec go i = function
          | [] -> true
          | row :: rest -> (
            match floats_of_json ~what:"point" row with
            | Some vs ->
              points.(i) <- vs;
              go (i + 1) rest
            | None -> false)
        in
        if not (go 0 rows) then
          bad ~where:"serve.request"
            "malformed point (want arrays of 16-hex-digit float bits)"
        else
          match Json.member "deadline_ms" j with
          | None -> with_id (Eval { model; points; deadline_ms = None })
          | Some (Json.Num ms) ->
            with_id (Eval { model; points; deadline_ms = Some ms })
          | Some _ ->
            bad ~where:"serve.request" "malformed deadline_ms (want a number)")
      | _, Some _ ->
        bad ~where:"serve.request" "malformed points (want a list of points)")
    | Some "sweep_chunk" -> (
      match
        ( member_string "model" j,
          Json.member "plan" j,
          member_num "seed" j,
          member_num "block" j,
          member_strings "measures" j )
      with
      | Some sc_model, Some sc_plan, Some seed, Some block, Some sc_measures
        -> (
        match
          ( member_strings "specs" j,
            member_string "policy" j,
            member_num "chunk" j,
            member_string "key" j )
        with
        | Some sc_specs, Some sc_policy, Some chunk, Some sc_key -> (
          let c =
            { sc_model;
              sc_plan;
              sc_seed = int_of_float seed;
              sc_block = int_of_float block;
              sc_measures;
              sc_specs;
              sc_policy;
              sc_chunk = int_of_float chunk;
              sc_key;
              sc_deadline_ms = None;
            }
          in
          match Json.member "deadline_ms" j with
          | None -> with_id (Sweep_chunk c)
          | Some (Json.Num ms) ->
            with_id (Sweep_chunk { c with sc_deadline_ms = Some ms })
          | Some _ ->
            bad ~where:"serve.request" "malformed deadline_ms (want a number)")
        | _ ->
          bad ~where:"serve.request"
            "malformed sweep_chunk (want specs, policy, chunk, key)")
      | _ ->
        bad ~where:"serve.request"
          "malformed sweep_chunk (want model, plan, seed, block, measures)")
    | Some "optimize" -> (
      match (member_string "model" j, Json.member "request" j) with
      | None, _ -> bad ~where:"serve.request" "optimize without a model field"
      | _, None -> bad ~where:"serve.request" "optimize without a request field"
      | Some op_model, Some op_request -> (
        match Json.member "deadline_ms" j with
        | None ->
          with_id (Optimize { op_model; op_request; op_deadline_ms = None })
        | Some (Json.Num ms) ->
          with_id (Optimize { op_model; op_request; op_deadline_ms = Some ms })
        | Some _ ->
          bad ~where:"serve.request" "malformed deadline_ms (want a number)"))
    | Some op -> bad ~where:"serve.request" "unknown op %S" op
    | None -> bad ~where:"serve.request" "missing op field"))

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

let response_to_json ?id resp =
  let base = [ ("schema", Json.Str schema) ] in
  let base =
    match id with None -> base | Some id -> base @ [ ("id", id) ]
  in
  let ok = [ ("ok", Json.Bool true) ] in
  let fields =
    match resp with
    | R_pong versions ->
      ok
      @ [ ("pong", Json.Bool true);
          ("versions", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) versions));
        ]
    | R_info i ->
      ok
      @ [ ("digest", Json.Str i.digest);
          ("order", Json.Num (float_of_int i.order));
          ( "symbols",
            Json.List
              (Array.to_list (Array.map (fun s -> Json.Str s) i.symbols)) );
          ("nominals", floats_to_json i.nominals);
        ]
    | R_eval e ->
      ok
      @ [ ("digest", Json.Str e.digest);
          ("order", Json.Num (float_of_int e.order));
          ( "moments",
            Json.List (Array.to_list (Array.map floats_to_json e.moments)) );
        ]
    | R_stats s -> ok @ [ ("stats", s) ]
    | R_metrics text -> ok @ [ ("metrics_text", Json.Str text) ]
    | R_traces ts -> ok @ [ ("traces", Json.List ts) ]
    | R_chunk c ->
      ok
      @ [ ("digest", Json.Str c.cr_digest);
          ("key", Json.Str c.cr_key);
          ("chunk", Json.Num (float_of_int c.cr_chunk));
          ("chunk_record", c.cr_record);
        ]
    | R_optimize o ->
      ok
      @ [ ("digest", Json.Str o.or_digest); ("opt_report", o.or_report) ]
    | R_draining -> ok @ [ ("draining", Json.Bool true) ]
    | R_error e -> [ ("ok", Json.Bool false); ("error", Err.to_json e) ]
  in
  Json.Obj (base @ fields)

let error_of_json j =
  let get name =
    match Json.member name j with Some (Json.Str s) -> s | _ -> ""
  in
  let kind =
    match Err.kind_of_name (get "kind") with
    | Some k -> k
    | None -> Err.Internal
  in
  Err.make kind ~where:(get "where") (get "message")

let response_of_json j =
  match check_schema j with
  | Error _ as e -> e
  | Ok () -> (
    let id = Json.member "id" j in
    let with_id r = Ok (id, r) in
    match Json.member "ok" j with
    | Some (Json.Bool false) -> (
      match Json.member "error" j with
      | Some ej -> with_id (R_error (error_of_json ej))
      | None -> bad ~where:"serve.response" "error response without error")
    | Some (Json.Bool true) -> (
      let digest_order () =
        match (member_string "digest" j, Json.member "order" j) with
        | Some d, Some (Json.Num o) -> Some (d, int_of_float o)
        | _ -> None
      in
      match Json.member "pong" j with
      | Some (Json.Bool true) ->
        let versions =
          match Json.member "versions" j with
          | Some (Json.Obj kvs) ->
            List.filter_map
              (function k, Json.Str v -> Some (k, v) | _ -> None)
              kvs
          | _ -> []
        in
        with_id (R_pong versions)
      | _ -> (
        match Json.member "draining" j with
        | Some (Json.Bool true) -> with_id R_draining
        | _ -> (
          match Json.member "metrics_text" j with
          | Some (Json.Str text) -> with_id (R_metrics text)
          | _ -> (
          match Json.member "traces" j with
          | Some (Json.List ts) -> with_id (R_traces ts)
          | _ -> (
          match Json.member "chunk_record" j with
          | Some cr_record -> (
            match
              ( member_string "digest" j,
                member_string "key" j,
                member_num "chunk" j )
            with
            | Some cr_digest, Some cr_key, Some chunk ->
              with_id
                (R_chunk
                   { cr_digest; cr_key; cr_chunk = int_of_float chunk; cr_record })
            | _ -> bad ~where:"serve.response" "malformed chunk response")
          | _ -> (
          match Json.member "opt_report" j with
          | Some or_report -> (
            match member_string "digest" j with
            | Some or_digest -> with_id (R_optimize { or_digest; or_report })
            | None -> bad ~where:"serve.response" "malformed optimize response")
          | _ -> (
          match Json.member "stats" j with
          | Some s -> with_id (R_stats s)
          | None -> (
            match (Json.member "symbols" j, Json.member "nominals" j) with
            | Some (Json.List syms), Some nj -> (
              let symbols =
                List.filter_map
                  (function Json.Str s -> Some s | _ -> None)
                  syms
              in
              match (digest_order (), floats_of_json ~what:"nominals" nj) with
              | Some (digest, order), Some nominals
                when List.length syms = List.length symbols ->
                with_id
                  (R_info
                     { digest;
                       order;
                       symbols = Array.of_list symbols;
                       nominals;
                     })
              | _ -> bad ~where:"serve.response" "malformed info response")
            | _ -> (
              match Json.member "moments" j with
              | Some (Json.List rows) -> (
                let n = List.length rows in
                let moments = Array.make n [||] in
                let rec go i = function
                  | [] -> true
                  | row :: rest -> (
                    match floats_of_json ~what:"moments" row with
                    | Some vs ->
                      moments.(i) <- vs;
                      go (i + 1) rest
                    | None -> false)
                in
                match (digest_order (), go 0 rows) with
                | Some (digest, order), true ->
                  with_id (R_eval { digest; order; moments })
                | _ -> bad ~where:"serve.response" "malformed eval response")
              | _ ->
                bad ~where:"serve.response" "unrecognized response shape")))))))))
    | _ -> bad ~where:"serve.response" "missing ok field")
