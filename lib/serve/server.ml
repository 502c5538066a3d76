(* The serving daemon: one acceptor domain fronting N worker domains.

   The acceptor owns the listener (Unix socket or TCP — see Transport),
   all connection state, framing, and the trace ring.  Model-bound
   requests (eval/info/sweep_chunk/optimize) pass tiered admission
   (Admission) — the cheap gates, then the least-loaded worker under the
   one bound on each worker's backlog — and are handed to that worker
   through its mailbox; everything else (ping/stats/metrics/trace/shutdown)
   answers inline, which keeps `ping` a zero-cost readiness probe even
   when every worker is saturated.  The acceptor never reads an artifact.

   Each worker domain owns a private Registry + Batcher: it resolves the
   artifact path to a resident model itself, and the single-owner
   batch-evaluator contract holds per worker.  Workers are runtime
   workers (Runtime.Service), so their kernels, sweep chunks and
   optimizations run inline on their own domain: the worker domains are
   the parallelism.  Workers push completed responses onto a shared
   completion queue and poke the acceptor through a self-pipe so its
   select wakes promptly.

   SIGTERM (or a `shutdown` request) starts a graceful drain: the
   listener closes, the drain flag makes every worker flush immediately
   instead of lingering, queued evaluations finish, their responses
   flush, and the loop exits — zero in-flight requests are lost at any
   worker count.  Malformed input never kills the daemon: garbage
   frames answer a classified Parse error, oversized length prefixes
   answer and close (the stream cannot be resynchronized), and
   connection errors just drop the connection. *)

module Json = Obs.Json
module Err = Awesym_error

type config = {
  listen : Transport.addr;
  workers : int;  (* worker domains, each owning a registry + batcher *)
  batch : Batcher.config;  (* per-worker batcher knobs *)
  admission : Admission.config;
  worker_queue : int;  (* per-worker bound on admitted, unanswered requests *)
  max_models : int;  (* per-worker registry LRU capacity *)
  cache_gc_bytes : int option;
  versions : (string * string) list;
      (* the pong/version inventory; the CLI passes the full schema list *)
  trace_log : string option;
      (* append completed request traces as JSONL here *)
  trace_log_max_bytes : int;  (* rotate the trace log past this size *)
  trace_capacity : int;  (* in-memory ring of completed traces *)
}

let default_versions =
  [
    ("serve", Protocol.schema);
    ("reqtrace", Reqtrace.schema);
    ("artifact", "v" ^ string_of_int Awesymbolic.Artifact.version);
  ]

let default_config ~listen =
  {
    listen;
    workers = 1;
    batch = Batcher.default_config;
    admission = Admission.default_config;
    worker_queue = 1024;
    max_models = 8;
    cache_gc_bytes = Some (256 * 1024 * 1024);
    versions = default_versions;
    trace_log = None;
    trace_log_max_bytes = 16 * 1024 * 1024;
    trace_capacity = 256;
  }

type conn = {
  fd : Unix.file_descr;
  key : int;
  inbuf : Buffer.t;
  outq : string Queue.t;  (* encoded frames awaiting write *)
  mutable out_off : int;  (* bytes of the head frame already written *)
  mutable inflight : int;  (* admitted requests not yet answered *)
  mutable eof : bool;  (* peer half-closed; stop reading *)
  mutable close_after_flush : bool;  (* unrecoverable stream; drop once quiet *)
}

(* A model-bound request in flight to a worker.  The trace builder
   travels with it; ownership hands off acceptor -> worker -> acceptor
   (the mailbox and completion-queue mutexes provide the
   happens-before), so only one domain touches it at a time. *)
type op =
  | Info
  | Eval of { points : float array array; arrived : float }
  | Sweep of Protocol.sweep_chunk
  | Opt of Protocol.optimize

type job = {
  conn : int;
  id : Json.t option;
  path : string;  (* the artifact the worker resolves *)
  deadline : float option;  (* absolute, seconds *)
  trace : Reqtrace.builder option;
  op : op;
}

type completion = int * Json.t option * Reqtrace.builder option * Protocol.response

type shard = {
  mailbox : job Mailbox.t;
  queued : int Atomic.t;  (* admitted minus completed; acceptor-visible *)
  resident : int Atomic.t;  (* the worker's registry residency *)
}

type t = {
  config : config;
  traces : Reqtrace.t;
  listen_fd : Unix.file_descr;
  bound : Transport.addr;  (* resolved (ephemeral TCP ports bound) *)
  read_buf : Bytes.t;
  conns : (int, conn) Hashtbl.t;
  started : float;
  mutable next_key : int;
  mutable draining : bool;
  mutable drain_signaled : bool;  (* workers woken + flush forced once *)
  mutable accepting : bool;
  shards : shard array;
  halt : bool Atomic.t;  (* workers must exit once their queues empty *)
  drain_flag : bool Atomic.t;  (* workers flush immediately, no linger *)
  completions : completion Queue.t;  (* worker -> acceptor; under comp_m *)
  comp_m : Mutex.t;
  wake_r : Unix.file_descr;  (* self-pipe: workers poke the select loop *)
  wake_w : Unix.file_descr;
  mutable service : Runtime.Service.t option;
  mutable closed : bool;
}

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)

let inflight_total t =
  Hashtbl.fold (fun _ c acc -> acc + c.inflight) t.conns 0

let queued_total t =
  Array.fold_left (fun acc s -> acc + Atomic.get s.queued) 0 t.shards

let resident_total t =
  Array.fold_left (fun acc s -> acc + Atomic.get s.resident) 0 t.shards

(* Occupancy gauges, refreshed before every snapshot/exposition so a
   scrape always sees current values.  Per-worker gauges expose shard
   skew; Metrics sorts gauges by name, so worker i sorts stably. *)
let update_gauges t =
  Obs.Metrics.set_gauge "serve.queue_depth" (float_of_int (queued_total t));
  Obs.Metrics.set_gauge "batcher.inflight" (float_of_int (inflight_total t));
  Obs.Metrics.set_gauge "registry.resident_models"
    (float_of_int (resident_total t));
  Array.iteri
    (fun i s ->
      Obs.Metrics.set_gauge
        (Printf.sprintf "serve.worker.%d.queue_depth" i)
        (float_of_int (Atomic.get s.queued));
      Obs.Metrics.set_gauge
        (Printf.sprintf "serve.worker.%d.resident_models" i)
        (float_of_int (Atomic.get s.resident)))
    t.shards

let stats_json t =
  update_gauges t;
  let c name = Json.Num (float_of_int (Obs.Metrics.counter name)) in
  let uptime = now () -. t.started in
  let requests = Obs.Metrics.counter "serve.requests" in
  Json.Obj
    [
      ("uptime_s", Json.Num uptime);
      ("transport", Json.Str (Transport.to_string t.bound));
      ("workers", Json.Num (float_of_int (Array.length t.shards)));
      ("requests", c "serve.requests");
      ("points", c "serve.points");
      ("qps", Json.Num (float_of_int requests /. Float.max uptime 1e-9));
      ("batches", c "serve.batch.count");
      ("queue_depth", Json.Num (float_of_int (queued_total t)));
      ("models_loaded", Json.Num (float_of_int (resident_total t)));
      ( "worker_shards",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i s ->
                  Json.Obj
                    [
                      ("worker", Json.Num (float_of_int i));
                      ( "queue_depth",
                        Json.Num (float_of_int (Atomic.get s.queued)) );
                      ( "resident_models",
                        Json.Num (float_of_int (Atomic.get s.resident)) );
                    ])
                t.shards)) );
      ( "registry",
        Json.Obj
          [
            ("hit", c "serve.registry.hit");
            ("miss", c "serve.registry.miss");
            ("evict", c "serve.registry.evict");
          ] );
      ( "rejected",
        Json.Obj
          [
            ("timeout", c "serve.rejected.timeout");
            ("overloaded", c "serve.rejected.overloaded");
          ] );
      (* Which SLP backend evaluations run on (see docs/CODEGEN.md):
         the requested mode plus per-program resolutions and codegen
         cache traffic, so operators can confirm native kernels are
         actually in play. *)
      ( "kernel",
        Json.Obj
          [
            ( "backend",
              Json.Str
                (Symbolic.Slp.backend_name (Symbolic.Slp.current_backend ())) );
            ("native_programs", c "kernel.backend.native");
            ("interp_programs", c "kernel.backend.interp");
            ("compile_cache_hit", c "codegen.cache_hit");
            ("compile_cache_miss", c "codegen.cache_miss");
            ("fallback", c "codegen.fallback");
            ("quarantined", c "codegen.quarantined");
          ] );
      ( "gauges",
        Json.Obj
          (List.map
             (fun (n, v) -> (n, Json.Num v))
             (Obs.Metrics.gauges_list ())) );
      ("traces_completed", Json.Num (float_of_int (Reqtrace.completed t.traces)));
      ("metrics", Obs.Codec.encode Obs.Metrics.snapshot_codec (Obs.Metrics.snapshot ()));
    ]

let enqueue_response t conn ?id resp =
  ignore t;
  Queue.add (Protocol.frame_of_json (Protocol.response_to_json ?id resp))
    conn.outq

(* ------------------------------------------------------------------ *)
(* Worker shards *)

let wake_byte = Bytes.make 1 '!'

(* Hand completed responses back to the acceptor and poke its select.
   The queued decrement comes AFTER the enqueue so the drain's
   quiescence check can never observe "no queued work" while responses
   are in neither place. *)
let push_completions t shard resps =
  match resps with
  | [] -> ()
  | _ ->
    Mutex.lock t.comp_m;
    List.iter (fun r -> Queue.add r t.completions) resps;
    Mutex.unlock t.comp_m;
    List.iter
      (fun _ -> ignore (Atomic.fetch_and_add shard.queued (-1)))
      resps;
    (try ignore (Unix.write t.wake_w wake_byte 0 1)
     with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ())

(* The body each worker domain runs: a private registry + batcher fed by
   the shard mailbox.  Exit condition is [halt] AND both queues empty,
   so a drain always answers everything already admitted. *)
let worker_body t ~worker =
  let shard = t.shards.(worker) in
  (* Cache GC already ran once in [create]; workers must not race it. *)
  let registry = Registry.create ~max_models:t.config.max_models () in
  let batcher = Batcher.create t.config.batch in
  let complete resps = push_completions t shard resps in
  (* Distributed-sweep preparation memo: one slot, the last sweep this
     worker prepared, named by its artifact's digest and its key.  A
     prep re-samples the plan's whole input grid, which dwarfs one
     chunk's evaluation, and a coordinator sends a daemon the chunks of
     one sweep at a time.  A key names one computation, so a request
     with the slot's artifact and key is the slot's sweep.  A prep is
     kept only when it computes the request's key: a different key is
     model or version skew (the handshake), and its chunks must not be
     merged.  Worker-domain private, like the registry. *)
  let prep_slot = ref None in
  let sweep_prep entry (req : Protocol.sweep_chunk) =
    let id = (entry.Registry.digest, req.Protocol.sc_key) in
    match !prep_slot with
    | Some (id', prep) when id' = id -> Ok prep
    | _ ->
      let parse what f x =
        Result.map_error
          (fun m ->
            Err.make Invalid_request ~where:"serve.sweep"
              (Printf.sprintf "bad sweep %s: %s" what m))
          (f x)
      in
      let all f xs =
        List.fold_right
          (fun x acc -> Result.bind (f x) (fun v -> Result.map (List.cons v) acc))
          xs (Ok [])
      in
      let ( let* ) = Result.bind in
      let* plan = parse "plan" Sweep.Plan.of_json req.Protocol.sc_plan in
      let* measures =
        parse "measure" (all Sweep.Engine.measure_of_string) req.Protocol.sc_measures
      in
      let* specs = parse "spec" (all Sweep.Engine.spec_of_string) req.Protocol.sc_specs in
      let* policy = parse "policy" Sweep.Engine.policy_of_string req.Protocol.sc_policy in
      match
        Sweep.Engine.prepare ~seed:req.Protocol.sc_seed
          ~block:req.Protocol.sc_block ~measures ~specs ~policy
          entry.Registry.model plan
      with
      | exception e -> Error (Err.classify e)
      | prep ->
        let key = Sweep.Engine.prep_key prep in
        if key <> req.Protocol.sc_key then
          Error
            (Err.make Invalid_request ~where:"serve.sweep"
               (Printf.sprintf
                  "sweep key mismatch (coordinator %s, worker %s): model \
                   or version skew between nodes"
                  req.Protocol.sc_key key))
        else begin
          prep_slot := Some (id, prep);
          Ok prep
        end
  in
  let span trace name t0 =
    Option.iter
      (fun tb -> Reqtrace.add_span tb ~name ~start:t0 ~stop:(now ()))
      trace
  in
  let expired job =
    match job.deadline with Some d -> now () > d | None -> false
  in
  let timeout where =
    Some
      (Protocol.R_error
         (Err.make Timeout ~where "deadline expired before the work started"))
  in
  (* The op proper, once the model is resident.  [None] means the answer
     comes later, from a batcher flush. *)
  let run job entry =
    match job.op with
    | Info ->
      Some
        (Protocol.R_info
           {
             Protocol.digest = entry.Registry.digest;
             order = entry.Registry.order;
             symbols = entry.Registry.symbols;
             nominals = entry.Registry.nominals;
           })
    | Eval { points; arrived } ->
      let nsym = Array.length entry.Registry.symbols in
      if Array.exists (fun row -> Array.length row <> nsym) points then
        Some
          (Protocol.R_error
             (Err.make Invalid_request ~where:"serve.request"
                (Printf.sprintf "point width mismatch: model has %d symbols"
                   nsym)))
      else begin
        let t0 = now () in
        Batcher.submit batcher
          {
            Batcher.key = job.conn;
            id = job.id;
            entry;
            points;
            arrived;
            deadline = job.deadline;
            trace = job.trace;
          };
        span job.trace "serve.batch.enqueue" t0;
        None
      end
    (* Sweep chunks and optimizations run whole on this domain, so their
       deadline is checked once, before the work starts; eval deadlines
       are the batcher's. *)
    | Sweep _ when expired job -> timeout "serve.sweep"
    | Opt _ when expired job -> timeout "serve.optimize"
    | Sweep req ->
      Some
        (match sweep_prep entry req with
        | Error e -> Protocol.R_error e
        | Ok prep ->
          let t0 = now () in
          let r = Sweep.Engine.eval_chunk prep req.Protocol.sc_chunk in
          span job.trace "serve.sweep.chunk" t0;
          Obs.Metrics.incr "serve.sweep.chunks";
          Protocol.R_chunk
            {
              Protocol.cr_digest = entry.Registry.digest;
              cr_key = Sweep.Engine.prep_key prep;
              cr_chunk = req.Protocol.sc_chunk;
              cr_record = Sweep.Engine.chunk_result_to_json r;
            })
    | Opt req ->
      (* A raise is classified by [safe_handle]. *)
      let t0 = now () in
      let report =
        Opt.Request.run entry.Registry.model
          (Opt.Request.of_json req.Protocol.op_request)
      in
      span job.trace "serve.optimize" t0;
      Obs.Metrics.incr "serve.optimize.requests";
      Some
        (Protocol.R_optimize
           {
             Protocol.or_digest = entry.Registry.digest;
             or_report = Opt.Request.report_to_json report;
           })
  in
  let reply job resp = complete [ (job.conn, job.id, job.trace, resp) ] in
  let handle job =
    let t0 = now () in
    let found = Registry.find registry job.path in
    span job.trace "serve.registry.lookup" t0;
    Atomic.set shard.resident (Registry.loaded registry);
    match found with
    | Error e -> reply job (Protocol.R_error e)
    | Ok entry -> Option.iter (reply job) (run job entry)
  in
  (* Any unexpected exception still answers the request — a lost job
     would leave its conn.inflight forever nonzero and wedge the drain. *)
  let safe_handle job =
    try handle job with e -> reply job (Protocol.R_error (Err.classify e))
  in
  let rec loop () =
    if
      Atomic.get t.halt
      && Mailbox.length shard.mailbox = 0
      && Batcher.length batcher = 0
    then ()
    else begin
      let jobs =
        if Batcher.length batcher = 0 then Mailbox.pop_block shard.mailbox
        else begin
          (* A parked micro-batch waits in 0.5 ms slices, so a request
             that arrives meanwhile has its model looked up while the
             batch lingers, not after it is due, and the drain/halt flags
             are honored promptly. *)
          let force = Atomic.get t.drain_flag || Atomic.get t.halt in
          (match Batcher.due batcher ~now:(now ()) with
          | Some s when s > 0.0 && not force ->
            Unix.sleepf (Float.min s 0.0005)
          | _ -> ());
          Mailbox.pop_all shard.mailbox
        end
      in
      List.iter safe_handle jobs;
      let n = now () in
      let force = Atomic.get t.drain_flag || Atomic.get t.halt in
      if
        Batcher.ready batcher ~now:n
        || (force && Batcher.length batcher > 0)
      then complete (Batcher.flush batcher ~now:n);
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Request dispatch (acceptor side) *)

let status_of_response = function
  | Protocol.R_error e -> Err.kind_name e.Err.kind
  | _ -> "ok"

(* Answer a traced request: the response enqueue is the trace's final
   [serve.respond] span, after which the record is complete. *)
let respond_traced t conn ?id tb resp =
  let t0 = now () in
  enqueue_response t conn ?id resp;
  let t1 = now () in
  Reqtrace.add_span tb ~name:"serve.respond" ~start:t0 ~stop:t1;
  Reqtrace.finish t.traces tb ~now:t1 ~status:(status_of_response resp)

(* Route a model-bound request: the cheap admission gates, then the
   least-loaded worker's mailbox, if that worker is under
   [worker_queue].  The artifact is the worker's to read.  The queued
   count is raised before the push, so it never under-reports the
   backlog the bound applies to. *)
let admit_model t conn ?id tb ~path ?deadline op =
  let t0 = now () in
  let admitted =
    match
      Admission.precheck t.config.admission ~client_inflight:conn.inflight
        ~deadline ~now:t0
    with
    | Some e -> Error e
    | None ->
      Admission.route ~workers:(Array.length t.shards)
        ~depth:(fun w -> Atomic.get t.shards.(w).queued)
        ~capacity:t.config.worker_queue
      |> Result.map (fun w ->
             let s = t.shards.(w) in
             Atomic.incr s.queued;
             Mailbox.push s.mailbox
               { conn = conn.key; id; path; deadline; trace = Some tb; op })
  in
  match admitted with
  | Error e -> respond_traced t conn ?id tb (Protocol.R_error e)
  | Ok () ->
    conn.inflight <- conn.inflight + 1;
    Reqtrace.add_span tb ~name:"serve.admit" ~start:t0 ~stop:(now ())

let dispatch t conn ?id ~trace:tb req =
  Obs.Metrics.incr "serve.requests";
  let deadline arrived = Option.map (fun ms -> arrived +. (ms /. 1e3)) in
  match req with
  | Protocol.Ping ->
    respond_traced t conn ?id tb (Protocol.R_pong t.config.versions)
  | Protocol.Stats ->
    respond_traced t conn ?id tb (Protocol.R_stats (stats_json t))
  | Protocol.Metrics ->
    update_gauges t;
    respond_traced t conn ?id tb (Protocol.R_metrics (Obs.Metrics.to_prometheus ()))
  | Protocol.Trace limit ->
    respond_traced t conn ?id tb
      (Protocol.R_traces (Reqtrace.recent t.traces limit))
  | Protocol.Shutdown ->
    t.draining <- true;
    respond_traced t conn ?id tb Protocol.R_draining
  | Protocol.Info path -> admit_model t conn ?id tb ~path Info
  | Protocol.Eval e ->
    let arrived = now () in
    admit_model t conn ?id tb ~path:e.Protocol.model
      ?deadline:(deadline arrived e.Protocol.deadline_ms)
      (Eval { points = e.Protocol.points; arrived })
  | Protocol.Sweep_chunk c ->
    admit_model t conn ?id tb ~path:c.Protocol.sc_model
      ?deadline:(deadline (now ()) c.Protocol.sc_deadline_ms)
      (Sweep c)
  | Protocol.Optimize o ->
    admit_model t conn ?id tb ~path:o.Protocol.op_model
      ?deadline:(deadline (now ()) o.Protocol.op_deadline_ms)
      (Opt o)

let op_name = function
  | Protocol.Ping -> "ping"
  | Protocol.Info _ -> "info"
  | Protocol.Eval _ -> "eval"
  | Protocol.Stats -> "stats"
  | Protocol.Metrics -> "metrics"
  | Protocol.Trace _ -> "trace"
  | Protocol.Sweep_chunk _ -> "sweep_chunk"
  | Protocol.Optimize _ -> "optimize"
  | Protocol.Shutdown -> "shutdown"

let handle_frame t conn payload =
  let t0 = now () in
  match Json.of_string payload with
  | Error msg ->
    enqueue_response t conn
      (Protocol.R_error
         (Err.make Parse ~where:"serve.frame" ("malformed JSON frame: " ^ msg)))
  | Ok j -> (
    match Protocol.request_of_json j with
    | Error e -> enqueue_response t conn (Protocol.R_error e)
    | Ok (id, tc, req) ->
      let t1 = now () in
      let tb =
        Reqtrace.start
          ?trace_id:(Option.map (fun c -> c.Protocol.trace_id) tc)
          ?parent_span:(Option.map (fun c -> c.Protocol.parent_span) tc)
          ~op:(op_name req) ~conn:conn.key ?req_id:id ~now:t0 ()
      in
      Reqtrace.add_span tb ~name:"serve.parse" ~start:t0 ~stop:t1;
      dispatch t conn ?id ~trace:tb req)

(* Drain [conn.inbuf] of every complete frame. *)
let rec handle_buffered t conn =
  match Protocol.pop_frame conn.inbuf with
  | `Need_more -> ()
  | `Oversized n ->
    enqueue_response t conn
      (Protocol.R_error
         (Err.make Parse ~where:"serve.frame"
            (Printf.sprintf "frame of %d bytes exceeds max %d" n
               Protocol.max_frame)));
    conn.close_after_flush <- true
  | `Frame payload ->
    handle_frame t conn payload;
    if not conn.close_after_flush then handle_buffered t conn

(* ------------------------------------------------------------------ *)
(* Connection I/O *)

let drop_conn t conn =
  Hashtbl.remove t.conns conn.key;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let service_read t conn =
  match Unix.read conn.fd t.read_buf 0 (Bytes.length t.read_buf) with
  | 0 -> conn.eof <- true
  | k ->
    Buffer.add_subbytes conn.inbuf t.read_buf 0 k;
    handle_buffered t conn
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn t conn

let service_write t conn =
  match Queue.peek_opt conn.outq with
  | None -> ()
  | Some head -> (
    let len = String.length head - conn.out_off in
    match
      Unix.write_substring conn.fd head conn.out_off len
    with
    | k ->
      if k = len then begin
        ignore (Queue.pop conn.outq);
        conn.out_off <- 0
      end
      else conn.out_off <- conn.out_off + k
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
      drop_conn t conn)

let accept_loop t =
  let continue = ref t.accepting in
  while !continue do
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
      Transport.tune_accepted fd;
      let key = t.next_key in
      t.next_key <- key + 1;
      Hashtbl.replace t.conns key
        {
          fd;
          key;
          inbuf = Buffer.create 4096;
          outq = Queue.create ();
          out_off = 0;
          inflight = 0;
          eof = false;
          close_after_flush = false;
        };
      Obs.Metrics.incr "serve.connections"
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

(* Responses workers have finished: deliver to their connections (or
   complete the trace as "abandoned" when the peer vanished). *)
let deliver_completions t =
  let pending =
    Mutex.lock t.comp_m;
    let xs = Queue.fold (fun acc r -> r :: acc) [] t.completions in
    Queue.clear t.completions;
    Mutex.unlock t.comp_m;
    List.rev xs
  in
  List.iter
    (fun (key, id, tr, resp) ->
      match Hashtbl.find_opt t.conns key with
      | None ->
        Option.iter
          (fun tb ->
            Reqtrace.finish t.traces tb ~now:(now ()) ~status:"abandoned")
          tr
      | Some c -> (
        c.inflight <- c.inflight - 1;
        match tr with
        | Some tb -> respond_traced t c ?id tb resp
        | None -> enqueue_response t c ?id resp))
    pending

let drain_wake_pipe t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)

let create config =
  if config.workers < 1 then
    invalid_arg "Server.create: workers must be >= 1";
  if config.worker_queue < 1 then
    invalid_arg "Server.create: worker_queue must be >= 1";
  (* Cache GC runs once here, not in each worker's registry: N workers
     racing GC over the shared cache directory would delete from under
     each other. *)
  (match config.cache_gc_bytes with
  | None -> ()
  | Some max_bytes ->
    let stats = Awesymbolic.Cache.gc ~max_bytes () in
    if stats.Awesymbolic.Cache.deleted > 0 then
      Obs.Metrics.add "serve.cache.gc_deleted" stats.Awesymbolic.Cache.deleted);
  let listen_fd, bound =
    match Transport.listen config.listen with
    | Ok x -> x
    | Error e -> raise (Err.Error e)
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let shards =
    Array.init config.workers (fun _ ->
        {
          mailbox = Mailbox.create ();
          queued = Atomic.make 0;
          resident = Atomic.make 0;
        })
  in
  let t =
    {
      config;
      traces =
        Reqtrace.create ~capacity:config.trace_capacity ?log:config.trace_log
          ~log_max_bytes:config.trace_log_max_bytes ();
      listen_fd;
      bound;
      read_buf = Bytes.create 65536;
      conns = Hashtbl.create 16;
      started = now ();
      next_key = 0;
      draining = false;
      drain_signaled = false;
      accepting = true;
      shards;
      halt = Atomic.make false;
      drain_flag = Atomic.make false;
      completions = Queue.create ();
      comp_m = Mutex.create ();
      wake_r;
      wake_w;
      service = None;
      closed = false;
    }
  in
  t.service <-
    Some
      (Runtime.Service.start ~workers:config.workers (worker_body t));
  t

let bound_addr t = t.bound

(* Nothing owed to anybody: every admitted request has been answered
   and every answer written (or its connection is gone). *)
let quiescent t =
  Hashtbl.fold
    (fun _ c acc -> acc && Queue.is_empty c.outq && c.inflight = 0)
    t.conns true
  && Array.for_all (fun s -> Atomic.get s.queued = 0) t.shards
  &&
  (Mutex.lock t.comp_m;
   let empty = Queue.is_empty t.completions in
   Mutex.unlock t.comp_m;
   empty)

let stop_accepting t =
  if t.accepting then begin
    t.accepting <- false;
    Transport.close_listener t.listen_fd t.bound
  end

(* One loop iteration; returns false once the daemon should exit. *)
let step t ~stop =
  (match t.service with
  | Some s when Runtime.Service.failed s ->
    (* A worker body raised — a bug, not load.  Join to re-raise it
       with its backtrace rather than serving with a dead shard. *)
    Atomic.set t.halt true;
    Array.iter (fun sh -> Mailbox.wake sh.mailbox) t.shards;
    Runtime.Service.join s
  | _ -> ());
  if !stop then t.draining <- true;
  if t.draining && not t.drain_signaled then begin
    t.drain_signaled <- true;
    stop_accepting t;
    (* Workers must stop lingering: flush whatever is parked, now. *)
    Atomic.set t.drain_flag true;
    Array.iter (fun s -> Mailbox.wake s.mailbox) t.shards
  end;
  deliver_completions t;
  if t.draining && quiescent t then false
  else begin
    let readables =
      t.wake_r
      :: ((if t.accepting then [ t.listen_fd ] else [])
         @ Hashtbl.fold
             (fun _ c acc ->
               if c.eof || c.close_after_flush then acc else c.fd :: acc)
             t.conns [])
    in
    let writables =
      Hashtbl.fold
        (fun _ c acc -> if Queue.is_empty c.outq then acc else c.fd :: acc)
        t.conns []
    in
    let timeout = if t.draining then 0.05 else 0.5 in
    (match Unix.select readables writables [] timeout with
    | rs, ws, _ ->
      if List.memq t.wake_r rs then drain_wake_pipe t;
      if t.accepting && List.memq t.listen_fd rs then accept_loop t;
      (* Service reads on a stable snapshot: dispatch may drop conns. *)
      let by_fd fds =
        Hashtbl.fold
          (fun _ c acc -> if List.memq c.fd fds then c :: acc else acc)
          t.conns []
      in
      List.iter (fun c -> service_read t c) (by_fd rs);
      deliver_completions t;
      List.iter (fun c -> service_write t c) (by_fd ws);
      (* Reap connections that are finished. *)
      let doomed =
        Hashtbl.fold
          (fun _ c acc ->
            if
              Queue.is_empty c.outq && c.inflight = 0
              && (c.eof || c.close_after_flush)
            then c :: acc
            else acc)
          t.conns []
      in
      List.iter (fun c -> drop_conn t c) doomed
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    true
  end

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    (* Halt first, wake second: a worker that re-parks between the two
       still sees the sticky wake and exits. *)
    Atomic.set t.halt true;
    Atomic.set t.drain_flag true;
    Array.iter (fun s -> Mailbox.wake s.mailbox) t.shards;
    let join_failure =
      match t.service with
      | None -> None
      | Some s -> (
        try
          Runtime.Service.join s;
          None
        with e -> Some (e, Printexc.get_raw_backtrace ()))
    in
    stop_accepting t;
    Hashtbl.iter
      (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      t.conns;
    Hashtbl.reset t.conns;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    Reqtrace.close t.traces;
    match join_failure with
    | None -> ()
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  end

let run ?(log = ignore) config =
  (* Serve metrics must record without the CLI --stats flag; the daemon
     owns the process, so flipping the master switch is its call.  Spans
     stay rare (model loads only), so the sink cannot grow unboundedly
     under steady traffic. *)
  Obs.enabled := true;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = ref false in
  let previous =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
  in
  let t = create config in
  log
    (Printf.sprintf
       "awesym serve: listening on %s (%d worker%s, max batch %d, linger %g \
        ms)"
       (Transport.to_string t.bound)
       config.workers
       (if config.workers = 1 then "" else "s")
       config.batch.Batcher.max_batch
       (config.batch.Batcher.linger_s *. 1e3));
  (match config.trace_log with
  | Some path -> log (Printf.sprintf "awesym serve: tracing requests to %s" path)
  | None -> ());
  Fun.protect
    ~finally:(fun () ->
      let final = Json.to_string (stats_json t) in
      let gauge name =
        Option.value (Obs.Metrics.gauge name) ~default:0.0
      in
      shutdown t;
      Sys.set_signal Sys.sigterm previous;
      log
        (Printf.sprintf
           "awesym serve: drained; gauges: serve.queue_depth=%g \
            registry.resident_models=%g batcher.inflight=%g"
           (gauge "serve.queue_depth")
           (gauge "registry.resident_models")
           (gauge "batcher.inflight"));
      log (Printf.sprintf "awesym serve: drained; final stats: %s" final))
    (fun () ->
      while step t ~stop do
        ()
      done)
