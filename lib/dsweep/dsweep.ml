(* Distributed-sweep coordinator.

   One domain per configured daemon address, all sharing a single
   mutex-guarded scoreboard (results / claims / liveness / abort).
   Chunk placement is rendezvous hashing over the *live* worker set, so
   it needs no coordination state and losing a worker moves only that
   worker's chunks; the merge is by chunk index through
   [Sweep.Engine.finish], which is what makes the result byte-identical
   to a single-node run no matter which worker computed what, in which
   order, after how many retries. *)

module Err = Awesym_error
module Engine = Sweep.Engine
module Client = Serve.Client
module Protocol = Serve.Protocol

type config = {
  addrs : string list;
  chunk_timeout_s : float;
  heartbeat_s : float;
  worker_retries : int;
  backoff : Client.Backoff.t;
}

let default_config ~addrs =
  {
    addrs;
    chunk_timeout_s = 30.0;
    heartbeat_s = 1.0;
    worker_retries = 3;
    backoff = Client.Backoff.default;
  }

(* Highest-random-weight placement, same construction as the server's
   Shard module: first 8 bytes of MD5, xor-flipped so the signed
   compare behaves as unsigned.  Ties (MD5 collisions) break toward
   the earlier worker in the list — still deterministic. *)
let score ~key ~chunk worker =
  let h = Digest.string (Printf.sprintf "%s#%d#%s" key chunk worker) in
  Int64.logxor (String.get_int64_be h 0) Int64.min_int

let assign ~key ~chunk ~live =
  match live with
  | [] -> invalid_arg "Dsweep.assign: empty live set"
  | w0 :: rest ->
    fst
      (List.fold_left
         (fun (bw, bs) w ->
           let s = score ~key ~chunk w in
           if Int64.compare s bs > 0 then (w, s) else (bw, bs))
         (w0, score ~key ~chunk w0)
         rest)

(* The shared scoreboard.  [claimed] marks chunks some live worker is
   evaluating right now; a failed attempt releases the claim before
   deciding the worker's fate, so no chunk is ever stranded with a dead
   owner. *)
type state = {
  total : int;
  labels : string array;  (* "<index>:<addr>" — worker identities *)
  live : bool array;
  claimed : bool array;
  results : Engine.chunk_result option array;
  mutable completed : int;
  mutable abort : Err.t option;  (* first non-retryable failure *)
  m : Mutex.t;
  cv : Condition.t;
}

let run ?(seed = 42) ?block ?measures ?(specs = []) ?(policy = Engine.Skip)
    ?checkpoint ?(resume = false) ?(log = ignore)
    config ~model ~model_path plan =
  Obs.Span.with_ ~name:"dsweep.run" @@ fun () ->
  if config.addrs = [] then invalid_arg "Dsweep.run: no worker addresses";
  if config.worker_retries < 0 then
    invalid_arg "Dsweep.run: negative worker_retries";
  let measures =
    match measures with Some m -> m | None -> Engine.default_measures
  in
  let measure_strs = List.map Engine.measure_name measures in
  (* Specs cross the wire as their string spelling; refuse a limit the
     spelling cannot carry exactly, because a worker would then pass/
     fail boundary points differently than a local run — a silent
     determinism break, unlike this loud one. *)
  let spec_strs =
    List.map
      (fun s ->
        let str = Engine.spec_to_string s in
        (match Engine.spec_of_string str with
        | Ok s' when s' = s -> ()
        | _ ->
          Err.errorf Invalid_request ~where:"dsweep"
            "spec %s does not survive its wire spelling; use a limit \
             with an exact short decimal form"
            str);
        str)
      specs
  in
  let policy_str = Engine.policy_name policy in
  let prep = Engine.prepare ~seed ?block ~measures ~specs ~policy model plan in
  let key = Engine.prep_key prep in
  let block = Engine.prep_block prep in
  let plan_json = Sweep.Plan.to_json plan in
  let nw = List.length config.addrs in
  let addrs = Array.of_list config.addrs in
  let st =
    {
      total = Engine.prep_num_chunks prep;
      labels = Array.mapi (fun i a -> Printf.sprintf "%d:%s" i a) addrs;
      live = Array.make nw true;
      claimed = Array.make (Engine.prep_num_chunks prep) false;
      results = Array.make (Engine.prep_num_chunks prep) None;
      completed = 0;
      abort = None;
      m = Mutex.create ();
      cv = Condition.create ();
    }
  in
  Obs.Metrics.incr "dsweep.run.count";
  let writer = Option.map (fun path -> Engine.Checkpoint.writer prep ~path) checkpoint in
  (match (checkpoint, resume) with
  | Some path, true ->
    List.iter
      (fun r ->
        let i = Engine.chunk_index r in
        if st.results.(i) = None then begin
          st.results.(i) <- Some r;
          st.completed <- st.completed + 1;
          Option.iter (fun w -> Engine.Checkpoint.add ~written:false w r) writer;
          Obs.Metrics.incr "sweep.checkpoint.chunks_resumed"
        end)
      (Engine.Checkpoint.load prep ~path)
  | _ -> ());
  let request c =
    {
      Protocol.sc_model = model_path;
      sc_plan = plan_json;
      sc_seed = seed;
      sc_block = block;
      sc_measures = measure_strs;
      sc_specs = spec_strs;
      sc_policy = policy_str;
      sc_chunk = c;
      sc_key = key;
      sc_deadline_ms = Some (config.chunk_timeout_s *. 1e3);
    }
  in
  (* ---- one worker domain per address ---- *)
  let worker_loop w =
    let label = st.labels.(w) in
    let conn = ref None in
    let drop () =
      Option.iter Client.close !conn;
      conn := None
    in
    let connect () =
      match !conn with
      | Some c -> Ok c
      | None -> (
        match Client.connect_retry ~backoff:config.backoff addrs.(w) with
        | Ok c ->
          (* The socket deadline bounds every RPC; after it fires the
             stream is unsynchronized, so error paths always [drop]. *)
          Client.set_timeout c config.chunk_timeout_s;
          conn := Some c;
          Ok c
        | Error _ as e -> e)
    in
    (* Fetch, verify, and parse one chunk.  Verification is the trust
       boundary: a reply is merged only if it echoes our key (skew
       check) and parses against our own layout ([chunk_result_of_json]
       re-validates bounds and shape). *)
    let eval_remote ~failures c =
      try
        Runtime.Fault.cut "dsweep.dispatch" ~key:c ~attempt:failures;
        match connect () with
        | Error _ as e -> e
        | Ok cl -> (
          match Client.sweep_chunk cl (request c) with
          | Error _ as e -> e
          | Ok reply ->
            Runtime.Fault.cut "dsweep.recv" ~key:c ~attempt:failures;
            if reply.Protocol.cr_key <> key then
              Error
                (Err.make Invalid_request ~where:"dsweep.recv"
                   (Printf.sprintf
                      "worker %s computed sweep key %s where the \
                       coordinator has %s: model or version skew"
                      label reply.Protocol.cr_key key))
            else
              let r =
                Engine.chunk_result_of_json ~file:("worker " ^ label) prep
                  reply.Protocol.cr_record
              in
              if Engine.chunk_index r <> c then
                Error
                  (Err.make Internal ~where:"dsweep.recv"
                     (Printf.sprintf "worker %s answered chunk %d to a \
                                      request for chunk %d"
                        label (Engine.chunk_index r) c))
              else Ok r)
      with Err.Error e -> Error e
    in
    let last_beat = ref (Unix.gettimeofday ()) in
    let rec loop failures =
      let decision =
        Mutex.lock st.m;
        let d =
          if st.abort <> None || not st.live.(w) || st.completed = st.total
          then `Exit
          else begin
            let live =
              Array.to_list st.labels
              |> List.filteri (fun i _ -> st.live.(i))
            in
            let rec find c =
              if c >= st.total then None
              else if
                st.results.(c) = None
                && (not st.claimed.(c))
                && assign ~key ~chunk:c ~live = label
              then Some c
              else find (c + 1)
            in
            match find 0 with
            | Some c ->
              st.claimed.(c) <- true;
              `Chunk c
            | None -> `Idle
          end
        in
        Mutex.unlock st.m;
        d
      in
      match decision with
      | `Exit -> drop ()
      | `Idle ->
        (* Nothing assigned to us right now; keep the peer's liveness
           fresh so a daemon that died between chunks is noticed. *)
        let now = Unix.gettimeofday () in
        if now -. !last_beat >= config.heartbeat_s then begin
          last_beat := now;
          let beat =
            try
              match connect () with
              | Error _ as e -> e
              | Ok cl -> Result.map ignore (Client.ping cl)
            with Err.Error e -> Error e
          in
          match beat with
          | Ok () ->
            Obs.Metrics.incr "dsweep.heartbeats";
            loop 0
          | Error e -> fail ~claim:None failures e
        end
        else begin
          Unix.sleepf 0.01;
          loop failures
        end
      | `Chunk c -> (
        let outcome =
          try
            Runtime.Fault.cut "dsweep.worker" ~key:w ~attempt:failures;
            eval_remote ~failures c
          with Err.Error e -> Error e
        in
        match outcome with
        | Ok r ->
          Mutex.lock st.m;
          let fresh = st.results.(c) = None in
          if fresh then begin
            st.results.(c) <- Some r;
            st.completed <- st.completed + 1
          end;
          st.claimed.(c) <- false;
          Condition.broadcast st.cv;
          Mutex.unlock st.m;
          if fresh then begin
            (* The writer has its own lock; keep file IO off [st.m]. *)
            Option.iter (fun wtr -> Engine.Checkpoint.add wtr r) writer;
            Obs.Metrics.incr "dsweep.chunks.completed"
          end;
          loop 0
        | Error e -> fail ~claim:(Some c) failures e)
    and fail ~claim failures e =
      Option.iter
        (fun c ->
          Mutex.lock st.m;
          st.claimed.(c) <- false;
          Condition.broadcast st.cv;
          Mutex.unlock st.m;
          Obs.Metrics.incr "dsweep.chunks.reassigned")
        claim;
      drop ();
      if not (Client.Backoff.retryable e) then begin
        (* A wrong answer, skew, or corrupt record: retrying cannot fix
           it and must not paper over it. *)
        Mutex.lock st.m;
        if st.abort = None then st.abort <- Some e;
        Condition.broadcast st.cv;
        Mutex.unlock st.m
      end
      else if failures + 1 > config.worker_retries then begin
        Mutex.lock st.m;
        st.live.(w) <- false;
        Condition.broadcast st.cv;
        Mutex.unlock st.m;
        Obs.Metrics.incr "dsweep.workers.lost";
        log
          (Printf.sprintf
             "dsweep: worker %s declared dead after %d consecutive \
              failures (last: %s); its chunks fall to the survivors"
             label (failures + 1) (Err.to_string e))
      end
      else begin
        Obs.Metrics.incr "dsweep.retries";
        Unix.sleepf
          (Client.Backoff.delay config.backoff ~salt:("dsweep:" ^ label)
             ~attempt:failures);
        loop (failures + 1)
      end
    in
    loop 0
  in
  if st.completed < st.total then begin
    let svc =
      Runtime.Service.start ~workers:nw (fun ~worker ~stop:_ ->
          worker_loop worker)
    in
    Mutex.lock st.m;
    while
      st.completed < st.total
      && st.abort = None
      && Array.exists Fun.id st.live
    do
      Condition.wait st.cv st.m
    done;
    Mutex.unlock st.m;
    (* Workers observe the same terminal conditions and return; this
       joins them (and re-raises if a domain somehow died). *)
    Runtime.Service.stop svc
  end;
  (* Whatever happened, persist the progress we have before deciding
     how to end — a failed run must leave a resumable checkpoint. *)
  Option.iter Engine.Checkpoint.flush writer;
  (match st.abort with Some e -> raise (Err.Error e) | None -> ());
  if st.completed < st.total then
    Err.errorf Worker_crash ~where:"dsweep"
      "all %d workers lost with %d/%d chunks done%s" nw st.completed st.total
      (match checkpoint with
      | Some p ->
        Printf.sprintf "; progress is checkpointed in %s — rerun with \
                        resume to continue" p
      | None -> "");
  Engine.finish prep st.results
