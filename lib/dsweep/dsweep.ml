(* Distributed-sweep coordinator.

   One domain per configured daemon address, all sharing a single
   mutex-guarded scoreboard (results / claims / live count / abort).
   A domain that holds a connection claims the lowest chunk that is
   neither done nor claimed, and waits on the scoreboard's condition
   while none is free, so a faster daemon simply takes more chunks and a
   released claim is free for whoever asks next.  The merge is by chunk
   index through [Sweep.Engine.finish], which is what makes the result
   byte-identical to a single-node run no matter which worker computed
   what, in which order, after how many retries. *)

module Err = Awesym_error
module Engine = Sweep.Engine
module Client = Serve.Client
module Protocol = Serve.Protocol

type config = {
  addrs : string list;
  chunk_timeout_s : float;
  worker_retries : int;
  backoff : Client.Backoff.t;
}

let default_config ~addrs =
  {
    addrs;
    chunk_timeout_s = 30.0;
    worker_retries = 3;
    backoff = Client.Backoff.default;
  }

(* The shared scoreboard.  [claimed] marks chunks some worker is
   evaluating right now; a failed attempt releases the claim before
   deciding the worker's fate, so no chunk is ever stranded with a dead
   owner.  Every change a waiting domain could care about — a
   completion, a released claim, an abort, a death — broadcasts [cv]. *)
type state = {
  total : int;
  claimed : bool array;
  results : Engine.chunk_result option array;
  mutable completed : int;
  mutable live : int;  (* workers not yet declared dead *)
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
  let results, record = Engine.restore ?checkpoint ~resume prep in
  let st =
    {
      total = Engine.prep_num_chunks prep;
      claimed = Array.make (Engine.prep_num_chunks prep) false;
      results;
      completed = Array.fold_left (fun n r -> n + Bool.to_int (r <> None)) 0 results;
      live = nw;
      abort = None;
      m = Mutex.create ();
      cv = Condition.create ();
    }
  in
  let update f = Mutex.protect st.m (fun () -> f (); Condition.broadcast st.cv) in
  let abort e = update (fun () -> if st.abort = None then st.abort <- Some e) in
  Obs.Metrics.incr "dsweep.run.count";
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
  (* The lowest chunk neither done nor claimed, claimed for the caller;
     while every remaining chunk is claimed, wait for one to come free.
     [None] once nothing is left to take or the run aborted. *)
  let claim () =
    Mutex.protect st.m @@ fun () ->
    let rec free c =
      if c >= st.total then None
      else if st.results.(c) = None && not st.claimed.(c) then Some c
      else free (c + 1)
    in
    let rec take () =
      if st.abort <> None || st.completed = st.total then None
      else
        match free 0 with
        | Some c ->
          st.claimed.(c) <- true;
          Some c
        | None ->
          Condition.wait st.cv st.m;
          take ()
    in
    take ()
  in
  (* ---- one worker domain per address ---- *)
  let worker_loop w =
    let label = Printf.sprintf "%d:%s" w addrs.(w) in
    let conn = ref None in
    let drop () =
      Option.iter Client.close !conn;
      conn := None
    in
    let connect () =
      match !conn with
      | Some c -> Ok c
      | None -> (
        match Client.connect addrs.(w) with
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
    let eval_remote ~failures cl c =
      try
        Runtime.Fault.cut "dsweep.worker" ~key:w ~attempt:failures;
        Runtime.Fault.cut "dsweep.dispatch" ~key:c ~attempt:failures;
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
            else Ok r
      with Err.Error e -> Error e
    in
    (* Connect first, claim second: an address that never answers is
       declared dead without ever holding a chunk, and an idle
       connection needs no ping — a daemon that died meanwhile fails the
       first chunk its connection takes, which is then released.  One
       connect per attempt: the attempts and their backoff are this
       loop's, and it stops once no chunk is left to claim. *)
    let rec loop failures =
      if
        not
          (Mutex.protect st.m (fun () ->
               st.abort <> None || st.completed = st.total))
      then
        match connect () with
        | Error e -> fail ~claim:None failures e
        | Ok cl -> (
          match claim () with
          | None -> ()
          | Some c -> (
            match eval_remote ~failures cl c with
            | Error e -> fail ~claim:(Some c) failures e
            | Ok r ->
              (* The claim made this domain the chunk's only writer. *)
              update (fun () ->
                  st.results.(c) <- Some r;
                  st.completed <- st.completed + 1;
                  st.claimed.(c) <- false);
              (* The checkpoint has its own lock; keep file IO off [st.m]. *)
              record r;
              Obs.Metrics.incr "dsweep.chunks.completed";
              loop 0))
    and fail ~claim failures e =
      Option.iter
        (fun c ->
          update (fun () -> st.claimed.(c) <- false);
          Obs.Metrics.incr "dsweep.chunks.reassigned")
        claim;
      drop ();
      if not (Client.Backoff.retryable e) then
        (* A wrong answer, skew, or corrupt record: retrying cannot fix
           it and must not paper over it. *)
        abort e
      else if failures + 1 > config.worker_retries then begin
        update (fun () -> st.live <- st.live - 1);
        Obs.Metrics.incr "dsweep.workers.lost";
        log
          (Printf.sprintf
             "dsweep: worker %s declared dead after %d consecutive \
              failures (last: %s); the survivors take the remaining chunks"
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
    Fun.protect ~finally:drop (fun () -> loop 0)
  in
  if st.completed < st.total then begin
    (* A domain that raises (a checkpoint append that cannot be written,
       say) aborts the run rather than leaving the others waiting on a
       chunk nobody will finish. *)
    let svc =
      Runtime.Service.start ~workers:nw (fun ~worker ->
          try worker_loop worker with e -> abort (Err.classify e))
    in
    Mutex.protect st.m (fun () ->
        while st.completed < st.total && st.abort = None && st.live > 0 do
          Condition.wait st.cv st.m
        done);
    (* Workers observe the same terminal conditions and return. *)
    Runtime.Service.join svc
  end;
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
