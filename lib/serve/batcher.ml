(* Micro-batching scheduler: coalesce concurrent point-evaluation
   requests into as few Slp.eval_batch calls as possible.

   The worker puts admitted requests in a FIFO with no bound of its
   own: admission caps each worker's backlog of requests admitted and
   not yet answered, so this queue cannot outgrow it.  A flush becomes
   due when the oldest request has lingered [linger_s], when [max_batch]
   points have accumulated, or when any pending deadline is about to
   pass — whichever is first; the serving loop uses {!due} as its select
   timeout so an idle daemon sleeps and a loaded one batches greedily.

   A flush drains the whole queue: expired requests answer [Timeout],
   the rest group by model digest (FIFO order preserved within a group)
   and each group becomes ONE call into the entry's batch evaluator —
   the kernel fans blocks across the worker pool internally.  Because
   every lane of the batch kernel runs the scalar operation sequence
   independently, the result bits do not depend on how requests were
   coalesced, on the batch boundaries, or on the jobs count: a served
   evaluation is bit-identical to `awesym eval` offline, which the
   concurrent-client test and the CI smoke diff both check. *)

module Json = Obs.Json
module Err = Awesym_error

type config = {
  max_batch : int;  (* points that force an immediate flush *)
  linger_s : float;  (* max seconds the oldest request waits *)
}

let default_config = { max_batch = 4096; linger_s = 0.002 }

type pending = {
  key : int;  (* connection slot, opaque to the batcher *)
  id : Json.t option;
  entry : Registry.entry;
  points : float array array;
  arrived : float;
  deadline : float option;  (* absolute, seconds *)
  trace : Reqtrace.builder option;
      (* request trace; the batcher records queue-wait and kernel-eval
         spans into it and hands it back with the response *)
}

type t = {
  config : config;
  mutable rev_queue : pending list;  (* newest first *)
  mutable count : int;
  mutable points_pending : int;
}

let create config =
  if config.max_batch < 1 then invalid_arg "Batcher: max_batch must be >= 1";
  if config.linger_s < 0.0 then invalid_arg "Batcher: linger must be >= 0";
  { config; rev_queue = []; count = 0; points_pending = 0 }

let length t = t.count

let submit t p =
  t.rev_queue <- p :: t.rev_queue;
  t.count <- t.count + 1;
  t.points_pending <- t.points_pending + Array.length p.points;
  Obs.Metrics.observe "serve.queue.depth" (float_of_int t.count)

(* Earliest instant at which a flush must run: the oldest request's
   linger expiry, tightened by any pending deadline (flushing before a
   deadline passes is what gives deadlines their meaning under load). *)
let next_due t =
  match t.rev_queue with
  | [] -> None
  | newest :: _ ->
    let oldest =
      List.fold_left (fun _ p -> p) newest t.rev_queue (* last = oldest *)
    in
    let due = oldest.arrived +. t.config.linger_s in
    Some
      (List.fold_left
         (fun acc p ->
           match p.deadline with Some d -> Float.min acc d | None -> acc)
         due t.rev_queue)

let due t ~now =
  match next_due t with
  | None -> None
  | Some at -> Some (Float.max 0.0 (at -. now))

let ready t ~now =
  t.count > 0
  && (t.points_pending >= t.config.max_batch
     || match next_due t with Some at -> now >= at | None -> false)

let observe_latency ~now p =
  Obs.Metrics.observe "serve.latency_us" ((now -. p.arrived) *. 1e6)

let trace_span p ~name ~start ~stop =
  Option.iter (fun b -> Reqtrace.add_span b ~name ~start ~stop) p.trace

let flush t ~now =
  let items = List.rev t.rev_queue in
  t.rev_queue <- [];
  t.count <- 0;
  t.points_pending <- 0;
  if items = [] then []
  else begin
    Obs.Metrics.incr "serve.batch.count";
    let live, expired =
      List.partition
        (fun p ->
          match p.deadline with Some d -> now <= d | None -> true)
        items
    in
    let timeouts =
      List.map
        (fun p ->
          Obs.Metrics.incr "serve.rejected.timeout";
          observe_latency ~now p;
          trace_span p ~name:"serve.queue.wait" ~start:p.arrived ~stop:now;
          ( p.key,
            p.id,
            p.trace,
            Protocol.R_error
              (Err.make Timeout ~where:"serve.deadline"
                 (Printf.sprintf "deadline expired %.3f ms ago"
                    ((now -. Option.get p.deadline) *. 1e3))) ))
        expired
    in
    (* Group by model digest, preserving FIFO order within each group and
       first-appearance order across groups. *)
    let groups : (string, pending list ref) Hashtbl.t = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun p ->
        match Hashtbl.find_opt groups p.entry.Registry.digest with
        | Some cell -> cell := p :: !cell
        | None ->
          Hashtbl.add groups p.entry.Registry.digest (ref [ p ]);
          order := p.entry.Registry.digest :: !order)
      live;
    let evaluated =
      List.concat_map
        (fun digest ->
          let group = List.rev !(Hashtbl.find groups digest) in
          let entry = (List.hd group).entry in
          let nsym = Array.length entry.Registry.symbols in
          let n =
            List.fold_left (fun a p -> a + Array.length p.points) 0 group
          in
          Obs.Metrics.observe "serve.batch.points" (float_of_int n);
          let cols = Array.init nsym (fun _ -> Array.make n 0.0) in
          let row = ref 0 in
          List.iter
            (fun p ->
              Array.iter
                (fun pt ->
                  for k = 0 to nsym - 1 do
                    cols.(k).(!row) <- pt.(k)
                  done;
                  incr row)
                p.points)
            group;
          let eval_start = Unix.gettimeofday () in
          let group_spans p ~stop =
            trace_span p ~name:"serve.queue.wait" ~start:p.arrived
              ~stop:eval_start;
            trace_span p ~name:"serve.kernel.eval" ~start:eval_start ~stop
          in
          match entry.Registry.evaluate cols with
          | exception e ->
            (* A whole-batch failure (injected fault, nonfinite guard)
               answers every member with the classified error rather
               than killing the daemon. *)
            let eval_stop = Unix.gettimeofday () in
            let err = Err.classify e in
            List.map
              (fun p ->
                observe_latency ~now p;
                group_spans p ~stop:eval_stop;
                (p.key, p.id, p.trace, Protocol.R_error err))
              group
          | outs ->
            let eval_stop = Unix.gettimeofday () in
            let nmom = Array.length outs in
            let off = ref 0 in
            List.map
              (fun p ->
                let count = Array.length p.points in
                let moments =
                  Array.init count (fun i ->
                      Array.init nmom (fun j -> outs.(j).(!off + i)))
                in
                off := !off + count;
                observe_latency ~now p;
                group_spans p ~stop:eval_stop;
                Obs.Metrics.add "serve.points" count;
                ( p.key,
                  p.id,
                  p.trace,
                  Protocol.R_eval
                    {
                      Protocol.digest = entry.Registry.digest;
                      order = entry.Registry.order;
                      moments;
                    } ))
              group)
        (List.rev !order)
    in
    timeouts @ evaluated
  end
