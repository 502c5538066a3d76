(* Workload [dsweep]: [Dsweep.run] from this process against one
   [awesym serve] child, op-amp Monte-Carlo with moment-only measures.
   Per-point compute is cheap, so the coordinator, codec and wire layers
   dominate; it uses the daemon through a few large requests where
   [serve] sends many tiny ones. *)

module Model = Awesymbolic.Model
module Engine = Sweep.Engine
module Client = Serve.Client
module Protocol = Serve.Protocol
module Json = Obs.Json

let points = 50_000
let measures = [ Engine.Moment 0; Engine.Elmore_delay ]
let stream = 3

type setup = { model : Model.t; artifact : string; daemon : Daemon.t; config : Dsweep.config }

let plan () = Circuits.opamp_plan points

let distributed s ~seed =
  Dsweep.run ~seed ~measures s.config ~model:s.model ~model_path:s.artifact (plan ())

let local s ~seed = Engine.run ~seed ~jobs:1 ~measures s.model (plan ())
let report r = Json.to_string (Engine.to_json r)

let setup (env : Util.env) =
  let model = Circuits.opamp_model () in
  let artifact = Filename.concat env.dir "opamp.awm" in
  Model.save model artifact;
  let daemon = Daemon.spawn env in
  let s = { model; artifact; daemon; config = Dsweep.default_config ~addrs:[ daemon.Daemon.addr ] } in
  ignore (Dsweep.run ~seed:1 ~measures s.config ~model ~model_path:artifact (Circuits.opamp_plan 1000));
  s

let run (env : Util.env) ~seed ~seconds =
  let s, setup_s =
    Util.setup_median ~discard:(fun s -> Daemon.stop s.daemon) (fun () -> setup env)
  in
  (* Only sweeps that complete count as operations, so a sweep that fails
     fast cannot raise the throughput. *)
  let ok = ref 0 and quarantined = ref 0 and lost = ref 0 and first = ref None in
  let lat, window =
    Util.repeat_for seconds (fun i ->
        let seed = Util.derive seed stream i in
        match distributed s ~seed with
        | r ->
          incr ok;
          quarantined := !quarantined + List.length r.Engine.failed;
          if !first = None then first := Some (seed, report r)
        | exception (Awesym_error.Error e) ->
          prerr_endline ("dsweep failed: " ^ Awesym_error.to_string e);
          lost := !lost + points)
  in
  let st = Daemon.stats s.daemon in
  Daemon.stop s.daemon;
  (match !first with
  | None -> Util.check false "dsweep: no distributed sweep completed"
  | Some (seed0, dist) ->
    Util.check (report (local s ~seed:seed0) = dist)
      "dsweep: distributed report differs from a local Engine.run");
  let n = Array.length lat in
  {
    Util.setup_s;
    ops = !ok;
    window_s = window;
    latencies = lat;
    attempted = n * points;
    failed = !quarantined + !lost;
    children_rss_mb = 0.0;
    named = [ ("dsweep_pps", float_of_int (!ok * points) /. window, "points/s") ];
    info =
      [
        ("points per sweep", string_of_int points);
        ("sweeps", string_of_int n);
        ("block", string_of_int Symbolic.Slp.default_block);
        ("daemon workers", Printf.sprintf "%.0f" (Daemon.num st [ "workers" ]));
        ("kernel backend", Daemon.str st [ "kernel"; "backend" ]);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run: the coordinator's per-chunk path replayed through public
   functions against the same daemon, a span per stage. *)

let replay s ~seed =
  let sp = Tracer.with_ in
  Tracer.with_ "dsweep" @@ fun () ->
  let prep, key =
    sp "dsweep.prepare" (fun () ->
        let prep = Engine.prepare ~seed ~measures s.model (plan ()) in
        (prep, Engine.prep_key prep))
  in
  let conn = Daemon.connect s.daemon in
  let n = Engine.prep_num_chunks prep in
  let requests = Array.make n "" and replies = Array.make n None in
  let results =
    Array.init n (fun c ->
        let req =
          sp "dsweep.encode" (fun () ->
              let req =
                {
                  Protocol.sc_model = s.artifact;
                  sc_plan = Sweep.Plan.to_json (plan ());
                  sc_seed = seed;
                  sc_block = Engine.prep_block prep;
                  sc_measures = List.map Engine.measure_name measures;
                  sc_specs = [];
                  sc_policy = Engine.policy_name Engine.Skip;
                  sc_chunk = c;
                  sc_key = key;
                  sc_deadline_ms = Some (s.config.Dsweep.chunk_timeout_s *. 1e3);
                }
              in
              requests.(c) <- Protocol.frame_of_json (Protocol.request_to_json (Protocol.Sweep_chunk req));
              req)
        in
        let reply = sp "dsweep.rpc" (fun () -> Daemon.ok "sweep_chunk" (Client.sweep_chunk conn req)) in
        replies.(c) <- Some reply;
        Some (sp "dsweep.decode" (fun () -> Engine.chunk_result_of_json prep reply.Protocol.cr_record)))
  in
  Client.close conn;
  (prep, key, requests, Array.map Option.get replies, sp "dsweep.merge" (fun () -> Engine.finish prep results))

let layers = [ "dsweep.prepare"; "dsweep.encode"; "dsweep.rpc"; "dsweep.decode"; "dsweep.merge" ]

let traced (env : Util.env) ~seed ~seconds =
  let s = setup env in
  let seed0 = Util.derive seed stream 0 in
  let dist_lat, _ =
    Util.repeat_for ~min_reps:2 seconds (fun i -> ignore (distributed s ~seed:(Util.derive seed stream i)))
  in
  let local_lat, _ =
    Util.repeat_for ~min_reps:2 (seconds /. 2.0) (fun i -> ignore (local s ~seed:(Util.derive seed stream i)))
  in
  let expected = report (local s ~seed:seed0) in
  (* The coordinator's own counters, from one run with Obs recording. *)
  Obs.reset ();
  Obs.enabled := true;
  let counted = distributed s ~seed:seed0 in
  Obs.enabled := false;
  let counter = Obs.Metrics.counter in
  let chunks = counter "dsweep.chunks.completed"
  and retries = counter "dsweep.retries"
  and reassigned = counter "dsweep.chunks.reassigned" in
  Obs.reset ();
  Util.check (report counted = expected) "dsweep: distributed report differs from a local Engine.run";
  Tracer.on := true;
  let prep, key, requests, replies, r = replay s ~seed:seed0 in
  Util.check (report r = expected) "dsweep: replayed chunks merge to another report";
  Array.iter
    (fun reply -> Util.check (reply.Protocol.cr_key = key) "dsweep: worker computed another sweep key")
    replies;
  let mean_len frames =
    Array.fold_left (fun acc f -> acc + String.length f) 0 frames / Array.length frames
  in
  let out_b = mean_len requests in
  let in_b =
    mean_len
      (Array.mapi
         (fun c reply ->
           Protocol.frame_of_json
             (Protocol.response_to_json ~id:(Json.Num (float_of_int (c + 1))) (Protocol.R_chunk reply)))
         replies)
  in
  let records = Array.map (fun reply -> Json.to_string reply.Protocol.cr_record) replies in
  (* The compute share of each RPC: the same chunks evaluated here. *)
  Tracer.with_ "dsweep.worker_eval" (fun () ->
      Array.iteri
        (fun c remote ->
          let mine = Json.to_string (Engine.chunk_result_to_json (Engine.eval_chunk prep c)) in
          Util.check (mine = remote) "dsweep: chunk %d differs between worker and coordinator" c)
        records);
  Tracer.on := false;
  let daemon_rss = Daemon.rss_mb s.daemon in
  Daemon.stop s.daemon;
  let rpc = Tracer.durations "dsweep.rpc" in
  let dom, share = Tracer.dominant ~root:"dsweep" ~layers in
  let traced_wall = Tracer.total "dsweep" in
  {
    Util.metrics =
      List.map (fun l -> (l ^ "_s", Tracer.self l, "s")) layers
      @ [
          ("dsweep.rpc_p50_us", 1e6 *. Util.median rpc, "us");
          ("dsweep.worker_eval_s", Tracer.self "dsweep.worker_eval", "s");
          ("dsweep.bytes_out_per_chunk", float_of_int out_b, "bytes");
          ("dsweep.bytes_in_per_chunk", float_of_int in_b, "bytes");
          ("dsweep.chunks", float_of_int chunks, "count");
          ("dsweep.retries", float_of_int retries, "count");
          ("dsweep.reassigned", float_of_int reassigned, "count");
          ("dsweep.overhead_x", Util.median dist_lat /. Util.median local_lat, "x");
          ("dsweep.daemon_rss_mb", daemon_rss, "MB");
          ("dsweep.coverage", Tracer.coverage ~root:"dsweep" ~layers, "ratio");
          ("dsweep.trace_overhead", traced_wall /. Util.median dist_lat, "x");
        ];
    l_attempted = 2 * points;
    l_failed = List.length counted.Engine.failed + List.length r.Engine.failed;
    notes =
      [
        Printf.sprintf "dsweep: dominant layer %s (%.1f%% of the replayed sweep); %.0f points/s distributed vs %.0f local"
          dom (100.0 *. share)
          (float_of_int points /. Util.median dist_lat)
          (float_of_int points /. Util.median local_lat);
      ];
  }
