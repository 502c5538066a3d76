(* Workload [serve]: an [awesym serve] child process serving the op-amp
   artifact to two closed-loop clients, each sending single-point [eval]
   requests from its own seeded stream.  Closed loop, because serve's
   callers (optimizers, tools, [awesym call]) block on each reply. *)

module Model = Awesymbolic.Model
module Client = Serve.Client
module Protocol = Serve.Protocol
module Json = Obs.Json

let clients = 2
let stream = 2

type setup = { model : Model.t; artifact : string; daemon : Daemon.t }

let start ?extra env model artifact =
  let daemon = Daemon.spawn ?extra env in
  let c = Daemon.connect daemon in
  let warm = Client.eval c ~model:artifact [| Model.nominal_values model |] in
  Client.close c;
  ignore (Daemon.ok "warm-up eval" warm);
  { model; artifact; daemon }

let setup (env : Util.env) =
  let model = Circuits.opamp_model () in
  let artifact = Filename.concat env.dir "opamp.awm" in
  Model.save model artifact;
  start env model artifact

(* Runs [clients] closed loops for [seconds].  A failed or refused
   request is recorded with the whole window as its latency, so it misses
   any limit. *)
let closed_loop s ~seed ~seconds =
  let g, c = Circuit.Builders.opamp_symbol_names in
  let deadline = Util.now () +. seconds in
  let client ci =
    Domain.spawn (fun () ->
        let rng = Obs.Rng.create (Util.derive seed stream ci) in
        let conn = Daemon.connect s.daemon in
        let lat = Util.Samples.create () in
        let served = ref [] and errors = ref 0 in
        while Util.now () < deadline do
          let gv = 0.5e-6 +. (Obs.Rng.float rng *. 8e-6) in
          let cv = 5e-12 +. (Obs.Rng.float rng *. 60e-12) in
          let point = Model.values s.model [ (g, gv); (c, cv) ] in
          let t0 = Util.now () in
          match Client.eval conn ~model:s.artifact [| point |] with
          | Ok r ->
            Util.Samples.add lat (Util.now () -. t0);
            served := (point, r.Protocol.moments.(0)) :: !served
          | Error _ ->
            incr errors;
            Util.Samples.add lat seconds
        done;
        Client.close conn;
        (Util.Samples.to_array lat, List.rev !served, !errors))
  in
  let t0 = Util.now () in
  let results = List.map Domain.join (List.init clients client) in
  let window = Util.now () -. t0 in
  let lat = Array.concat (List.map (fun (l, _, _) -> l) results) in
  let served = List.concat_map (fun (_, s, _) -> s) results in
  let errors = List.fold_left (fun acc (_, _, e) -> acc + e) 0 results in
  (lat, served, errors, window)

(* The served moments must be bit-identical to offline evaluation. *)
let check_served s served =
  let digest rows = Util.hex_digest_floats rows in
  Util.check
    (digest (List.map snd served)
    = digest (List.map (fun (p, _) -> Model.eval_moments s.model p) served))
    "serve: served moments differ from offline Model.eval_moments"

let beyond_p99 n = n - int_of_float (Float.ceil (0.99 *. float_of_int n))

let run (env : Util.env) ~seed ~seconds =
  let s, setup_s =
    Util.setup_median ~discard:(fun s -> Daemon.stop s.daemon) (fun () -> setup env)
  in
  let lat, served, errors, window = closed_loop s ~seed ~seconds in
  let st = Daemon.stats s.daemon in
  Daemon.stop s.daemon;
  check_served s served;
  let ok = List.length served in
  let n = Array.length lat in
  {
    Util.setup_s;
    ops = ok;
    window_s = window;
    latencies = lat;
    attempted = n;
    failed = errors;
    children_rss_mb = 0.0;
    named =
      [
        ("serve_rps", float_of_int ok /. window, "1/s");
        ("serve_p50_us", 1e6 *. Util.quantile lat 0.5, "us");
        ("serve_p99_us", 1e6 *. Util.quantile lat 0.99, "us");
      ];
    info =
      [
        ("clients", string_of_int clients);
        ("clients exceed cores", string_of_bool (clients > env.cores));
        ("daemon workers", Printf.sprintf "%.0f" (Daemon.num st [ "workers" ]));
        ("kernel backend", Daemon.str st [ "kernel"; "backend" ]);
        ("points per request", "1");
        ("slp ops", string_of_int (Model.num_operations s.model));
        ("latency samples", string_of_int n);
        ("samples beyond p99", string_of_int (beyond_p99 n));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run: client-side codec timings in-process, daemon-side stage
   timings from the request traces it writes with [--trace-log], and the
   daemon's own counters from [stats]. *)

let stages =
  [
    ("serve.parse", "parse"); ("serve.admit", "admit");
    ("serve.registry.lookup", "registry_lookup"); ("serve.batch.enqueue", "batch_enqueue");
    ("serve.queue.wait", "queue_wait"); ("serve.kernel.eval", "kernel_eval");
    ("serve.respond", "respond");
  ]

(* Mean encode and decode cost per message, on this workload's messages. *)
let codec s served =
  let msgs = Array.of_list (List.filteri (fun i _ -> i < 2000) served) in
  let n = Array.length msgs in
  let digest = Digest.to_hex (Digest.file s.artifact) in
  let id i = Json.Num (float_of_int (i + 1)) in
  let encode () =
    Array.mapi
      (fun i (point, _) ->
        Protocol.frame_of_json
          (Protocol.request_to_json ~id:(id i)
             (Protocol.Eval { Protocol.model = s.artifact; points = [| point |]; deadline_ms = None })))
      msgs
  in
  let payloads =
    Array.mapi
      (fun i (_, moments) ->
        Json.to_string
          (Protocol.response_to_json ~id:(id i)
             (Protocol.R_eval { Protocol.digest; order = 2; moments = [| moments |] })))
      msgs
  in
  let decode () =
    Array.iter
      (fun p ->
        match Json.of_string p with
        | Ok j -> ignore (Protocol.response_of_json j)
        | Error m -> failwith m)
      payloads
  in
  let frames = encode () in
  let best f = Util.median (Array.init 5 (fun _ -> snd (Util.timed f))) /. float_of_int n in
  let enc = Tracer.with_ "serve.client_encode" (fun () -> best encode) in
  let dec = Tracer.with_ "serve.client_decode" (fun () -> best decode) in
  (enc, dec, String.length frames.(0), 4 + String.length payloads.(0))

let read_traces path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> acc
    | line -> (
      match Json.of_string line with Ok j -> go (j :: acc) | Error _ -> go acc)
  in
  let records = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> go []) in
  List.filter
    (fun r -> Daemon.str r [ "op" ] = "eval" && Daemon.str r [ "status" ] = "ok")
    records

let traced (env : Util.env) ~seed ~seconds =
  let s = setup env in
  let ref_lat, _, _, _ = closed_loop s ~seed ~seconds in
  Daemon.stop s.daemon;
  let log = Filename.concat env.dir "serve-trace.jsonl" in
  let t = start ~extra:[ "--trace-log"; log ] env s.model s.artifact in
  let before = Daemon.stats t.daemon in
  let lat, served, errors, _ = closed_loop t ~seed ~seconds in
  let after = Daemon.stats t.daemon in
  let daemon_rss = Daemon.rss_mb t.daemon in
  Daemon.stop t.daemon;
  check_served t served;
  let records = read_traces log in
  Util.rm_rf log;
  let delta path = Daemon.num after path -. Daemon.num before path in
  let hist name field = delta [ "metrics"; "histograms"; name; field ] in
  let per_stage = Hashtbl.create 8 in
  let add name d =
    let buf =
      match Hashtbl.find_opt per_stage name with
      | Some b -> b
      | None ->
        let b = Util.Samples.create () in
        Hashtbl.replace per_stage name b;
        b
    in
    Util.Samples.add buf d
  in
  (* The daemon's [serve.queue.wait] span starts when the request is
     admitted, so it also covers the admit, registry-lookup and
     batch-enqueue spans.  Their time is taken out, leaving the mailbox
     hop and the linger, so that no time is counted twice. *)
  let nested = [ "serve.admit"; "serve.registry.lookup"; "serve.batch.enqueue" ] in
  List.iter
    (fun r ->
      match Daemon.field r [ "spans" ] with
      | Some (Json.List spans) ->
        let durs = List.map (fun sp -> (Daemon.str sp [ "name" ], Daemon.num sp [ "dur_us" ])) spans in
        let inner =
          List.fold_left (fun acc (n, d) -> if List.mem n nested then acc +. d else acc) 0.0 durs
        in
        List.iter (fun (n, d) -> add n (if n = "serve.queue.wait" then d -. inner else d)) durs
      | _ -> ())
    records;
  let stage name =
    match Hashtbl.find_opt per_stage name with
    | Some b -> Util.Samples.to_array b
    | None -> [||]
  in
  let mean a = if a = [||] then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  let daemon = Array.of_list (List.map (fun r -> Daemon.num r [ "dur_us" ]) records) in
  let ok_lat = Array.of_list (List.filter (fun v -> v < seconds) (Array.to_list lat)) in
  let client_p50 = 1e6 *. Util.quantile lat 0.5 in
  let enc, dec, req_bytes, resp_bytes = codec t served in
  let enc_us = enc *. 1e6 and dec_us = dec *. 1e6 in
  let stage_means = List.map (fun (full, short) -> (short, mean (stage full))) stages in
  let client_mean = 1e6 *. mean ok_lat in
  let named_sum = enc_us +. dec_us +. List.fold_left (fun a (_, m) -> a +. m) 0.0 stage_means in
  let parts =
    ("client_encode", enc_us) :: ("client_decode", dec_us)
    :: ("transport_and_scheduling", client_mean -. named_sum)
    :: stage_means
  in
  let dom, dom_us = List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv)) ("none", 0.0) parts in
  let hit = delta [ "registry"; "hit" ] and miss = delta [ "registry"; "miss" ] in
  {
    Util.metrics =
      [
        ("serve.client_encode_us", enc_us, "us");
        ("serve.client_decode_us", dec_us, "us");
        ("serve.request_bytes", float_of_int req_bytes, "bytes");
        ("serve.response_bytes", float_of_int resp_bytes, "bytes");
        ("serve.client_p99_us", 1e6 *. Util.quantile lat 0.99, "us");
        ("serve.daemon_latency_p50_us", Util.quantile daemon 0.5, "us");
        ("serve.transport_p50_us", client_p50 -. Util.quantile daemon 0.5, "us");
        ("serve.batch_points_mean", hist "serve.batch.points" "sum" /. hist "serve.batch.points" "count", "count");
        ("serve.batches", delta [ "batches" ], "count");
        ("serve.queue_depth_mean", hist "serve.queue.depth" "sum" /. hist "serve.queue.depth" "count", "count");
        ("serve.registry_hit_ratio", (if hit +. miss > 0.0 then hit /. (hit +. miss) else 0.0), "ratio");
        ("serve.rejected", delta [ "rejected"; "timeout" ] +. delta [ "rejected"; "overloaded" ], "count");
      ]
      @ List.map
          (fun (full, short) -> ("serve.stage." ^ short ^ "_p50_us", Util.quantile (stage full) 0.5, "us"))
          stages
      @ [
          ("serve.stage.queue_wait_p99_us", Util.quantile (stage "serve.queue.wait") 0.99, "us");
          ("serve.daemon_rss_mb", daemon_rss, "MB");
          ("serve.coverage", named_sum /. client_mean, "ratio");
          ("serve.trace_overhead", Util.quantile lat 0.5 /. Util.quantile ref_lat 0.5, "x");
        ];
    l_attempted = Array.length lat;
    l_failed = errors;
    notes =
      [
        Printf.sprintf "serve: dominant layer %s (%.0f of %.0f us mean request latency, %d traced requests)"
          dom dom_us client_mean (List.length records);
      ];
  }
