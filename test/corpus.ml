(* The values behind test/golden/codec_corpus.txt: one fixed instance of
   every wire and disk shape — each serve request and response variant
   (with and without id, trace context and deadline, special floats, an
   error carrying every optional field), a chunk record with quarantined
   points, a sweep checkpoint document, every plan kind, and both opt
   request modes with one checkpoint unit of each kind.

   Built only through the encoders, so the corpus pins the bytes they
   write.  See test/golden/README.md for how the file was made. *)

module Protocol = Serve.Protocol
module Json = Obs.Json
module Err = Awesym_error
module Model = Awesymbolic.Model
module Netlist = Circuit.Netlist
module Engine = Sweep.Engine
module Plan = Sweep.Plan
module Dist = Sweep.Dist
module Request = Opt.Request

let specials =
  [| 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 5e-324;
     Float.max_float; Float.pi; 1e-300 |]

let model =
  lazy
    (let nl = Circuit.Builders.fig1 () in
     let nl = Netlist.mark_symbolic nl "C1" (Symbolic.Symbol.intern "C1") in
     let nl = Netlist.mark_symbolic nl "G2" (Symbolic.Symbol.intern "G2") in
     Model.build ~order:2 nl)

(* C1 uniform within 30% of its nominal, G2 normal with a 10% sigma. *)
let axes =
  lazy
    (let nom = Model.nominal_values (Lazy.force model) in
     [
       { Plan.name = "C1"; dist = Dist.around ~nominal:nom.(0) ~pct:30.0 };
       { Plan.name = "G2"; dist = Dist.normal ~mean:nom.(1) ~std:(0.1 *. nom.(1)) };
     ])

let plans =
  lazy
    (let axes = Lazy.force axes in
     [
       ("monte_carlo", Plan.make (Plan.Monte_carlo 16) axes);
       ( "latin_hypercube",
         Plan.make (Plan.Latin_hypercube 5)
           [ { Plan.name = "C1"; dist = Dist.lognormal ~mu:(-0.5) ~sigma:0.25 } ] );
       ("corners", Plan.make Plan.Corners axes);
       ("grid", Plan.make (Plan.Grid 3) axes);
     ])

(* A 16-point sweep in blocks of 8 with sticky point faults, so chunk 0
   carries quarantined points. *)
let prep =
  lazy
    (Engine.prepare ~seed:3 ~block:8 ~jobs:1
       ~measures:[ Engine.Dc_gain; Engine.Delay_50 ]
       ~policy:Engine.Skip (Lazy.force model)
       (List.assoc "monte_carlo" (Lazy.force plans)))

let chunk0 =
  lazy
    (let p = Lazy.force prep in
     Runtime.Fault.arm ~seed:5 "sweep.point:0.4:sticky";
     Fun.protect ~finally:Runtime.Fault.disarm (fun () -> Engine.eval_chunk p 0))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_temp suffix f =
  let path = Filename.temp_file "awesym_corpus" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let checkpoint_doc () =
  let p = Lazy.force prep in
  with_temp ".ckpt" @@ fun path ->
  let w = Engine.Checkpoint.writer p ~path in
  Engine.Checkpoint.add w (Lazy.force chunk0);
  Engine.Checkpoint.add w (Engine.eval_chunk p 1);
  Engine.Checkpoint.flush w;
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error m -> failwith m

let size_request =
  lazy
    (Request.Size
       {
         (Opt.Sizing.default_config ~axes:(Lazy.force axes)
            (Opt.Objective.make
               ~goal:(Opt.Objective.Minimize Engine.Elmore_delay)
               ~area_weight:0.25 ()))
         with
         Opt.Sizing.restarts = 0;
         max_iters = 3;
       })

let yield_request =
  lazy
    (let e0 =
       match
         Engine.point_measures (Lazy.force model) [ Engine.Elmore_delay ]
           (Model.nominal_values (Lazy.force model))
       with
       | [ e ] -> e
       | _ -> failwith "expected one measure"
     in
     Request.Yield
       {
         (Opt.Recenter.default_config ~axes:(Lazy.force axes)
            ~specs:[ { Engine.measure = Engine.Elmore_delay; bound = Engine.Le e0 } ])
         with
         Opt.Recenter.points = 40;
         iters = 1;
         shrink = 0.5;
       })

(* The first checkpoint unit a run of [req] writes. *)
let first_unit req =
  with_temp ".opt" @@ fun path ->
  ignore (Request.run ~jobs:1 ~checkpoint:path (Lazy.force model) req);
  match Json.of_string (read_file path) with
  | Ok doc -> (
    match Json.member "units" doc with
    | Some (Json.List (u :: _)) -> u
    | _ -> failwith "checkpoint has no units")
  | Error m -> failwith m

(* Optimization reports: a sizing run that stops at its iteration
   budget, one whose objective is infinite at every point (the passive
   deck never crosses unity gain), and a yield run that does not
   improve (no point meets the spec). *)
let reports () =
  let model = Lazy.force model in
  let axes = Lazy.force axes in
  let unreachable =
    Request.Size
      {
        (Opt.Sizing.default_config ~axes
           (Opt.Objective.make
              ~goal:(Opt.Objective.Maximize Engine.Unity_gain_frequency) ()))
        with
        Opt.Sizing.max_iters = 2;
      }
  and no_gain =
    Request.Yield
      {
        (Opt.Recenter.default_config ~axes
           ~specs:[ { Engine.measure = Engine.Dc_gain; bound = Engine.Ge 2.0 } ])
        with
        Opt.Recenter.points = 24;
        iters = 1;
      }
  in
  List.map
    (fun (name, req) ->
      ("opt.report." ^ name, Request.report_to_json (Request.run ~jobs:1 model req)))
    [
      ("size", Lazy.force size_request);
      ("size.nonfinite", unreachable);
      ("yield", no_gain);
    ]

(* A two-experiment bench document as [bench --json] writes it, with a
   fixed machine block: one experiment that tripped counters, a gauge and
   two histograms, one that recorded nothing. *)
let bench_doc () =
  let experiment id wall_s record =
    Obs.reset ();
    record ();
    { Obs.id; wall_s; metrics = Obs.Metrics.snapshot () }
  in
  Obs.enabled := true;
  let experiments =
    Fun.protect
      ~finally:(fun () ->
        Obs.reset ();
        Obs.enabled := false)
      (fun () ->
        [
          experiment "sweep" 0.12756514549255371 (fun () ->
              Obs.Metrics.add "bench.sweep.points" 2000;
              Obs.Metrics.incr "lu.factor.count";
              Obs.Metrics.set_gauge "serve.queue_depth" 2.5;
              List.iter (Obs.Metrics.observe "lu.factor.dim") [ 1.0; 2.0; 67.0 ];
              Obs.Metrics.observe "pade.fit.order" 2.0);
          experiment "eq5" 0.00039505958557128906 ignore;
        ])
  in
  let machine =
    Json.Obj
      [
        ("hostname", Json.Str "vm");
        ("os_type", Json.Str "Unix");
        ("ocaml_version", Json.Str "5.1.1");
        ("word_size", Json.Num 64.0);
        ("backend", Json.Str "native");
      ]
  in
  Obs.Codec.encode Obs.bench_codec { machine; experiments }

let trace = { Protocol.trace_id = "t-1f"; parent_span = "client.eval" }

let points =
  [| Array.sub specials 0 3; Array.sub specials 3 3; Array.sub specials 6 3 |]

let full_error =
  Err.make ~file:"deck.cir" ~line:12 ~condition:1.5e12
    ~context:[ ("column", "3"); ("pivot", "0") ]
    Err.Singular_system ~where:"lu.factor" "singular pivot"

let requests () =
  let sweep_chunk deadline =
    Protocol.Sweep_chunk
      {
        Protocol.sc_model = "/models/fig1.awm";
        sc_plan = Plan.to_json (List.assoc "grid" (Lazy.force plans));
        sc_seed = 3;
        sc_block = 8;
        sc_measures = [ "dc_gain"; "m1" ];
        sc_specs = [ "dc_gain>=0.5" ];
        sc_policy = "retry:2";
        sc_chunk = 1;
        sc_key = "0123456789abcdef0123456789abcdef";
        sc_deadline_ms = deadline;
      }
  in
  let optimize req deadline =
    Protocol.Optimize
      {
        Protocol.op_model = "/models/fig1.awm";
        op_request = Request.to_json (Lazy.force req);
        op_deadline_ms = deadline;
      }
  in
  let eval deadline =
    Protocol.Eval { Protocol.model = "/models/fig1.awm"; points; deadline_ms = deadline }
  in
  List.map
    (fun (name, id, trace, r) ->
      ("req." ^ name, Protocol.request_to_json ?id ?trace r))
    [
      ("ping", None, None, Protocol.Ping);
      ("ping.id_trace", Some (Json.Num 7.0), Some trace, Protocol.Ping);
      ("info", Some (Json.Str "q-1"), None, Protocol.Info "/models/fig1.awm");
      ("eval", None, None, eval None);
      ("eval.deadline", Some (Json.Num 8.0), Some trace, eval (Some 250.5));
      ("eval.empty", None, None,
        Protocol.Eval { Protocol.model = "m"; points = [||]; deadline_ms = None });
      ("stats", None, None, Protocol.Stats);
      ("metrics", Some Json.Null, None, Protocol.Metrics);
      ("trace", None, None, Protocol.Trace 16);
      ("trace.id", Some (Json.List [ Json.Num 1.0 ]), Some trace, Protocol.Trace 3);
      ("shutdown", None, None, Protocol.Shutdown);
      ("sweep_chunk", None, None, sweep_chunk None);
      ("sweep_chunk.deadline", Some (Json.Str "c1"), Some trace, sweep_chunk (Some 1e4));
      ("optimize.size", None, None, optimize size_request None);
      ( "optimize.yield", Some (Json.Num 2.0), Some trace,
        optimize yield_request (Some 6e4) );
    ]

let responses () =
  let chunk_record = Engine.chunk_result_to_json (Lazy.force chunk0) in
  List.map
    (fun (name, id, r) -> ("resp." ^ name, Protocol.response_to_json ?id r))
    [
      ( "pong", None,
        Protocol.R_pong [ ("serve", Protocol.schema); ("sweep", Engine.schema) ] );
      ("pong.id", Some (Json.Num 1.0), Protocol.R_pong []);
      ( "info",
        Some (Json.Str "q-1"),
        Protocol.R_info
          {
            Protocol.digest = "d41d8cd98f00b204e9800998ecf8427e";
            order = 2;
            symbols = [| "C1"; "G2" |];
            nominals = [| 1e-12; Float.nan |];
          } );
      ( "eval",
        None,
        Protocol.R_eval
          { Protocol.digest = "d41d8cd98f00b204e9800998ecf8427e";
            order = 2;
            moments = points } );
      ( "stats",
        None,
        Protocol.R_stats (Json.Obj [ ("requests", Json.Num 3.0); ("qps", Json.Num 1.5) ]) );
      ( "metrics", None,
        Protocol.R_metrics "# TYPE serve_requests counter\nserve_requests 3\n" );
      ( "traces",
        Some (Json.Num 4.0),
        Protocol.R_traces [ Json.Obj [ ("trace_id", Json.Str "t-1f") ]; Json.Obj [] ] );
      ( "chunk",
        None,
        Protocol.R_chunk
          {
            Protocol.cr_digest = "d41d8cd98f00b204e9800998ecf8427e";
            cr_key = Engine.prep_key (Lazy.force prep);
            cr_chunk = 0;
            cr_record = chunk_record;
          } );
      ( "optimize",
        None,
        Protocol.R_optimize
          {
            Protocol.or_digest = "d41d8cd98f00b204e9800998ecf8427e";
            or_report =
              Json.Obj
                [ ("schema", Json.Str Request.schema); ("status", Json.Str "converged") ];
          } );
      ("draining", Some (Json.Str "bye"), Protocol.R_draining);
      ("error", Some (Json.Num 9.0), Protocol.R_error full_error);
      ( "error.min", None,
        Protocol.R_error (Err.make Err.Timeout ~where:"serve.queue" "deadline expired") );
    ]

let entries () =
  requests ()
  @ responses ()
  @ [
      ("sweep.chunk_record", Engine.chunk_result_to_json (Lazy.force chunk0));
      ("sweep.checkpoint", checkpoint_doc ());
    ]
  @ List.map (fun (name, p) -> ("sweep.plan." ^ name, Plan.to_json p)) (Lazy.force plans)
  @ [
      ("opt.request.size", Request.to_json (Lazy.force size_request));
      ("opt.request.yield", Request.to_json (Lazy.force yield_request));
      ("opt.unit.restart", first_unit (Lazy.force size_request));
      ("opt.unit.iteration", first_unit (Lazy.force yield_request));
    ]
  @ reports ()
  @ [ ("bench.doc", bench_doc ()) ]

let file = "codec_corpus.txt"

(* One entry per line: its name, a space, its compact encoding. *)
let render es =
  String.concat "" (List.map (fun (name, j) -> name ^ " " ^ Json.to_string j ^ "\n") es)
