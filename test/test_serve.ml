(* Tests for the serving daemon: wire-protocol round-trips, malformed
   frame rejection, bit-identity with offline evaluation under concurrent
   clients, deadline expiry, backpressure, graceful drain, and the cache
   GC the daemon runs at startup.

   The in-process harness spawns the server loop in its own domain and
   drives it through real Unix-domain sockets with the blocking client —
   the same code paths production takes, minus the process boundary.
   Drain tests flip the same [stop] ref the SIGTERM handler flips. *)

module Protocol = Serve.Protocol
module Json = Obs.Json
module Err = Awesym_error
module Model = Awesymbolic.Model
module Netlist = Circuit.Netlist

let bits = Int64.bits_of_float

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

(* Compiled-model fixture: fig1 with two symbols, saved as an artifact. *)
let fixture =
  lazy
    (let nl = Circuit.Builders.fig1 () in
     let nl = Netlist.mark_symbolic nl "C1" (Symbolic.Symbol.intern "C1") in
     let nl = Netlist.mark_symbolic nl "G2" (Symbolic.Symbol.intern "G2") in
     let model = Model.build ~order:2 nl in
     let dir = temp_dir "awesym_serve_model" in
     let path = Filename.concat dir "fig1.awm" in
     Model.save model path;
     (model, path))

(* A second artifact with different bytes (order 3) so sharding tests
   can spread distinct digests across worker domains. *)
let fixture3 =
  lazy
    (let nl = Circuit.Builders.fig1 () in
     let nl = Netlist.mark_symbolic nl "C1" (Symbolic.Symbol.intern "C1") in
     let nl = Netlist.mark_symbolic nl "G2" (Symbolic.Symbol.intern "G2") in
     let model = Model.build ~order:3 nl in
     let dir = temp_dir "awesym_serve_model3" in
     let path = Filename.concat dir "fig1o3.awm" in
     Model.save model path;
     (model, path))

(* ------------------------------------------------------------------ *)
(* Protocol: bit-exact floats and codec round-trips *)

(* Floats cross the wire through [Obs.Codec.hexfloat]: its own spelling
   round-trips every bit pattern, and nothing else decodes. *)
let test_hex_float_round_trip () =
  let of_hex s = Result.to_option (Obs.Codec.decode Obs.Codec.hexfloat (Json.Str s)) in
  List.iter
    (fun v ->
      match of_hex (Obs.Codec.hex v) with
      | Some v' ->
        Alcotest.(check int64) "bits preserved" (bits v) (bits v')
      | None -> Alcotest.fail "hex round-trip refused its own encoding")
    Gens.special_floats;
  Alcotest.(check (option (float 0.0))) "short rejected" None (of_hex "abc");
  Alcotest.(check (option (float 0.0))) "non-hex rejected" None
    (of_hex "zzzzzzzzzzzzzzzz");
  (* Only the spelling [hex] writes: Int64.of_string would read "1" as
     5e-324 and skip the "_". *)
  List.iter
    (fun s ->
      Alcotest.(check (option (float 0.0))) (s ^ " rejected") None (of_hex s))
    [ "1"; "3ff0_00000000000"; "3FF0000000000000"; "3ff00000000000000" ]

let gen_points =
  QCheck2.Gen.(
    let* rows = int_range 0 4 in
    let* cols = int_range 1 3 in
    array_repeat rows (array_repeat cols Gens.weird_float))

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Ping;
        return Protocol.Stats;
        return Protocol.Metrics;
        return Protocol.Shutdown;
        map (fun n -> Protocol.Trace n) nat;
        map (fun m -> Protocol.Info m) string_printable;
        (let* model = string_printable in
         let* points = gen_points in
         let* deadline_ms = option (map Float.abs float) in
         return (Protocol.Eval { Protocol.model; points; deadline_ms }));
        (let* sc_model = string_printable in
         let* sc_seed = nat in
         let* sc_block = int_range 1 512 in
         let* sc_measures = small_list string_printable in
         let* sc_specs = small_list string_printable in
         let* sc_policy = oneofl [ "fail_fast"; "skip"; "retry:2" ] in
         let* sc_chunk = nat in
         let* sc_key = string_printable in
         let* sc_deadline_ms = option (map Float.abs float) in
         let* pts = int_range 1 64 in
         return
           (Protocol.Sweep_chunk
              {
                Protocol.sc_model;
                sc_plan =
                  Json.Obj
                    [
                      ("kind", Json.Str "monte-carlo");
                      ("points", Json.Num (float_of_int pts));
                    ];
                sc_seed;
                sc_block;
                sc_measures;
                sc_specs;
                sc_policy;
                sc_chunk;
                sc_key;
                sc_deadline_ms;
              }));
        (let* op_model = string_printable in
         let* op_deadline_ms = option (map Float.abs float) in
         let* seed = nat in
         let* v = Gens.weird_float in
         return
           (Protocol.Optimize
              {
                Protocol.op_model;
                op_request =
                  Json.Obj
                    [
                      ("schema", Json.Str "awesymbolic-opt/1");
                      ("mode", Json.Str "size");
                      ("seed", Json.Num (float_of_int seed));
                      ("step_hex", Json.Str (Obs.Codec.hex v));
                    ];
                op_deadline_ms;
              }));
      ])

let gen_id =
  QCheck2.Gen.(
    option
      (oneof
         [ map (fun n -> Json.Num (float_of_int n)) nat;
           map (fun s -> Json.Str s) string_printable ]))

let gen_trace =
  QCheck2.Gen.(
    option
      (let* trace_id = string_printable in
       let* parent_span = string_printable in
       return { Protocol.trace_id; parent_span }))

(* encode∘decode = id, compared through the canonical serialization —
   floats travel as hex bit patterns, so string equality is bit
   equality. *)
let prop_request_round_trip =
  QCheck2.Test.make ~name:"protocol request round trip" ~count:200
    QCheck2.Gen.(triple gen_id gen_trace gen_request)
    (fun (id, trace, req) ->
      let j = Protocol.request_to_json ?id ?trace req in
      match Protocol.request_of_json j with
      | Error e -> QCheck2.Test.fail_report (Err.to_string e)
      | Ok (id', trace', req') ->
        Json.to_string j
        = Json.to_string (Protocol.request_to_json ?id:id' ?trace:trace' req'))

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.R_draining;
        map (fun kvs -> Protocol.R_pong kvs)
          (small_list (pair string_printable string_printable));
        (let* digest = string_printable in
         let* order = int_range 1 8 in
         let* nominals = array_repeat 3 Gens.weird_float in
         return
           (Protocol.R_info
              { Protocol.digest; order; symbols = [| "a"; "b"; "c" |]; nominals }));
        (let* digest = string_printable in
         let* order = int_range 1 8 in
         let* moments = gen_points in
         return (Protocol.R_eval { Protocol.digest; order; moments }));
        return (Protocol.R_stats (Json.Obj [ ("x", Json.Num 1.0) ]));
        map (fun text -> Protocol.R_metrics text) string_printable;
        map
          (fun ss ->
            Protocol.R_traces
              (List.map (fun s -> Json.Obj [ ("trace_id", Json.Str s) ]) ss))
          (small_list string_printable);
        map (fun e -> Protocol.R_error e) Gens.err;
        (let* cr_digest = string_printable in
         let* cr_key = string_printable in
         let* cr_chunk = nat in
         let* v = Gens.weird_float in
         return
           (Protocol.R_chunk
              {
                Protocol.cr_digest;
                cr_key;
                cr_chunk;
                cr_record =
                  Json.Obj
                    [
                      ("lo", Json.Num 0.0);
                      ("len", Json.Num 1.0);
                      ( "vals",
                        Json.List
                          [ Json.List [ Json.Str (Obs.Codec.hex v) ] ]
                      );
                      ("failed", Json.List []);
                    ];
              }));
        (let* or_digest = string_printable in
         let* status = oneofl [ "converged"; "max_iters"; "no_descent" ] in
         let* v = Gens.weird_float in
         return
           (Protocol.R_optimize
              {
                Protocol.or_digest;
                or_report =
                  Json.Obj
                    [
                      ("schema", Json.Str "awesymbolic-opt/1");
                      ("mode", Json.Str "size");
                      ("status", Json.Str status);
                      ("objective_hex", Json.Str (Obs.Codec.hex v));
                    ];
              }));
      ])

let prop_response_round_trip =
  QCheck2.Test.make ~name:"protocol response round trip" ~count:200
    QCheck2.Gen.(pair gen_id gen_response)
    (fun (id, resp) ->
      let j = Protocol.response_to_json ?id resp in
      match Protocol.response_of_json j with
      | Error e -> QCheck2.Test.fail_report (Err.to_string e)
      | Ok (id', resp') ->
        Json.to_string j = Json.to_string (Protocol.response_to_json ?id:id' resp'))

(* The one error codec: decode (encode e) = e, field for field, the
   condition by its bits. *)
let prop_error_round_trip =
  QCheck2.Test.make ~name:"error codec round trip" ~count:300 Gens.err (fun e ->
      match Obs.Codec.decode Err.codec (Err.to_json e) with
      | Error m -> QCheck2.Test.fail_report (Obs.Codec.error_to_string m)
      | Ok e' ->
        e'.Err.kind = e.Err.kind && e'.where = e.where && e'.message = e.message
        && e'.file = e.file && e'.line = e.line && e'.context = e.context
        && Option.map bits e'.condition = Option.map bits e.condition)

(* Members the serve codec carries as opaque documents, decoded by their
   consumers (the sweep worker, the optimizer, the client). *)
let opaque = [ "id"; "plan"; "request"; "stats"; "traces"; "chunk_record"; "opt_report" ]

let parse_kind decode reencode j =
  match decode j with
  | Ok v -> Ok (reencode v)
  | Error e when e.Err.kind = Err.Parse -> Error e.Err.message
  | Error e -> Error ("wrong kind: " ^ Err.kind_name e.Err.kind)

let prop_request_mutation =
  Mutate.prop ~name:"mutated requests decode canonically or name the node" ~count:400
    ~opaque ~defaults:[ "limit" ]
    QCheck2.Gen.(triple gen_id gen_trace gen_request)
    (fun (id, trace, req) -> Protocol.request_to_json ?id ?trace req)
    (parse_kind Protocol.request_of_json (fun (id, trace, req) ->
         Protocol.request_to_json ?id ?trace req))

let prop_response_mutation =
  Mutate.prop ~name:"mutated responses decode canonically or name the node" ~count:400
    ~opaque
    QCheck2.Gen.(pair gen_id gen_response)
    (fun (id, resp) -> Protocol.response_to_json ?id resp)
    (parse_kind Protocol.response_of_json (fun (id, resp) ->
         Protocol.response_to_json ?id resp))

let prop_error_mutation =
  Mutate.prop ~name:"mutated errors decode canonically or name the node" ~count:300 Gens.err
    Err.to_json
    (parse_kind (Err.decode ~kind:Parse ~where:"serve.test" Err.codec) Err.to_json)

(* Non-canonical frames that used to decode to some other request (or
   kill the daemon): each is now a parse error naming its path. *)
let test_noncanonical_frames_rejected () =
  let frame body = {|{"schema":"awesymbolic-serve/1",|} ^ body ^ "}" in
  let chunk ~seed ~chunk =
    Printf.sprintf
      {|"op":"sweep_chunk","model":"m","plan":{},"seed":%s,"block":8,"measures":[],"specs":[],"policy":"skip","chunk":%s,"key":"k"|}
      seed chunk
  in
  let reject ~decode ~path text =
    let msg =
      match Json.of_string text with
      | Error m -> m
      | Ok j -> (
        match decode j with
        | Error e when e.Err.kind = Err.Parse -> e.Err.message
        | Error e -> Alcotest.failf "%s: wrong kind %s" text (Err.to_string e)
        | Ok _ -> Alcotest.failf "non-canonical frame accepted: %s" text)
    in
    if not (Mutate.contains msg (path ^ ":")) then
      Alcotest.failf "error for %s does not name %s: %s" text path msg
  in
  let request = reject ~decode:Protocol.request_of_json in
  request ~path:"$" (frame {|"op":"ping","op":"shutdown"|});
  request ~path:"$.id" (frame {|"op":"ping","id":"\u+041"|});
  request ~path:"$.seed" (frame (chunk ~seed:"1.7" ~chunk:"0"));
  request ~path:"$.chunk" (frame (chunk ~seed:"1" ~chunk:"1e300"));
  request ~path:"$.limit" (frame {|"op":"trace","limit":-3.5|});
  request ~path:"$.deadline_ms"
    (frame {|"op":"eval","model":"m","points":[],"deadline_ms":1e999|});
  request ~path:"$.deadline_ms"
    (frame {|"op":"eval","model":"m","points":[],"deadline_ms":"nan"|});
  request ~path:"$.deadline_ms"
    (frame {|"op":"eval","model":"m","points":[],"deadline_ms":"inf"|});
  request ~path:"$.points[0][1]"
    (frame {|"op":"eval","model":"m","points":[["3ff0000000000000","3FF0000000000000"]]|});
  request ~path:"$" (frame {|"op":"ping","extra":1|});
  reject ~decode:Protocol.response_of_json ~path:"$.versions.serve"
    (frame {|"ok":true,"pong":true,"versions":{"serve":1}|})

(* ------------------------------------------------------------------ *)
(* Framing *)

let test_pop_frame_incremental () =
  let payload = {|{"schema":"awesymbolic-serve/1","op":"ping"}|} in
  let wire = Protocol.frame payload ^ Protocol.frame "second" in
  let buf = Buffer.create 16 in
  (* Deliver byte by byte: nothing pops until the first frame completes. *)
  let first = Protocol.frame payload in
  String.iteri
    (fun i c ->
      if i < String.length first - 1 then begin
        Buffer.add_char buf c;
        match Protocol.pop_frame buf with
        | `Need_more -> ()
        | _ -> Alcotest.fail "popped before the frame was complete"
      end)
    wire;
  Buffer.add_substring buf wire (String.length first - 1)
    (String.length wire - String.length first + 1);
  (match Protocol.pop_frame buf with
  | `Frame p -> Alcotest.(check string) "first payload" payload p
  | _ -> Alcotest.fail "first frame should pop");
  match Protocol.pop_frame buf with
  | `Frame p -> Alcotest.(check string) "second payload" "second" p
  | _ -> Alcotest.fail "second frame should pop"

let test_pop_frame_oversized () =
  let buf = Buffer.create 8 in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (Protocol.max_frame + 1));
  Buffer.add_bytes buf header;
  match Protocol.pop_frame buf with
  | `Oversized n -> Alcotest.(check int) "reported size" (Protocol.max_frame + 1) n
  | _ -> Alcotest.fail "oversized prefix must be rejected"

let test_read_frame_truncated () =
  (* A peer that dies mid-frame must read as [`Closed], not hang or
     return a short payload. *)
  let r, w = Unix.pipe () in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 100l;
  ignore (Unix.write w header 0 4);
  ignore (Unix.write_substring w "only ten b" 0 10);
  Unix.close w;
  (match Protocol.read_frame r with
  | Error `Closed -> ()
  | Error (`Oversized _) -> Alcotest.fail "truncated read as oversized"
  | Ok _ -> Alcotest.fail "truncated frame must not decode");
  Unix.close r

let expect_parse_error = function
  | Error e when e.Err.kind = Err.Parse -> ()
  | Error e -> Alcotest.failf "wrong kind: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "malformed input must be rejected"

let test_garbage_requests_rejected () =
  let decode s =
    match Json.of_string s with
    | Error _ -> Alcotest.fail "fixture JSON must parse"
    | Ok j -> Protocol.request_of_json j
  in
  expect_parse_error (decode {|{"op":"ping"}|});
  expect_parse_error (decode {|{"schema":"awesymbolic-serve/0","op":"ping"}|});
  expect_parse_error (decode {|{"schema":"awesymbolic-serve/1","op":"mystery"}|});
  expect_parse_error (decode {|{"schema":"awesymbolic-serve/1"}|});
  expect_parse_error
    (decode {|{"schema":"awesymbolic-serve/1","op":"eval","model":"m"}|});
  expect_parse_error
    (decode
       {|{"schema":"awesymbolic-serve/1","op":"eval","model":"m","points":[["xyz"]]}|})

(* ------------------------------------------------------------------ *)
(* In-process server harness.  [sock] passed to [f] is the daemon's
   resolved address in --listen spelling (unix:PATH or tcp:HOST:PORT),
   which [Client.connect] parses — so the same harness exercises both
   transports. *)

let with_server ?batch ?(max_models = 8) ?(workers = 1) ?admission
    ?worker_queue ?trace_log ?(tcp = false) f =
  let batch =
    match batch with Some b -> b | None -> Serve.Batcher.default_config
  in
  let dir = temp_dir "awesym_serve_sock" in
  let listen =
    if tcp then Serve.Transport.Tcp ("127.0.0.1", 0)
    else Serve.Transport.Unix_sock (Filename.concat dir "s.sock")
  in
  let base = Serve.Server.default_config ~listen in
  let config =
    {
      base with
      Serve.Server.batch;
      max_models;
      workers;
      admission =
        (match admission with
        | Some a -> a
        | None -> base.Serve.Server.admission);
      worker_queue =
        Option.value worker_queue ~default:base.Serve.Server.worker_queue;
      cache_gc_bytes = None;
      trace_log;
    }
  in
  let t = Serve.Server.create config in
  let sock = Serve.Transport.to_string (Serve.Server.bound_addr t) in
  let stop = ref false in
  let loop = Domain.spawn (fun () -> while Serve.Server.step t ~stop do () done) in
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      Domain.join loop;
      Serve.Server.shutdown t)
    (fun () -> f ~sock ~stop)

let client sock =
  match Serve.Client.connect sock with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Err.to_string e)

let ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Err.to_string e)

let check_moments_match model points (r : Protocol.eval_result) =
  Array.iteri
    (fun i pt ->
      let expected = Model.eval_moments model pt in
      Alcotest.(check int) "moment count" (Array.length expected)
        (Array.length r.Protocol.moments.(i));
      Array.iteri
        (fun j m ->
          if bits m <> bits expected.(j) then
            Alcotest.failf "point %d moment %d: served %h <> offline %h" i j m
              expected.(j))
        r.Protocol.moments.(i))
    points

let test_ping_and_info () =
  let model, path = Lazy.force fixture in
  with_server @@ fun ~sock ~stop:_ ->
  let c = client sock in
  let versions = ok "ping" (Serve.Client.ping c) in
  Alcotest.(check (option string)) "serve schema advertised"
    (Some Protocol.schema)
    (List.assoc_opt "serve" versions);
  let info = ok "info" (Serve.Client.info c path) in
  Alcotest.(check int) "order" (Model.order model) info.Protocol.order;
  Alcotest.(check (array string)) "symbols"
    (Array.map Symbolic.Symbol.name (Model.symbols model))
    info.Protocol.symbols;
  (* Same bytes under a second path = same registry identity. *)
  let copy = Filename.concat (Filename.dirname path) "copy.awm" in
  let data = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin copy (fun oc -> Out_channel.output_string oc data);
  let info2 = ok "info copy" (Serve.Client.info c copy) in
  Alcotest.(check string) "content-checksum identity" info.Protocol.digest
    info2.Protocol.digest;
  (* A missing artifact is the worker's registry to report, naming the
     file: the acceptor never reads it. *)
  let missing = Filename.concat (Filename.dirname path) "no.awm" in
  (match Serve.Client.info c missing with
  | Error e when e.Err.kind = Err.Invalid_request ->
    Alcotest.(check string) "where" "serve.registry" e.Err.where;
    Alcotest.(check (option string)) "file" (Some missing) e.Err.file
  | Error e -> Alcotest.failf "wrong kind for missing artifact: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "missing artifact must error");
  Serve.Client.close c

(* The acceptance criterion: concurrent clients, random batch shapes,
   every response bit-identical to offline evaluation — at every worker
   count and over both transports. *)
let concurrent_bit_identity ~workers ~tcp () =
  let model, path = Lazy.force fixture in
  let nominals = Model.nominal_values model in
  with_server ~workers ~tcp @@ fun ~sock ~stop:_ ->
  let nclients = 4 and iters = 15 in
  let worker ci =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| 0xbeef; ci |] in
        let c = client sock in
        let out = ref [] in
        for _ = 1 to iters do
          let n = 1 + Random.State.int rng 4 in
          let points =
            Array.init n (fun _ ->
                Array.map
                  (fun nom -> nom *. (0.5 +. Random.State.float rng 1.0))
                  nominals)
          in
          let r = ok "eval" (Serve.Client.eval c ~model:path points) in
          out := (points, r) :: !out
        done;
        Serve.Client.close c;
        !out)
  in
  let domains = List.init nclients worker in
  let results = List.concat_map Domain.join domains in
  Alcotest.(check int) "all requests answered" (nclients * iters)
    (List.length results);
  List.iter (fun (points, r) -> check_moments_match model points r) results

let test_concurrent_clients_bit_identical =
  concurrent_bit_identity ~workers:1 ~tcp:false

let test_multi_worker_bit_identical =
  concurrent_bit_identity ~workers:4 ~tcp:false

let test_tcp_bit_identical = concurrent_bit_identity ~workers:2 ~tcp:true

(* One 1 000-point eval is a single batch of four 256-point blocks, which
   the worker's evaluator runs inline on its own domain: bit-identical to
   offline evaluation at any worker count. *)
let test_large_eval_bit_identical () =
  let model, path = Lazy.force fixture in
  let nominals = Model.nominal_values model in
  List.iter
    (fun workers ->
      with_server ~workers @@ fun ~sock ~stop:_ ->
      let rng = Random.State.make [| 1000; workers |] in
      let points =
        Array.init 1000 (fun _ ->
            Array.map (fun nom -> nom *. (0.5 +. Random.State.float rng 1.0)) nominals)
      in
      let c = client sock in
      let r = ok "eval" (Serve.Client.eval c ~model:path points) in
      Serve.Client.close c;
      Alcotest.(check int) "every point answered" 1000 (Array.length r.Protocol.moments);
      check_moments_match model points r)
    [ 1; 2 ]

let test_deadline_expiry () =
  let _, path = Lazy.force fixture in
  (* A long linger so the deadline, not the linger, triggers the flush. *)
  let batch =
    { Serve.Batcher.max_batch = 4096; linger_s = 5.0 }
  in
  with_server ~batch @@ fun ~sock ~stop:_ ->
  let c = client sock in
  (* A negative relative deadline is expired on arrival, deterministically
     — a deadline of 0 can survive if admission and flush land on the
     same clock tick. *)
  (match Serve.Client.eval c ~deadline_ms:(-1.0) ~model:path [| [| 1.0; 1.0 |] |] with
  | Error e when e.Err.kind = Err.Timeout -> ()
  | Error e -> Alcotest.failf "wrong kind: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "an already-expired deadline must answer timeout");
  Serve.Client.close c

(* No admission gate reads the artifact: an expired request naming a
   missing artifact sheds as a timeout at admission, not as the invalid
   request the worker's file read would report. *)
let test_expired_sheds_before_read () =
  let _, path = Lazy.force fixture in
  with_server @@ fun ~sock ~stop:_ ->
  let c = client sock in
  (match
     Serve.Client.eval c ~deadline_ms:(-1.0) ~model:(path ^ ".missing")
       [| [| 1.0; 1.0 |] |]
   with
  | Error e ->
    Alcotest.(check string) "shed before the file read"
      "timeout at serve.admission.deadline"
      (Err.kind_name e.Err.kind ^ " at " ^ e.Err.where)
  | Ok _ -> Alcotest.fail "a missing artifact cannot evaluate");
  Serve.Client.close c

let queue_depth c =
  match ok "stats" (Serve.Client.stats c) with
  | s -> (
    match Json.member "queue_depth" s with
    | Some (Json.Num d) -> int_of_float d
    | _ -> Alcotest.fail "stats without queue_depth")

(* Each worker's queue depth, from the stats [worker_shards] member. *)
let shard_depths c =
  match Json.member "worker_shards" (ok "stats" (Serve.Client.stats c)) with
  | Some (Json.List shards) ->
    List.map
      (fun sh ->
        match Json.member "queue_depth" sh with
        | Some (Json.Num d) -> int_of_float d
        | _ -> Alcotest.fail "shard entry without queue_depth")
      shards
  | _ -> Alcotest.fail "stats without worker_shards"

let rec wait_for_depth c want tries =
  if tries = 0 then Alcotest.failf "queue never reached depth %d" want
  else if queue_depth c >= want then ()
  else begin
    Unix.sleepf 0.02;
    wait_for_depth c want (tries - 1)
  end

let test_backpressure_overload () =
  let model, path = Lazy.force fixture in
  let batch =
    { Serve.Batcher.max_batch = 4096; linger_s = 10.0 }
  in
  with_server ~batch ~worker_queue:1 @@ fun ~sock ~stop ->
  let point = [| Model.nominal_values model |] in
  (* First request parks in the queue (10 s linger keeps it there). *)
  let parked =
    Domain.spawn (fun () ->
        let c = client sock in
        let r = Serve.Client.eval c ~model:path point in
        Serve.Client.close c;
        r)
  in
  let c = client sock in
  wait_for_depth c 1 200;
  (* The worker's one backlog bound is reached: the next admission is
     load-shed at the admission tier, not buffered. *)
  (match Serve.Client.eval c ~model:path point with
  | Error e when e.Err.kind = Err.Overloaded ->
    Alcotest.(check string) "shed at admission" "serve.admission.queue"
      e.Err.where
  | Error e -> Alcotest.failf "wrong kind: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "a full backlog must shed load");
  Serve.Client.close c;
  (* Drain: the parked request still completes, correctly. *)
  stop := true;
  let r = ok "parked eval" (Domain.join parked) in
  check_moments_match model point r

(* SIGTERM drain loses zero in-flight requests: park several requests
   behind a long linger, flip the stop ref (exactly what the SIGTERM
   handler does), and require every parked client to get a correct
   response before the loop exits. *)
let test_drain_completes_in_flight () =
  let model, path = Lazy.force fixture in
  let nominals = Model.nominal_values model in
  let batch =
    { Serve.Batcher.max_batch = 4096; linger_s = 10.0 }
  in
  with_server ~batch @@ fun ~sock ~stop ->
  let nclients = 3 in
  let workers =
    List.init nclients (fun ci ->
        Domain.spawn (fun () ->
            let c = client sock in
            let points =
              [| Array.map (fun v -> v *. (1.0 +. (0.1 *. float_of_int ci))) nominals |]
            in
            let r = Serve.Client.eval c ~model:path points in
            Serve.Client.close c;
            (points, r)))
  in
  let c = client sock in
  wait_for_depth c nclients 200;
  Serve.Client.close c;
  stop := true;
  List.iter
    (fun d ->
      let points, r = Domain.join d in
      check_moments_match model points (ok "drained eval" r))
    workers

(* The `shutdown` request takes the same drain path as SIGTERM. *)
let test_shutdown_request_drains () =
  let _, path = Lazy.force fixture in
  with_server @@ fun ~sock ~stop:_ ->
  let c = client sock in
  let r = ok "eval" (Serve.Client.eval c ~model:path [| [| 1.0; 1.0 |] |]) in
  Alcotest.(check int) "answered before shutdown" 1
    (Array.length r.Protocol.moments);
  ok "shutdown" (Serve.Client.shutdown c);
  Serve.Client.close c

(* Multi-worker drain: park requests for two distinct digests on four
   workers behind a long linger, flip the stop ref, and require every
   parked client to get a correct answer — the lose-nothing guarantee
   must hold when the queues live in worker domains, not just in the
   acceptor. *)
let test_multi_worker_drain () =
  let model2, path2 = Lazy.force fixture in
  let model3, path3 = Lazy.force fixture3 in
  let batch =
    { Serve.Batcher.max_batch = 4096; linger_s = 10.0 }
  in
  with_server ~batch ~workers:4 @@ fun ~sock ~stop ->
  let jobs =
    [ (model2, path2, 1.0); (model3, path3, 1.05); (model2, path2, 0.95);
      (model3, path3, 1.1) ]
  in
  let workers =
    List.map
      (fun (model, path, scale) ->
        Domain.spawn (fun () ->
            let c = client sock in
            let points =
              [| Array.map (fun v -> v *. scale) (Model.nominal_values model) |]
            in
            let r = Serve.Client.eval c ~model:path points in
            Serve.Client.close c;
            (model, points, r)))
      jobs
  in
  let c = client sock in
  wait_for_depth c (List.length jobs) 200;
  Alcotest.(check (list int)) "one parked request per worker" [ 1; 1; 1; 1 ]
    (shard_depths c);
  Serve.Client.close c;
  stop := true;
  List.iter
    (fun d ->
      let model, points, r = Domain.join d in
      check_moments_match model points (ok "drained eval" r))
    workers

(* Load routing: four single-point requests for one model, from four
   connections, parked behind a long linger, land one on each of four
   workers — any worker may serve any model. *)
let test_one_model_spreads () =
  let model, path = Lazy.force fixture in
  let batch =
    { Serve.Batcher.default_config with Serve.Batcher.linger_s = 10.0 }
  in
  with_server ~batch ~workers:4 @@ fun ~sock ~stop ->
  let point = [| Model.nominal_values model |] in
  let parked =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let c = client sock in
            let r = Serve.Client.eval c ~model:path point in
            Serve.Client.close c;
            r))
  in
  let c = client sock in
  wait_for_depth c 4 200;
  Alcotest.(check (list int)) "worker_shards queue depths" [ 1; 1; 1; 1 ]
    (shard_depths c);
  Serve.Client.close c;
  stop := true;
  List.iter
    (fun d -> check_moments_match model point (ok "parked eval" (Domain.join d)))
    parked

(* Stats must expose the shard topology: worker count and one
   queue-depth/residency entry per worker. *)
let test_stats_shard_topology () =
  let model, path = Lazy.force fixture in
  with_server ~workers:3 @@ fun ~sock ~stop:_ ->
  let c = client sock in
  let _ = ok "eval" (Serve.Client.eval c ~model:path [| Model.nominal_values model |]) in
  let s = ok "stats" (Serve.Client.stats c) in
  (match Json.member "workers" s with
  | Some (Json.Num n) -> Alcotest.(check int) "workers" 3 (int_of_float n)
  | _ -> Alcotest.fail "stats without workers");
  (match Json.member "transport" s with
  | Some (Json.Str a) ->
    Alcotest.(check bool) "transport spelled with scheme" true
      (String.starts_with ~prefix:"unix:" a)
  | _ -> Alcotest.fail "stats without transport");
  (match Json.member "worker_shards" s with
  | Some (Json.List shards) ->
    Alcotest.(check int) "one entry per worker" 3 (List.length shards);
    List.iter
      (fun sh ->
        match (Json.member "queue_depth" sh, Json.member "resident_models" sh)
        with
        | Some (Json.Num _), Some (Json.Num _) -> ()
        | _ -> Alcotest.fail "shard entry missing gauges")
      shards
  | _ -> Alcotest.fail "stats without worker_shards");
  Serve.Client.close c

(* Tiered admission, gate 1: a connection past its inflight cap sheds
   Overloaded while its parked request still completes on drain.  Driven
   with raw frames because the blocking client cannot pipeline. *)
let test_client_inflight_cap () =
  let model, path = Lazy.force fixture in
  let batch =
    { Serve.Batcher.max_batch = 4096; linger_s = 10.0 }
  in
  with_server ~batch ~admission:{ Serve.Admission.per_client_inflight = 1 }
  @@ fun ~sock ~stop ->
  let addr =
    match Serve.Transport.parse sock with
    | Ok a -> a
    | Error e -> Alcotest.failf "parse: %s" (Err.to_string e)
  in
  let fd =
    match Serve.Transport.connect addr with
    | Ok fd -> fd
    | Error e -> Alcotest.failf "connect: %s" (Err.to_string e)
  in
  let send i =
    Protocol.write_frame fd
      (Json.to_string
         (Protocol.request_to_json ~id:(Json.Num i)
            (Protocol.Eval
               {
                 Protocol.model = path;
                 points = [| Model.nominal_values model |];
                 deadline_ms = None;
               })))
  in
  send 1.0;
  (* parks behind the 10 s linger *)
  send 2.0;
  (* over the cap: must shed immediately *)
  let read_response () =
    match Protocol.read_frame fd with
    | Error _ -> Alcotest.fail "server must answer, not close"
    | Ok payload -> (
      match Json.of_string payload with
      | Error m -> Alcotest.failf "bad response JSON: %s" m
      | Ok j -> (
        match Protocol.response_of_json j with
        | Error e -> Alcotest.failf "bad response: %s" (Err.to_string e)
        | Ok (id, resp) -> (id, resp)))
  in
  (match read_response () with
  | Some (Json.Num id), Protocol.R_error e ->
    Alcotest.(check int) "the second request is the one shed" 2
      (int_of_float id);
    Alcotest.(check string) "kind" "overloaded" (Err.kind_name e.Err.kind)
  | _, Protocol.R_error _ -> Alcotest.fail "shed response must echo its id"
  | _, _ -> Alcotest.fail "the over-cap request must shed");
  stop := true;
  (match read_response () with
  | Some (Json.Num id), Protocol.R_eval _ ->
    Alcotest.(check int) "the parked request drains" 1 (int_of_float id)
  | _ -> Alcotest.fail "the parked request must still answer on drain");
  Unix.close fd

(* A server that dies mid-response (here: after half a length prefix)
   must classify as a clean worker-crash error, never hang. *)
let test_server_death_mid_request () =
  let dir = temp_dir "awesym_dead_server" in
  let sock = Filename.concat dir "dead.sock" in
  let lfd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind lfd (ADDR_UNIX sock);
  Unix.listen lfd 1;
  let srv =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept lfd in
        let buf = Bytes.create 256 in
        ignore (Unix.read fd buf 0 256);
        (* half a length prefix, then gone *)
        ignore (Unix.write_substring fd "\x00\x00" 0 2);
        Unix.close fd)
  in
  let c = client sock in
  (match Serve.Client.eval c ~model:"anything.awm" [| [| 1.0 |] |] with
  | Error e when e.Err.kind = Err.Worker_crash -> ()
  | Error e -> Alcotest.failf "wrong kind: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "a dead server must not produce a response");
  Serve.Client.close c;
  Domain.join srv;
  Unix.close lfd

(* A request written to a daemon that has just died fails with EPIPE,
   classified [unavailable] so a caller can retry elsewhere; it must not
   kill the client with SIGPIPE.  The disposition is reset first, as in a
   CLI process that never started a daemon: connecting must ignore it. *)
let test_client_survives_dead_peer () =
  let dir = temp_dir "awesym_epipe" in
  let sock = Filename.concat dir "gone.sock" in
  let lfd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind lfd (ADDR_UNIX sock);
  Unix.listen lfd 1;
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let c =
    match Serve.Client.connect_addr (Serve.Transport.Unix_sock sock) with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" (Err.to_string e)
  in
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | Sys.Signal_ignore -> ()
  | _ -> Alcotest.fail "connecting left SIGPIPE able to kill the client");
  let fd, _ = Unix.accept lfd in
  Unix.close fd;
  (match Serve.Client.ping c with
  | Error e when e.Err.kind = Err.Unavailable -> ()
  | Error e -> Alcotest.failf "wrong kind: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "a closed peer must not answer");
  Serve.Client.close c;
  Unix.close lfd

(* A frame the JSON parser refuses — here a malformed \u escape, which
   once raised out of the parser and took the daemon down — answers a
   parse error naming the node, and the daemon keeps serving. *)
let test_malformed_escape_survives () =
  with_server @@ fun ~sock ~stop:_ ->
  let fd =
    match Result.bind (Serve.Transport.parse sock) Serve.Transport.connect with
    | Ok fd -> fd
    | Error e -> Alcotest.failf "connect: %s" (Err.to_string e)
  in
  Protocol.write_frame fd {|{"schema":"awesymbolic-serve/1","op":"ping","id":"\u+041"}|};
  (match Protocol.read_frame fd with
  | Error _ -> Alcotest.fail "the daemon must answer the frame"
  | Ok payload -> (
    match Result.map Protocol.response_of_json (Json.of_string payload) with
    | Ok (Ok (_, Protocol.R_error e)) ->
      Alcotest.(check string) "kind" "parse" (Err.kind_name e.Err.kind);
      if not (Mutate.contains e.Err.message "$.id") then
        Alcotest.failf "error does not name $.id: %s" e.Err.message
    | _ -> Alcotest.failf "expected a parse error, got %s" payload));
  Unix.close fd;
  let c = client sock in
  ignore (ok "ping after the bad frame" (Serve.Client.ping c));
  Serve.Client.close c

(* TCP delivers no message boundaries: a request dribbled in 3-byte
   chunks must still evaluate, and a peer that abandons a half-sent
   frame must not wedge the daemon for anyone else. *)
let test_partial_frames_over_tcp () =
  let model, path = Lazy.force fixture in
  with_server ~tcp:true ~workers:2 @@ fun ~sock ~stop:_ ->
  let addr =
    match Serve.Transport.parse sock with
    | Ok a -> a
    | Error e -> Alcotest.failf "parse: %s" (Err.to_string e)
  in
  let connect () =
    match Serve.Transport.connect addr with
    | Ok fd -> fd
    | Error e -> Alcotest.failf "connect: %s" (Err.to_string e)
  in
  let wire =
    Protocol.frame
      (Json.to_string
         (Protocol.request_to_json ~id:(Json.Num 7.0)
            (Protocol.Eval
               {
                 Protocol.model = path;
                 points = [| Model.nominal_values model |];
                 deadline_ms = None;
               })))
  in
  (* Split writes: the length prefix itself straddles two chunks. *)
  let fd = connect () in
  let n = String.length wire in
  let rec dribble off =
    if off < n then begin
      let k = Int.min 3 (n - off) in
      ignore (Unix.write_substring fd wire off k);
      Unix.sleepf 0.002;
      dribble (off + k)
    end
  in
  dribble 0;
  (match Protocol.read_frame fd with
  | Error _ -> Alcotest.fail "dribbled frame must still answer"
  | Ok payload -> (
    match Json.of_string payload with
    | Error m -> Alcotest.failf "bad response JSON: %s" m
    | Ok j -> (
      match Protocol.response_of_json j with
      | Ok (Some (Json.Num 7.0), Protocol.R_eval r) ->
        check_moments_match model [| Model.nominal_values model |] r
      | Ok (_, Protocol.R_error e) ->
        Alcotest.failf "dribbled frame answered error: %s" (Err.to_string e)
      | _ -> Alcotest.fail "unexpected reply shape")));
  Unix.close fd;
  (* Truncated: claim a frame, send 6 bytes of it, vanish. *)
  let fd2 = connect () in
  ignore (Unix.write_substring fd2 (String.sub wire 0 6) 0 6);
  Unix.close fd2;
  (* The daemon must still serve others. *)
  let c = client sock in
  let _ = ok "ping after truncated peer" (Serve.Client.ping c) in
  Serve.Client.close c

(* ------------------------------------------------------------------ *)
(* Request tracing + metrics exposition *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let trace_record_spans j =
  match Json.member "spans" j with
  | Some (Json.List spans) ->
    List.filter_map
      (fun s ->
        match Json.member "name" s with Some (Json.Str n) -> Some n | _ -> None)
      spans
  | _ -> []

let check_span_tree label j =
  let spans = trace_record_spans j in
  if List.length spans < 4 then
    Alcotest.failf "%s: expected >= 4 child spans, got [%s]" label
      (String.concat "; " spans);
  List.iter
    (fun name ->
      if not (List.mem name spans) then
        Alcotest.failf "%s: span %s missing from [%s]" label name
          (String.concat "; " spans))
    [
      "serve.parse";
      "serve.registry.lookup";
      "serve.batch.enqueue";
      "serve.kernel.eval";
    ]

(* The tentpole acceptance: a client-chosen trace id round-trips through
   the daemon and lands in the JSONL trace log attached to a span tree
   naming the stations the request passed through. *)
let test_trace_context_round_trip () =
  let model, path = Lazy.force fixture in
  let dir = temp_dir "awesym_trace_log" in
  let log = Filename.concat dir "traces.jsonl" in
  ( with_server ~trace_log:log @@ fun ~sock ~stop:_ ->
    let c = client sock in
    let trace =
      { Protocol.trace_id = "test-trace-123"; parent_span = "test.parent" }
    in
    let r =
      ok "eval"
        (Serve.Client.eval c ~trace ~model:path [| Model.nominal_values model |])
    in
    check_moments_match model [| Model.nominal_values model |] r;
    (* The completed trace is also queryable in-band, newest last. *)
    let ring = ok "traces" (Serve.Client.traces c ~limit:16) in
    (match
       List.find_opt
         (fun j -> Json.member "trace_id" j = Some (Json.Str "test-trace-123"))
         ring
     with
    | None -> Alcotest.fail "client trace id absent from the server ring"
    | Some j ->
      Alcotest.(check (option string))
        "parent span propagated" (Some "test.parent")
        (match Json.member "parent_span" j with
        | Some (Json.Str s) -> Some s
        | _ -> None);
      check_span_tree "ring record" j);
    Serve.Client.close c );
  (* Every record in the log is one line of valid JSON; ours is there
     with the full span tree. *)
  let lines = In_channel.with_open_text log In_channel.input_lines in
  let records =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok j -> j
        | Error m -> Alcotest.failf "trace log line is not JSON (%s): %s" m line)
      lines
  in
  match
    List.find_opt
      (fun j -> Json.member "trace_id" j = Some (Json.Str "test-trace-123"))
      records
  with
  | None -> Alcotest.fail "client trace id absent from the trace log"
  | Some j ->
    Alcotest.(check (option string))
      "logged op" (Some "eval")
      (match Json.member "op" j with Some (Json.Str s) -> Some s | _ -> None);
    check_span_tree "logged record" j

let test_metrics_exposition () =
  let model, path = Lazy.force fixture in
  Obs.reset ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () ->
      Obs.enabled := false;
      Obs.reset ())
  @@ fun () ->
  with_server @@ fun ~sock ~stop:_ ->
  let c = client sock in
  let _ =
    ok "eval" (Serve.Client.eval c ~model:path [| Model.nominal_values model |])
  in
  let text = ok "metrics" (Serve.Client.metrics c) in
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "metrics exposition missing %S in:\n%s" needle text)
    [
      "# TYPE awesym_serve_latency_us summary";
      "awesym_serve_latency_us{quantile=\"0.5\"}";
      "awesym_serve_latency_us{quantile=\"0.99\"}";
      "awesym_serve_latency_us_count 1";
      "# TYPE awesym_serve_queue_depth gauge";
      "awesym_registry_resident_models 1";
      "awesym_batcher_inflight";
      "awesym_serve_worker_0_queue_depth";
      "awesym_serve_worker_0_resident_models 1";
      "# TYPE awesym_serve_requests counter";
    ];
  Serve.Client.close c

(* ------------------------------------------------------------------ *)
(* Cache GC (the daemon runs this at startup; `awesym cache gc` too) *)

(* Served optimization: the daemon's report must be byte-identical to a
   local [Opt.Request.run] of the same request on the same artifact —
   the reply embeds the report verbatim and both ends serialize through
   the same canonical JSON writer. *)
let test_optimize_served_matches_local () =
  let model, path = Lazy.force fixture in
  let nominals = Model.nominal_values model in
  let axes =
    Array.to_list
      (Array.mapi
         (fun k s ->
           { Sweep.Plan.name = Symbolic.Symbol.name s;
             dist = Sweep.Dist.around ~nominal:nominals.(k) ~pct:30.0 })
         (Model.symbols model))
  in
  let objective =
    Opt.Objective.make
      ~goal:(Opt.Objective.Minimize Sweep.Engine.Elmore_delay) ()
  in
  let size_req =
    Opt.Request.Size
      { (Opt.Sizing.default_config ~axes objective) with Opt.Sizing.max_iters = 8 }
  in
  let yield_req =
    Opt.Request.Yield
      {
        (Opt.Recenter.default_config ~axes
           ~specs:
             [ { Sweep.Engine.measure = Sweep.Engine.Elmore_delay;
                 bound = Sweep.Engine.Le 1.0 } ])
        with
        Opt.Recenter.points = 64;
        iters = 2;
      }
  in
  with_server ~workers:2 @@ fun ~sock ~stop:_ ->
  let c = client sock in
  List.iter
    (fun req ->
      let local = Json.to_string (Opt.Request.report_to_json (Opt.Request.run model req)) in
      let reply =
        ok "optimize"
          (Serve.Client.optimize c
             {
               Protocol.op_model = path;
               op_request = Opt.Request.to_json req;
               op_deadline_ms = None;
             })
      in
      Alcotest.(check string) "served report byte-identical to local" local
        (Json.to_string reply.Protocol.or_report))
    [ size_req; yield_req ];
  (* A malformed request document answers a classified error, not a hang. *)
  (match
     Serve.Client.optimize c
       {
         Protocol.op_model = path;
         op_request = Json.Obj [ ("schema", Json.Str "nonsense/9") ];
         op_deadline_ms = None;
       }
   with
  | Error e when e.Err.kind = Err.Invalid_request -> ()
  | Error e -> Alcotest.failf "wrong kind: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "bad opt request must error");
  Serve.Client.close c

(* A served optimization against a spec whose limit has nine digits and
   binds: the op-amp's phase margin at least 84.0123456 while its
   unity-gain frequency is maximized.  The request carries the limit
   exactly, so the daemon optimizes against the local run's limit and
   answers its bytes; against the six-digit 84.0123 the report differs,
   which is what a lossy spelling would serve. *)
let test_optimize_served_binding_spec () =
  let g, c = Circuit.Builders.opamp_symbol_names in
  let mark nl name = Netlist.mark_symbolic nl name (Symbolic.Symbol.intern name) in
  let path = Filename.concat (temp_dir "awesym_serve_opamp") "op.awm" in
  Model.save (Model.build ~order:2 (mark (mark (Circuit.Builders.opamp741 ()) g) c)) path;
  let model = Model.load path in
  let request limit =
    let objective =
      Opt.Objective.make
        ~goal:(Opt.Objective.Maximize Sweep.Engine.Unity_gain_frequency)
        ~penalty_weight:1e13
        ~specs:[ { Sweep.Engine.measure = Sweep.Engine.Phase_margin; bound = Sweep.Engine.Ge limit } ]
        ()
    in
    let axes =
      [ { Sweep.Plan.name = g; dist = Sweep.Dist.uniform ~lo:0.5e-6 ~hi:8.5e-6 };
        { Sweep.Plan.name = c; dist = Sweep.Dist.uniform ~lo:5e-12 ~hi:65e-12 } ]
    in
    Opt.Request.Size { (Opt.Sizing.default_config ~axes objective) with Opt.Sizing.max_iters = 20 }
  in
  let local limit =
    Json.to_string (Opt.Request.report_to_json (Opt.Request.run model (request limit)))
  in
  let want = local 84.0123456 in
  if want = local 84.0123 then Alcotest.fail "the spec's last three digits do not bind";
  with_server @@ fun ~sock ~stop:_ ->
  let cl = client sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close cl) @@ fun () ->
  let reply =
    ok "optimize"
      (Serve.Client.optimize cl
         {
           Protocol.op_model = path;
           op_request = Opt.Request.to_json (request 84.0123456);
           op_deadline_ms = None;
         })
  in
  Alcotest.(check string) "served report ≡ local report" want
    (Json.to_string reply.Protocol.or_report)

let test_cache_gc () =
  let dir = temp_dir "awesym_cache_gc" in
  let write name size mtime =
    let p = Filename.concat dir name in
    Out_channel.with_open_bin p (fun oc ->
        Out_channel.output_string oc (String.make size 'x'));
    Unix.utimes p mtime mtime;
    p
  in
  let now = Unix.gettimeofday () in
  let oldest = write "a.awm" 1000 (now -. 300.0) in
  let newer = write "b.awm" 1000 (now -. 100.0) in
  let newest = write "c.awm" 1000 now in
  let leftover = write "crash.tmp" 50 now in
  let stats = Awesymbolic.Cache.gc ~dir ~max_bytes:2000 () in
  Alcotest.(check int) "scanned" 3 stats.Awesymbolic.Cache.scanned;
  Alcotest.(check int) "deleted oldest only" 1 stats.Awesymbolic.Cache.deleted;
  Alcotest.(check int) "bytes before" 3000 stats.Awesymbolic.Cache.bytes_before;
  Alcotest.(check int) "bytes after" 2000 stats.Awesymbolic.Cache.bytes_after;
  Alcotest.(check bool) "oldest evicted" false (Sys.file_exists oldest);
  Alcotest.(check bool) "newer kept" true (Sys.file_exists newer);
  Alcotest.(check bool) "newest kept" true (Sys.file_exists newest);
  Alcotest.(check bool) ".tmp leftovers swept" false (Sys.file_exists leftover);
  (* Idempotent under budget; a missing directory is an empty cache. *)
  let again = Awesymbolic.Cache.gc ~dir ~max_bytes:2000 () in
  Alcotest.(check int) "no further deletions" 0 again.Awesymbolic.Cache.deleted;
  let missing = Awesymbolic.Cache.gc ~dir:(Filename.concat dir "nope") ~max_bytes:0 () in
  Alcotest.(check int) "missing dir scans nothing" 0
    missing.Awesymbolic.Cache.scanned;
  match Awesymbolic.Cache.gc ~dir ~max_bytes:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative budget must be rejected"

(* ------------------------------------------------------------------ *)
(* Transport: address parsing, stale-socket hygiene *)

let test_transport_parse () =
  let ok_addr spec expect =
    match Serve.Transport.parse spec with
    | Ok a ->
      Alcotest.(check string) spec expect (Serve.Transport.to_string a)
    | Error e -> Alcotest.failf "%s: %s" spec (Err.to_string e)
  in
  ok_addr "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok_addr "tcp:127.0.0.1:4000" "tcp:127.0.0.1:4000";
  ok_addr "tcp:localhost:0" "tcp:localhost:0";
  (* a bare path is the pre-transport spelling *)
  ok_addr "relative/path.sock" "unix:relative/path.sock";
  List.iter
    (fun spec ->
      match Serve.Transport.parse spec with
      | Error e when e.Err.kind = Err.Invalid_request -> ()
      | Error e -> Alcotest.failf "%s wrong kind: %s" spec (Err.to_string e)
      | Ok a ->
        Alcotest.failf "%s must not parse (got %s)" spec
          (Serve.Transport.to_string a))
    [ ""; "unix:"; "tcp:nohost"; "tcp::123"; "tcp:host:notaport";
      "tcp:host:70000" ]

let test_stale_socket_replaced_but_files_refused () =
  let dir = temp_dir "awesym_transport" in
  let path = Filename.concat dir "stale.sock" in
  (* Simulate a crashed daemon: bind, then close without unlinking. *)
  (match Serve.Transport.listen (Serve.Transport.Unix_sock path) with
  | Ok (fd, _) -> Unix.close fd
  | Error e -> Alcotest.failf "first listen: %s" (Err.to_string e));
  Alcotest.(check bool) "socket file left behind" true (Sys.file_exists path);
  (* A fresh daemon must replace the stale socket... *)
  (match Serve.Transport.listen (Serve.Transport.Unix_sock path) with
  | Ok (fd, addr) -> Serve.Transport.close_listener fd addr
  | Error e -> Alcotest.failf "stale socket not replaced: %s" (Err.to_string e));
  (* ...but must never unlink a path that is not a socket. *)
  let reg = Filename.concat dir "precious.dat" in
  Out_channel.with_open_bin reg (fun oc -> Out_channel.output_string oc "data");
  (match Serve.Transport.listen (Serve.Transport.Unix_sock reg) with
  | Ok _ -> Alcotest.fail "binding over a regular file must be refused"
  | Error e ->
    Alcotest.(check bool) "refusal names the reason" true
      (let m = Err.to_string e in
       let nh = String.length m and nn = String.length "refusing to unlink" in
       let rec go i =
         i + nn <= nh && (String.sub m i nn = "refusing to unlink" || go (i + 1))
       in
       go 0));
  Alcotest.(check bool) "the file survives" true (Sys.file_exists reg);
  Alcotest.(check string) "its bytes survive" "data"
    (In_channel.with_open_bin reg In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Mailbox hand-off *)

let test_mailbox () =
  let m = Serve.Mailbox.create () in
  Serve.Mailbox.push m 1;
  Serve.Mailbox.push m 2;
  Alcotest.(check int) "length" 2 (Serve.Mailbox.length m);
  Alcotest.(check (list int)) "FIFO drain" [ 1; 2 ] (Serve.Mailbox.pop_all m);
  Alcotest.(check (list int)) "empty drain" [] (Serve.Mailbox.pop_all m);
  (* pop_block parks until a push arrives... *)
  let consumer = Domain.spawn (fun () -> Serve.Mailbox.pop_block m) in
  Unix.sleepf 0.02;
  Serve.Mailbox.push m 7;
  Alcotest.(check (list int)) "blocked pop gets it" [ 7 ] (Domain.join consumer);
  (* ...and a wake with nothing queued returns [] — the shutdown path. *)
  let consumer = Domain.spawn (fun () -> Serve.Mailbox.pop_block m) in
  Unix.sleepf 0.02;
  Serve.Mailbox.wake m;
  Alcotest.(check (list int)) "wake returns empty" [] (Domain.join consumer)

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          quick "hex float round trip" test_hex_float_round_trip;
          quick "incremental frame extraction" test_pop_frame_incremental;
          quick "oversized frame rejected" test_pop_frame_oversized;
          quick "truncated frame reads as closed" test_read_frame_truncated;
          quick "garbage requests rejected" test_garbage_requests_rejected;
          quick "non-canonical frames rejected with their path"
            test_noncanonical_frames_rejected;
        ]
        @ props
            [ prop_request_round_trip; prop_response_round_trip; prop_error_round_trip;
              prop_request_mutation; prop_response_mutation; prop_error_mutation ] );
      ( "transport",
        [
          quick "address parsing" test_transport_parse;
          quick "stale sockets replaced, other files refused"
            test_stale_socket_replaced_but_files_refused;
        ] );
      ( "sharding",
        [
          quick "mailbox hand-off" test_mailbox;
          quick "one model's requests spread over every worker"
            test_one_model_spreads;
        ] );
      ( "daemon",
        [
          quick "ping and model info" test_ping_and_info;
          quick "concurrent clients bit-identical to offline"
            test_concurrent_clients_bit_identical;
          quick "4 workers bit-identical to offline"
            test_multi_worker_bit_identical;
          quick "tcp transport bit-identical to offline"
            test_tcp_bit_identical;
          quick "1 000-point eval bit-identical at 1 and 2 workers"
            test_large_eval_bit_identical;
          quick "deadline expiry classified as timeout" test_deadline_expiry;
          quick "expired request sheds before the artifact is read"
            test_expired_sheds_before_read;
          quick "full queue sheds load" test_backpressure_overload;
          quick "per-client inflight cap sheds, parked work drains"
            test_client_inflight_cap;
          quick "drain completes in-flight requests"
            test_drain_completes_in_flight;
          quick "multi-worker drain loses nothing" test_multi_worker_drain;
          quick "shutdown request drains" test_shutdown_request_drains;
          quick "stats expose shard topology" test_stats_shard_topology;
          quick "server death mid-request classified, never hangs"
            test_server_death_mid_request;
          quick "a request to a dead daemon fails retryably, no SIGPIPE"
            test_client_survives_dead_peer;
          quick "partial frames over tcp" test_partial_frames_over_tcp;
          quick "malformed escape answered, daemon survives"
            test_malformed_escape_survives;
          quick "trace context round-trips into the trace log"
            test_trace_context_round_trip;
          quick "metrics exposition names the serving surface"
            test_metrics_exposition;
          quick "served optimize byte-identical to local"
            test_optimize_served_matches_local;
          quick "served optimize with a binding nine-digit spec ≡ local"
            test_optimize_served_binding_spec;
        ] );
      ("cache", [ quick "gc evicts oldest first" test_cache_gc ]);
    ]
