(* Tests for fault-tolerant distributed sweeps.

   The harness runs real serving daemons in-process (own domains, real
   Unix-domain sockets) and points the Dsweep coordinator at them — the
   production code path minus the process boundary.  The determinism
   contract under test: the merged distributed report is byte-identical
   to single-node [Sweep.Engine.run] at any worker count, through
   retries, injected faults, worker death, and checkpoint resume. *)

module Json = Obs.Json
module Err = Awesym_error
module Model = Awesymbolic.Model
module Netlist = Circuit.Netlist
module Engine = Sweep.Engine
module Client = Serve.Client

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

(* fig1 with two symbolic elements, saved as an artifact the daemons
   can load by path. *)
let fixture =
  lazy
    (let nl = Circuit.Builders.fig1 () in
     let nl = Netlist.mark_symbolic nl "C1" (Symbolic.Symbol.intern "C1") in
     let nl = Netlist.mark_symbolic nl "G2" (Symbolic.Symbol.intern "G2") in
     let model = Model.build ~order:2 nl in
     let dir = temp_dir "awesym_dsweep_model" in
     let path = Filename.concat dir "fig1.awm" in
     Model.save model path;
     (model, path))

let plan () =
  Sweep.Plan.make (Sweep.Plan.Monte_carlo 200)
    [
      { Sweep.Plan.name = "C1"; dist = Sweep.Dist.uniform ~lo:0.5 ~hi:1.5 };
      { Sweep.Plan.name = "G2"; dist = Sweep.Dist.normal ~mean:1.0 ~std:0.1 };
    ]

let specs () =
  [ Result.get_ok (Engine.spec_of_string "dc_gain>=0.4") ]

(* Small block so the 200-point sweep has several chunks to spread,
   lose, and release. *)
let block = 32

let report r = Json.to_string (Engine.to_json r)

let local_report () =
  let model, _ = Lazy.force fixture in
  report (Engine.run ~seed:11 ~block ~specs:(specs ()) model (plan ()))

(* Fast-failing knobs: tests hammer dead sockets on purpose. *)
let test_backoff =
  { Client.Backoff.attempts = 2; base_s = 0.001; max_s = 0.005; jitter = 0.5 }

let config addrs =
  {
    (Dsweep.default_config ~addrs) with
    Dsweep.chunk_timeout_s = 30.0;
    worker_retries = 1;
    backoff = test_backoff;
  }

(* ------------------------------------------------------------------ *)
(* In-process daemon fleet *)

type daemon = {
  server : Serve.Server.t;
  sock : string;
  stop : bool ref;
  mutable loop : unit Domain.t option;
}

let start_daemon () =
  let dir = temp_dir "awesym_dsweep_sock" in
  let listen = Serve.Transport.Unix_sock (Filename.concat dir "s.sock") in
  let base = Serve.Server.default_config ~listen in
  let config = { base with Serve.Server.cache_gc_bytes = None } in
  let server = Serve.Server.create config in
  let sock = Serve.Transport.to_string (Serve.Server.bound_addr server) in
  let stop = ref false in
  let d = { server; sock; stop; loop = None } in
  d.loop <-
    Some
      (Domain.spawn (fun () ->
           while Serve.Server.step server ~stop:d.stop do
             ()
           done));
  d

(* SIGKILL analog for an in-process daemon: stop its loop and close
   everything; in-flight client RPCs see resets/EOF, exactly like a
   killed process. *)
let kill_daemon d =
  d.stop := true;
  Option.iter Domain.join d.loop;
  d.loop <- None;
  Serve.Server.shutdown d.server

let with_daemons n f =
  let ds = List.init n (fun _ -> start_daemon ()) in
  Fun.protect
    ~finally:(fun () -> List.iter kill_daemon ds)
    (fun () -> f ds)

let run_dist ?checkpoint ?resume cfg =
  let model, path = Lazy.force fixture in
  Dsweep.run ~seed:11 ~block ~specs:(specs ()) ?checkpoint ?resume cfg ~model
    ~model_path:path (plan ())

(* ------------------------------------------------------------------ *)
(* Backoff + retry plumbing *)

let test_backoff_deterministic () =
  let b = Client.Backoff.default in
  for attempt = 0 to 6 do
    let d1 = Client.Backoff.delay b ~salt:"s" ~attempt in
    let d2 = Client.Backoff.delay b ~salt:"s" ~attempt in
    Alcotest.(check (float 0.0)) "same salt+attempt, same delay" d1 d2;
    Alcotest.(check bool) "capped" true (d1 <= b.Client.Backoff.max_s);
    let uncapped =
      Float.min b.Client.Backoff.max_s
        (b.Client.Backoff.base_s *. (2.0 ** float_of_int attempt))
    in
    Alcotest.(check bool) "jitter only shaves" true
      (d1 <= uncapped
      && d1 >= uncapped *. (1.0 -. b.Client.Backoff.jitter) -. 1e-12)
  done;
  (* Distinct salts decorrelate the schedules. *)
  let distinct =
    List.exists
      (fun a ->
        Client.Backoff.delay b ~salt:"peer-a" ~attempt:a
        <> Client.Backoff.delay b ~salt:"peer-b" ~attempt:a)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "salts decorrelate" true distinct

let test_retryable_classification () =
  let r k = Client.Backoff.retryable (Err.make k ~where:"t" "m") in
  List.iter
    (fun k -> Alcotest.(check bool) (Err.kind_name k) true (r k))
    [ Err.Unavailable; Err.Timeout; Err.Overloaded; Err.Worker_crash;
      Err.Injected_fault ];
  List.iter
    (fun k -> Alcotest.(check bool) (Err.kind_name k) false (r k))
    [ Err.Invalid_request; Err.Parse; Err.Artifact_corrupt; Err.Internal ]

let test_connect_retry_dead_addr () =
  (* A vanished socket is classified unavailable and retried; the
     budget then surfaces the classified error, not a raw Unix_error. *)
  let before = Obs.Metrics.counter "serve.client.retries" in
  match
    Client.connect_retry ~backoff:test_backoff "unix:/nonexistent/dsweep.sock"
  with
  | Ok c ->
    Client.close c;
    Alcotest.fail "connect to a dead path cannot succeed"
  | Error e ->
    Alcotest.(check string) "kind" "unavailable" (Err.kind_name e.Err.kind);
    Alcotest.(check bool) "retried at least once" true
      (Obs.Metrics.counter "serve.client.retries" >= before + 1)

(* ------------------------------------------------------------------ *)
(* Remote chunk op against a real daemon *)

let test_sweep_chunk_rpc_bit_exact () =
  let model, path = Lazy.force fixture in
  let prep = Engine.prepare ~seed:11 ~block ~specs:(specs ()) model (plan ()) in
  with_daemons 1 @@ fun ds ->
  let d = List.hd ds in
  let c =
    match Client.connect d.sock with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" (Err.to_string e)
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let req chunk =
    {
      Serve.Protocol.sc_model = path;
      sc_plan = Sweep.Plan.to_json (plan ());
      sc_seed = 11;
      sc_block = block;
      sc_measures = List.map Engine.measure_name Engine.default_measures;
      sc_specs = [ "dc_gain>=0.4" ];
      sc_policy = "skip";
      sc_chunk = chunk;
      sc_key = Engine.prep_key prep;
      sc_deadline_ms = None;
    }
  in
  for chunk = 0 to Engine.prep_num_chunks prep - 1 do
    match Client.sweep_chunk c (req chunk) with
    | Error e -> Alcotest.failf "sweep_chunk: %s" (Err.to_string e)
    | Ok reply ->
      Alcotest.(check string) "key echoed" (Engine.prep_key prep)
        reply.Serve.Protocol.cr_key;
      Alcotest.(check int) "chunk echoed" chunk reply.Serve.Protocol.cr_chunk;
      (* The wire record is byte-identical to evaluating locally. *)
      Alcotest.(check string) "remote chunk ≡ local chunk"
        (Json.to_string (Engine.chunk_result_to_json (Engine.eval_chunk prep chunk)))
        (Json.to_string reply.Serve.Protocol.cr_record)
  done;
  (* Skew handshake: a wrong key is refused before evaluation. *)
  match Client.sweep_chunk c { (req 0) with Serve.Protocol.sc_key = "feed" } with
  | Ok _ -> Alcotest.fail "mismatched key must be refused"
  | Error e ->
    Alcotest.(check string) "classified invalid_request" "invalid_request"
      (Err.kind_name e.Err.kind)

(* ------------------------------------------------------------------ *)
(* Distributed ≡ local *)

let test_dist_identical_1_and_3 () =
  let local = local_report () in
  with_daemons 3 @@ fun ds ->
  let socks = List.map (fun d -> d.sock) ds in
  let one = report (run_dist (config [ List.hd socks ])) in
  Alcotest.(check string) "1 worker ≡ local" local one;
  let three = report (run_dist (config socks)) in
  Alcotest.(check string) "3 workers ≡ local" local three

let test_dist_degrades_past_dead_address () =
  (* One address never answers: the coordinator declares that worker
     dead without it ever holding a chunk (it connects before it
     claims), and the survivors still reproduce the local bytes.  Each
     attempt connects once: the client's own retry loop never runs. *)
  let local = local_report () in
  with_daemons 2 @@ fun ds ->
  let socks = List.map (fun d -> d.sock) ds in
  let lost = Obs.Metrics.counter "dsweep.workers.lost" in
  let released = Obs.Metrics.counter "dsweep.chunks.reassigned" in
  let client_retries = Obs.Metrics.counter "serve.client.retries" in
  let addrs = [ List.nth socks 0; "unix:/nonexistent/dead.sock"; List.nth socks 1 ] in
  let r = report (run_dist (config addrs)) in
  Alcotest.(check string) "degraded ≡ local" local r;
  Alcotest.(check int) "one worker declared dead" (lost + 1)
    (Obs.Metrics.counter "dsweep.workers.lost");
  Alcotest.(check int) "the dead address never held a chunk" released
    (Obs.Metrics.counter "dsweep.chunks.reassigned");
  Alcotest.(check int) "no connect retried inside an attempt" client_retries
    (Obs.Metrics.counter "serve.client.retries")

let test_dist_transient_faults_identical () =
  (* Transient injected faults at both coordinator sites: every chunk's
     first dispatch and first receive fail, the classified retry path
     re-runs them, and the merged bytes don't change. *)
  let local = local_report () in
  with_daemons 2 @@ fun ds ->
  Fun.protect ~finally:Runtime.Fault.disarm @@ fun () ->
  Runtime.Fault.arm "dsweep.dispatch:1,dsweep.recv:1";
  let retries = Obs.Metrics.counter "dsweep.retries" in
  let cfg = { (config (List.map (fun d -> d.sock) ds)) with Dsweep.worker_retries = 3 } in
  let r = report (run_dist cfg) in
  Alcotest.(check string) "faulted ≡ local" local r;
  Alcotest.(check bool) "retries actually happened" true
    (Obs.Metrics.counter "dsweep.retries" > retries)

let test_dist_kill_worker_mid_run () =
  (* The acceptance drill: kill a live daemon mid-sweep; its in-flight
     chunk is released, the survivor takes it and every chunk after it,
     and the merged output is still byte-identical. *)
  let local = local_report () in
  with_daemons 2 @@ fun ds ->
  let d0 = List.nth ds 0 and d1 = List.nth ds 1 in
  let killer =
    Domain.spawn (fun () ->
        (* Let the sweep get going, then pull the plug on one worker. *)
        Unix.sleepf 0.02;
        kill_daemon d1)
  in
  let cfg = { (config [ d0.sock; d1.sock ]) with Dsweep.chunk_timeout_s = 2.0 } in
  let r = report (run_dist cfg) in
  Domain.join killer;
  Alcotest.(check string) "survivor ≡ local" local r

let test_dist_checkpoint_resume_after_total_loss () =
  (* Lose EVERY worker mid-run: the coordinator flushes its progress,
     raises worker_crash, and a resumed run (fresh fleet) completes to
     the exact local bytes without re-evaluating finished chunks. *)
  let local = local_report () in
  let dir = temp_dir "awesym_dsweep_ckpt" in
  let ckpt = Filename.concat dir "sweep.ckpt" in
  (match
     with_daemons 2 (fun ds ->
         let cfg = config (List.map (fun d -> d.sock) ds) in
         let armed =
           Domain.spawn (fun () ->
               (* Wait for real progress, then make every receive fail
                  permanently — the moral equivalent of the switch
                  catching fire. *)
               let rec wait n =
                 if n > 0 && not (Sys.file_exists ckpt) then begin
                   Unix.sleepf 0.005;
                   wait (n - 1)
                 end
               in
               wait 2000;
               Runtime.Fault.arm "dsweep.recv:1:sticky")
         in
         Fun.protect ~finally:(fun () -> Domain.join armed) @@ fun () ->
         run_dist ~checkpoint:ckpt cfg)
   with
  | exception Err.Error e ->
    Runtime.Fault.disarm ();
    Alcotest.(check string) "classified worker_crash" "worker_crash"
      (Err.kind_name e.Err.kind)
  | r ->
    (* The fleet can finish before the arm lands; then there is nothing
       to resume and the result must already match. *)
    Runtime.Fault.disarm ();
    Alcotest.(check string) "finished early ≡ local" local (report r));
  Alcotest.(check bool) "checkpoint survives the crash" true
    (Sys.file_exists ckpt);
  (* Fresh fleet, resumed run: byte-identical to an uninterrupted one. *)
  with_daemons 2 @@ fun ds ->
  let cfg = config (List.map (fun d -> d.sock) ds) in
  let resumed = report (run_dist ~checkpoint:ckpt ~resume:true cfg) in
  Alcotest.(check string) "resumed ≡ local" local resumed

let () =
  Obs.enabled := true;
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dsweep"
    [
      ( "retry",
        [
          quick "backoff is deterministic, capped, jittered"
            test_backoff_deterministic;
          quick "retryable error classification" test_retryable_classification;
          quick "connect_retry classifies a dead address"
            test_connect_retry_dead_addr;
        ] );
      ( "daemon",
        [ quick "sweep_chunk RPC is bit-exact + skew-checked"
            test_sweep_chunk_rpc_bit_exact ] );
      ( "determinism",
        [
          quick "1 and 3 workers ≡ local" test_dist_identical_1_and_3;
          quick "dead address degrades, bytes unchanged"
            test_dist_degrades_past_dead_address;
          quick "transient dispatch/recv faults, bytes unchanged"
            test_dist_transient_faults_identical;
          quick "SIGKILL a worker mid-run, bytes unchanged"
            test_dist_kill_worker_mid_run;
          quick "total worker loss checkpoints, resume ≡ local"
            test_dist_checkpoint_resume_after_total_loss;
        ] );
    ]
