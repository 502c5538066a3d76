(* Tests for the domain-parallel execution runtime: chunk grids, the
   domain pool, the jobs-count rule, ordered helpers, RNG stream
   splitting, and per-domain metric shards.  The load-bearing property
   throughout is the determinism contract of docs/PARALLELISM.md: work
   decomposition is a pure function of the problem size and reduction is
   ordered, so any jobs count produces bit-identical results to
   jobs = 1. *)

module Chunk = Runtime.Chunk
module Pool = Runtime.Pool

(* ------------------------------------------------------------------ *)
(* Chunk grids *)

let test_chunk_layout_basic () =
  let chunks = Chunk.layout ~n:10 ~block:4 in
  Alcotest.(check int) "count" 3 (Array.length chunks);
  Alcotest.(check int) "count agrees" 3 (Chunk.count ~n:10 ~block:4);
  let c = chunks.(2) in
  Alcotest.(check int) "last lo" 8 c.Chunk.lo;
  Alcotest.(check int) "last len is the remainder" 2 c.Chunk.len

let test_chunk_layout_edges () =
  Alcotest.(check int) "n = 0 yields no chunks" 0
    (Array.length (Chunk.layout ~n:0 ~block:8));
  let single = Chunk.layout ~n:3 ~block:8 in
  Alcotest.(check int) "n < block is one chunk" 1 (Array.length single);
  Alcotest.(check int) "short chunk len" 3 single.(0).Chunk.len;
  let exact = Chunk.layout ~n:16 ~block:4 in
  Alcotest.(check int) "exact multiple" 4 (Array.length exact);
  Array.iter
    (fun c -> Alcotest.(check int) "full blocks" 4 c.Chunk.len)
    exact;
  (match Chunk.layout ~n:(-1) ~block:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative n accepted");
  match Chunk.layout ~n:4 ~block:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero block accepted"

(* The grid is a partition: every index appears in exactly one chunk, in
   order, regardless of (n, block). *)
let prop_chunk_partition =
  QCheck2.Test.make ~name:"chunk grid partitions [0, n)" ~count:200
    QCheck2.Gen.(pair (int_range 0 5000) (int_range 1 600))
    (fun (n, block) ->
      let chunks = Chunk.layout ~n ~block in
      let next = ref 0 in
      Array.iteri
        (fun i c ->
          if c.Chunk.index <> i then failwith "index mismatch";
          if c.Chunk.lo <> !next then failwith "gap or overlap";
          if c.Chunk.len < 1 || c.Chunk.len > block then failwith "bad len";
          next := c.Chunk.lo + c.Chunk.len)
        chunks;
      !next = n)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_jobs1_spawns_nothing () =
  let before = Pool.spawned_total () in
  let p = Pool.create ~jobs:1 in
  let hits = Array.make 8 0 in
  Pool.run p ~tasks:8 (fun ~worker i ->
      Alcotest.(check int) "inline worker id" 0 worker;
      hits.(i) <- hits.(i) + 1);
  Pool.shutdown p;
  Alcotest.(check int) "no domains spawned" before (Pool.spawned_total ());
  Alcotest.(check int) "num_domains" 0 (Pool.num_domains p);
  Array.iter (fun h -> Alcotest.(check int) "each task once" 1 h) hits

let test_pool_runs_every_task () =
  (* [Pool.create] takes its count as given — only [Runtime.resolve_jobs]
     caps at the cores — so this runs 4 workers on any host. *)
  let p = Pool.create ~jobs:4 in
  Alcotest.(check int) "size" 4 (Pool.size p);
  Alcotest.(check int) "background domains" 3 (Pool.num_domains p);
  let hits = Array.make 1000 0 in
  (* Disjoint per-index writes; repeated generations reuse the parked
     workers. *)
  for _ = 1 to 20 do
    Array.fill hits 0 (Array.length hits) 0;
    Pool.run p ~tasks:1000 (fun ~worker:_ i -> hits.(i) <- hits.(i) + 1);
    Array.iteri
      (fun i h -> if h <> 1 then Alcotest.failf "task %d ran %d times" i h)
      hits
  done;
  Pool.shutdown p

let test_pool_fewer_tasks_than_workers () =
  let p = Pool.create ~jobs:4 in
  let hits = Array.make 2 0 in
  Pool.run p ~tasks:2 (fun ~worker:_ i -> hits.(i) <- hits.(i) + 1);
  Array.iter (fun h -> Alcotest.(check int) "once" 1 h) hits;
  let ran = ref false in
  Pool.run p ~tasks:0 (fun ~worker:_ _ -> ran := true);
  Alcotest.(check bool) "zero tasks run nothing" false !ran;
  (match Pool.run p ~tasks:(-1) (fun ~worker:_ _ -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative task count accepted");
  Pool.shutdown p

let test_pool_exception_propagates () =
  let p = Pool.create ~jobs:4 in
  let survivors = Atomic.make 0 in
  (match
     Pool.run p ~tasks:64 (fun ~worker:_ i ->
         if i = 13 then failwith "boom" else Atomic.incr survivors)
   with
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
  | () -> Alcotest.fail "task exception swallowed");
  Alcotest.(check int) "other tasks still ran" 63 (Atomic.get survivors);
  (* The pool survives a failed generation. *)
  let count = Atomic.make 0 in
  Pool.run p ~tasks:32 (fun ~worker:_ _ -> Atomic.incr count);
  Alcotest.(check int) "next generation clean" 32 (Atomic.get count);
  Pool.shutdown p;
  match Pool.run p ~tasks:1 (fun ~worker:_ _ -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> ()
(* tasks = 1 runs inline even after shutdown — the inline path needs no
   domains; a multi-task run would raise. *)

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~jobs:3 in
  Pool.run p ~tasks:10 (fun ~worker:_ _ -> ());
  Pool.shutdown p;
  Pool.shutdown p;
  match Pool.run p ~tasks:4 (fun ~worker:_ _ -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "run after shutdown accepted"

(* ------------------------------------------------------------------ *)
(* Ordered helpers *)

let test_parallel_map_ordered () =
  let input = Array.init 500 (fun i -> i) in
  let expect = Array.map (fun i -> i * i) input in
  List.iter
    (fun jobs ->
      let got = Runtime.parallel_map ~jobs (fun i -> i * i) input in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d ordered" jobs)
        true (got = expect))
    [ 1; 2; 4 ]

let test_iter_chunks_covers () =
  let n = 1003 in
  let hits = Array.make n 0 in
  Runtime.iter_chunks ~jobs:4 ~n ~block:64 (fun ~worker:_ c ->
      for i = c.Chunk.lo to c.Chunk.lo + c.Chunk.len - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Array.iteri
    (fun i h -> if h <> 1 then Alcotest.failf "index %d visited %d times" i h)
    hits

(* ------------------------------------------------------------------ *)
(* The jobs-count rule *)

let test_resolve_jobs_capped () =
  let cores = Domain.recommended_domain_count () in
  let was = !Obs.enabled in
  Obs.enabled := true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Runtime.set_default_jobs None;
      Obs.reset ();
      Obs.enabled := was)
    (fun () ->
      let asks = [ -3; 0; 1; 2; 4; 64; 1000 ] in
      List.iter
        (fun j ->
          let got = Runtime.resolve_jobs (Some j) in
          if got < 1 || got > cores then
            Alcotest.failf "jobs %d resolved to %d (%d cores)" j got cores)
        asks;
      Alcotest.(check int) "explicit count above the cores" cores
        (Runtime.resolve_jobs (Some (cores + 1)));
      Alcotest.(check int) "floored at 1" 1 (Runtime.resolve_jobs (Some 0));
      Runtime.set_default_jobs (Some (cores + 7));
      Alcotest.(check int) "--jobs above the cores" cores (Runtime.resolve_jobs None);
      (* The asks above the cores, cores + 1 and the override. *)
      let above = List.length (List.filter (fun j -> j > cores) asks) in
      Alcotest.(check int) "each capped request counted" (above + 2)
        (Obs.Metrics.counter "runtime.jobs.clamped");
      Alcotest.(check int) "a count within the cores is not" cores
        (Runtime.resolve_jobs (Some cores));
      Alcotest.(check int) "counter unchanged" (above + 2)
        (Obs.Metrics.counter "runtime.jobs.clamped"))

let test_resolve_jobs_on_workers () =
  let p = Pool.create ~jobs:3 in
  let seen = Array.make 12 0 in
  Pool.run p ~tasks:12 (fun ~worker:_ i -> seen.(i) <- Runtime.resolve_jobs (Some 4));
  Pool.shutdown p;
  Array.iter (fun j -> Alcotest.(check int) "inside a pool task" 1 j) seen;
  Alcotest.(check bool) "the caller's mark is restored" false (Runtime.Pool.in_task ());
  let in_service = Array.make 2 0 in
  Runtime.Service.join
    (Runtime.Service.start ~workers:2 (fun ~worker ->
         in_service.(worker) <- Runtime.resolve_jobs (Some 4)));
  Array.iter (fun j -> Alcotest.(check int) "inside a service body" 1 j) in_service

(* A parallel call inside a task of another resolves to 1 and runs
   inline: it never reaches the shared pool, so it cannot swap out the
   pool that is running it (which used to hang). *)
let test_nested_parallel_map () =
  let input = Array.init 8 Fun.id in
  let inner i = Array.init 6 (fun k -> (i * 10) + k) in
  let want = Array.map (fun i -> Array.fold_left ( + ) 0 (inner i)) input in
  for _ = 1 to 50 do
    let got =
      Runtime.parallel_map ~jobs:2
        (fun i ->
          Array.fold_left ( + ) 0 (Runtime.parallel_map ~jobs:3 Fun.id (inner i)))
        input
    in
    Alcotest.(check (array int)) "nested map ≡ sequential" want got
  done

(* Service bodies asking for different counts used to swap the shared
   pool under each other (spawning pools, or raising "pool is shut
   down"); as runtime workers they run inline and spawn nothing. *)
let test_services_run_inline () =
  let before = Pool.spawned_total () in
  let input = Array.init 16 Fun.id in
  let want = Array.map (fun x -> x * 2) input in
  let ok = Array.make 2 true in
  Runtime.Service.join
    (Runtime.Service.start ~workers:2 (fun ~worker ->
         for _ = 1 to 2000 do
           let got = Runtime.parallel_map ~jobs:(2 + worker) (fun x -> x * 2) input in
           if got <> want then ok.(worker) <- false
         done));
  Alcotest.(check (array bool)) "every map right" [| true; true |] ok;
  Alcotest.(check int) "no pool domain spawned" before (Pool.spawned_total ())

(* ------------------------------------------------------------------ *)
(* RNG stream splitting *)

let prop_rng_skip_equals_draws =
  QCheck2.Test.make ~name:"Rng.skip k ≡ k discarded draws" ~count:100
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 1_000_000))
    (fun (k, seed) ->
      let a = Obs.Rng.create seed in
      let b = Obs.Rng.create seed in
      for _ = 1 to k do
        ignore (Obs.Rng.float a)
      done;
      Obs.Rng.skip b k;
      Obs.Rng.float a = Obs.Rng.float b)

let test_rng_copy_independent () =
  let a = Obs.Rng.create 7 in
  ignore (Obs.Rng.float a);
  let b = Obs.Rng.copy a in
  let va = Obs.Rng.float a in
  (* Advancing the copy leaves the original untouched and vice versa. *)
  let vb = Obs.Rng.float b in
  Alcotest.(check bool) "same position, same draw" true (va = vb);
  ignore (Obs.Rng.float b);
  ignore (Obs.Rng.float b);
  let va2 = Obs.Rng.float a and vb3 = Obs.Rng.float b in
  Alcotest.(check bool) "streams diverge independently" true (va2 <> vb3);
  match Obs.Rng.skip a (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative skip accepted"

(* Chunked sampling: per-chunk copy+skip streams reproduce exactly the
   sequential draw sequence — the mechanism Plan.columns rests on. *)
let test_rng_chunked_stream_split () =
  let n = 977 and dpp = 3 in
  let master = Obs.Rng.create 42 in
  let seq = Array.init (n * dpp) (fun _ -> Obs.Rng.float master) in
  let par = Array.make (n * dpp) 0.0 in
  let master2 = Obs.Rng.create 42 in
  Array.iter
    (fun (c : Chunk.t) ->
      let r = Obs.Rng.copy master2 in
      Obs.Rng.skip r (c.Chunk.lo * dpp);
      for i = c.Chunk.lo * dpp to ((c.Chunk.lo + c.Chunk.len) * dpp) - 1 do
        par.(i) <- Obs.Rng.float r
      done)
    (Chunk.layout ~n ~block:128);
  Alcotest.(check bool) "split streams ≡ sequential" true (par = seq)

(* ------------------------------------------------------------------ *)
(* Metric shards *)

let test_metrics_shard_merge () =
  let was = !Obs.enabled in
  Obs.enabled := true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.enabled := was)
    (fun () ->
      Obs.Metrics.incr "shard.direct";
      let v =
        Obs.Metrics.with_shard (fun () ->
            Obs.Metrics.incr ~by:5 "shard.counted";
            Obs.Metrics.observe "shard.hist" 2.0;
            Obs.Metrics.observe "shard.hist" 8.0;
            (* Nested with_shard reuses the active shard. *)
            Obs.Metrics.with_shard (fun () ->
                Obs.Metrics.incr "shard.counted");
            17)
      in
      Alcotest.(check int) "with_shard returns" 17 v;
      Alcotest.(check int) "counter merged" 6
        (Obs.Metrics.counter "shard.counted");
      Alcotest.(check int) "outside unaffected" 1
        (Obs.Metrics.counter "shard.direct");
      match Obs.Metrics.histogram "shard.hist" with
      | None -> Alcotest.fail "histogram not merged"
      | Some h ->
        Alcotest.(check int) "histogram count" 2 h.Obs.Metrics.count;
        Alcotest.(check (float 1e-12)) "histogram sum" 10.0 h.Obs.Metrics.sum)

(* Pool-driven counters land in the global tables by the time the run
   returns, no matter which domain bumped them. *)
let test_metrics_counted_across_domains () =
  let was = !Obs.enabled in
  Obs.enabled := true;
  Obs.reset ();
  let p = Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown p;
      Obs.reset ();
      Obs.enabled := was)
    (fun () ->
      for run = 1 to 50 do
        Pool.run p ~tasks:200 (fun ~worker:_ _ ->
            Obs.Metrics.with_shard (fun () -> Obs.Metrics.incr "shard.pool"));
        Alcotest.(check int) "every task counted when the run returns" (200 * run)
          (Obs.Metrics.counter "shard.pool")
      done)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "runtime"
    [
      ( "chunk",
        [
          quick "layout arithmetic" test_chunk_layout_basic;
          quick "edge cases" test_chunk_layout_edges;
        ]
        @ props [ prop_chunk_partition ] );
      ( "pool",
        [
          quick "jobs = 1 spawns nothing" test_pool_jobs1_spawns_nothing;
          quick "every task runs exactly once" test_pool_runs_every_task;
          quick "n < jobs and n = 0" test_pool_fewer_tasks_than_workers;
          quick "task exception propagates" test_pool_exception_propagates;
          quick "shutdown is idempotent" test_pool_shutdown_idempotent;
        ] );
      ( "helpers",
        [
          quick "parallel_map is ordered" test_parallel_map_ordered;
          quick "iter_chunks covers the range" test_iter_chunks_covers;
        ] );
      ( "jobs",
        [
          quick "capped at the cores, each cap counted" test_resolve_jobs_capped;
          quick "1 inside a pool task or a service body" test_resolve_jobs_on_workers;
          quick "nested parallel_map runs inline" test_nested_parallel_map;
          quick "service bodies spawn no pool" test_services_run_inline;
        ] );
      ( "rng",
        [
          quick "copy is independent" test_rng_copy_independent;
          quick "chunked split ≡ sequential draws" test_rng_chunked_stream_split;
        ]
        @ props [ prop_rng_skip_equals_draws ] );
      ( "metrics",
        [
          quick "shard merge is exact" test_metrics_shard_merge;
          quick "pool counters merge" test_metrics_counted_across_domains;
        ] );
    ]
