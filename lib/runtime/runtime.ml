module Chunk = Chunk
module Pool = Pool
module Fault = Fault
module Service = Service

let override : int option ref = ref None
let set_default_jobs j = override := j

(* Read once: the query is a system call, and [resolve_jobs] runs on
   every kernel call. *)
let cores = Domain.recommended_domain_count ()

let resolve_jobs jobs =
  if Pool.in_task () then 1
  else begin
    let j =
      match (jobs, !override) with
      | Some j, _ | None, Some j -> j
      | None, None -> (
          match Sys.getenv_opt "AWESYM_JOBS" with
          | Some s -> Option.value ~default:1 (int_of_string_opt (String.trim s))
          | None -> 1)
    in
    if j > cores then begin
      Obs.Metrics.incr "runtime.jobs.clamped";
      cores
    end
    else Int.max 1 j
  end

(* One long-lived pool, recycled while the jobs count is stable.  Sized
   pools are cheap to swap (shutdown joins parked domains), and a single
   shared pool keeps the total domain count bounded by the largest jobs
   value in use rather than by the number of call sites.  Runtime
   workers resolve to 1 and run inline, so a task never reaches this and
   cannot swap out the pool that is running it. *)
let pool_mutex = Mutex.create ()
let global_pool : Pool.t option ref = ref None

let get_pool ~jobs =
  Mutex.lock pool_mutex;
  let p =
    match !global_pool with
    | Some p when Pool.size p = jobs -> p
    | prev ->
        Option.iter Pool.shutdown prev;
        let p = Pool.create ~jobs in
        global_pool := Some p;
        p
  in
  Mutex.unlock pool_mutex;
  p

let parallel_iter ?jobs n f =
  let jobs = resolve_jobs jobs in
  if jobs <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      f ~worker:0 i
    done
  else Pool.run (get_pool ~jobs) ~tasks:n f

let iter_chunks ?jobs ~n ~block f =
  let jobs = resolve_jobs jobs in
  let chunks = Chunk.layout ~n ~block in
  let nc = Array.length chunks in
  if jobs <= 1 || nc <= 1 then Array.iter (fun c -> f ~worker:0 c) chunks
  else
    Pool.run (get_pool ~jobs) ~tasks:nc (fun ~worker i -> f ~worker chunks.(i))

let parallel_map ?jobs f arr =
  let jobs = resolve_jobs jobs in
  let n = Array.length arr in
  if jobs <= 1 || n <= 1 then Array.map f arr
  else begin
    let out = Array.make n None in
    Pool.run (get_pool ~jobs) ~tasks:n (fun ~worker:_ i ->
        out.(i) <- Some (f arr.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end
