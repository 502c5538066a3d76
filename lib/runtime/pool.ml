(* Fixed-size domain pool.

   A pool of [jobs] workers executes indexed task sets.  The calling
   domain participates as worker 0; [jobs - 1] background domains are
   spawned once at [create] and parked on a condition variable between
   runs, so steady-state sweeps pay no spawn cost.  Tasks are claimed
   from an atomic cursor (dynamic load balancing); callers that need
   determinism must make each task's OUTPUT a pure function of its
   index — the pool guarantees nothing about execution order.

   Each generation carries its own work record (body, task count, claim
   cursor, completion count).  The cursor is never reset: a worker that
   wakes late, or is still draining when the next run starts, holds the
   OLD record and can only claim from its exhausted cursor — it can
   never steal (and lose) a task index of the new generation.

   Nested [run] calls from inside a task body execute inline on the
   calling worker (a second generation cannot be dispatched while one is
   in flight, and inline execution preserves the per-index output
   contract), so composed parallel stages degrade gracefully instead of
   deadlocking. *)

type work = {
  body : worker:int -> int -> unit;
  tasks : int;
  next : int Atomic.t; (* claim cursor; monotone, never reset *)
  mutable completed : int;
  mutable unmerged : int; (* workers whose metrics shard is not merged yet *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
}

type state = {
  m : Mutex.t;
  work_ready : Condition.t; (* master -> workers: a new generation *)
  finished : Condition.t; (* workers -> master: all tasks completed *)
  mutable generation : int;
  mutable current : work option;
  mutable shutdown : bool;
}

type t = { jobs : int; state : state option; domains : unit Domain.t array }

let spawn_count = Atomic.make 0
let spawned_total () = Atomic.get spawn_count

(* True while the current domain is a runtime worker: executing a task
   body, or a [Service] body.  Guards nested [run] calls onto the inline
   path, and makes [Runtime.resolve_jobs] answer 1 there. *)
let in_task_key = Domain.DLS.new_key (fun () -> ref false)

let in_task () = !(Domain.DLS.get in_task_key)

let as_task f =
  let flag = Domain.DLS.get in_task_key in
  let outer = !flag in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := outer) f

let size t = t.jobs
let num_domains t = Array.length t.domains

let run_inline body n =
  for i = 0 to n - 1 do
    body ~worker:0 i
  done

(* Claim and execute this generation's tasks until its cursor runs out.
   The first exception (with backtrace) is kept for the master; every
   claimed in-range task still counts toward [completed] so the master
   never hangs. *)
let drain s w (wk : work) =
  as_task (fun () ->
      let running = ref true in
      while !running do
        let i = Atomic.fetch_and_add wk.next 1 in
        if i >= wk.tasks then running := false
        else begin
          (try wk.body ~worker:w i
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             Mutex.lock s.m;
             if wk.failure = None then wk.failure <- Some (e, bt);
             Mutex.unlock s.m);
          Mutex.lock s.m;
          wk.completed <- wk.completed + 1;
          if wk.completed = wk.tasks then Condition.broadcast s.finished;
          Mutex.unlock s.m
        end
      done)

let rec worker_loop s w seen =
  Mutex.lock s.m;
  while s.generation = seen && not s.shutdown do
    Condition.wait s.work_ready s.m
  done;
  if s.shutdown then Mutex.unlock s.m
  else begin
    let gen = s.generation in
    let wk = Option.get s.current in
    wk.unmerged <- wk.unmerged + 1;
    Mutex.unlock s.m;
    Obs.Metrics.with_shard (fun () -> drain s w wk);
    Mutex.lock s.m;
    wk.unmerged <- wk.unmerged - 1;
    Condition.broadcast s.finished;
    Mutex.unlock s.m;
    worker_loop s w gen
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Runtime.Pool.create: jobs must be >= 1";
  if jobs = 1 then { jobs; state = None; domains = [||] }
  else begin
    let s =
      {
        m = Mutex.create ();
        work_ready = Condition.create ();
        finished = Condition.create ();
        generation = 0;
        current = None;
        shutdown = false;
      }
    in
    let domains =
      Array.init (jobs - 1) (fun k ->
          Atomic.incr spawn_count;
          Domain.spawn (fun () -> worker_loop s (k + 1) 0))
    in
    { jobs; state = Some s; domains }
  end

let run t ~tasks body =
  if tasks < 0 then invalid_arg "Runtime.Pool.run: negative task count";
  if tasks = 0 then ()
  else
    match t.state with
    | None -> run_inline body tasks
    | Some s ->
        if in_task () || tasks = 1 then run_inline body tasks
        else begin
          let wk =
            { body; tasks; next = Atomic.make 0; completed = 0; unmerged = 0;
              failure = None }
          in
          Mutex.lock s.m;
          if s.shutdown then begin
            Mutex.unlock s.m;
            invalid_arg "Runtime.Pool.run: pool is shut down"
          end;
          s.current <- Some wk;
          s.generation <- s.generation + 1;
          Condition.broadcast s.work_ready;
          Mutex.unlock s.m;
          drain s 0 wk;
          Mutex.lock s.m;
          (* Counters a task bumped on another domain are in the global
             tables once its shard is merged. *)
          while wk.completed < wk.tasks || wk.unmerged > 0 do
            Condition.wait s.finished s.m
          done;
          let failure = wk.failure in
          Mutex.unlock s.m;
          match failure with
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ()
        end

let shutdown t =
  match t.state with
  | None -> ()
  | Some s ->
      Mutex.lock s.m;
      let was_live = not s.shutdown in
      s.shutdown <- true;
      Condition.broadcast s.work_ready;
      Mutex.unlock s.m;
      if was_live then Array.iter Domain.join t.domains
