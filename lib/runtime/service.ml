(* Long-running worker-domain lifecycle.

   Where {!Pool} executes bounded task sets with a claim cursor (and
   parks its domains between generations), a [Service] owns domains that
   run an open-ended loop for the life of a daemon — the serving stack's
   worker shards are the motivating client.  How a body learns to return
   is its caller's business (the daemon's halt flag, a sweep's
   scoreboard); [join] only waits for every body to do so.

   A body that raises kills only its own domain; the exception is kept
   and re-raised from {!join} (first failure wins), so a daemon's top
   level still sees worker crashes instead of silently serving with a
   dead shard.  [failed] exposes the flag without joining, letting a
   supervising loop detect the crash while still running.

   Bodies run as runtime workers ([Pool.as_task]): parallel calls made
   from a body run inline on its domain, because the service domains
   are already the parallelism. *)

type t = {
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  domains : unit Domain.t array;
  mutable joined : bool;
  m : Mutex.t;
}

let failed t = Atomic.get t.failure <> None

let start ~workers body =
  if workers < 1 then invalid_arg "Runtime.Service.start: workers must be >= 1";
  let failure = Atomic.make None in
  let domains =
    Array.init workers (fun w ->
        Domain.spawn (fun () ->
            try Pool.as_task (fun () -> body ~worker:w)
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt)))))
  in
  { failure; domains; joined = false; m = Mutex.create () }

let join t =
  Mutex.lock t.m;
  let first = not t.joined in
  t.joined <- true;
  Mutex.unlock t.m;
  if first then Array.iter Domain.join t.domains;
  match Atomic.get t.failure with
  | Some (e, bt) when first -> Printexc.raise_with_backtrace e bt
  | _ -> ()
