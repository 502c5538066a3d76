(* Multi-producer/single-consumer mailbox between the acceptor and a
   worker shard.

   Producers never block, and the mailbox holds no bound of its own: the
   acceptor bounds each worker's backlog once, at admission, against the
   requests it has admitted and not yet seen answered.  The consumer
   drains FIFO; {!pop_block} parks on the condition variable so an idle
   worker costs nothing and wakes the instant a job (or a {!wake} poke —
   how drain reaches a parked worker) arrives.  [pop_all]/[pop_block]
   hand back everything pending in one lock acquisition, which is what
   lets a worker turn a burst into one micro-batch. *)

type 'a t = {
  q : 'a Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;
  mutable poked : bool;  (* a {!wake} arrived while nobody was waiting *)
}

let create () =
  { q = Queue.create (); m = Mutex.create (); nonempty = Condition.create (); poked = false }

let length t = Mutex.protect t.m (fun () -> Queue.length t.q)

let push t v =
  Mutex.protect t.m (fun () ->
      Queue.add v t.q;
      Condition.signal t.nonempty)

let wake t =
  Mutex.protect t.m (fun () ->
      t.poked <- true;
      Condition.broadcast t.nonempty)

let drain_locked t =
  let out = List.of_seq (Queue.to_seq t.q) in
  Queue.clear t.q;
  out

let pop_all t = Mutex.protect t.m (fun () -> drain_locked t)

let pop_block t =
  Mutex.protect t.m (fun () ->
      while Queue.is_empty t.q && not t.poked do
        Condition.wait t.nonempty t.m
      done;
      t.poked <- false;
      drain_locked t)
