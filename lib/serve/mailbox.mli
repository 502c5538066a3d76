(** MPSC mailbox: acceptor-to-worker job hand-off.

    Producers never block and the mailbox has no capacity: the acceptor
    bounds each worker's backlog at admission.  The single consumer
    drains FIFO, everything pending in one lock acquisition. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Enqueue and wake a parked consumer. *)

val pop_all : 'a t -> 'a list
(** Everything currently pending, FIFO; never blocks. *)

val pop_block : 'a t -> 'a list
(** Park until a push or a {!wake} arrives, then drain.  May return []
    (a wake with nothing pending — how shutdown reaches an idle
    consumer). *)

val wake : 'a t -> unit
(** Unblock a {!pop_block}er even with nothing queued. *)

val length : 'a t -> int
(** Current queue length (racy by nature; for the worker's exit
    check). *)
