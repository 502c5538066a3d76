(* An [awesym serve] child process: spawned with default flags apart from
   a unix socket in the run directory and the interpreter backend, and
   stopped through the protocol's [shutdown] op.  Running the daemon in its
   own process keeps its stop-the-world minor GC away from the client
   domains. *)

module Client = Serve.Client

type t = { pid : int; addr : string; sock : string; log : string; cache : string }

let live : int list ref = ref []

(* Last-resort cleanup when the benchmark dies with daemons running. *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let counter = ref 0

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Awesym_error.to_string e)

let connect t = ok "connect" (Client.connect t.addr)

let spawn ?(extra = []) (env : Util.env) =
  incr counter;
  (* Relative paths keep the socket path short whatever the checkout's
     location; the daemon runs in the same working directory. *)
  let base = Filename.concat env.dir (Printf.sprintf "d%d" !counter) in
  let sock = base ^ ".sock" and log = base ^ ".log" and cache = base ^ "-cache" in
  let args =
    [ env.awesym; "serve"; "--socket"; "unix:" ^ sock; "--backend"; "interp" ] @ extra
  in
  let environment =
    Array.append [| "AWESYM_CACHE_DIR=" ^ cache |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"AWESYM_" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close err) @@ fun () ->
    Unix.create_process_env env.awesym (Array.of_list args) environment Unix.stdin err err
  in
  live := pid :: !live;
  let t = { pid; addr = "unix:" ^ sock; sock; log; cache } in
  let deadline = Util.now () +. 20.0 in
  let rec wait_up () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      live := List.filter (( <> ) pid) !live;
      failwith ("awesym serve exited at start-up: " ^ String.trim (Util.read_file log)));
    match Client.connect t.addr with
    | Ok c ->
      let pong = Client.ping c in
      Client.close c;
      ignore (ok "ping" pong)
    | Error _ ->
      if Util.now () > deadline then failwith "awesym serve did not come up";
      (* A fine poll, so the set-up time does not snap to the poll grid. *)
      Unix.sleepf 0.001;
      wait_up ()
  in
  wait_up ();
  t

let stats t =
  let c = connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () -> ok "stats" (Client.stats c)

let rss_mb t = Util.vm_hwm_mb (string_of_int t.pid)

(* Drain through the protocol and insist on a clean exit. *)
let stop t =
  let c = connect t in
  ok "shutdown" (Client.shutdown c);
  Client.close c;
  let _, status = Unix.waitpid [] t.pid in
  live := List.filter (( <> ) t.pid) !live;
  Util.check (status = Unix.WEXITED 0) "awesym serve exited abnormally after shutdown";
  List.iter Util.rm_rf [ t.sock; t.log; t.cache ]

(* A field of a stats document, by path. *)
let field json path =
  List.fold_left (fun j k -> Option.bind j (Obs.Json.member k)) (Some json) path

let num json path =
  match field json path with Some (Obs.Json.Num v) -> v | _ -> nan

let str json path =
  match field json path with Some (Obs.Json.Str s) -> s | _ -> "?"
