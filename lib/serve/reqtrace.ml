(* Per-request trace recording: a bounded ring of completed request
   traces plus an optional JSONL sink with size-based rotation.

   The serving loop owns this structure outright (single domain), so no
   locking.  Records carry float times the same way the sweep schema
   does — exact IEEE-754 bits in 16 hex digits — with a decimal dur_us
   alongside so `jq` one-liners and humans need no bit fiddling. *)

module Json = Obs.Json

let schema = "awesymbolic-reqtrace/1"

type span = { name : string; s_start : float; s_stop : float }

type builder = {
  trace_id : string;
  parent_span : string;
  op : string;
  conn : int;
  req_id : Json.t option;
  started : float; (* absolute seconds *)
  mutable rev_spans : span list;
}

type sink = {
  path : string;
  max_bytes : int;
  mutable oc : out_channel;
  mutable written : int;
}

type t = {
  capacity : int;
  ring : Json.t option array;
  mutable head : int; (* next write slot *)
  mutable finished : int;
  sink : sink option;
}

let open_log path = open_out_gen [ Open_append; Open_creat ] 0o644 path

let create ?(capacity = 256) ?log ?(log_max_bytes = 16 * 1024 * 1024) () =
  let capacity = Int.max 1 capacity in
  let sink =
    Option.map
      (fun path ->
        let oc = open_log path in
        { path; max_bytes = log_max_bytes; oc; written = out_channel_length oc })
      log
  in
  { capacity; ring = Array.make capacity None; head = 0; finished = 0; sink }

(* Server-generated ids for requests whose client sent no trace context:
   cheap, unique within the daemon, and recognizable by prefix. *)
let gen_counter = ref 0

let gen_id () =
  incr gen_counter;
  Printf.sprintf "srv-%d-%d" (Unix.getpid ()) !gen_counter

let start ?trace_id ?parent_span ~op ~conn ?req_id ~now () =
  {
    trace_id = (match trace_id with Some s -> s | None -> gen_id ());
    parent_span = Option.value parent_span ~default:"";
    op;
    conn;
    req_id;
    started = now;
    rev_spans = [];
  }

let add_span b ~name ~start ~stop =
  b.rev_spans <- { name; s_start = start; s_stop = stop } :: b.rev_spans

let time_fields ~start ~dur =
  [
    ("start_s", Json.Str (Obs.Codec.hex start));
    ("dur_s", Json.Str (Obs.Codec.hex dur));
    ("dur_us", Json.Num (dur *. 1e6));
  ]

let record_of b ~now ~status =
  let spans =
    List.rev_map
      (fun s ->
        Json.Obj
          (("name", Json.Str s.name)
          :: time_fields ~start:(s.s_start -. b.started)
               ~dur:(s.s_stop -. s.s_start)))
      b.rev_spans
  in
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("trace_id", Json.Str b.trace_id);
       ("parent_span", Json.Str b.parent_span);
       ("op", Json.Str b.op);
       ("conn", Json.Num (float_of_int b.conn));
       ("id", Option.value b.req_id ~default:Json.Null);
       ("status", Json.Str status);
     ]
    @ time_fields ~start:b.started ~dur:(now -. b.started)
    @ [ ("spans", Json.List spans) ])

let rotate s =
  close_out_noerr s.oc;
  (try Sys.rename s.path (s.path ^ ".1") with Sys_error _ -> ());
  s.oc <- open_log s.path;
  s.written <- 0

let append_sink s record =
  let line = Json.to_string record ^ "\n" in
  output_string s.oc line;
  flush s.oc;
  s.written <- s.written + String.length line;
  if s.written >= s.max_bytes then rotate s

let finish t b ~now ~status =
  let record = record_of b ~now ~status in
  t.ring.(t.head) <- Some record;
  t.head <- (t.head + 1) mod t.capacity;
  t.finished <- t.finished + 1;
  Option.iter (fun s -> append_sink s record) t.sink

let recent t n =
  let n = Int.min (Int.min n t.capacity) t.finished in
  let out = ref [] in
  (* Walk backwards from the most recent slot, collecting oldest-first. *)
  for i = 0 to n - 1 do
    let idx = (t.head - 1 - i + (2 * t.capacity)) mod t.capacity in
    match t.ring.(idx) with Some r -> out := r :: !out | None -> ()
  done;
  !out

let completed t = t.finished
let close t = Option.iter (fun s -> close_out_noerr s.oc) t.sink
