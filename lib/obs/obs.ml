(* Obs: the telemetry subsystem — tracing spans, kernel counters and
   machine-readable stats shared by the libraries, the CLI and the bench
   harness.  Everything is inert until [enabled] is set. *)

module Json = Json
module Codec = Codec
module Rng = Rng
module Span = Span
module Metrics = Metrics

let enabled = Config.enabled

let reset () =
  Span.reset ();
  Metrics.reset ()

let report ppf () =
  let spans = Span.spans () in
  if spans <> [] then
    Format.fprintf ppf "@[<v>phase tree:@,%a@]@." Span.pp_tree ();
  if Metrics.counters_list () <> [] || Metrics.histograms_list () <> [] then
    Format.fprintf ppf "@[<v>%a@]@." Metrics.pp_table ()

let write_trace path = Json.to_file path (Span.to_chrome ())

let machine_info () =
  Json.Obj
    [
      ("hostname", Json.Str (try Unix.gethostname () with _ -> "unknown"));
      ("os_type", Json.Str Sys.os_type);
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("word_size", Json.Num (float_of_int Sys.word_size));
      ( "backend",
        Json.Str
          (match Sys.backend_type with
          | Sys.Native -> "native"
          | Sys.Bytecode -> "bytecode"
          | Sys.Other s -> s) );
    ]

type experiment = { id : string; wall_s : float; metrics : Metrics.snapshot }
type bench = { machine : Json.t; experiments : experiment list }

(* The machine block is provenance nothing reads back, so it is carried
   opaquely. *)
let bench_codec =
  let module C = Codec in
  let experiment =
    C.record
      (fun id wall_s metrics -> { id; wall_s; metrics })
      [ C.req "id" C.string (fun e -> e.id);
        C.req "wall_s" C.num (fun e -> e.wall_s);
        C.req "metrics" Metrics.snapshot_codec (fun e -> e.metrics) ]
  in
  C.record
    (fun machine experiments -> { machine; experiments })
    [ C.const "schema" (Json.Str "awesymbolic-bench/1");
      C.req "machine" C.json (fun b -> b.machine);
      C.req "experiments" (C.list experiment) (fun b -> b.experiments) ]
