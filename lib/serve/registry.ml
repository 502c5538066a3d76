(* Model registry: compiled artifacts resident in the daemon, keyed by
   content checksum.

   Requests name a model by artifact *path*; identity is the MD5 of the
   file bytes, so overwriting an artifact in place (e.g. a re-compile
   landing through Cache.atomic_write) transparently serves the new
   model on the next request, and two paths to identical bytes share one
   entry.  The per-request cost of a hit is one Digest.file over a small
   artifact — microseconds against the evaluations it amortizes.

   Each entry owns one batch evaluator over the model's moment program.
   Evaluators are single-owner (see the ownership contract on
   Slp.make_batch_evaluator): only the serving domain calls them, one
   batch at a time, and the busy-latch in Slp guards the contract.  The
   serving domain is a runtime worker, so each call runs its blocks
   inline there. *)

module Model = Awesymbolic.Model
module Err = Awesym_error

type entry = {
  digest : string;
  path : string;  (* path that first loaded the entry, for reporting *)
  model : Model.t;
  symbols : string array;
  nominals : float array;
  order : int;
  evaluate : float array array -> float array array;
      (* columns in, moment columns out; single-owner *)
  mutable last_used : int;
}

type t = {
  max_models : int;
  mutable clock : int;
  mutable entries : entry list;  (* unordered; LRU by [last_used] *)
}

let create ?(max_models = 8) () =
  if max_models < 1 then invalid_arg "Registry.create: max_models must be >= 1";
  { max_models; clock = 0; entries = [] }

let loaded t = List.length t.entries

let touch t e =
  t.clock <- t.clock + 1;
  e.last_used <- t.clock

let evict_to_cap t =
  while List.length t.entries > t.max_models do
    let victim =
      List.fold_left
        (fun acc e ->
          match acc with
          | None -> Some e
          | Some b -> if e.last_used < b.last_used then Some e else Some b)
        None t.entries
    in
    match victim with
    | None -> ()
    | Some v ->
      t.entries <- List.filter (fun e -> e.digest <> v.digest) t.entries;
      Obs.Metrics.incr "serve.registry.evict"
  done

let find t path =
  match Digest.file path with
  | exception Sys_error msg ->
    Error (Err.make Invalid_request ~where:"serve.registry" msg ~file:path)
  | raw -> (
    let digest = Digest.to_hex raw in
    match List.find_opt (fun e -> e.digest = digest) t.entries with
    | Some e ->
      touch t e;
      Obs.Metrics.incr "serve.registry.hit";
      Ok e
    | None -> (
      Obs.Metrics.incr "serve.registry.miss";
      match
        Obs.Span.with_ ~name:"serve.registry.load" (fun () -> Model.load path)
      with
      | exception e -> Error (Err.classify e)
      | model ->
        let e =
          {
            digest;
            path;
            model;
            symbols = Array.map Symbolic.Symbol.name (Model.symbols model);
            nominals = Model.nominal_values model;
            order = Model.order model;
            evaluate = Symbolic.Slp.make_batch_evaluator (Model.program model);
            last_used = 0;
          }
        in
        touch t e;
        t.entries <- e :: t.entries;
        evict_to_cap t;
        Ok e))
