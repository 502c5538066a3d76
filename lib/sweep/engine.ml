module Model = Awesymbolic.Model
module Cache = Awesymbolic.Cache
module Slp = Symbolic.Slp
module Sym = Symbolic.Symbol
module Measures = Awe.Measures
module Err = Awesym_error
module C = Obs.Codec

type measure =
  | Dc_gain
  | Dc_gain_db
  | Dominant_pole_hz
  | Unity_gain_frequency
  | Phase_margin
  | Delay_50
  | Rise_time
  | Elmore_delay
  | Moment of int

let measure_name = function
  | Dc_gain -> "dc_gain"
  | Dc_gain_db -> "dc_gain_db"
  | Dominant_pole_hz -> "dominant_pole_hz"
  | Unity_gain_frequency -> "unity_gain_frequency"
  | Phase_margin -> "phase_margin"
  | Delay_50 -> "delay_50"
  | Rise_time -> "rise_time"
  | Elmore_delay -> "elmore_delay"
  | Moment k -> Printf.sprintf "m%d" k

let named_measures =
  [
    Dc_gain; Dc_gain_db; Dominant_pole_hz; Unity_gain_frequency;
    Phase_margin; Delay_50; Rise_time; Elmore_delay;
  ]

let measure_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match List.find_opt (fun m -> measure_name m = s) named_measures with
  | Some m -> Ok m
  | None -> (
    let moment =
      if String.length s >= 2 && s.[0] = 'm' then
        int_of_string_opt (String.sub s 1 (String.length s - 1))
      else None
    in
    match moment with
    | Some k when k >= 0 -> Ok (Moment k)
    | _ ->
      Error
        (Printf.sprintf "unknown measure %S (try %s, or m0, m1, ...)" s
           (String.concat ", " (List.map measure_name named_measures))))

type bound = Le of float | Ge of float

type spec = { measure : measure; bound : bound }

let spec_of_string s =
  let split op =
    match String.index_opt s op.[0] with
    | Some i
      when i + 1 < String.length s
           && s.[i + 1] = '='
           && String.length op = 2 ->
      Some (String.sub s 0 i, String.sub s (i + 2) (String.length s - i - 2))
    | _ -> None
  in
  let parse name limit mk =
    match (measure_of_string name, float_of_string_opt (String.trim limit)) with
    | Ok m, Some v -> Ok { measure = m; bound = mk v }
    | (Error _ as e), _ -> e
    | _, None -> Error (Printf.sprintf "bad limit in spec %S" s)
  in
  match (split "<=", split ">=") with
  | Some (name, limit), _ -> parse name limit (fun v -> Le v)
  | None, Some (name, limit) -> parse name limit (fun v -> Ge v)
  | None, None ->
    Error
      (Printf.sprintf "spec %S must look like measure<=limit or measure>=limit"
         s)

let spec_to_string { measure; bound } =
  match bound with
  | Le v -> Printf.sprintf "%s<=%g" (measure_name measure) v
  | Ge v -> Printf.sprintf "%s>=%g" (measure_name measure) v

let passes bound v =
  Float.is_finite v
  && match bound with Le limit -> v <= limit | Ge limit -> v >= limit

(* ------------------------------------------------------------------ *)
(* Degradation policies *)

type policy = Fail_fast | Skip | Retry of int

let policy_name = function
  | Fail_fast -> "fail_fast"
  | Skip -> "skip"
  | Retry k -> Printf.sprintf "retry:%d" k

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "fail_fast" | "fail-fast" | "failfast" -> Ok Fail_fast
  | "skip" -> Ok Skip
  | "retry" -> Ok (Retry 2)
  | s -> (
    match String.split_on_char ':' s with
    | [ "retry"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 -> Ok (Retry k)
      | _ -> Error (Printf.sprintf "retry attempts must be >= 1 in %S" s))
    | _ ->
      Error
        (Printf.sprintf
           "unknown fault policy %S (try fail_fast, skip, retry, retry:N)" s))

type failed_point = { point : int; attempts : int; error : Err.t }

type result = {
  seed : int;
  plan : Plan.t;
  n : int;
  order : int;
  policy : policy;
  summaries : (measure * Stats.summary) list;
  spec_yields : (spec * float) list;
  yield : float option;
  failed : failed_point list;
}

let survivors r = r.n - List.length r.failed

let default_measures = [ Dc_gain; Dominant_pole_hz; Delay_50 ]

(* One point's measure finish, shared by every path that evaluates
   points: moment measures read the moments; ROM measures share one
   [fit moments], and unity-gain frequency and phase margin share one
   crossing, each solved at most once whatever measures the point asks
   for.  Strict: [fit] raises (rather than degrading to NaN) when the
   Padé finish fails, so the policy layer in [run] decides what a
   degenerate fit means.  A NaN from a {e successful} fit (no unity-gain
   crossing, say) is a legitimate value, not a fault. *)
let point_finish ~fit nm moments =
  let rom = lazy (fit moments) in
  let crossing = lazy (Measures.unity_gain_frequency (Lazy.force rom)) in
  let or_nan = Option.value ~default:nan in
  function
  | Moment k -> if k < nm then moments.(k) else nan
  | Elmore_delay -> Measures.elmore_delay moments
  | Dc_gain -> Measures.dc_gain (Lazy.force rom)
  | Dc_gain_db -> Measures.dc_gain_db (Lazy.force rom)
  | Dominant_pole_hz -> Measures.dominant_pole_hz (Lazy.force rom)
  | Unity_gain_frequency -> or_nan (Lazy.force crossing)
  | Phase_margin -> (
    match Lazy.force crossing with
    | Some f -> Measures.phase_margin_at (Lazy.force rom) f
    | None -> nan)
  | Delay_50 -> or_nan (Measures.delay_50 (Lazy.force rom))
  | Rise_time -> or_nan (Measures.rise_time (Lazy.force rom))

let moment_measures model ms moments =
  let order = Model.order model in
  List.map (point_finish ~fit:(Awe.Pade.fit ~order) (2 * order) moments) ms

(* Single-point evaluation with the same finish [eval_chunk] applies:
   compiled moments, fixed-order Padé fit, strict NaN-measure semantics.
   The optimizer routes objective evaluations through this so a sized
   point's measures match what a sweep visiting the same point reports,
   bit for bit. *)
let point_measures model ms v =
  let moments = Model.eval_moments model v in
  Array.iteri
    (fun k m ->
      if not (Float.is_finite m) then
        Err.errorf Nonfinite_result ~where:"sweep.point"
          ~context:[ ("moment", Printf.sprintf "m%d" k) ]
          "compiled moment m%d is non-finite (%h)" k m)
    moments;
  moment_measures model ms moments

(* ------------------------------------------------------------------ *)
(* Checkpoint format (schema awesymbolic-ckpt/1)

   { schema, key, points, chunks: [ { lo, len,
                                      vals: [ [hex-f64 ...] per measure ],
                                      failed: [ { point, attempts, error } ] } ] }

   Floats travel as IEEE-754 bit patterns in hex because the JSON layer
   renders non-finite numbers as null; bit patterns also make restore
   trivially bit-exact, which the byte-identical-resume contract needs. *)

let failed_point_codec =
  C.record (fun point attempts error -> { point; attempts; error })
    [ C.req "point" C.int (fun f -> f.point);
      C.req "attempts" C.int (fun f -> f.attempts);
      C.req "error" Err.codec (fun f -> f.error) ]

let ckpt_schema = "awesymbolic-ckpt/1"

(* ------------------------------------------------------------------ *)
(* Preparation: everything the evaluation of any single chunk depends
   on, computed once.  A [prep] built from the same (model, plan, seed,
   block, measures, specs, policy) is bit-identical on every node —
   [Plan.columns] is jobs-invariant by the PR 3 contract — which is what
   lets a remote worker evaluate chunk [i] and produce exactly the bytes
   the coordinator would have produced locally. *)

type prep = {
  p_model : Model.t;
  p_plan : Plan.t;
  p_seed : int;
  p_block : int;
  p_n : int;
  p_order : int;
  p_nm : int;  (* moments per point = 2 * order *)
  p_marr : measure array;  (* requested measures, spec measures unioned in *)
  p_specs : spec list;
  p_policy : policy;
  p_max_attempts : int;
  p_cols : float array array;  (* per-symbol input columns, full grid *)
  p_chunks : Runtime.Chunk.t array;
  p_key : string;  (* checkpoint key: binds all of the above *)
}

let prep_key p = p.p_key
let prep_points p = p.p_n
let prep_num_chunks p = Array.length p.p_chunks
let prep_block p = p.p_block
let prep_measures p = Array.to_list p.p_marr
let prep_specs p = p.p_specs
let prep_inputs p = p.p_cols

let prepare ?(seed = 42) ?block ?jobs ?(measures = default_measures)
    ?(specs = []) ?(policy = Skip) model plan =
  let jobs =
    match jobs with Some j -> Int.max 1 j | None -> Runtime.default_jobs ()
  in
  let order = Model.order model in
  let nm = 2 * order in
  (* Each measure once, at its first request, with the spec measures
     unioned in so every spec has a summary to report. *)
  let measures =
    List.fold_left
      (fun acc m -> if List.mem m acc then acc else acc @ [ m ])
      [] (measures @ List.map (fun s -> s.measure) specs)
  in
  List.iter
    (function
      | Moment k when k >= nm ->
        Err.errorf Invalid_request ~where:"sweep.run"
          "m%d out of range (model has m0..m%d)" k (nm - 1)
      | _ -> ())
    measures;
  (match policy with
  | Retry k when k < 1 ->
    Err.errorf Invalid_request ~where:"sweep.run"
      "retry policy needs at least 1 extra attempt, got %d" k
  | _ -> ());
  let symbols = Array.map Sym.name (Model.symbols model) in
  let nominals = Model.nominal_values model in
  let rng = Obs.Rng.create seed in
  let blk = match block with Some b when b > 0 -> b | _ -> Slp.default_block in
  let cols = Plan.columns ~symbols ~nominals ~rng ~jobs ~block:blk plan in
  let n = Plan.num_points plan in
  (* The checkpoint key binds everything the stored values depend on:
     replaying against a different plan, seed, model shape, or policy must
     be rejected, not silently blended.  (Program size stands in for a
     full model digest — combined with symbols/nominals/order it pins the
     compiled model for any realistic workflow.)  The same key is the
     distributed handshake: a worker that computes a different key from
     the same request refuses the chunk. *)
  let ckpt_key =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            ([
               ckpt_schema;
               Obs.Json.to_string (Plan.to_json plan);
               string_of_int seed;
               string_of_int order;
               string_of_int blk;
               string_of_int n;
               policy_name policy;
               string_of_int (Model.num_operations model);
             ]
            @ List.map measure_name measures
            @ List.map spec_to_string specs
            @ Array.to_list symbols
            @ List.map C.hex (Array.to_list nominals))))
  in
  {
    p_model = model;
    p_plan = plan;
    p_seed = seed;
    p_block = blk;
    p_n = n;
    p_order = order;
    p_nm = nm;
    p_marr = Array.of_list measures;
    p_specs = specs;
    p_policy = policy;
    p_max_attempts = (match policy with Retry k -> 1 + k | _ -> 1);
    p_cols = cols;
    p_chunks = Runtime.Chunk.layout ~n ~block:blk;
    p_key = ckpt_key;
  }

(* ------------------------------------------------------------------ *)
(* Per-chunk evaluation *)

type chunk_result = {
  c_index : int;
  c_lo : int;
  c_len : int;
  c_vals : float array array;  (* nmeas rows of len values *)
  c_failed : failed_point list;  (* global point indices, ascending *)
}

let chunk_index r = r.c_index
let chunk_lo r = r.c_lo
let chunk_len r = r.c_len
let chunk_values r = r.c_vals
let chunk_failures r = List.map (fun f -> f.point) r.c_failed

(* One batch evaluator per domain, reused while the program (physically)
   and the block size stay the same, so a sweep's chunks share one register
   file instead of allocating one each.  The slot is domain-local and the
   evaluator runs at jobs 1 without calling back, so its single-owner latch
   never fires. *)
let evaluator_slot = Domain.DLS.new_key (fun () -> ref None)

let chunk_evaluator prog blk =
  let slot = Domain.DLS.get evaluator_slot in
  match !slot with
  | Some (p, b, ev) when p == prog && b = blk -> ev
  | _ ->
    let ev = Slp.make_batch_evaluator ~block:blk ~jobs:1 prog in
    slot := Some (prog, blk, ev);
    ev

let eval_chunk p idx =
  if idx < 0 || idx >= Array.length p.p_chunks then
    Err.errorf Invalid_request ~where:"sweep.chunk"
      "chunk %d out of range (layout has %d chunks)" idx
      (Array.length p.p_chunks);
  let c = p.p_chunks.(idx) in
  let blk = p.p_block and nm = p.p_nm and order = p.p_order in
  let marr = p.p_marr and policy = p.p_policy in
  let max_attempts = p.p_max_attempts in
  let nmeas = Array.length marr in
  let vals = Array.init nmeas (fun _ -> Array.make c.len nan) in
  let failed_arr : failed_point option array = Array.make c.len None in
  let prog = Model.program p.p_model in
  let sub = Array.map (fun col -> Array.sub col c.lo c.len) p.p_cols in
  (* Chunk stage: batched moment evaluation.  A fault here (injected
     worker crash, injected kernel fault) is retried chunk-wise under
     Retry; a permanent one quarantines the whole chunk under Skip.  Both
     sites are cut here, where the retry happens, keyed by the chunk and
     the attempt, so a transient fault heals whichever backend runs. *)
  let mcols =
    let rec go attempt =
      match
        Runtime.Fault.cut "pool.worker" ~key:c.lo ~attempt;
        Runtime.Fault.cut "slp.eval_batch" ~key:c.lo ~attempt;
        chunk_evaluator prog blk sub
      with
      | m ->
        if attempt > 0 then Obs.Metrics.incr "sweep.fault.recovered";
        Ok m
      | exception e ->
        let err = Err.classify e in
        Obs.Metrics.incr "sweep.fault.seen";
        if attempt + 1 < max_attempts then begin
          Obs.Metrics.incr "sweep.fault.retried";
          go (attempt + 1)
        end
        else Error (err, attempt + 1)
    in
    go 0
  in
  (match mcols with
  | Error (err, attempts) -> (
    match policy with
    | Fail_fast -> raise (Err.Error err)
    | Skip | Retry _ ->
      Obs.Metrics.add "sweep.fault.quarantined" c.len;
      for li = 0 to c.len - 1 do
        let i = c.lo + li in
        failed_arr.(li) <-
          Some
            {
              point = i;
              attempts;
              error =
                {
                  err with
                  Err.context = ("point", string_of_int i) :: err.Err.context;
                };
            }
      done)
  | Ok mcols ->
    (* Point stage: measure finish with per-point isolation. *)
    let moments = Array.make nm 0.0 in
    let fit m =
      match Awe.Pade.fit ~order m with
      | rom -> rom
      | exception (Awe.Pade.Degenerate _ as e) -> (
        match policy with
        | Retry _ ->
          (* Order-reduction fallback: an unstable or degenerate fit at q
             often fits fine at q-1 (fewer spurious poles chasing noise
             moments). *)
          let rec down q =
            if q < 1 then raise e
            else
              match Awe.Pade.fit ~order:q m with
              | rom ->
                Obs.Metrics.incr "sweep.fault.order_reduced";
                rom
              | exception Awe.Pade.Degenerate _ -> down (q - 1)
          in
          down (order - 1)
        | Fail_fast | Skip -> raise e)
    in
    for li = 0 to c.len - 1 do
      let i = c.lo + li in
      let eval_once attempt =
        Runtime.Fault.cut "sweep.point" ~key:i ~attempt;
        for k = 0 to nm - 1 do
          moments.(k) <- mcols.(k).(li)
        done;
        for k = 0 to nm - 1 do
          if not (Float.is_finite moments.(k)) then
            Err.errorf Nonfinite_result ~where:"sweep.point"
              ~context:
                [
                  ("point", string_of_int i);
                  ("moment", Printf.sprintf "m%d" k);
                ]
              "compiled moment m%d is non-finite (%h) at point %d" k
              moments.(k) i
        done;
        Array.map (point_finish ~fit nm moments) marr
      in
      let rec point_try attempt =
        match eval_once attempt with
        | row ->
          if attempt > 0 then Obs.Metrics.incr "sweep.fault.recovered";
          Ok row
        | exception e ->
          let err = Err.classify e in
          Obs.Metrics.incr "sweep.fault.seen";
          (* A non-finite moment is a pure function of the inputs:
             re-running cannot change it, so don't burn attempts. *)
          let retryable = err.Err.kind <> Err.Nonfinite_result in
          if retryable && attempt + 1 < max_attempts then begin
            Obs.Metrics.incr "sweep.fault.retried";
            point_try (attempt + 1)
          end
          else Error (err, attempt + 1)
      in
      match point_try 0 with
      | Ok row -> Array.iteri (fun j v -> vals.(j).(li) <- v) row
      | Error (err, attempts) -> (
        match policy with
        | Fail_fast -> raise (Err.Error err)
        | Skip | Retry _ ->
          Obs.Metrics.incr "sweep.fault.quarantined";
          failed_arr.(li) <- Some { point = i; attempts; error = err })
    done);
  let failed =
    Array.to_list failed_arr |> List.filter_map (fun fp -> fp)
  in
  { c_index = idx; c_lo = c.lo; c_len = c.len; c_vals = vals;
    c_failed = failed }

(* ------------------------------------------------------------------ *)
(* Chunk records: the checkpoint on-disk shape, also the wire shape of
   a remotely evaluated chunk.  [chunk_result_of_json] validates against
   the prep's layout, so a record from an untrusted peer (or a stale
   file) cannot scribble outside its chunk. *)

(* [c_index] is not on the wire: it follows from [lo] and the layout,
   and [decode_chunk] fills it in once the record is checked against
   it. *)
let chunk_codec =
  C.record
    (fun c_lo c_len c_vals c_failed -> { c_index = -1; c_lo; c_len; c_vals; c_failed })
    [ C.req "lo" C.int (fun r -> r.c_lo);
      C.req "len" C.int (fun r -> r.c_len);
      C.req "vals" (C.array (C.array C.hexfloat)) (fun r -> r.c_vals);
      C.req "failed" (C.list failed_point_codec) (fun r -> r.c_failed) ]

let chunk_result_to_json = C.encode chunk_codec

(* Decode one record found at path [at] of its document. *)
let decode_chunk ?file ?(at = []) p record =
  let bad fmt = Err.errorf ?file Artifact_corrupt ~where:"sweep.checkpoint" fmt in
  let r =
    match C.decode chunk_codec record with
    | Ok r -> r
    | Error e ->
      (* A bad value cell also names its global point. *)
      let point =
        match (e.C.path, Obs.Json.member "lo" record) with
        | [ C.Key "vals"; C.Index _; C.Index li ], Some (Obs.Json.Num lo) ->
          Printf.sprintf " at point %d" (int_of_float lo + li)
        | _ -> ""
      in
      bad "%s%s" (C.error_to_string { e with path = at @ e.C.path }) point
  in
  let lo = r.c_lo and len = r.c_len in
  let n = p.p_n and blk = p.p_block in
  let nmeas = Array.length p.p_marr in
  if lo < 0 || len < 1 || lo + len > n || lo mod blk <> 0 then
    bad "chunk [%d, +%d) does not fit the %d-point grid" lo len n;
  let idx = lo / blk in
  if p.p_chunks.(idx).lo <> lo || p.p_chunks.(idx).len <> len then
    bad "chunk [%d, +%d) disagrees with the block-%d layout" lo len blk;
  if
    Array.length r.c_vals <> nmeas
    || Array.exists (fun row -> Array.length row <> len) r.c_vals
  then bad "chunk at %d needs %d measure rows of %d values" lo nmeas len;
  List.iter
    (fun fp ->
      if fp.point < lo || fp.point >= lo + len then
        bad "failed point %d outside its chunk [%d, +%d)" fp.point lo len)
    r.c_failed;
  { r with c_index = idx }

let chunk_result_of_json ?file p record = decode_chunk ?file p record

(* ------------------------------------------------------------------ *)
(* Checkpointing: one writer per run, shared by however many domains
   (or remote-result merges) complete chunks.  The file is rewritten
   whole — records sorted by chunk index — so its bytes are a pure
   function of the completed-chunk set, whatever order completions
   arrived in. *)

(* The document; chunk records stay JSON until [decode_chunk] checks
   each against the layout. *)
let ckpt_codec =
  C.record (fun key points chunks -> (key, points, chunks))
    [ C.const "schema" (Obs.Json.Str ckpt_schema);
      C.req "key" C.string (fun (k, _, _) -> k);
      C.req "points" C.int (fun (_, n, _) -> n);
      C.req "chunks" (C.list C.json) (fun (_, _, cs) -> cs) ]

module Checkpoint = struct
  type writer = {
    w_path : string;
    w_key : string;
    w_points : int;
    w_mutex : Mutex.t;
    w_records : (int, Obs.Json.t) Hashtbl.t;
  }

  let writer p ~path =
    {
      w_path = path;
      w_key = p.p_key;
      w_points = p.p_n;
      w_mutex = Mutex.create ();
      w_records = Hashtbl.create 64;
    }

  (* Called with [w_mutex] held. *)
  let write_locked w =
    let recs =
      Hashtbl.fold (fun idx _ acc -> idx :: acc) w.w_records []
      |> List.sort compare
      |> List.map (fun idx -> Hashtbl.find w.w_records idx)
    in
    let doc = C.encode ckpt_codec (w.w_key, w.w_points, recs) in
    let dir = Filename.dirname w.w_path in
    if dir <> "." && not (Sys.file_exists dir) then Cache.ensure_dir dir;
    Cache.atomic_write w.w_path (fun tmp ->
        Out_channel.with_open_bin tmp (fun oc ->
            Out_channel.output_string oc (Obs.Json.to_string doc)))

  let add ?(written = true) w r =
    Mutex.lock w.w_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock w.w_mutex)
      (fun () ->
        Hashtbl.replace w.w_records r.c_index (chunk_result_to_json r);
        if written then begin
          Obs.Metrics.incr "sweep.checkpoint.chunks_written";
          write_locked w
        end)

  let flush w =
    Mutex.lock w.w_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock w.w_mutex)
      (fun () -> write_locked w)

  let load p ~path =
    if not (Sys.file_exists path) then []
    else begin
      let data = In_channel.with_open_bin path In_channel.input_all in
      let doc =
        match Obs.Json.of_string data with
        | Ok d -> d
        | Error msg ->
          Err.errorf Artifact_corrupt ~where:"sweep.checkpoint" ~file:path
            "unreadable checkpoint: %s" msg
      in
      let key, points, recs =
        match C.decode ckpt_codec doc with
        | Ok d -> d
        | Error e ->
          Err.errorf Artifact_corrupt ~where:"sweep.checkpoint" ~file:path
            "not a %s file: %s" ckpt_schema (C.error_to_string e)
      in
      if key <> p.p_key then
        Err.errorf Invalid_request ~where:"sweep.checkpoint" ~file:path
          "checkpoint was written by a different sweep (plan, seed, model, \
           block, measures, or policy changed); delete it or drop --resume";
      if points <> p.p_n then
        Err.errorf Artifact_corrupt ~where:"sweep.checkpoint" ~file:path
          "$.points: %d, but the sweep has %d points" points p.p_n;
      List.mapi
        (fun k r -> decode_chunk ~file:path ~at:[ C.Key "chunks"; C.Index k ] p r)
        recs
    end
end

(* ------------------------------------------------------------------ *)
(* Merge + statistics: deterministic in the chunk-index order of the
   results array, independent of which domain or node produced each
   chunk. *)

let finish p (results : chunk_result option array) =
  Array.iteri
    (fun i r ->
      if r = None then
        Err.errorf Internal ~where:"sweep.finish"
          "chunk %d was never evaluated" i)
    results;
  let n = p.p_n in
  let marr = p.p_marr in
  let nmeas = Array.length marr in
  let vals = Array.init nmeas (fun _ -> Array.make n nan) in
  let failed_arr : failed_point option array = Array.make n None in
  Array.iter
    (function
      | Some r ->
        for j = 0 to nmeas - 1 do
          Array.blit r.c_vals.(j) 0 vals.(j) r.c_lo r.c_len
        done;
        List.iter (fun fp -> failed_arr.(fp.point) <- Some fp) r.c_failed
      | None -> ())
    results;
  let failed = Array.to_list failed_arr |> List.filter_map (fun fp -> fp) in
  let n_failed = List.length failed in
  let n_survive = n - n_failed in
  if n_survive = 0 && n > 0 then begin
    let first = List.hd failed in
    raise
      (Err.Error
         {
           first.error with
           Err.message =
             Printf.sprintf
               "every point of the %d-point sweep failed; first error: %s" n
               first.error.Err.message;
         })
  end;
  let filter row =
    if n_failed = 0 then row
    else begin
      let out = Array.make n_survive nan in
      let w = ref 0 in
      for i = 0 to n - 1 do
        if failed_arr.(i) = None then begin
          out.(!w) <- row.(i);
          incr w
        end
      done;
      out
    end
  in
  let fvals = Array.map filter vals in
  let summaries =
    Array.to_list (Array.mapi (fun j m -> (m, Stats.summarize fvals.(j))) marr)
  in
  let index_of m =
    let rec go j = if marr.(j) = m then j else go (j + 1) in
    go 0
  in
  let specs = p.p_specs in
  let spec_yields =
    List.map
      (fun s ->
        (s, Stats.yield ~pass:(passes s.bound) fvals.(index_of s.measure)))
      specs
  in
  let yield =
    if specs = [] then None
    else begin
      let ok = ref 0 in
      for i = 0 to n_survive - 1 do
        if
          List.for_all
            (fun s -> passes s.bound fvals.(index_of s.measure).(i))
            specs
        then incr ok
      done;
      Some (float_of_int !ok /. float_of_int n_survive)
    end
  in
  {
    seed = p.p_seed;
    plan = p.p_plan;
    n;
    order = p.p_order;
    policy = p.p_policy;
    summaries;
    spec_yields;
    yield;
    failed;
  }

(* ------------------------------------------------------------------ *)

let run ?(seed = 42) ?block ?jobs ?measures ?specs ?policy ?checkpoint
    ?(resume = false) model plan =
  Obs.Span.with_ ~name:"sweep.run" @@ fun () ->
  let jobs =
    match jobs with Some j -> Int.max 1 j | None -> Runtime.default_jobs ()
  in
  let p = prepare ~seed ?block ~jobs ?measures ?specs ?policy model plan in
  if !Obs.enabled then begin
    Obs.Metrics.incr "sweep.run.count";
    Obs.Metrics.add "sweep.run.points" p.p_n
  end;
  let results : chunk_result option array =
    Array.make (Array.length p.p_chunks) None
  in
  let writer = Option.map (fun path -> Checkpoint.writer p ~path) checkpoint in
  (* ---- resume: restore completed chunks bit-exactly ---- *)
  (match (checkpoint, writer) with
  | Some path, Some w when resume ->
    List.iter
      (fun r ->
        results.(r.c_index) <- Some r;
        Checkpoint.add ~written:false w r;
        Obs.Metrics.incr "sweep.checkpoint.chunks_resumed")
      (Checkpoint.load p ~path)
  | _ -> ());
  (* ---- evaluate the remaining chunks ---- *)
  Runtime.iter_chunks ~jobs ~n:p.p_n ~block:p.p_block
    (fun ~worker:_ (c : Runtime.Chunk.t) ->
      if results.(c.index) = None then begin
        let r = eval_chunk p c.index in
        results.(c.index) <- Some r;
        match writer with Some w -> Checkpoint.add w r | None -> ()
      end);
  finish p results

let schema = "awesymbolic-sweep/2"

let to_json r =
  let open Obs.Json in
  Obj
    [
      ("schema", Str schema);
      ("seed", Num (float_of_int r.seed));
      ("points", Num (float_of_int r.n));
      ("survivors", Num (float_of_int (survivors r)));
      ("order", Num (float_of_int r.order));
      ("policy", Str (policy_name r.policy));
      ("plan", Plan.to_json r.plan);
      ( "measures",
        Obj
          (List.map
             (fun (m, s) -> (measure_name m, Stats.to_json s))
             r.summaries) );
      ( "specs",
        List
          (List.map
             (fun (s, y) ->
               Obj
                 [
                   ("spec", Str (spec_to_string s));
                   ("measure", Str (measure_name s.measure));
                   ( "op",
                     Str (match s.bound with Le _ -> "<=" | Ge _ -> ">=") );
                   ( "limit",
                     Num (match s.bound with Le v | Ge v -> v) );
                   ("yield", Num y);
                 ])
             r.spec_yields) );
      ("yield", match r.yield with Some y -> Num y | None -> Null);
      ("failed_points", List (List.map (C.encode failed_point_codec) r.failed));
    ]
