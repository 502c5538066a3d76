module Model = Awesymbolic.Model
module Checkpoint = Awesymbolic.Checkpoint
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
    | Ok m, Some v when not (Float.is_nan v) -> Ok { measure = m; bound = mk v }
    | (Error _ as e), _ -> e
    | _, _ -> Error (Printf.sprintf "bad limit in spec %S" s)
  in
  match (split "<=", split ">=") with
  | Some (name, limit), _ -> parse name limit (fun v -> Le v)
  | None, Some (name, limit) -> parse name limit (fun v -> Ge v)
  | None, None ->
    Error
      (Printf.sprintf "spec %S must look like measure<=limit or measure>=limit"
         s)

(* A limit reads back to its own bits: spelled [%g] wherever that does,
   so every limit spelled before keeps its bytes, else the shortest of
   [%.15g], [%.16g] and [%.17g] that does. *)
let limit_to_string v =
  let exact p =
    let s = Printf.sprintf "%.*g" p v in
    if Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float v) then
      Some s
    else None
  in
  match List.find_map exact [ 6; 15; 16 ] with
  | Some s -> s
  | None -> Printf.sprintf "%.17g" v

let spec_to_string { measure; bound } =
  match bound with
  | Le v -> measure_name measure ^ "<=" ^ limit_to_string v
  | Ge v -> measure_name measure ^ ">=" ^ limit_to_string v

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
   for.  Both live in mutable slots that [next_point] clears, so a sweep
   reuses one finisher across its chunk's points.  Strict: [fit] raises
   (rather than degrading to NaN) when the Padé finish fails, so the
   policy layer in [run] decides what a degenerate fit means.  A NaN
   from a {e successful} fit (no unity-gain crossing, say) is a
   legitimate value, not a fault, and so is the Elmore delay of a point
   whose DC gain m0 is exactly 0. *)
type finisher = {
  fit : float array -> Awe.Rom.t;
  nm : int;
  moments : float array;  (* the point's moments *)
  mutable rom : Awe.Rom.t option;  (* the point's fit, once made *)
  mutable crossing : float option option;  (* its unity-gain crossing, once solved *)
}

let finisher ~fit nm moments = { fit; nm; moments; rom = None; crossing = None }

let next_point f =
  f.rom <- None;
  f.crossing <- None

let rom f =
  match f.rom with
  | Some rom -> rom
  | None ->
    let rom = f.fit f.moments in
    f.rom <- Some rom;
    rom

let crossing f =
  match f.crossing with
  | Some c -> c
  | None ->
    let c = Measures.unity_gain_frequency (rom f) in
    f.crossing <- Some c;
    c

let or_nan = Option.value ~default:nan

let measure f = function
  | Moment k -> if k < f.nm then f.moments.(k) else nan
  | Elmore_delay -> if f.moments.(0) = 0.0 then nan else Measures.elmore_delay f.moments
  | Dc_gain -> Measures.dc_gain (rom f)
  | Dc_gain_db -> Measures.dc_gain_db (rom f)
  | Dominant_pole_hz -> Measures.dominant_pole_hz (rom f)
  | Unity_gain_frequency -> or_nan (crossing f)
  | Phase_margin -> (
    match crossing f with
    | Some x -> Measures.phase_margin_at (rom f) x
    | None -> nan)
  | Delay_50 -> or_nan (Measures.delay_50 (rom f))
  | Rise_time -> or_nan (Measures.rise_time (rom f))

let moment_measures model ms moments =
  let order = Model.order model in
  List.map (measure (finisher ~fit:(Awe.Pade.fit ~order) (2 * order) moments)) ms

(* The one rule for what a measure list reads, as [measure] reads it:
   [Moment k] reads m_k, [Elmore_delay] m0 and m1, and every measure that
   fits a ROM all [2 * order] moments.  It picks the program a sweep runs
   and the moments whose non-finite value faults a point. *)
let moments_read ~order ms =
  let nm = 2 * order in
  let read = Array.make nm false in
  List.iter
    (function
      | Moment k -> if k < nm then read.(k) <- true
      | Elmore_delay ->
        read.(0) <- true;
        read.(1) <- true
      | Dc_gain | Dc_gain_db | Dominant_pole_hz | Unity_gain_frequency
      | Phase_margin | Delay_50 | Rise_time ->
        Array.fill read 0 nm true)
    ms;
  Array.of_list (List.filter (fun k -> read.(k)) (List.init nm Fun.id))

(* The point fault: the first read moment, in ascending order, that is
   not finite, naming the sweep's [point] when there is one. *)
let check_read ?point read moments =
  for j = 0 to Array.length read - 1 do
    let k = read.(j) in
    let m = moments.(k) in
    if not (Float.is_finite m) then begin
      let moment = ("moment", Printf.sprintf "m%d" k) in
      let context, at =
        match point with
        | None -> ([ moment ], "")
        | Some i -> ([ ("point", string_of_int i); moment ], Printf.sprintf " at point %d" i)
      in
      Err.errorf Nonfinite_result ~where:"sweep.point" ~context
        "compiled moment m%d is non-finite (%h)%s" k m at
    end
  done

(* Single-point evaluation with the same finish [eval_chunk] applies:
   compiled moments, fixed-order Padé fit, strict NaN-measure semantics.
   The optimizer routes objective evaluations through this so a sized
   point's measures match what a sweep visiting the same point reports,
   bit for bit. *)
let point_measures model ms v =
  let moments = Model.eval_moments model v in
  check_read (moments_read ~order:(Model.order model) ms) moments;
  moment_measures model ms moments

(* ------------------------------------------------------------------ *)
(* Chunk records travel through checkpoints and the wire as

   { lo, len, vals: [ [hex-f64 ...] per measure ],
     failed: [ { point, attempts, error } ] }

   Floats travel as IEEE-754 bit patterns in hex because the JSON layer
   renders non-finite numbers as null; bit patterns also make restore
   trivially bit-exact, which the byte-identical-resume contract needs. *)

let failed_point_codec =
  C.record (fun point attempts error -> { point; attempts; error })
    [ C.req "point" C.int (fun f -> f.point);
      C.req "attempts" C.int (fun f -> f.attempts);
      C.req "error" Err.codec (fun f -> f.error) ]

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
  p_read : int array;  (* the moments [p_marr] reads, ascending *)
  p_prog : Slp.t;  (* the model's program cut to [p_read] *)
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
  let cols = Plan.columns ~symbols ~nominals ~rng ?jobs ~block:blk plan in
  let n = Plan.num_points plan in
  (* The checkpoint key names the one computation whose values a chunk
     holds: replaying against another plan, seed, model or policy is
     rejected, not blended.  The same key is the distributed handshake: a
     worker that computes a different key from the same request refuses
     the chunk. *)
  let ckpt_key =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            ([
               Obs.Json.to_string (Plan.to_json plan);
               string_of_int seed;
               string_of_int blk;
               string_of_int n;
               policy_name policy;
               Model.fingerprint model;
             ]
            @ List.map measure_name measures
            @ List.map spec_to_string specs)))
  in
  (* The program resolves once per prep: the model's own when every
     moment is read, so ROM sweeps and native kernel digests are those
     of the model, else [Slp.select]'s cut, memoized on the model's
     program so every prep over the same moments shares it. *)
  let read = moments_read ~order measures in
  let prog =
    if Array.length read = nm then Model.program model
    else Slp.select (Model.program model) read
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
    p_read = read;
    p_prog = prog;
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

(* The fixed-order Padé fit of a sweep's points.  Under [Retry] a
   degenerate fit at q is retried at q-1 … 1 before it counts as a fault:
   an unstable or degenerate fit often fits fine with fewer spurious
   poles chasing noise moments. *)
let sweep_fit order policy m =
  match Awe.Pade.fit ~order m with
  | rom -> rom
  | exception (Awe.Pade.Degenerate _ as e) -> (
    match policy with
    | Retry _ ->
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

(* Point stage: measure finish with per-point isolation, run only at the
   points that need it.  Column [j] holds moment [read.(j)], and a
   [Moment k] measure's values are its column, taken as it is (the batch
   evaluator returns fresh columns on every call).  So a
   point needs the per-point finish only when some measure is not a
   moment, when a moment it reads is not finite, or when faults are
   armed (the ["sweep.point"] site); at any other point the columns
   already hold its values.  Returns the measure rows and the chunk's
   quarantined points, ascending. *)
let finish_points p (c : Runtime.Chunk.t) mcols =
  let marr = p.p_marr and read = p.p_read and policy = p.p_policy in
  let nmeas = Array.length marr and nread = Array.length read in
  let vals =
    Array.map
      (function
        | Moment k ->
          let rec column j = if read.(j) = k then mcols.(j) else column (j + 1) in
          column 0
        | _ -> Array.make c.len nan)
      marr
  in
  let armed = Runtime.Fault.armed () in
  let every = armed || Array.exists (function Moment _ -> false | _ -> true) marr in
  let need = Bytes.make c.len (if every then '\001' else '\000') in
  if not every then
    Array.iter
      (fun col ->
        for li = 0 to c.len - 1 do
          if not (Float.is_finite col.(li)) then Bytes.set need li '\001'
        done)
      mcols;
  let fin = finisher ~fit:(sweep_fit p.p_order policy) p.p_nm (Array.make p.p_nm nan) in
  let eval_once li i attempt =
    if armed then Runtime.Fault.cut "sweep.point" ~key:i ~attempt;
    for j = 0 to nread - 1 do
      fin.moments.(read.(j)) <- mcols.(j).(li)
    done;
    check_read ~point:i read fin.moments;
    next_point fin;
    for j = 0 to nmeas - 1 do
      match marr.(j) with
      | Moment _ -> ()
      | m -> vals.(j).(li) <- measure fin m
    done
  in
  let failed = ref [] in
  let rec point_try li i attempt =
    match eval_once li i attempt with
    | () -> if attempt > 0 then Obs.Metrics.incr "sweep.fault.recovered"
    | exception e -> (
      let err = Err.classify e in
      Obs.Metrics.incr "sweep.fault.seen";
      (* A non-finite moment is a pure function of the inputs:
         re-running cannot change it, so don't burn attempts. *)
      let retryable = err.Err.kind <> Err.Nonfinite_result in
      if retryable && attempt + 1 < p.p_max_attempts then begin
        Obs.Metrics.incr "sweep.fault.retried";
        point_try li i (attempt + 1)
      end
      else
        match policy with
        | Fail_fast -> raise (Err.Error err)
        | Skip | Retry _ ->
          Obs.Metrics.incr "sweep.fault.quarantined";
          for j = 0 to nmeas - 1 do
            vals.(j).(li) <- nan
          done;
          failed := { point = i; attempts = attempt + 1; error = err } :: !failed)
  in
  for li = 0 to c.len - 1 do
    if Bytes.get need li <> '\000' then point_try li (c.lo + li) 0
  done;
  (vals, List.rev !failed)

let eval_chunk p idx =
  if idx < 0 || idx >= Array.length p.p_chunks then
    Err.errorf Invalid_request ~where:"sweep.chunk"
      "chunk %d out of range (layout has %d chunks)" idx
      (Array.length p.p_chunks);
  let c = p.p_chunks.(idx) in
  let sub = Array.map (fun col -> Array.sub col c.lo c.len) p.p_cols in
  (* Chunk stage: batched moment evaluation.  A fault here (injected
     worker crash, injected kernel fault) is retried chunk-wise under
     Retry; a permanent one quarantines the whole chunk under Skip.  Both
     sites are cut here, where the retry happens, keyed by the chunk and
     the attempt, so a transient fault heals whichever backend runs. *)
  let rec go attempt =
    match
      Runtime.Fault.cut "pool.worker" ~key:c.lo ~attempt;
      Runtime.Fault.cut "slp.eval_batch" ~key:c.lo ~attempt;
      chunk_evaluator p.p_prog p.p_block sub
    with
    | m ->
      if attempt > 0 then Obs.Metrics.incr "sweep.fault.recovered";
      Ok m
    | exception e ->
      let err = Err.classify e in
      Obs.Metrics.incr "sweep.fault.seen";
      if attempt + 1 < p.p_max_attempts then begin
        Obs.Metrics.incr "sweep.fault.retried";
        go (attempt + 1)
      end
      else Error (err, attempt + 1)
  in
  let vals, failed =
    match go 0 with
    | Ok mcols -> finish_points p c mcols
    | Error (err, attempts) -> (
      match p.p_policy with
      | Fail_fast -> raise (Err.Error err)
      | Skip | Retry _ ->
        Obs.Metrics.add "sweep.fault.quarantined" c.len;
        ( Array.map (fun _ -> Array.make c.len nan) p.p_marr,
          List.init c.len (fun li ->
              let i = c.lo + li in
              {
                point = i;
                attempts;
                error =
                  { err with Err.context = ("point", string_of_int i) :: err.Err.context };
              }) ))
  in
  { c_index = idx; c_lo = c.lo; c_len = c.len; c_vals = vals; c_failed = failed }

(* ------------------------------------------------------------------ *)
(* Chunk records: the checkpoint on-disk shape, also the wire shape of
   a remotely evaluated chunk.  [chunk_result_of_json] validates against
   the prep's layout, so a record from an untrusted peer (or a stale
   file) cannot scribble outside its chunk. *)

(* [c_index] is not on the wire: it follows from [lo] and the layout,
   and [chunk_result_of_json] fills it in once the record is checked
   against it. *)
let chunk_codec =
  C.record
    (fun c_lo c_len c_vals c_failed -> { c_index = -1; c_lo; c_len; c_vals; c_failed })
    [ C.req "lo" C.int (fun r -> r.c_lo);
      C.req "len" C.int (fun r -> r.c_len);
      C.req "vals" (C.array (C.array C.hexfloat)) (fun r -> r.c_vals);
      C.req "failed" (C.list failed_point_codec) (fun r -> r.c_failed) ]

let chunk_result_to_json = C.encode chunk_codec

let chunk_result_of_json ?file p record =
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
      bad "%s%s" (C.error_to_string e) point
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
  (* The writer lists failed points strictly ascending, which is what
     lets [finish] concatenate the chunks' lists. *)
  ignore
    (List.fold_left
       (fun (j, prev) fp ->
         if fp.point < lo || fp.point >= lo + len then
           bad "failed point %d outside its chunk [%d, +%d)" fp.point lo len;
         if fp.point <= prev then
           bad "$.failed[%d]: failed point %d does not follow point %d (failed points ascend)"
             j fp.point prev;
         (j + 1, fp.point))
       (0, lo - 1) r.c_failed);
  { r with c_index = idx }

(* ------------------------------------------------------------------ *)
(* Merge + statistics: deterministic in the chunk-index order of the
   results array, independent of which domain or node produced each
   chunk. *)

(* [f li] for each point [r.c_lo + li] of chunk [r] that survived, in
   ascending order. *)
let iter_survivors r f =
  let next = ref r.c_failed in
  for li = 0 to r.c_len - 1 do
    match !next with
    | fp :: rest when fp.point = r.c_lo + li -> next := rest
    | _ -> f li
  done

let finish p (results : chunk_result option array) =
  let chunks =
    Array.mapi
      (fun i -> function
        | Some r -> r
        | None -> Err.errorf Internal ~where:"sweep.finish" "chunk %d was never evaluated" i)
      results
  in
  let n = p.p_n in
  let marr = p.p_marr in
  (* Each chunk lists its failed points ascending, inside the chunk, and
     the chunks ascend too. *)
  let failed = List.concat_map (fun r -> r.c_failed) (Array.to_list chunks) in
  let n_survive = n - List.length failed in
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
  let index_of m =
    let rec go j = if marr.(j) = m then j else go (j + 1) in
    go 0
  in
  let specs = Array.of_list p.p_specs in
  let rows = Array.map (fun s -> index_of s.measure) specs in
  let ok = Array.make (Array.length specs) 0 and joint = ref 0 in
  if specs <> [||] then
    Array.iter
      (fun r ->
        iter_survivors r (fun li ->
            let all = ref true in
            for k = 0 to Array.length specs - 1 do
              if passes specs.(k).bound r.c_vals.(rows.(k)).(li) then ok.(k) <- ok.(k) + 1
              else all := false
            done;
            if !all then incr joint))
      chunks;
  let fraction k = float_of_int k /. float_of_int n_survive in
  let spec_yields = Array.to_list (Array.mapi (fun k s -> (s, fraction ok.(k))) specs) in
  let yield = if specs = [||] then None else Some (fraction !joint) in
  (* Each measure's surviving values go, in point order, to one array
     that its summary then takes over. *)
  let values = Array.create_float n_survive in
  let summaries =
    Array.to_list
      (Array.mapi
         (fun j m ->
           let w = ref 0 in
           Array.iter
             (fun r ->
               let row = r.c_vals.(j) in
               if r.c_failed = [] then begin
                 Array.blit row 0 values !w r.c_len;
                 w := !w + r.c_len
               end
               else
                 iter_survivors r (fun li ->
                     values.(!w) <- row.(li);
                     incr w))
             chunks;
           (m, Stats.summarize_into values))
         marr)
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

(* The checkpoint step of [run] and the distributed coordinator: the
   chunk slots, restored chunks filled in, and the append of each newly
   completed chunk.  The writer never records a chunk twice, so a second
   record for one is corrupt. *)
let restore ?checkpoint ?(resume = false) p =
  let results = Array.make (Array.length p.p_chunks) None in
  let record =
    match checkpoint with
    | None -> ignore
    | Some path ->
      let ck =
        Checkpoint.open_ ~where:"sweep.checkpoint" ~key:p.p_key ~resume path
          (fun _ j ->
            let r = chunk_result_of_json p j in
            if results.(r.c_index) <> None then
              Err.errorf Artifact_corrupt ~where:"sweep.checkpoint"
                "second record for chunk %d" r.c_index;
            results.(r.c_index) <- Some r)
      in
      fun r -> Checkpoint.record ck (chunk_result_to_json r)
  in
  (results, record)

let evaluate ?jobs ?checkpoint ?resume p =
  let results, record = restore ?checkpoint ?resume p in
  Runtime.iter_chunks ?jobs ~n:p.p_n ~block:p.p_block
    (fun ~worker:_ (c : Runtime.Chunk.t) ->
      if results.(c.index) = None then begin
        let r = eval_chunk p c.index in
        results.(c.index) <- Some r;
        record r
      end);
  results

let run ?(seed = 42) ?block ?jobs ?measures ?specs ?policy ?checkpoint ?resume
    model plan =
  Obs.Span.with_ ~name:"sweep.run" @@ fun () ->
  (* Resolved once for the sampling and the chunks, so a capped request
     counts once. *)
  let jobs = Runtime.resolve_jobs jobs in
  let p = prepare ~seed ?block ~jobs ?measures ?specs ?policy model plan in
  if !Obs.enabled then begin
    Obs.Metrics.incr "sweep.run.count";
    Obs.Metrics.add "sweep.run.points" p.p_n
  end;
  finish p (evaluate ~jobs ?checkpoint ?resume p)

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
