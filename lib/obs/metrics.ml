(* Named monotonic counters and log-scale histograms.  Writers are no-ops
   while the subsystem is disabled; readers always see whatever the last
   enabled run accumulated, so a CLI can disable recording before printing
   its report. *)

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
  buckets : int array; (* power-of-two buckets, index = exponent + bias *)
}

type stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list; (* (upper bound, count), non-empty only *)
}

let bias = 64
let num_buckets = 160

let mutex = Mutex.create ()
let counters : (string, int ref) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

(* Gauges are set-valued (last write wins) so they are never sharded:
   occupancy numbers like queue depth only make sense as a single current
   value, and writes are rare enough that the mutex is fine. *)
let gauges : (string, float ref) Hashtbl.t = Hashtbl.create 16

(* Per-domain shards: a pool worker records into private tables (no
   mutex, no cross-domain cache traffic on the hot path) and merges them
   into the global tables when its generation ends, so totals stay exact
   under parallel execution. *)
type shard = {
  s_counters : (string, int ref) Hashtbl.t;
  s_histograms : (string, histogram) Hashtbl.t;
}

let shard_key : shard option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let reset () =
  Mutex.lock mutex;
  Hashtbl.reset counters;
  Hashtbl.reset histograms;
  Hashtbl.reset gauges;
  Mutex.unlock mutex

let bump tbl name by =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add tbl name (ref by)

let incr ?(by = 1) name =
  if !Config.enabled then
    match !(Domain.DLS.get shard_key) with
    | Some sh -> bump sh.s_counters name by
    | None ->
      Mutex.lock mutex;
      bump counters name by;
      Mutex.unlock mutex

let add name by = incr ~by name

(* v lies in [2^(e-1), 2^e) with e = frexp exponent, so bucket e holds it
   and 2^e is the bucket's upper bound.  Non-positive values land in
   bucket 0. *)
let bucket_of v =
  if v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    Int.max 0 (Int.min (num_buckets - 1) (e + bias))

let bucket_bound idx = Float.ldexp 1.0 (idx - bias)

let find_or_create_histogram tbl name =
  match Hashtbl.find_opt tbl name with
  | Some h -> h
  | None ->
    let h : histogram =
      {
        count = 0;
        sum = 0.0;
        min = Float.infinity;
        max = Float.neg_infinity;
        buckets = Array.make num_buckets 0;
      }
    in
    Hashtbl.add tbl name h;
    h

let record (h : histogram) v =
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  h.min <- Float.min h.min v;
  h.max <- Float.max h.max v;
  let idx = bucket_of v in
  h.buckets.(idx) <- h.buckets.(idx) + 1

let observe name v =
  if !Config.enabled then
    match !(Domain.DLS.get shard_key) with
    | Some sh -> record (find_or_create_histogram sh.s_histograms name) v
    | None ->
      Mutex.lock mutex;
      record (find_or_create_histogram histograms name) v;
      Mutex.unlock mutex

let merge_shard sh =
  if Hashtbl.length sh.s_counters > 0 || Hashtbl.length sh.s_histograms > 0
  then begin
    Mutex.lock mutex;
    Hashtbl.iter (fun name r -> bump counters name !r) sh.s_counters;
    Hashtbl.iter
      (fun name (h : histogram) ->
        let g = find_or_create_histogram histograms name in
        g.count <- g.count + h.count;
        g.sum <- g.sum +. h.sum;
        g.min <- Float.min g.min h.min;
        g.max <- Float.max g.max h.max;
        Array.iteri
          (fun i c -> if c > 0 then g.buckets.(i) <- g.buckets.(i) + c)
          h.buckets)
      sh.s_histograms;
    Mutex.unlock mutex
  end

let with_shard f =
  let slot = Domain.DLS.get shard_key in
  match !slot with
  | Some _ -> f () (* already sharded on this domain; nest transparently *)
  | None ->
    let sh =
      { s_counters = Hashtbl.create 16; s_histograms = Hashtbl.create 16 }
    in
    slot := Some sh;
    Fun.protect
      ~finally:(fun () ->
        slot := None;
        merge_shard sh)
      f

let counter name =
  Mutex.lock mutex;
  let v = match Hashtbl.find_opt counters name with Some r -> !r | None -> 0 in
  Mutex.unlock mutex;
  v

(* Sort by name only: the payloads may carry floats (histogram stats can
   hold NaN for empty series), and polymorphic compare over those is a
   trap.  Name-keyed order is also what goldens want. *)
let by_name (a, _) (b, _) = String.compare a b

let counters_list () =
  Mutex.lock mutex;
  let out = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counters [] in
  Mutex.unlock mutex;
  List.sort by_name out

let set_gauge name v =
  if !Config.enabled then begin
    Mutex.lock mutex;
    (match Hashtbl.find_opt gauges name with
    | Some r -> r := v
    | None -> Hashtbl.add gauges name (ref v));
    Mutex.unlock mutex
  end

let gauge name =
  Mutex.lock mutex;
  let v = Option.map ( ! ) (Hashtbl.find_opt gauges name) in
  Mutex.unlock mutex;
  v

let gauges_list () =
  Mutex.lock mutex;
  let out = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) gauges [] in
  Mutex.unlock mutex;
  List.sort by_name out

let stats_of (h : histogram) : stats =
  let buckets = ref [] in
  for idx = num_buckets - 1 downto 0 do
    if h.buckets.(idx) > 0 then
      buckets := (bucket_bound idx, h.buckets.(idx)) :: !buckets
  done;
  { count = h.count; sum = h.sum; min = h.min; max = h.max; buckets = !buckets }

let histogram name =
  Mutex.lock mutex;
  let out = Option.map stats_of (Hashtbl.find_opt histograms name) in
  Mutex.unlock mutex;
  out

let histograms_list () =
  Mutex.lock mutex;
  let out =
    Hashtbl.fold (fun name h acc -> (name, stats_of h) :: acc) histograms []
  in
  Mutex.unlock mutex;
  List.sort by_name out

let mean s = if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

(* Quantile estimate from the log-scale buckets: find the bucket holding
   the q-th sample and interpolate linearly inside it.  Each bucket spans
   [upper/2, upper); the extremes are clamped to the observed min/max, so
   q=0 and q=1 are exact. *)
let quantile s q =
  if s.count = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int s.count in
    let rec walk seen = function
      | [] -> s.max
      | (upper, c) :: rest ->
        let seen' = seen +. float_of_int c in
        if seen' >= target && c > 0 then begin
          let lo = Float.max s.min (upper /. 2.0) in
          let hi = Float.min s.max upper in
          let frac = (target -. seen) /. float_of_int c in
          lo +. (frac *. (hi -. lo))
        end
        else walk seen' rest
    in
    walk 0.0 s.buckets
  end

(* Prometheus text exposition (version 0.0.4).  Metric names keep only
   [a-zA-Z0-9_:]; the dotted internal names map dots to underscores under
   an `awesym_` namespace.  Histograms surface as summaries: quantile
   series computed from the log-scale buckets, plus _sum and _count. *)
let prometheus_name n =
  let b = Bytes.of_string ("awesym_" ^ n) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

let prometheus_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" v

let to_prometheus () =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (n, v) ->
      let pn = prometheus_name n in
      line "# TYPE %s counter\n" pn;
      line "%s %d\n" pn v)
    (counters_list ());
  List.iter
    (fun (n, v) ->
      let pn = prometheus_name n in
      line "# TYPE %s gauge\n" pn;
      line "%s %s\n" pn (prometheus_float v))
    (gauges_list ());
  List.iter
    (fun (n, s) ->
      let pn = prometheus_name n in
      line "# TYPE %s summary\n" pn;
      List.iter
        (fun q ->
          line "%s{quantile=\"%g\"} %s\n" pn q
            (prometheus_float (quantile s q)))
        [ 0.5; 0.9; 0.99 ];
      line "%s_sum %s\n" pn (prometheus_float s.sum);
      line "%s_count %d\n" pn s.count)
    (histograms_list ());
  Buffer.contents buf

let pp_table ppf () =
  Format.fprintf ppf "@[<v>";
  let cs = counters_list () in
  if cs <> [] then begin
    Format.fprintf ppf "%-42s %12s@," "counter" "value";
    List.iter (fun (n, v) -> Format.fprintf ppf "%-42s %12d@," n v) cs
  end;
  let gs = gauges_list () in
  if gs <> [] then begin
    if cs <> [] then Format.fprintf ppf "@,";
    Format.fprintf ppf "%-42s %12s@," "gauge" "value";
    List.iter (fun (n, v) -> Format.fprintf ppf "%-42s %12.4g@," n v) gs
  end;
  let hs = histograms_list () in
  if hs <> [] then begin
    if cs <> [] || gs <> [] then Format.fprintf ppf "@,";
    Format.fprintf ppf "%-42s %8s %10s %10s %10s %10s@," "histogram" "count"
      "min" "p50" "p99" "max";
    List.iter
      (fun (n, s) ->
        Format.fprintf ppf "%-42s %8d %10.4g %10.4g %10.4g %10.4g@," n s.count
          s.min (quantile s 0.5) (quantile s 0.99) s.max)
      hs
  end;
  Format.fprintf ppf "@]"

(* Snapshots last: their [summary] record reuses the field names of
   [stats]. *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * summary) list;
}

let snapshot () =
  let summary (s : stats) =
    { count = s.count; sum = s.sum; min = s.min; max = s.max; mean = mean s;
      p50 = quantile s 0.5; p90 = quantile s 0.9; p99 = quantile s 0.99 }
  in
  { counters = counters_list ();
    gauges = gauges_list ();
    histograms = List.map (fun (n, s) -> (n, summary s)) (histograms_list ()) }

let snapshot_codec =
  let module C = Codec in
  (* A gauge or a histogram figure can be non-finite (an infinite
     objective, one NaN sample), which JSON cannot spell as a number: these
     tables alone name the three values as strings.  Inputs from outside
     the program keep [C.num], which refuses them. *)
  let reading =
    C.refine
      (function
        | Json.Num v when Float.is_finite v -> Ok v
        | Json.Str "inf" -> Ok Float.infinity
        | Json.Str "-inf" -> Ok Float.neg_infinity
        | Json.Str "nan" -> Ok Float.nan
        | _ -> Error "expected a number, \"inf\", \"-inf\" or \"nan\"")
      (fun v ->
        if Float.is_finite v then Json.Num v
        else if Float.is_nan v then Json.Str "nan"
        else Json.Str (if v > 0.0 then "inf" else "-inf"))
      C.json
  in
  let summary =
    C.record
      (fun count sum min max mean p50 p90 p99 -> { count; sum; min; max; mean; p50; p90; p99 })
      [ C.req "count" C.int (fun s -> s.count);
        C.req "sum" reading (fun s -> s.sum);
        C.req "min" reading (fun s -> s.min);
        C.req "max" reading (fun s -> s.max);
        C.req "mean" reading (fun s -> s.mean);
        C.req "p50" reading (fun s -> s.p50);
        C.req "p90" reading (fun s -> s.p90);
        C.req "p99" reading (fun s -> s.p99) ]
  in
  C.record
    (fun counters gauges histograms -> { counters; gauges; histograms })
    [ C.req "counters" (C.dict C.int) (fun s -> s.counters);
      C.req "gauges" (C.dict reading) (fun s -> s.gauges);
      C.req "histograms" (C.dict summary) (fun s -> s.histograms) ]
