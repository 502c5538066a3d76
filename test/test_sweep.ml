(* Tests for the sweep engine: distributions, plans, statistics, and the
   batched Monte-Carlo pipeline — including the acceptance criterion that a
   10,000-point sweep through the batch kernel matches a per-point
   [Model.eval_moments] loop to 1e-12 relative error (it is in fact
   bit-identical). *)

module Netlist = Circuit.Netlist
module Builders = Circuit.Builders
module Sym = Symbolic.Symbol
module Slp = Symbolic.Slp
module Model = Awesymbolic.Model
module Dist = Sweep.Dist
module Plan = Sweep.Plan
module Stats = Sweep.Stats
module Engine = Sweep.Engine

let check_float ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" name expected actual

let fig1_c1_g2 () =
  let nl = Builders.fig1 () in
  let nl = Netlist.mark_symbolic nl "C1" (Sym.intern "C1") in
  Netlist.mark_symbolic nl "G2" (Sym.intern "G2")

let fig1_model = lazy (Model.build ~order:2 (fig1_c1_g2 ()))

let plan_c1_g2 kind =
  Plan.make kind
    [
      { Plan.name = "C1"; dist = Dist.uniform ~lo:0.5 ~hi:2.0 };
      { Plan.name = "G2"; dist = Dist.uniform ~lo:0.5 ~hi:2.0 };
    ]

let columns model plan ~seed =
  Plan.columns
    ~symbols:(Array.map Sym.name (Model.symbols model))
    ~nominals:(Model.nominal_values model)
    ~rng:(Obs.Rng.create seed) plan

(* ------------------------------------------------------------------ *)
(* Distributions *)

let test_dist_uniform () =
  let d = Dist.uniform ~lo:2.0 ~hi:4.0 in
  check_float "median" 3.0 (Dist.quantile d 0.5);
  check_float "lo quantile" 2.0 (Dist.quantile d 0.0);
  check_float "hi quantile" 4.0 (Dist.quantile d 1.0);
  let lo, hi = Dist.bounds d in
  check_float "bounds lo" 2.0 lo;
  check_float "bounds hi" 4.0 hi;
  let rng = Obs.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Dist.sample d rng in
    if v < 2.0 || v >= 4.0 then Alcotest.failf "sample %g escapes support" v
  done

let test_dist_normal () =
  let d = Dist.normal ~mean:5.0 ~std:2.0 in
  check_float "median is the mean" 5.0 (Dist.quantile d 0.5);
  (* Φ⁻¹(0.975) = 1.959964…: the Acklam approximation must be accurate. *)
  check_float ~tol:1e-8 "97.5% quantile" (5.0 +. (1.9599639845400545 *. 2.0))
    (Dist.quantile d 0.975);
  let lo, hi = Dist.bounds d in
  check_float "lo = mean - 3 std" (-1.0) lo;
  check_float "hi = mean + 3 std" 11.0 hi;
  (* Sample moments converge on the parameters. *)
  let rng = Obs.Rng.create 2 in
  let n = 20000 in
  let samples = Array.init n (fun _ -> Dist.sample d rng) in
  let s = Stats.summarize samples in
  check_float ~tol:5e-2 "sample mean" 5.0 s.Stats.mean;
  check_float ~tol:5e-2 "sample std" 2.0 s.Stats.std

let test_dist_lognormal () =
  let d = Dist.lognormal ~mu:0.0 ~sigma:0.5 in
  check_float "median = exp(mu)" 1.0 (Dist.quantile d 0.5);
  let rng = Obs.Rng.create 3 in
  for _ = 1 to 1000 do
    if Dist.sample d rng <= 0.0 then Alcotest.fail "lognormal must be positive"
  done

let test_dist_around () =
  match Dist.around ~nominal:100.0 ~pct:5.0 with
  | Dist.Uniform { lo; hi } ->
    check_float "lo" 95.0 lo;
    check_float "hi" 105.0 hi
  | _ -> Alcotest.fail "around is a uniform band"

let test_dist_guards () =
  let rejected f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid distribution accepted"
  in
  rejected (fun () -> Dist.uniform ~lo:1.0 ~hi:1.0);
  rejected (fun () -> Dist.normal ~mean:0.0 ~std:0.0);
  rejected (fun () -> Dist.lognormal ~mu:0.0 ~sigma:(-1.0));
  rejected (fun () -> Dist.around ~nominal:0.0 ~pct:10.0);
  rejected (fun () -> Dist.quantile (Dist.uniform ~lo:0.0 ~hi:1.0) 1.5)

(* ------------------------------------------------------------------ *)
(* Plans *)

let test_plan_guards () =
  let axis = { Plan.name = "x"; dist = Dist.uniform ~lo:0.0 ~hi:1.0 } in
  let rejected f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid plan accepted"
  in
  rejected (fun () -> Plan.make (Plan.Monte_carlo 10) []);
  rejected (fun () -> Plan.make (Plan.Monte_carlo 0) [ axis ]);
  rejected (fun () -> Plan.make (Plan.Grid 1) [ axis ]);
  rejected (fun () -> Plan.make (Plan.Monte_carlo 10) [ axis; axis ])

let test_plan_sizes () =
  let p = plan_c1_g2 (Plan.Monte_carlo 123) in
  Alcotest.(check int) "mc points" 123 (Plan.num_points p);
  Alcotest.(check int) "corner points" 4
    (Plan.num_points (plan_c1_g2 Plan.Corners));
  Alcotest.(check int) "grid points" 25
    (Plan.num_points (plan_c1_g2 (Plan.Grid 5)))

let test_plan_unknown_symbol () =
  let model = Lazy.force fig1_model in
  let p =
    Plan.make (Plan.Monte_carlo 4)
      [ { Plan.name = "R99"; dist = Dist.uniform ~lo:0.0 ~hi:1.0 } ]
  in
  match columns model p ~seed:1 with
  | exception Awesym_error.Error { kind = Awesym_error.Invalid_request; _ } -> ()
  | _ -> Alcotest.fail "unknown swept symbol accepted"

let test_plan_pins_unswept_at_nominal () =
  let model = Lazy.force fig1_model in
  let p =
    Plan.make (Plan.Monte_carlo 8)
      [ { Plan.name = "C1"; dist = Dist.uniform ~lo:0.5 ~hi:2.0 } ]
  in
  let cols = columns model p ~seed:5 in
  let nominals = Model.nominal_values model in
  (* fig1's G2 slot stays at its netlist value in every lane. *)
  let syms = Array.map Sym.name (Model.symbols model) in
  Array.iteri
    (fun k name ->
      if name = "G2" then
        Array.iter (fun v -> check_float "pinned G2" nominals.(k) v) cols.(k))
    syms

let test_plan_lhs_stratified () =
  (* Latin hypercube: each axis places exactly one sample in each of the n
     equal-probability strata. *)
  let n = 16 in
  let lo = 0.5 and hi = 2.0 in
  let model = Lazy.force fig1_model in
  let p = plan_c1_g2 (Plan.Latin_hypercube n) in
  let cols = columns model p ~seed:11 in
  Array.iter
    (fun col ->
      let counts = Array.make n 0 in
      Array.iter
        (fun v ->
          let u = (v -. lo) /. (hi -. lo) in
          let s = Int.min (n - 1) (int_of_float (u *. float_of_int n)) in
          counts.(s) <- counts.(s) + 1)
        col;
      Array.iteri
        (fun s c ->
          if c <> 1 then Alcotest.failf "stratum %d holds %d samples" s c)
        counts)
    cols

let test_plan_corners () =
  let model = Lazy.force fig1_model in
  let p = plan_c1_g2 Plan.Corners in
  let cols = columns model p ~seed:1 in
  Alcotest.(check int) "4 corner points" 4 (Array.length cols.(0));
  (* All four (lo|hi, lo|hi) combinations appear exactly once. *)
  let seen = Hashtbl.create 4 in
  for i = 0 to 3 do
    Hashtbl.replace seen (cols.(0).(i), cols.(1).(i)) ()
  done;
  Alcotest.(check int) "distinct corners" 4 (Hashtbl.length seen);
  Hashtbl.iter
    (fun (a, b) () ->
      if not (List.mem a [ 0.5; 2.0 ]) || not (List.mem b [ 0.5; 2.0 ]) then
        Alcotest.failf "corner (%g, %g) is not at the bounds" a b)
    seen

let test_plan_grid () =
  let model = Lazy.force fig1_model in
  let p = plan_c1_g2 (Plan.Grid 4) in
  let cols = columns model p ~seed:1 in
  Alcotest.(check int) "16 grid points" 16 (Array.length cols.(0));
  (* Evenly spaced lines spanning the bounds, axis 0 varying fastest. *)
  check_float "first line" 0.5 cols.(0).(0);
  check_float "second line" 1.0 cols.(0).(1);
  check_float "last line" 2.0 cols.(0).(3);
  check_float "axis 1 held" cols.(1).(0) cols.(1).(3);
  check_float "axis 1 advances" 1.0 cols.(1).(4)

let test_plan_determinism () =
  let model = Lazy.force fig1_model in
  let p = plan_c1_g2 (Plan.Monte_carlo 64) in
  let a = columns model p ~seed:9 and b = columns model p ~seed:9 in
  Alcotest.(check bool) "same seed, same points" true (a = b);
  let c = columns model p ~seed:10 in
  Alcotest.(check bool) "different seed, different points" true (a <> c)

(* The parallel determinism contract: any jobs count produces exactly the
   draws, points, and reports of jobs = 1. *)

let test_plan_columns_jobs_invariant () =
  let model = Lazy.force fig1_model in
  (* Mixed draw widths (uniform = 1 draw/point, normal = 2) exercise the
     per-chunk RNG skip arithmetic. *)
  let mixed =
    Plan.make (Plan.Monte_carlo 4097)
      [
        { Plan.name = "C1"; dist = Dist.uniform ~lo:0.5 ~hi:2.0 };
        { Plan.name = "G2"; dist = Dist.normal ~mean:1.0 ~std:0.2 };
      ]
  in
  let at plan ?jobs () =
    Plan.columns
      ~symbols:(Array.map Sym.name (Model.symbols model))
      ~nominals:(Model.nominal_values model)
      ~rng:(Obs.Rng.create 42) ?jobs plan
  in
  List.iter
    (fun plan ->
      let seq = at plan ~jobs:1 () in
      List.iter
        (fun jobs ->
          if at plan ~jobs () <> seq then
            Alcotest.failf "columns differ at jobs=%d" jobs)
        [ 2; 4 ])
    [
      mixed;
      plan_c1_g2 (Plan.Latin_hypercube 512);
      plan_c1_g2 (Plan.Grid 23);
      plan_c1_g2 Plan.Corners;
    ]

let test_eval_batch_jobs_invariant () =
  let model = Lazy.force fig1_model in
  let n = 10_000 in
  let plan = plan_c1_g2 (Plan.Monte_carlo n) in
  let cols = columns model plan ~seed:42 in
  let seq = Slp.eval_batch ~jobs:1 (Model.program model) cols in
  let par = Slp.eval_batch ~jobs:4 (Model.program model) cols in
  Array.iteri
    (fun j row ->
      Array.iteri
        (fun i v ->
          if Int64.bits_of_float v <> Int64.bits_of_float par.(j).(i) then
            Alcotest.failf "output %d lane %d differs across jobs" j i)
        row)
    seq

let test_engine_json_jobs_invariant () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 10_000) in
  let specs = [ { Engine.measure = Engine.Dc_gain; bound = Engine.Ge 0.9 } ] in
  let report jobs =
    Obs.Json.to_string
      (Engine.to_json (Engine.run ~seed:42 ~jobs ~specs model plan))
  in
  let seq = report 1 in
  List.iter
    (fun jobs ->
      if report jobs <> seq then
        Alcotest.failf "sweep JSON differs at jobs=%d" jobs)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Statistics *)

let test_stats_basic () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check int) "n" 5 s.Stats.n;
  Alcotest.(check int) "finite" 5 s.Stats.finite;
  check_float "mean" 3.0 s.Stats.mean;
  check_float "std" (Float.sqrt 2.5) s.Stats.std;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 5.0 s.Stats.max;
  check_float "median" 3.0 (List.assoc 0.5 s.Stats.quantiles);
  (* Hyndman–Fan type 7 on [1..5]: q(0.25) = 2. *)
  check_float "first quartile" 2.0 (List.assoc 0.25 s.Stats.quantiles);
  let total = Array.fold_left (fun a (_, _, c) -> a + c) 0 s.Stats.histogram in
  Alcotest.(check int) "histogram covers all samples" 5 total

let test_stats_non_finite () =
  let s = Stats.summarize [| 1.0; Float.nan; 3.0; Float.infinity |] in
  Alcotest.(check int) "n counts everything" 4 s.Stats.n;
  Alcotest.(check int) "finite excludes NaN/inf" 2 s.Stats.finite;
  check_float "mean over finite only" 2.0 s.Stats.mean;
  let all_nan = Stats.summarize [| Float.nan; Float.nan |] in
  Alcotest.(check bool) "all-NaN mean is NaN" true (Float.is_nan all_nan.Stats.mean);
  Alcotest.(check int) "all-NaN histogram empty" 0
    (Array.length all_nan.Stats.histogram)

(* Reference summary: the boxed folds and [Array.sort compare] the
   allocation-free [Stats.summarize] must reproduce bit for bit, with the
   scaled recomputation of a mean or std whose plain sum overflowed, the
   histogram and interpolation in halves where a difference they take
   overflows, the histogram scaled up where the spread is subnormal, and
   the deviations scaled up where the largest of them squares to a
   subnormal. *)
let reference_summarize xs =
  let bins = 20 and probs = Stats.default_probs in
  let n = Array.length xs in
  let finite = Array.of_seq (Seq.filter Float.is_finite (Array.to_seq xs)) in
  let nf = Array.length finite in
  if nf = 0 then
    { Stats.n; finite = 0; mean = nan; std = nan; min = nan; max = nan;
      quantiles = List.map (fun p -> (p, nan)) probs; histogram = [||] }
  else begin
    let fn = float_of_int nf in
    let mean = Array.fold_left ( +. ) 0.0 finite /. fn in
    let mean =
      if Float.is_finite mean then mean
      else Array.fold_left (fun acc x -> acc +. (x /. fn)) 0.0 finite
    in
    let sum_sq ds = Array.fold_left (fun acc d -> acc +. (d *. d)) 0.0 ds in
    let sorted = Array.copy finite in
    Array.sort compare sorted;
    let mn = sorted.(0) and mx = sorted.(nf - 1) in
    (* A nonzero subnormal spread is binned on the values scaled by
       2^1022; deviations whose largest is below 2^-511 are squared on
       the values scaled by 2^600. *)
    let tiny = mn < mx && mx -. mn < Float.min_float in
    let dev = Float.max (mx -. mean) (mean -. mn) in
    let std =
      if nf < 2 then 0.0
      else if dev > 0.0 && dev < 0x1p-511 then
        sqrt
          (sum_sq (Array.map (fun x -> (x *. 0x1p600) -. (mean *. 0x1p600)) finite)
          /. float_of_int (nf - 1))
        /. 0x1p600
      else begin
        let plain =
          sqrt (sum_sq (Array.map (fun x -> x -. mean) finite) /. float_of_int (nf - 1))
        in
        if Float.is_finite plain then plain
        else begin
          let half = Array.map (fun x -> (x *. 0.5) -. (mean *. 0.5)) finite in
          let s = Array.fold_left (fun acc h -> Float.max acc (Float.abs h)) 0.0 half in
          2.0 *. s
          *. sqrt (sum_sq (Array.map (fun h -> h /. s) half) /. float_of_int (nf - 1))
        end
      end
    in
    let quantile p =
      if nf = 1 then sorted.(0)
      else begin
        let h = p *. float_of_int (nf - 1) in
        let lo = int_of_float (Float.floor h) in
        let lo = if lo >= nf - 1 then nf - 2 else if lo < 0 then 0 else lo in
        let frac = h -. float_of_int lo in
        let a = sorted.(lo) and b = sorted.(lo + 1) in
        if Float.is_finite (b -. a) then a +. (frac *. (b -. a))
        else (* in halves *)
          2.0 *. ((a *. 0.5) +. (frac *. ((b *. 0.5) -. (a *. 0.5))))
      end
    in
    (* Bins on the values scaled by [s]: in halves where the width
       overflows, by 2^1022 where it is subnormal. *)
    let scaled_bins s =
      let counts = Array.make bins 0 in
      let w = ((mx *. s) -. (mn *. s)) /. float_of_int bins in
      Array.iter
        (fun x ->
          let b = int_of_float (((x *. s) -. (mn *. s)) /. w) in
          let b = if b >= bins then bins - 1 else b in
          counts.(b) <- counts.(b) + 1)
        finite;
      Array.mapi
        (fun b c ->
          ( ((mn *. s) +. (float_of_int b *. w)) /. s,
            (if b = bins - 1 then mx else ((mn *. s) +. (float_of_int (b + 1) *. w)) /. s),
            c ))
        counts
    in
    let histogram =
      if mn = mx then [| (mn, mx, nf) |]
      else if tiny then scaled_bins 0x1p1022
      else if Float.is_finite (mx -. mn) then begin
        let counts = Array.make bins 0 in
        let w = (mx -. mn) /. float_of_int bins in
        Array.iter
          (fun x ->
            let b = int_of_float ((x -. mn) /. w) in
            let b = if b >= bins then bins - 1 else b in
            counts.(b) <- counts.(b) + 1)
          finite;
        Array.mapi
          (fun b c ->
            ( mn +. (float_of_int b *. w),
              (if b = bins - 1 then mx else mn +. (float_of_int (b + 1) *. w)),
              c ))
          counts
      end
      else scaled_bins 0.5
    in
    { Stats.n; finite = nf; mean; std; min = mn; max = mx;
      quantiles = List.map (fun p -> (p, quantile p)) probs; histogram }
  end

let summary_bits (s : Stats.summary) =
  let b = Int64.bits_of_float in
  ( (s.n, s.finite, b s.mean, b s.std, b s.min, b s.max),
    List.map (fun (p, v) -> (b p, b v)) s.quantiles,
    Array.map (fun (lo, hi, c) -> (b lo, b hi, c)) s.histogram )

let check_summary what xs =
  let want = reference_summarize xs and got = Stats.summarize xs in
  if summary_bits want <> summary_bits got then
    Alcotest.failf "%s: summary differs from the Array.sort compare reference" what

(* Samples built to defeat a bucketed selection: equal values but one,
   geometric spreads (powers of two) and heavy tails, which pile nearly
   everything into one bucket; subnormals; spreads whose [max - min]
   overflows; both signed zeros; and, as a control, uniform values.
   Drawn from [seed], so a failing case prints in a line. *)
let select_sample shape n seed =
  let rng = Random.State.make [| seed |] in
  let u () = Random.State.float rng 1.0 in
  let sign () = if Random.State.bool rng then 1.0 else -1.0 in
  match shape with
  | 0 ->
    let v = sign () *. u () and o = sign () *. Float.ldexp (u ()) (Random.State.int rng 2000 - 1000) in
    let at = Random.State.int rng n in
    Array.init n (fun i -> if i = at then o else v)
  | 1 -> Array.init n (fun _ -> Float.ldexp 1.0 (Random.State.int rng 2046 - 1022))
  | 2 -> Array.init n (fun _ -> sign () *. ((1.0 /. (u () +. 1e-300)) ** 3.0))
  | 3 -> Array.init n (fun _ -> sign () *. Int64.float_of_bits (Random.State.int64 rng 0x10_0000_0000_0000L))
  | 4 ->
    Array.init n (fun _ ->
        if u () < 0.1 then sign () *. max_float *. (0.5 +. (u () /. 2.0)) else sign () *. u ())
  | 5 ->
    Array.init n (fun _ ->
        match Random.State.int rng 3 with 0 -> 0.0 | 1 -> -0.0 | _ -> sign () *. u ())
  | _ -> Array.init n (fun _ -> u ())

let test_stats_matches_reference () =
  let n = 5000 in
  let ramp = Array.init n (fun i -> float_of_int i *. 0.37) in
  check_summary "sorted" ramp;
  check_summary "reversed" (Array.init n (fun i -> ramp.(n - 1 - i)));
  check_summary "constant" (Array.make n 2.5);
  check_summary "two-valued" (Array.init n (fun i -> if i mod 3 = 0 then 1.0 else -4.0));
  check_summary "signed zeros" (Array.init n (fun i -> if i mod 2 = 0 then 0.0 else -0.0));
  (* Every arrangement of -0.0 and 0.0 up to length 10: ties the sort
     must break exactly as Array.sort compare does, exposed through the
     min/max bits. *)
  for len = 1 to 10 do
    for mask = 0 to (1 lsl len) - 1 do
      check_summary "signed-zero arrangement"
        (Array.init len (fun i -> if mask land (1 lsl i) = 0 then 0.0 else -0.0))
    done
  done;
  check_summary "one element" [| 42.0 |];
  check_summary "one finite among non-finite" [| nan; 7.0; infinity |];
  check_summary "three subnormals" [| 0.0; 5e-324; 1e-323 |];
  check_summary "a subnormal ramp"
    (Array.init n (fun i -> Float.ldexp (float_of_int (i mod 997)) (-1074)));
  check_summary "signed subnormals"
    (Array.init n (fun i ->
         Float.ldexp (float_of_int (if i mod 2 = 0 then i else -i)) (-1074)));
  check_summary "normal values with a subnormal spread"
    (Array.init n (fun i -> 0x1p-1000 +. Float.ldexp (float_of_int (i * 7919 mod n)) (-1052)));
  for shape = 0 to 6 do
    check_summary (Printf.sprintf "shape %d" shape) (select_sample shape 20_000 1)
  done

let prop_stats_matches_reference =
  let sample =
    QCheck2.Gen.(
      oneof
        [
          float_range (-1e3) 1e3;
          oneofl [ 0.0; -0.0; 1.0; -1.0; nan; infinity; neg_infinity ];
          map Int64.float_of_bits int64;
        ])
  in
  (* Signed subnormals and zeros only: a subnormal spread. *)
  let subnormal =
    QCheck2.Gen.map
      (fun b -> Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL))
      QCheck2.Gen.int64
  in
  QCheck2.Test.make ~name:"summarize ≡ Array.sort compare reference" ~count:300
    ~print:QCheck2.Print.(array float)
    QCheck2.Gen.(oneof [ array_size (1 -- 300) sample; array_size (1 -- 300) subnormal ])
    (fun xs ->
      check_summary "random" xs;
      true)

(* Finite samples whose plain sums overflow: 50 values between -1.34e200
   and -7.5e199 square their deviations past the largest float, and 50
   near 1e307 also overflow the sum behind the mean.  Both are checked
   against the plain formulas on the samples scaled by an exact power of
   two. *)
let test_stats_huge_values () =
  let rng = Random.State.make [| 29 |] in
  let plain ys =
    let n = float_of_int (Array.length ys) in
    let mean = Array.fold_left ( +. ) 0.0 ys /. n in
    let ss = Array.fold_left (fun acc y -> acc +. ((y -. mean) *. (y -. mean))) 0.0 ys in
    (mean, sqrt (ss /. (n -. 1.0)))
  in
  List.iter
    (fun (what, lo, hi, mean_overflows) ->
      let xs = Array.init 50 (fun _ -> lo +. Random.State.float rng (hi -. lo)) in
      let naive_mean, naive_std = plain xs in
      Alcotest.(check bool) (what ^ ": plain std overflows") false (Float.is_finite naive_std);
      Alcotest.(check bool) (what ^ ": plain mean overflows") mean_overflows
        (not (Float.is_finite naive_mean));
      let mean, std = plain (Array.map (fun x -> Float.ldexp x (-700)) xs) in
      let s = Stats.summarize xs in
      check_float ~tol:1e-13 (what ^ ": mean") (Float.ldexp mean 700) s.Stats.mean;
      check_float ~tol:1e-13 (what ^ ": std") (Float.ldexp std 700) s.Stats.std;
      check_summary what xs)
    [ ("near -1e200", -1.34e200, -7.5e199, false); ("near 1e307", 1e307, 9e307, true) ]

(* Finite samples whose spread overflows: [max - min] is inf, so the
   histogram's width, indices and edges, and the interpolation between
   order statistics that far apart, are taken in halves.  Both are
   checked against the reference, and every reported number is finite. *)
let test_stats_overflowing_spread () =
  let four = [| -1e308; 1e308; 0.0; 5e307 |] in
  check_summary "four values spanning 2e308" four;
  let s = Stats.summarize four in
  Array.iter
    (fun (lo, hi, _) ->
      if not (Float.is_finite lo && Float.is_finite hi) then
        Alcotest.failf "bin [%h, %h] is not finite" lo hi)
    s.Stats.histogram;
  Alcotest.(check (list int)) "one value in each of four bins" [ 1; 1; 1; 1 ]
    (List.filter (fun c -> c > 0)
       (Array.to_list (Array.map (fun (_, _, c) -> c) s.Stats.histogram)));
  let two = [| -1.7e308; 1.7e308 |] in
  check_summary "two values spanning 3.4e308" two;
  let s = Stats.summarize two in
  List.iter
    (fun (p, v) ->
      if not (Float.is_finite v) then Alcotest.failf "p%.2f is %h" p v;
      check_float ~tol:1e-15 (Printf.sprintf "p%.2f" p) (2.0 *. ((-0.85e308) +. (p *. 1.7e308))) v)
    s.Stats.quantiles

(* Finite samples whose spread is nonzero and subnormal: the width
   [(max - min) / 20] and the squared deviations would underflow, so both
   are taken on the values scaled by 2^1022.  The probe's values, 0, 1
   and 2 units of the last place of the subnormals, land in three bins,
   the first and the last among them, and their standard deviation is
   one unit. *)
let test_stats_subnormal_spread () =
  let s = Stats.summarize [| 0.0; 5e-324; 1e-323 |] in
  Alcotest.(check int64) "std is one unit" (Int64.bits_of_float 5e-324)
    (Int64.bits_of_float s.Stats.std);
  let counts = Array.map (fun (_, _, c) -> c) s.Stats.histogram in
  Alcotest.(check (list int)) "one value in each of three bins" [ 1; 1; 1 ]
    (List.filter (fun c -> c > 0) (Array.to_list counts));
  Alcotest.(check (pair int int)) "the first and last bins hold one each" (1, 1)
    (counts.(0), counts.(19));
  List.iter
    (fun (what, xs) ->
      let s = Stats.summarize xs in
      if not (s.Stats.std > 0.0) then Alcotest.failf "%s: std %h" what s.Stats.std;
      if Array.exists (fun (_, _, c) -> c = Array.length xs) s.Stats.histogram then
        Alcotest.failf "%s: one bin holds every value" what)
    [
      ("subnormal ramp", Array.init 100 (fun i -> Float.ldexp (float_of_int i) (-1074)));
      ("normal values", Array.init 100 (fun i -> 0x1p-1000 +. Float.ldexp (float_of_int i) (-1052)));
    ]

(* Normal samples whose deviations square below the smallest normal:
   unscaled, the std of 0, 1e-200 and 2e-200 is 0 (each square is about
   1e-400), and that of 0 to 3e-160 in steps of 1e-160 keeps only four
   digits.  Both are exact to rounding when the deviations are taken
   scaled, and the other summaries keep the reference's bits. *)
let test_stats_tiny_deviations () =
  List.iter
    (fun (what, xs, want) ->
      let s = Stats.summarize xs in
      if Float.abs (s.Stats.std -. want) > 1e-15 *. want then
        Alcotest.failf "%s: std %.17g, want %.17g" what s.Stats.std want;
      check_summary what xs)
    [
      ("0 to 2e-200", [| 0.0; 1e-200; 2e-200 |], 1e-200);
      ("0 to 3e-160", [| 0.0; 1e-160; 2e-160; 3e-160 |], sqrt (5.0 /. 3.0) *. 1e-160);
      ("around 2^-600", Array.init 5 (fun i -> 0x1p-600 *. (1.0 +. float_of_int i)), sqrt 2.5 *. 0x1p-600);
    ]

(* [Stats.select_ranks] against [Array.sort compare] at every wanted
   rank, on the samples [select_sample] builds, at sizes 2 to 50 000. *)
let prop_select_ranks =
  let shapes =
    [| "one outlier"; "powers of two"; "heavy tail"; "subnormals"; "overflowing spread";
       "signed zeros"; "uniform" |]
  in
  let gen =
    QCheck2.Gen.(
      let* shape = int_range 0 (Array.length shapes - 1) in
      let* n = oneof [ int_range 2 40; int_range 41 3000; int_range 3000 50_000 ] in
      let* seed = int_range 0 1_000_000 in
      let* ranks = list_size (int_range 1 10) (int_range 0 (n - 1)) in
      return (shape, n, seed, List.sort_uniq compare ranks))
  in
  QCheck2.Test.make ~name:"select_ranks ≡ Array.sort compare at every wanted rank" ~count:150
    ~print:(fun (shape, n, seed, ranks) ->
      Printf.sprintf "%s, n %d, seed %d, ranks [%s]" shapes.(shape) n seed
        (String.concat "; " (List.map string_of_int ranks)))
    gen
    (fun (shape, n, seed, ranks) ->
      let xs = select_sample shape n seed in
      let sorted = Array.copy xs in
      Array.sort compare sorted;
      Stats.select_ranks xs (Array.of_list ranks);
      List.for_all (fun r -> Int64.bits_of_float xs.(r) = Int64.bits_of_float sorted.(r)) ranks)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_spec_parsing () =
  (match Engine.spec_of_string "delay_50<=1e-9" with
  | Ok { Engine.measure = Engine.Delay_50; bound = Engine.Le limit } ->
    check_float "limit" 1e-9 limit
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  (match Engine.spec_of_string "phase_margin>=60" with
  | Ok { Engine.measure = Engine.Phase_margin; bound = Engine.Ge limit } ->
    check_float "limit" 60.0 limit
  | _ -> Alcotest.fail "wrong parse");
  (match Engine.spec_of_string "m1>=-5" with
  | Ok { Engine.measure = Engine.Moment 1; _ } -> ()
  | _ -> Alcotest.fail "moment measure not parsed");
  (match Engine.spec_of_string "nonsense<=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown measure accepted");
  (match Engine.spec_of_string "dc_gain>=nan" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a NaN limit accepted");
  match Engine.spec_of_string "delay_50" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing bound accepted"

(* A spec's spelling reads back to its limit's bits, whatever the limit:
   raw bit patterns, subnormals, infinities, extreme exponents, short
   decimals.  Where [%g] reads back exactly, the spelling is the [%g]
   one reports have always carried. *)
let prop_spec_spelling_exact =
  let limit =
    QCheck2.Gen.(
      map
        (fun v -> if Float.is_nan v then 1.0 else v)
        (oneof
           [
             map Int64.float_of_bits int64;
             map (fun b -> Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL)) int64;
             map2 Float.ldexp (float_range (-2.0) 2.0) (int_range (-1080) 1030);
             map (fun x -> float_of_string (Printf.sprintf "%g" x)) (float_range (-1e6) 1e6);
             oneofl
               [ 0.0; -0.0; infinity; neg_infinity; 5e-324; Float.min_float; max_float;
                 60.0; 84.0123456; 0.1; 1e-9 ];
           ]))
  in
  let bits = Int64.bits_of_float in
  QCheck2.Test.make ~name:"spec spelling reads back to the limit's bits" ~count:2000
    ~print:(fun (v, le) -> Printf.sprintf "%s %h" (if le then "<=" else ">=") v)
    QCheck2.Gen.(pair limit bool)
    (fun (v, le) ->
      let bound = if le then Engine.Le v else Engine.Ge v in
      let spelled = Engine.spec_to_string { Engine.measure = Engine.Phase_margin; bound } in
      let g = Printf.sprintf "%g" v in
      (match Engine.spec_of_string spelled with
      | Ok { Engine.measure = Engine.Phase_margin; bound = Engine.Le v' } -> le && bits v' = bits v
      | Ok { Engine.measure = Engine.Phase_margin; bound = Engine.Ge v' } ->
        (not le) && bits v' = bits v
      | Ok _ | Error _ -> false)
      && (bits (float_of_string g) <> bits v
         || spelled = "phase_margin" ^ (if le then "<=" else ">=") ^ g))

let test_measure_names_roundtrip () =
  List.iter
    (fun m ->
      match Engine.measure_of_string (Engine.measure_name m) with
      | Ok m' when m' = m -> ()
      | _ -> Alcotest.failf "%s does not round-trip" (Engine.measure_name m))
    [
      Engine.Dc_gain; Engine.Dc_gain_db; Engine.Dominant_pole_hz;
      Engine.Unity_gain_frequency; Engine.Phase_margin; Engine.Delay_50;
      Engine.Rise_time; Engine.Elmore_delay; Engine.Moment 3;
    ]

(* The PR's acceptance criterion: a 10k-point Monte-Carlo sweep through the
   batch kernel agrees with a per-point Model.eval_moments loop to 1e-12
   relative error on every moment of every point. *)
let test_mc_10k_matches_per_point () =
  let model = Lazy.force fig1_model in
  let n = 10_000 in
  let plan = plan_c1_g2 (Plan.Monte_carlo n) in
  let cols = columns model plan ~seed:42 in
  let batch = Slp.eval_batch (Model.program model) cols in
  let num_symbols = Array.length (Model.symbols model) in
  let v = Array.make num_symbols 0.0 in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    for k = 0 to num_symbols - 1 do
      v.(k) <- cols.(k).(i)
    done;
    let m = Model.eval_moments model v in
    Array.iteri
      (fun j mj ->
        let rel =
          Float.abs (batch.(j).(i) -. mj) /. Float.max 1.0 (Float.abs mj)
        in
        if rel > !worst then worst := rel)
      m
  done;
  if !worst > 1e-12 then
    Alcotest.failf "batched sweep drifts from per-point: rel err %g" !worst

let test_engine_run_summaries () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 500) in
  let specs =
    [
      { Engine.measure = Engine.Dc_gain; bound = Engine.Ge 0.9 };
      { Engine.measure = Engine.Moment 1; bound = Engine.Le 0.0 };
    ]
  in
  let r = Engine.run ~seed:7 ~specs model plan in
  Alcotest.(check int) "points" 500 r.Engine.n;
  Alcotest.(check int) "seed recorded" 7 r.Engine.seed;
  (* fig1 is a unity-DC-gain RC ladder: dc_gain = 1 at every point, and m1 =
     −(C1 + 2C2(=2)·…) < 0 always, so both specs pass everywhere. *)
  let gain =
    List.assoc Engine.Dc_gain r.Engine.summaries
  in
  check_float "dc gain mean" 1.0 gain.Stats.mean;
  check_float "dc gain spread" 0.0 gain.Stats.std;
  Alcotest.(check int) "all points finite" 500 gain.Stats.finite;
  List.iter
    (fun (_, y) -> check_float "spec yield" 1.0 y)
    r.Engine.spec_yields;
  (match r.Engine.yield with
  | Some y -> check_float "joint yield" 1.0 y
  | None -> Alcotest.fail "specs given, yield expected");
  (* Without specs there is no yield figure. *)
  let r0 = Engine.run ~seed:7 model plan in
  Alcotest.(check bool) "no specs, no yield" true (r0.Engine.yield = None)

let test_engine_failing_spec () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 200) in
  (* dc_gain is exactly 1.0 everywhere, so requiring ≥ 2 fails every point. *)
  let specs = [ { Engine.measure = Engine.Dc_gain; bound = Engine.Ge 2.0 } ] in
  let r = Engine.run ~seed:3 ~specs model plan in
  match r.Engine.yield with
  | Some y -> check_float "zero yield" 0.0 y
  | None -> Alcotest.fail "yield expected"

let test_engine_deterministic () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 300) in
  let a = Engine.run ~seed:5 model plan in
  let b = Engine.run ~seed:5 model plan in
  Alcotest.(check bool) "same seed, identical result" true
    (Obs.Json.to_string (Engine.to_json a) = Obs.Json.to_string (Engine.to_json b));
  let c = Engine.run ~seed:6 ~measures:[ Engine.Moment 1 ] model plan in
  let d = Engine.run ~seed:5 ~measures:[ Engine.Moment 1 ] model plan in
  let m1 r = (List.assoc (Engine.Moment 1) r.Engine.summaries).Stats.mean in
  Alcotest.(check bool) "different seed, different draw" true (m1 c <> m1 d)

let test_engine_moment_out_of_range () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 4) in
  match Engine.run ~measures:[ Engine.Moment 17 ] model plan with
  | exception Awesym_error.Error { kind = Awesym_error.Invalid_request; _ } -> ()
  | _ -> Alcotest.fail "moment beyond 2*order accepted"

let test_engine_json_schema () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Latin_hypercube 50) in
  let specs = [ { Engine.measure = Engine.Delay_50; bound = Engine.Le 100.0 } ] in
  let r = Engine.run ~seed:1234 ~specs model plan in
  let text = Obs.Json.to_string (Engine.to_json r) in
  match Obs.Json.of_string text with
  | Error e -> Alcotest.failf "sweep JSON does not parse: %s" e
  | Ok doc ->
    let member name =
      match Obs.Json.member name doc with
      | Some v -> v
      | None -> Alcotest.failf "missing %s field" name
    in
    (match member "schema" with
    | Obs.Json.Str s ->
      Alcotest.(check string) "schema" "awesymbolic-sweep/2" s
    | _ -> Alcotest.fail "schema is not a string");
    (match member "seed" with
    | Obs.Json.Num s -> check_float "seed recorded in JSON" 1234.0 s
    | _ -> Alcotest.fail "seed is not a number");
    (match member "plan" with
    | Obs.Json.Obj _ -> ()
    | _ -> Alcotest.fail "plan is not an object");
    match member "yield" with
    | Obs.Json.Num _ -> ()
    | _ -> Alcotest.fail "yield is not a number"

(* Engine measures agree with direct single-point evaluation: spot-check the
   batched + memoized path against Awe.Measures on the ROM. *)
let test_engine_measures_match_direct () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 Plan.Corners in
  let r =
    Engine.run ~measures:[ Engine.Elmore_delay ] model plan
  in
  let s = List.assoc Engine.Elmore_delay r.Engine.summaries in
  let cols = columns model plan ~seed:42 in
  let direct = Array.init 4 (fun i ->
      let v = Array.map (fun col -> col.(i)) cols in
      Awe.Measures.elmore_delay (Model.eval_moments model v))
  in
  let dsum = Stats.summarize direct in
  check_float ~tol:1e-12 "corner Elmore mean" dsum.Stats.mean s.Stats.mean;
  check_float ~tol:1e-12 "corner Elmore max" dsum.Stats.max s.Stats.max

(* A chunk record (checkpoint or remote worker) decodes only the exact
   16-lowercase-digit cells the encoder writes; anything else is a
   classified error naming the point, never a silently wrong value. *)
let test_chunk_record_canonical_hex () =
  let model = Lazy.force fig1_model in
  let prep =
    Engine.prepare ~seed:1 ~measures:[ Engine.Dc_gain ] model
      (plan_c1_g2 (Plan.Monte_carlo 8))
  in
  let record = Engine.chunk_result_to_json (Engine.eval_chunk prep 0) in
  let decoded = Engine.chunk_result_of_json prep record in
  Alcotest.(check bool) "own record round-trips" true
    (Engine.chunk_values decoded
    = Engine.chunk_values (Engine.eval_chunk prep 0));
  let with_cell hex =
    match record with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (function
             | "vals", Obs.Json.List [ Obs.Json.List cells ] ->
               ( "vals",
                 Obs.Json.List
                   [ Obs.Json.List
                       (List.mapi
                          (fun i c -> if i = 3 then Obs.Json.Str hex else c)
                          cells) ] )
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "chunk record is not an object"
  in
  List.iter
    (fun hex ->
      match Engine.chunk_result_of_json prep (with_cell hex) with
      | exception
          Awesym_error.Error { kind = Awesym_error.Artifact_corrupt; message; _ }
        ->
        if not (String.ends_with ~suffix:"at point 3" message) then
          Alcotest.failf "error for %S does not name point 3: %s" hex message
      | _ -> Alcotest.failf "chunk cell %S accepted" hex)
    [ "1"; "3ff0_00000000000"; "3FF0000000000000"; "3ff00000000000000" ]

(* ------------------------------------------------------------------ *)
(* Codecs: plans, distributions and chunk records decode what they
   encode and nothing else *)

let gen_plan =
  QCheck2.Gen.(
    let* k = int_range 1 3 in
    let* dists = list_repeat k Gens.dist in
    let axis i dist = { Plan.name = Printf.sprintf "a%d" i; dist } in
    let axes = List.mapi axis dists in
    let* kind =
      oneof
        [ map (fun n -> Plan.Monte_carlo n) (int_range 1 5000);
          map (fun n -> Plan.Latin_hypercube n) (int_range 1 5000);
          return Plan.Corners;
          map (fun n -> Plan.Grid n) (int_range 2 9) ]
    in
    return (Plan.make kind axes))

let prop_plan_round_trip =
  QCheck2.Test.make ~name:"plan and dist codecs round trip" ~count:300 gen_plan (fun p ->
      let j = Plan.to_json p in
      match Plan.of_json j with
      | Error m -> QCheck2.Test.fail_report m
      | Ok p' -> p' = p && Obs.Json.to_string (Plan.to_json p') = Obs.Json.to_string j)

let prop_plan_mutation =
  Mutate.prop ~name:"mutated plans decode canonically or name the node" ~count:400 gen_plan
    Plan.to_json (fun j -> Result.map Plan.to_json (Plan.of_json j))

let prop_dist_mutation =
  Mutate.prop ~name:"mutated dists decode canonically or name the node" ~count:300 Gens.dist
    (Obs.Codec.encode Dist.codec)
    (fun j ->
      Result.map_error Obs.Codec.error_to_string
        (Result.map (Obs.Codec.encode Dist.codec) (Obs.Codec.decode Dist.codec j)))

(* A 40-point sweep in blocks of 16: chunks of 16, 16 and 8 points. *)
let record_prep =
  lazy
    (Engine.prepare ~seed:1 ~block:16 ~measures:[ Engine.Dc_gain; Engine.Delay_50 ]
       (Lazy.force fig1_model) (plan_c1_g2 (Plan.Monte_carlo 40)))

(* Canonical chunk records of [record_prep]'s layout: any float bits,
   failed points an ascending subset of the chunk's. *)
let gen_record =
  QCheck2.Gen.(
    let* c = int_range 0 2 in
    let lo = 16 * c and len = if c = 2 then 8 else 16 in
    let* vals = list_repeat 2 (list_repeat len Gens.weird_float) in
    let* failed = list_repeat len (option (pair (int_range 1 3) Gens.err)) in
    let open Obs.Json in
    let num n = Num (float_of_int n) and hex v = Str (Obs.Codec.hex v) in
    return
      (Obj
         [ ("lo", num lo);
           ("len", num len);
           ("vals", List (List.map (fun row -> List (List.map hex row)) vals));
           ( "failed",
             List
               (List.concat
                  (List.mapi
                     (fun i -> function
                       | None -> []
                       | Some (attempts, e) ->
                         [ Obj [ ("point", num (lo + i)); ("attempts", num attempts);
                                 ("error", Awesym_error.to_json e) ] ])
                     failed)) ) ]))

let decode_record j =
  match Engine.chunk_result_of_json (Lazy.force record_prep) j with
  | r -> Ok (Engine.chunk_result_to_json r)
  | exception Awesym_error.Error { kind = Awesym_error.Artifact_corrupt; message; _ } ->
    Error message

let prop_record_round_trip =
  QCheck2.Test.make ~name:"chunk record codec round trip" ~count:200 gen_record (fun j ->
      match decode_record j with
      | Ok j' -> Obs.Json.to_string j' = Obs.Json.to_string j
      | Error m -> QCheck2.Test.fail_report m)

let prop_record_mutation =
  Mutate.prop ~name:"mutated chunk records decode canonically or name the node" ~count:400
    gen_record Fun.id decode_record

(* [finish] counts a spec's yield and the joint yield over the surviving
   points only, and a non-finite value fails every spec.  The chunks are
   records with chosen values, some quarantined points among them. *)
let test_finish_yields () =
  let specs =
    [ { Engine.measure = Engine.Dc_gain; bound = Engine.Ge 0.5 };
      { Engine.measure = Engine.Delay_50; bound = Engine.Le 2.0 } ]
  in
  let prep =
    Engine.prepare ~seed:1 ~block:16 ~measures:[ Engine.Dc_gain ] ~specs
      (Lazy.force fig1_model) (plan_c1_g2 (Plan.Monte_carlo 40))
  in
  (* (dc_gain, delay_50) at point i *)
  let value i =
    match i mod 5 with
    | 0 -> (1.0, 1.0)
    | 1 -> (nan, 1.0)
    | 2 -> (1.0, infinity)
    | 3 -> (0.1, 3.0)
    | _ -> (neg_infinity, nan)
  in
  let quarantined i = i mod 7 = 6 in
  let open Obs.Json in
  let num n = Num (float_of_int n) and hex v = Str (Obs.Codec.hex v) in
  let record lo len =
    let points = List.init len (fun k -> lo + k) in
    Obj
      [ ("lo", num lo);
        ("len", num len);
        ( "vals",
          List
            [ List (List.map (fun i -> hex (fst (value i))) points);
              List (List.map (fun i -> hex (snd (value i))) points) ] );
        ( "failed",
          List
            (List.filter_map
               (fun i ->
                 if quarantined i then
                   Some
                     (Obj
                        [ ("point", num i); ("attempts", num 1);
                          ( "error",
                            Obj [ ("kind", Str "injected_fault"); ("where", Str "w");
                                  ("message", Str "m") ] ) ])
                 else None)
               points) ) ]
  in
  let r =
    Engine.finish prep
      (Array.map
         (fun (lo, len) -> Some (Engine.chunk_result_of_json prep (record lo len)))
         [| (0, 16); (16, 16); (32, 8) |])
  in
  let survivors = List.filter (fun i -> not (quarantined i)) (List.init 40 Fun.id) in
  let fraction pass =
    float_of_int (List.length (List.filter pass survivors))
    /. float_of_int (List.length survivors)
  in
  let dc_ok i = i mod 5 = 0 || i mod 5 = 2 and delay_ok i = i mod 5 <= 1 in
  Alcotest.(check (list int)) "quarantined" (List.filter quarantined (List.init 40 Fun.id))
    (List.map (fun f -> f.Engine.point) r.Engine.failed);
  (match r.Engine.spec_yields with
  | [ (_, dc); (_, delay) ] ->
    check_float "dc_gain>=0.5 yield" (fraction dc_ok) dc;
    check_float "delay_50<=2 yield" (fraction delay_ok) delay
  | _ -> Alcotest.fail "two spec yields expected");
  check_float "joint yield" (fraction (fun i -> dc_ok i && delay_ok i)) (Option.get r.Engine.yield);
  Alcotest.(check int) "dc_gain summarized over the survivors" (List.length survivors)
    (List.assoc Engine.Dc_gain r.Engine.summaries).Stats.n;
  Alcotest.(check int) "finite dc_gain values"
    (List.length (List.filter (fun i -> Float.is_finite (fst (value i))) survivors))
    (List.assoc Engine.Dc_gain r.Engine.summaries).Stats.finite

(* Inputs that used to decode to another value: each names its path. *)
let test_noncanonical_sweep_inputs () =
  let json s = match Obs.Json.of_string s with Ok j -> j | Error m -> Alcotest.fail m in
  let named what path = function
    | Error m when Mutate.contains m path -> ()
    | Error m -> Alcotest.failf "%s: error does not name %s: %s" what path m
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  let prep = Lazy.force record_prep in
  let record r = Engine.chunk_result_to_json (Engine.eval_chunk prep r) in
  let edit j f = match j with Obs.Json.Obj kvs -> Obs.Json.Obj (f kvs) | _ -> j in
  let r0 = record 0 in
  named "lo 0.5" "$.lo:"
    (decode_record
       (edit r0 (List.map (function "lo", _ -> ("lo", Obs.Json.Num 0.5) | kv -> kv))));
  named "unknown key" "$: unknown field"
    (decode_record (edit r0 (fun kvs -> kvs @ [ ("extra", Obs.Json.Null) ])));
  let failed kind =
    edit r0
      (List.map (function
        | "failed", _ ->
          ( "failed",
            Obs.Json.List
              [ json (Printf.sprintf
                  {|{"point":3,"attempts":1,"error":{"kind":%S,"where":"w","message":"m"}}|} kind) ] )
        | kv -> kv))
  in
  (match decode_record (failed "injected_fault") with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "a known kind must decode: %s" m);
  named "unknown error kind" "$.failed[0].error.kind:" (decode_record (failed "meltdown"));
  (* Failed points strictly ascend, as the writer lists them. *)
  let failed_points points =
    edit r0
      (List.map (function
        | "failed", _ ->
          ( "failed",
            Obs.Json.List
              (List.map
                 (fun point ->
                   json (Printf.sprintf
                     {|{"point":%d,"attempts":1,"error":{"kind":"injected_fault","where":"w","message":"m"}}|}
                     point))
                 points) )
        | kv -> kv))
  in
  (match decode_record (failed_points [ 1; 3 ]) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "ascending failed points must decode: %s" m);
  named "repeated failed point" "$.failed[1]: failed point 3 does not follow point 3"
    (decode_record (failed_points [ 3; 3; 1 ]));
  named "descending failed points" "$.failed[1]: failed point 1 does not follow point 3"
    (decode_record (failed_points [ 3; 1 ]));
  named "corners plan with a wrong point count" "$: points 999"
    (Plan.of_json
       (json {|{"kind":"corners","points":999,"axes":[{"symbol":"C1","dist":{"kind":"uniform","lo":1,"hi":2}}]}|}));
  named "stray dist parameter" "$.axes[0].dist: unknown field"
    (Plan.of_json
       (json {|{"kind":"monte-carlo","points":3,"axes":[{"symbol":"C1","dist":{"kind":"uniform","lo":1,"hi":2,"mean":1}}]}|}));
  named "non-finite dist parameter" "$.axes[0].dist.lo:"
    (Plan.of_json
       (json {|{"kind":"monte-carlo","points":3,"axes":[{"symbol":"C1","dist":{"kind":"uniform","lo":"-inf","hi":"inf"}}]}|}));
  (* A checkpoint names the line of the bad record. *)
  let path = Filename.temp_file "awesym_ckpt" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let _, record = Engine.restore ~checkpoint:path prep in
  record (Engine.eval_chunk prep 1);
  let text = In_channel.with_open_bin path In_channel.input_all in
  let rec letter i = if text.[i] >= 'a' && text.[i] <= 'f' then i else letter (i + 1) in
  let i = letter (Mutate.find text {|"vals":|} + 7) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.mapi (fun k c -> if k = i then 'F' else c) text));
  named "upper-case checkpoint cell" "line 2: $.vals["
    (match Engine.restore ~checkpoint:path ~resume:true prep with
    | _ -> Ok ()
    | exception
        Awesym_error.Error
          { kind = Awesym_error.Artifact_corrupt; message; line = Some n; _ } ->
      Error (Printf.sprintf "line %d: %s" n message))

(* A measure named twice is summarized once: the report is the one the
   sweep writes without the repeat, spec measures included. *)
let test_engine_repeated_measure () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 300) in
  let specs = [ { Engine.measure = Engine.Delay_50; bound = Engine.Le 10.0 } ] in
  let report measures =
    Obs.Json.to_string
      (Engine.to_json (Engine.run ~seed:7 ~jobs:1 ~measures ~specs model plan))
  in
  Alcotest.(check string) "same bytes as without the repeat"
    (report Engine.[ Dc_gain; Delay_50; Moment 1 ])
    (report Engine.[ Dc_gain; Dc_gain; Delay_50; Moment 1; Dc_gain; Moment 1 ])

let decks_dir () = if Sys.file_exists "../decks" then "../decks" else "decks"

(* [eval_chunk] keeps one batch evaluator per domain and replaces it when
   the program or the block size changes.  Interleave two models with
   different register counts at two block sizes on this domain, with a
   sticky kernel fault armed on some chunks under Retry: each faulted chunk
   is quarantined whole after every attempt raised, and every other chunk
   equals a fresh [Slp.eval_batch] of its columns. *)
(* Faults at the ["sweep.point"] site of a moment-only sweep.  Once
   faults are armed every point takes the per-point path, so under Skip
   and Retry a sticky fault quarantines, and a transient one quarantines
   or heals, exactly the points [Fault.would_fire] names; every kept point
   has the bits of [point_measures]; the [sweep.fault.*] counters count
   the faults fired; and the chunk records are the same at jobs 1 and 2.
   With [elmore_delay] every point is finished anyway; without it the
   values come straight from the kernel's columns. *)
let test_moment_sweep_point_faults () =
  let model = Lazy.force fig1_model in
  let n = 600 in
  let plan = plan_c1_g2 (Plan.Monte_carlo n) in
  let bits = Int64.bits_of_float in
  let records slots =
    Array.map
      (fun c -> Obs.Json.to_string (Engine.chunk_result_to_json (Option.get c)))
      slots
  in
  Fun.protect ~finally:(fun () ->
      Runtime.Fault.disarm ();
      Obs.reset ();
      Obs.enabled := false)
  @@ fun () ->
  List.iter
    (fun measures ->
      let clean =
        Engine.evaluate ~jobs:1 (Engine.prepare ~seed:5 ~block:64 ~jobs:1 ~measures model plan)
      in
      List.iter
        (fun c -> Alcotest.(check (list int)) "clean run" [] (Engine.chunk_failures (Option.get c)))
        (Array.to_list clean);
      List.iter
        (fun (sticky, policy) ->
          let what =
            Printf.sprintf "[%s] %s %s"
              (String.concat "," (List.map Engine.measure_name measures))
              (if sticky then "sticky" else "transient")
              (Engine.policy_name policy)
          in
          let arm () =
            Runtime.Fault.arm ~seed:3
              (if sticky then "sweep.point:0.05:sticky" else "sweep.point:0.05")
          in
          arm ();
          let fired =
            List.filter (fun i -> Runtime.Fault.would_fire ~key:i "sweep.point") (List.init n Fun.id)
          in
          let nf = List.length fired in
          let attempts = match policy with Engine.Retry k -> 1 + k | _ -> 1 in
          let quarantined = if sticky || attempts = 1 then fired else [] in
          let run jobs =
            let p = Engine.prepare ~seed:5 ~block:64 ~jobs ~measures ~policy model plan in
            (p, Engine.evaluate ~jobs p)
          in
          Obs.reset ();
          Obs.enabled := true;
          let p, slots = run 1 in
          Obs.enabled := false;
          let seen, retried, recovered =
            if sticky then (nf * attempts, nf * (attempts - 1), 0)
            else if attempts > 1 then (nf, nf, nf)
            else (nf, 0, 0)
          in
          List.iter
            (fun (name, want) ->
              Alcotest.(check int) (what ^ ": " ^ name) want (Obs.Metrics.counter name))
            [ ("fault.injected.count", seen); ("sweep.fault.seen", seen);
              ("sweep.fault.retried", retried); ("sweep.fault.recovered", recovered);
              ("sweep.fault.quarantined", List.length quarantined) ];
          Alcotest.(check bool) (what ^ ": some point faulted") true (nf > 0);
          Alcotest.(check (list int)) (what ^ ": quarantined points") quarantined
            (List.concat_map (fun c -> Engine.chunk_failures (Option.get c)) (Array.to_list slots));
          let inputs = Engine.prep_inputs p in
          Array.iter
            (fun slot ->
              let c = Option.get slot in
              let vals = Engine.chunk_values c in
              for li = 0 to Engine.chunk_len c - 1 do
                let i = Engine.chunk_lo c + li in
                let want =
                  if List.mem i quarantined then List.map (fun _ -> nan) measures
                  else Engine.point_measures model measures (Array.map (fun col -> col.(i)) inputs)
                in
                List.iteri
                  (fun j v ->
                    if bits v <> bits vals.(j).(li) then
                      Alcotest.failf "%s: %s differs at point %d" what
                        (Engine.measure_name (List.nth measures j)) i)
                  want
              done)
            slots;
          Alcotest.(check (array string)) (what ^ ": records at jobs 2") (records slots)
            (records (snd (run 2))))
        [ (true, Engine.Skip); (true, Engine.Retry 2); (false, Engine.Skip);
          (false, Engine.Retry 2) ];
      Runtime.Fault.disarm ())
    Engine.[ [ Moment 0; Moment 1; Elmore_delay ]; [ Moment 0; Moment 1 ] ]

(* A transient kernel fault is cut in the chunk loop keyed by chunk and
   attempt, so Retry heals it: at every fault seed the report is the
   clean run's, bytes and all. *)
let test_kernel_faults_heal () =
  let model = Lazy.force fig1_model in
  let report () =
    Obs.Json.to_string
      (Engine.to_json
         (Engine.run ~seed:7 ~policy:(Engine.Retry 2) model (plan_c1_g2 (Plan.Monte_carlo 2000))))
  in
  let clean = report () in
  Fun.protect ~finally:Runtime.Fault.disarm @@ fun () ->
  for seed = 0 to 5 do
    Runtime.Fault.arm ~seed "slp.eval_batch:0.5";
    Alcotest.(check string) (Printf.sprintf "fault seed %d heals" seed) clean (report ())
  done

let test_chunk_evaluator_reuse () =
  let rlc =
    Model.build ~order:4
      (Circuit.Parser.parse_file (Filename.concat (decks_dir ()) "rlc_line.cir"))
  in
  let fig1 = Lazy.force fig1_model in
  Alcotest.(check bool) "register counts differ" true
    (Slp.num_registers (Model.program rlc)
    <> Slp.num_registers (Model.program fig1));
  let prep model plan block =
    let last = Slp.num_outputs (Model.program model) - 1 in
    Engine.prepare ~seed:11 ~block ~jobs:1 ~policy:(Engine.Retry 2)
      ~measures:Engine.[ Moment 0; Moment 1; Moment last ]
      model plan
  in
  let rlc_plan =
    Plan.make (Plan.Monte_carlo 300)
      [ { Plan.name = "g_term"; dist = Dist.uniform ~lo:2e-3 ~hi:50e-3 } ]
  in
  let fig1_plan = plan_c1_g2 (Plan.Monte_carlo 300) in
  let preps =
    [|
      (fig1, prep fig1 fig1_plan 64); (rlc, prep rlc rlc_plan 64);
      (rlc, prep rlc rlc_plan 37); (fig1, prep fig1 fig1_plan 37);
    |]
  in
  Fun.protect ~finally:Runtime.Fault.disarm @@ fun () ->
  for step = 0 to 39 do
    let model, prep = preps.(step mod 4) in
    let idx = step / 4 mod Engine.prep_num_chunks prep in
    let faulted = step mod 7 = 3 in
    if faulted then Runtime.Fault.arm "slp.eval_batch:1:sticky";
    let c = Engine.eval_chunk prep idx in
    Runtime.Fault.disarm ();
    let lo = Engine.chunk_lo c and len = Engine.chunk_len c in
    if faulted then
      Alcotest.(check (list int))
        (Printf.sprintf "step %d: faulted chunk quarantined" step)
        (List.init len (fun i -> lo + i))
        (Engine.chunk_failures c)
    else begin
      let prog = Model.program model in
      let sub = Array.map (fun col -> Array.sub col lo len) (Engine.prep_inputs prep) in
      let fresh = Slp.eval_batch ~jobs:1 prog sub in
      let last = Slp.num_outputs prog - 1 in
      Array.iteri
        (fun row k ->
          Array.iteri
            (fun i v ->
              if Int64.bits_of_float v <> Int64.bits_of_float fresh.(k).(i) then
                Alcotest.failf "step %d: moment %d, point %d differs" step k (lo + i))
            (Engine.chunk_values c).(row))
        [| 0; 1; last |]
    end
  done

(* A sweep runs only the moments its measures read.  On every deck that
   builds at orders 1–4, a random nonempty subset of m_k and elmore_delay
   at jobs 1 and 2 gives the summaries of the same sweep with dc_gain
   added, which reads every moment and so runs the model's own program.
   Where the Padé fit behind dc_gain fails at some points, those points
   may survive the cut sweep: its failures must then be a subset, and its
   values equal on the points both keep. *)
let test_moment_only_sweeps () =
  let rng = Random.State.make [| 28 |] in
  let dir = decks_dir () in
  let decks =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".cir")
         (Array.to_list (Sys.readdir dir)))
  in
  let bits = Int64.bits_of_float in
  let same_summaries = ref 0 and cases = ref 0 in
  List.iter
    (fun file ->
      for order = 1 to 4 do
        match Model.build ~order (Circuit.Parser.parse_file (Filename.concat dir file)) with
        | exception _ -> ()
        | model ->
          let plan =
            Plan.make (Plan.Monte_carlo 300)
              (Array.to_list
                 (Array.map2
                    (fun s v -> { Plan.name = Sym.name s; dist = Dist.around ~nominal:v ~pct:20.0 })
                    (Model.symbols model) (Model.nominal_values model)))
          in
          let candidates =
            Engine.Elmore_delay :: List.init (2 * order) (fun k -> Engine.Moment k)
          in
          let measures =
            match List.filter (fun _ -> Random.State.bool rng) candidates with
            | [] -> [ List.nth candidates (Random.State.int rng (List.length candidates)) ]
            | ms -> ms
          in
          List.iter
            (fun jobs ->
              incr cases;
              let what =
                Printf.sprintf "%s -q %d [%s] jobs %d" file order
                  (String.concat "," (List.map Engine.measure_name measures)) jobs
              in
              let sweep measures =
                let p = Engine.prepare ~seed:order ~block:64 ~jobs ~measures model plan in
                (p, Engine.evaluate ~jobs p)
              in
              let cut_prep, cut = sweep measures
              and full_prep, full = sweep (measures @ [ Engine.Dc_gain ]) in
              let failures slots =
                List.concat_map (fun c -> Engine.chunk_failures (Option.get c)) (Array.to_list slots)
              in
              let cut_failed = failures cut and full_failed = failures full in
              if not (List.for_all (fun i -> List.mem i full_failed) cut_failed) then
                Alcotest.failf "%s: the cut sweep quarantines a point the full one keeps" what;
              Array.iteri
                (fun c slot ->
                  let cv = Engine.chunk_values (Option.get slot)
                  and fv = Engine.chunk_values (Option.get full.(c)) in
                  let lo = Engine.chunk_lo (Option.get slot) in
                  Array.iteri
                    (fun j row ->
                      Array.iteri
                        (fun li v ->
                          if not (List.mem (lo + li) full_failed) && bits v <> bits fv.(j).(li)
                          then Alcotest.failf "%s: %s differs at point %d" what
                              (Engine.measure_name (List.nth measures j)) (lo + li))
                        row)
                    cv)
                cut;
              if cut_failed = full_failed && List.length full_failed < Engine.prep_points full_prep
              then begin
                incr same_summaries;
                let summaries p slots =
                  List.filter_map
                    (fun (m, s) -> if m = Engine.Dc_gain then None else Some (m, summary_bits s))
                    (Engine.finish p slots).Engine.summaries
                in
                if summaries cut_prep cut <> summaries full_prep full then
                  Alcotest.failf "%s: summaries differ" what
              end)
            [ 1; 2 ]
      done)
    decks;
  Alcotest.(check bool)
    (Printf.sprintf "summaries compared in %d of %d cases" !same_summaries !cases)
    true
    (!same_summaries * 2 >= !cases)

(* An RC lowpass with R1 = C1 = 1e100 at order 2: m1 = -1e200 is
   finite, m2 = 1e400 is not.  [n] Monte-Carlo points, each symbol
   within 10 % of its nominal. *)
let overflow_sweep n =
  let nl =
    Circuit.Parser.parse_string
      "* RC lowpass whose m2 overflows\n\
       V1 in 0 1\n\
       R1 in out 1e100\n\
       C1 out 0 1e100\n\
       .symbolic R1 r1\n\
       .symbolic C1 c1\n\
       .input V1\n\
       .output v(out)\n"
  in
  let model = Model.build ~order:2 nl in
  let plan =
    Plan.make (Plan.Monte_carlo n)
      (Array.to_list
         (Array.map2
            (fun s v -> { Plan.name = Sym.name s; dist = Dist.around ~nominal:v ~pct:10.0 })
            (Model.symbols model) (Model.nominal_values model)))
  in
  (model, plan)

let prep_point p i = Array.map (fun col -> col.(i)) (Engine.prep_inputs p)

(* [point_measures] gives every point's sweep values, bit for bit. *)
let check_point_measures model p =
  let measures = Engine.prep_measures p in
  for c = 0 to Engine.prep_num_chunks p - 1 do
    let chunk = Engine.eval_chunk p c in
    for li = 0 to Engine.chunk_len chunk - 1 do
      let i = Engine.chunk_lo chunk + li in
      List.iteri
        (fun j v ->
          if Int64.bits_of_float v <> Int64.bits_of_float (Engine.chunk_values chunk).(j).(li)
          then Alcotest.failf "point_measures differs from the sweep at point %d" i)
        (Engine.point_measures model measures (prep_point p i))
    done
  done

(* Only a sweep that reads m2 faults its points, and [point_measures]
   agrees with the sweep point by point. *)
let test_unread_moment_faults_nothing () =
  let model, plan = overflow_sweep 200 in
  let run measures = Engine.run ~seed:3 ~jobs:2 ~block:64 ~measures model plan in
  let prep measures = Engine.prepare ~seed:3 ~jobs:1 ~block:64 ~measures model plan in
  let kept = Engine.[ Moment 0; Moment 1 ] in
  let r = run kept in
  Alcotest.(check int) "m0,m1 sweep keeps every point" 200 (Engine.survivors r);
  check_point_measures model (prep kept);
  List.iter
    (fun measures ->
      let name = String.concat "," (List.map Engine.measure_name measures) in
      (match run measures with
      | _ -> Alcotest.failf "%s sweep kept a point" name
      | exception Awesym_error.Error e ->
        Alcotest.(check string) (name ^ ": kind") "nonfinite_result"
          (Awesym_error.kind_name e.Awesym_error.kind);
        Alcotest.(check (option string)) (name ^ ": moment") (Some "m2")
          (List.assoc_opt "moment" e.Awesym_error.context));
      match Engine.point_measures model measures (prep_point (prep measures) 0) with
      | _ -> Alcotest.failf "%s: point_measures kept point 0" name
      | exception Awesym_error.Error e ->
        Alcotest.(check (option string)) (name ^ ": point_measures moment") (Some "m2")
          (List.assoc_opt "moment" e.Awesym_error.context))
    Engine.[ [ Moment 2 ]; [ Moment 0; Dc_gain ] ]

(* [golden/rc_overflow_m0m1_ckpt.txt] is the header and first two chunk
   lines (points 0-15) of a checkpoint of this m0,m1 sweep that the
   library wrote when sweep keys named the model by its shape alone (and
   any non-finite moment faulted a point, so its chunks quarantine every
   point naming m2).  Its key binds no model fingerprint, so resuming it
   is refused at the header, with the file left as it was: no report
   blends it with points evaluated today. *)
let test_old_checkpoint_rejected_at_key () =
  let model, plan = overflow_sweep 40 in
  let measures = Engine.[ Moment 0; Moment 1 ] in
  let old =
    In_channel.with_open_bin (Filename.concat "golden" "rc_overflow_m0m1_ckpt.txt")
      In_channel.input_all
  in
  let path = Filename.temp_file "awesym_ckpt" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc old);
  (match
     Engine.run ~seed:3 ~jobs:1 ~block:8 ~measures ~checkpoint:path ~resume:true model plan
   with
  | _ -> Alcotest.fail "a checkpoint keyed by the model's shape resumed"
  | exception Awesym_error.Error e -> Fig1_pair.check_key_mismatch e);
  Alcotest.(check string) "the file is left as it was" old
    (In_channel.with_open_bin path In_channel.input_all)

(* A checkpoint of deck A does not resume a sweep of deck B, which
   differs in one non-symbolic constant: the key binds the model's
   fingerprint. *)
let test_edited_deck_checkpoint_rejected () =
  let a, b = Fig1_pair.both () in
  let plan = plan_c1_g2 (Plan.Monte_carlo 200) in
  let measures = Engine.[ Moment 0; Moment 1 ] in
  let path = Filename.temp_file "awesym_ckpt" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let run ~resume model =
    Engine.run ~seed:3 ~jobs:1 ~block:64 ~measures ~checkpoint:path ~resume model plan
  in
  ignore (run ~resume:false a);
  match run ~resume:true b with
  | _ -> Alcotest.fail "a sweep of deck B resumed deck A's checkpoint"
  | exception Awesym_error.Error e -> Fig1_pair.check_key_mismatch e

(* Committed reports compared byte for byte: any change to the
   Padé/measure finish or to the statistics that moves a single output
   bit fails here.  On a mismatch the fresh report is written next to the
   test binary for inspection (see test/golden/README.md). *)
let check_golden file actual =
  let golden =
    In_channel.with_open_bin (Filename.concat "golden" file) In_channel.input_all
  in
  if actual <> golden then begin
    let out = Filename.chop_extension file ^ ".actual.json" in
    Out_channel.with_open_bin out (fun oc -> output_string oc actual);
    Alcotest.failf "%s differs from the golden report; got %s" file
      (Filename.concat (Sys.getcwd ()) out)
  end

(* The op-amp yield sweep over the paper's Figs. 4–7 measures. *)
let golden_opamp_report () =
  let g, c = Builders.opamp_symbol_names in
  let mark nl name = Netlist.mark_symbolic nl name (Sym.intern name) in
  let model = Model.build ~order:2 (mark (mark (Builders.opamp741 ()) g) c) in
  let plan =
    Plan.make (Plan.Monte_carlo 2000)
      [
        { Plan.name = g; dist = Dist.uniform ~lo:0.5e-6 ~hi:8.5e-6 };
        { Plan.name = c; dist = Dist.uniform ~lo:5e-12 ~hi:65e-12 };
      ]
  in
  let measures =
    Engine.
      [ Dominant_pole_hz; Unity_gain_frequency; Phase_margin; Dc_gain; Delay_50 ]
  in
  let specs =
    [ { Engine.measure = Engine.Phase_margin; bound = Engine.Ge 60.0 } ]
  in
  Obs.Json.to_string_pretty
    (Engine.to_json (Engine.run ~seed:42 ~jobs:1 ~measures ~specs model plan))

let test_golden_opamp_sweep () =
  check_golden "opamp_sweep_rom.json" (golden_opamp_report ())

(* The RLC line at order 4: the degree-4 root finder, order reduction,
   complex poles and the rise-time crossing, none of which the op-amp
   report reaches. *)
let golden_rlc_order4_report () =
  let nl =
    Circuit.Parser.parse_file (Filename.concat (decks_dir ()) "rlc_line.cir")
  in
  let model = Model.build ~order:4 nl in
  let plan =
    Plan.make (Plan.Monte_carlo 2000)
      [ { Plan.name = "g_term"; dist = Dist.uniform ~lo:2e-3 ~hi:50e-3 } ]
  in
  let measures = Engine.[ Dc_gain; Dominant_pole_hz; Delay_50; Rise_time ] in
  Obs.Json.to_string_pretty
    (Engine.to_json (Engine.run ~seed:42 ~jobs:1 ~measures model plan))

let test_golden_rlc_order4_sweep () =
  check_golden "rlc_line_order4_sweep.json" (golden_rlc_order4_report ())

let coupled_rlc_order8 =
  lazy
    (Model.build ~order:8
       (Circuit.Parser.parse_file (Filename.concat (decks_dir ()) "coupled_rlc.cir")))

let coupled_rlc_plan n =
  Plan.make (Plan.Monte_carlo n) [ { Plan.name = "M"; dist = Dist.uniform ~lo:0.0 ~hi:8e-9 } ]

(* Raw moments of the coupled RLC lines at order 8: 2243 ops, 457 of them
   [Neg], so every bit the batch kernel's lowered form computes reaches the
   report; no fit runs. *)
let golden_coupled_rlc_order8_report () =
  let measures = Engine.[ Moment 0; Moment 1; Moment 15 ] in
  Obs.Json.to_string_pretty
    (Engine.to_json
       (Engine.run ~seed:5 ~jobs:1 ~measures (Lazy.force coupled_rlc_order8)
          (coupled_rlc_plan 2000)))

(* The victim line's DC gain m0 is exactly 0 at every point, so its
   Elmore delay -m1/m0 is NaN: a property of the circuit, like a missing
   unity-gain crossing, not a fault.  The sweep keeps every point and
   reports m0's summary. *)
let test_zero_dc_gain_elmore () =
  let model = Lazy.force coupled_rlc_order8 and plan = coupled_rlc_plan 200 in
  let measures = Engine.[ Moment 0; Elmore_delay ] in
  let r = Engine.run ~seed:5 ~jobs:2 ~measures model plan in
  Alcotest.(check int) "every point kept" 200 (Engine.survivors r);
  let m0 = List.assoc (Engine.Moment 0) r.Engine.summaries in
  Alcotest.(check int) "m0 summarized over every point" 200 m0.Stats.finite;
  Alcotest.(check (pair (float 0.0) (float 0.0))) "m0 is 0" (0.0, 0.0)
    (m0.Stats.min, m0.Stats.max);
  let elmore = List.assoc Engine.Elmore_delay r.Engine.summaries in
  Alcotest.(check int) "no finite Elmore delay" 0 elmore.Stats.finite;
  check_point_measures model (Engine.prepare ~seed:5 ~jobs:1 ~measures model plan)

let test_golden_coupled_rlc_order8_sweep () =
  check_golden "coupled_rlc_order8_sweep.json"
    (golden_coupled_rlc_order8_report ())

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sweep"
    [
      ( "dist",
        [
          quick "uniform" test_dist_uniform;
          quick "normal quantiles and moments" test_dist_normal;
          quick "lognormal positivity" test_dist_lognormal;
          quick "tolerance band shorthand" test_dist_around;
          quick "parameter guards" test_dist_guards;
        ] );
      ( "plan",
        [
          quick "validation guards" test_plan_guards;
          quick "point counts" test_plan_sizes;
          quick "unknown symbol rejected" test_plan_unknown_symbol;
          quick "unswept symbols pinned at nominal" test_plan_pins_unswept_at_nominal;
          quick "latin hypercube stratification" test_plan_lhs_stratified;
          quick "corners hit the bounds" test_plan_corners;
          quick "grid spacing and ordering" test_plan_grid;
          quick "seeded determinism" test_plan_determinism;
          quick "columns invariant across jobs" test_plan_columns_jobs_invariant;
        ] );
      ( "stats",
        [
          quick "moments and quantiles" test_stats_basic;
          quick "non-finite handling" test_stats_non_finite;
          quick "overflowing sums recomputed scaled" test_stats_huge_values;
          quick "an overflowing spread is binned and interpolated in halves"
            test_stats_overflowing_spread;
          quick "a subnormal spread is binned and deviated scaled" test_stats_subnormal_spread;
          quick "deviations that square to subnormals are taken scaled"
            test_stats_tiny_deviations;
          quick "sorted, reversed, constant, tied inputs ≡ reference"
            test_stats_matches_reference;
          QCheck_alcotest.to_alcotest prop_stats_matches_reference;
          QCheck_alcotest.to_alcotest prop_select_ranks;
        ] );
      ( "engine",
        [
          quick "spec parsing" test_spec_parsing;
          QCheck_alcotest.to_alcotest prop_spec_spelling_exact;
          quick "measure names round-trip" test_measure_names_roundtrip;
          quick "10k-point MC ≡ per-point evaluation" test_mc_10k_matches_per_point;
          quick "summaries and yields" test_engine_run_summaries;
          quick "failing spec, zero yield" test_engine_failing_spec;
          quick "seeded determinism" test_engine_deterministic;
          quick "moment index validated" test_engine_moment_out_of_range;
          quick "JSON report schema" test_engine_json_schema;
          quick "repeated measure summarized once" test_engine_repeated_measure;
          quick "measures match direct evaluation" test_engine_measures_match_direct;
          quick "eval_batch bit-identical across jobs" test_eval_batch_jobs_invariant;
          quick "10k sweep JSON byte-identical across jobs" test_engine_json_jobs_invariant;
          quick "op-amp ROM sweep matches the golden report" test_golden_opamp_sweep;
          quick "order-4 RLC sweep matches the golden report"
            test_golden_rlc_order4_sweep;
          quick "order-8 coupled RLC moment sweep matches the golden report"
            test_golden_coupled_rlc_order8_sweep;
          quick "per-domain chunk evaluator leaks no state"
            test_chunk_evaluator_reuse;
          quick "transient kernel faults heal under retry" test_kernel_faults_heal;
          quick "sweep.point faults in a moment-only sweep hit the predicted points"
            test_moment_sweep_point_faults;
          quick "moment-only sweeps ≡ the full program on every deck"
            test_moment_only_sweeps;
          quick "a zero DC gain makes the Elmore delay NaN, not a fault"
            test_zero_dc_gain_elmore;
          quick "an unread non-finite moment faults no point"
            test_unread_moment_faults_nothing;
          quick "a shape-keyed checkpoint is rejected"
            test_old_checkpoint_rejected_at_key;
          quick "an edited deck's checkpoint is rejected" test_edited_deck_checkpoint_rejected;
          quick "chunk records accept only canonical hex" test_chunk_record_canonical_hex;
          quick "yields count survivors only" test_finish_yields;
        ] );
      ( "codec",
        [ quick "non-canonical inputs name their path" test_noncanonical_sweep_inputs ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_plan_round_trip; prop_plan_mutation; prop_dist_mutation;
              prop_record_round_trip; prop_record_mutation ] );
    ]
