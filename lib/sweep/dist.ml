type t =
  | Uniform of { lo : float; hi : float }
  | Normal of { mean : float; std : float }
  | Lognormal of { mu : float; sigma : float }

let uniform ~lo ~hi =
  if not (lo < hi) then invalid_arg "Dist.uniform: needs lo < hi";
  Uniform { lo; hi }

let normal ~mean ~std =
  if not (std > 0.0) then invalid_arg "Dist.normal: needs std > 0";
  Normal { mean; std }

let lognormal ~mu ~sigma =
  if not (sigma > 0.0) then invalid_arg "Dist.lognormal: needs sigma > 0";
  Lognormal { mu; sigma }

let around ~nominal ~pct =
  if not (pct > 0.0) then invalid_arg "Dist.around: needs pct > 0";
  let h = Float.abs nominal *. pct /. 100.0 in
  if h = 0.0 then invalid_arg "Dist.around: zero nominal";
  uniform ~lo:(nominal -. h) ~hi:(nominal +. h)

(* Acklam's rational approximation of the standard normal quantile —
   relative error below 1.15e-9 everywhere, which is far inside Monte-Carlo
   noise.  Deterministic (no tables, no iteration), so Latin-hypercube
   strata map to the same values on every platform. *)
let normal_quantile p =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Dist: quantile needs 0<p<1";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  if p < p_low then
    let q = sqrt (-2.0 *. log p) in
    (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
       *. q
    +. c.(5))
    /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
  else if p > 1.0 -. p_low then
    let q = sqrt (-2.0 *. log (1.0 -. p)) in
    -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
         *. q
      +. c.(5))
       /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0))
  else
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
       *. r
    +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
          *. r
       +. 1.0)

let quantile t p =
  match t with
  | Uniform { lo; hi } ->
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg "Dist.quantile: needs 0<=p<=1";
    lo +. (p *. (hi -. lo))
  | Normal { mean; std } -> mean +. (std *. normal_quantile p)
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. normal_quantile p))

let std_normal rng =
  (* Box–Muller; [1 - float] keeps the log argument in (0, 1]. *)
  let u1 = 1.0 -. Obs.Rng.float rng in
  let u2 = Obs.Rng.float rng in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* Raw Rng draws one [sample] consumes — the stream stride parallel plans
   use with [Obs.Rng.skip] to position per-chunk streams.  Must stay in
   lock-step with [sample]: uniform draws once, Box–Muller twice. *)
let draws = function Uniform _ -> 1 | Normal _ | Lognormal _ -> 2

let sample t rng =
  match t with
  | Uniform { lo; hi } -> Obs.Rng.uniform rng ~lo ~hi
  | Normal { mean; std } -> mean +. (std *. std_normal rng)
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. std_normal rng))

let bounds = function
  | Uniform { lo; hi } -> (lo, hi)
  | Normal { mean; std } -> (mean -. (3.0 *. std), mean +. (3.0 *. std))
  | Lognormal { mu; sigma } ->
    (exp (mu -. (3.0 *. sigma)), exp (mu +. (3.0 *. sigma)))

(* Parameters are re-validated through the smart constructors, so a
   hostile document cannot smuggle in, say, an empty uniform interval
   that [sample] would mishandle. *)
let codec =
  let module C = Obs.Codec in
  let case name (ka, kb) make params =
    let build (a, b) =
      match make a b with d -> Ok d | exception Invalid_argument m -> Error m
    in
    let pair = C.record (fun a b -> (a, b)) [ C.req ka C.num fst; C.req kb C.num snd ] in
    C.case name (C.refine build (fun d -> Option.get (params d)) pair) Fun.id
      (fun d -> Option.map (fun _ -> d) (params d))
  in
  C.tagged "kind"
    [ case "uniform" ("lo", "hi") (fun lo hi -> uniform ~lo ~hi)
        (function Uniform { lo; hi } -> Some (lo, hi) | _ -> None);
      case "normal" ("mean", "std") (fun mean std -> normal ~mean ~std)
        (function Normal { mean; std } -> Some (mean, std) | _ -> None);
      case "lognormal" ("mu", "sigma") (fun mu sigma -> lognormal ~mu ~sigma)
        (function Lognormal { mu; sigma } -> Some (mu, sigma) | _ -> None) ]

