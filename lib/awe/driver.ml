type health = {
  dim : int;
  pivot_min : float;
  pivot_max : float;
  pivot_growth : float;
  rcond : float;
  condition_est : float;
  near_singular : bool;
  warnings : string list;
}

type result = {
  rom : Rom.t;
  moments : float array;
  mna : Circuit.Mna.t;
  health : health;
}

(* An LU whose smallest pivot sits within a few digits of underflow relative
   to the largest, or whose elimination grew elements by many orders of
   magnitude, produces moment vectors with few (or no) correct digits — and
   a Padé fit that is quietly wrong.  These thresholds are deliberately
   loose: they flag the catastrophic cases, not mild conditioning. *)
let pivot_ratio_floor = 1e-12
let growth_ceiling = 1e8

(* An rcond at (or below) a few hundred ulps means the factorization
   carries essentially no trustworthy digits in a 53-bit mantissa. *)
let rcond_floor = 1e-13

let health_of_lu (h : Numeric.Lu.health) =
  let rcond = h.Numeric.Lu.rcond in
  (* Prefer the factor-time estimator; fall back to the pivot ratio when
     the estimate saturated (rcond = 0 also means "hopeless", which the
     warning below reports directly). *)
  let condition_est =
    if rcond > 0.0 then 1.0 /. rcond
    else if h.Numeric.Lu.pivot_min > 0.0 then
      h.Numeric.Lu.pivot_max /. h.Numeric.Lu.pivot_min
    else Float.infinity
  in
  let warnings = ref [] in
  if rcond <= rcond_floor then
    warnings :=
      Printf.sprintf
        "ill-conditioned conductance matrix: rcond %.2e (solution digits \
         are untrustworthy)"
        rcond
      :: !warnings;
  if h.Numeric.Lu.pivot_min <= pivot_ratio_floor *. h.Numeric.Lu.pivot_max then
    warnings :=
      Printf.sprintf
        "near-singular conductance matrix: pivot ratio %.2e (min %.3e, max \
         %.3e)"
        (h.Numeric.Lu.pivot_max /. Float.max h.Numeric.Lu.pivot_min 1e-300)
        h.Numeric.Lu.pivot_min h.Numeric.Lu.pivot_max
      :: !warnings;
  if h.Numeric.Lu.growth > growth_ceiling then
    warnings :=
      Printf.sprintf "unstable elimination: element growth %.2e"
        h.Numeric.Lu.growth
      :: !warnings;
  let near_singular = !warnings <> [] in
  if near_singular && !Obs.enabled then
    Obs.Metrics.incr "driver.near_singular.count";
  {
    dim = h.Numeric.Lu.dim;
    pivot_min = h.Numeric.Lu.pivot_min;
    pivot_max = h.Numeric.Lu.pivot_max;
    pivot_growth = h.Numeric.Lu.growth;
    rcond;
    condition_est;
    near_singular;
    warnings = List.rev !warnings;
  }

let analyze_mna ?(order = 4) ?(extra_moments = 0) ?(shift = 0.0)
    ?(with_direct = false) ?(sparse = false) mna =
  if order < 1 then invalid_arg "Driver.analyze: order must be >= 1";
  Obs.Span.with_ ~name:"awe.analyze" @@ fun () ->
  let count = (2 * order) + extra_moments + (if with_direct then 1 else 0) in
  let moments = Moments.compute ~count ~shift ~sparse mna in
  let health = health_of_lu (Moments.health moments) in
  let m = Moments.output_moments moments in
  (* A non-finite moment would reach the fit and print a meaningless model;
     it is an error, as it is for a sweep point. *)
  Array.iteri
    (fun k v ->
      if not (Float.is_finite v) then
        Awesym_error.errorf Nonfinite_result ~where:"awe.analyze"
          ~context:[ ("moment", Printf.sprintf "m%d" k) ]
          "moment m%d is non-finite (%g)" k v)
    m;
  (* Stability filtering compares against the shifted origin, which is
     meaningless away from DC; shifted expansions are pole-location
     diagnostics and keep every pole they find. *)
  let rom = Pade.fit ~enforce_stability:(shift = 0.0) ~with_direct ~order m in
  let rom =
    if shift = 0.0 then rom
    else
      (* Poles of the shifted-variable model translate back by s0; residues
         of a partial-fraction expansion are shift invariant. *)
      Rom.make ~direct:rom.Rom.direct
        ~poles:
          (Array.map
             (fun p -> Numeric.Cx.add p (Numeric.Cx.of_float shift))
             rom.Rom.poles)
        ~residues:rom.Rom.residues ()
  in
  { rom; moments = m; mna; health }

let analyze ?order ?extra_moments ?shift ?with_direct ?sparse nl =
  analyze_mna ?order ?extra_moments ?shift ?with_direct ?sparse
    (Circuit.Mna.build nl)
