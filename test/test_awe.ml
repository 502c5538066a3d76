(* Tests for the numeric AWE engine: moments, Padé fitting, reduced-order
   models, measures, and sensitivities. *)

module Mna = Circuit.Mna
module Builders = Circuit.Builders
module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Parser = Circuit.Parser
module Cx = Numeric.Cx
module Rom = Awe.Rom

let check_float ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" name expected actual

let rc_lowpass ~r ~c =
  Parser.parse_string
    (Printf.sprintf {|
V1 in 0 1
R1 in out %g
C1 out 0 %g
.output v(out)
|} r c)

(* ------------------------------------------------------------------ *)
(* Moments *)

let test_moments_rc () =
  (* H(s) = 1/(1+sτ) ⇒ mₖ = (−τ)ᵏ. *)
  let r = 1e3 and c = 1e-9 in
  let tau = r *. c in
  let mna = Mna.build (rc_lowpass ~r ~c) in
  let m = Awe.Moments.output_moments (Awe.Moments.compute ~count:5 mna) in
  Array.iteri
    (fun k mk ->
      check_float (Printf.sprintf "m%d" k) ((-.tau) ** float_of_int k) mk)
    m

let fig1_analytic_moments ~g1 ~g2 ~c1 ~c2 n =
  (* H = N/D with D = G1G2 + d1·s + d2·s², N = G1G2.  The moment recurrence
     follows from D·(Σ mₖ sᵏ) = N. *)
  let d0 = g1 *. g2 in
  let d1 = (g2 *. c1) +. (g2 *. c2) +. (g1 *. c2) in
  let d2 = c1 *. c2 in
  let m = Array.make n 0.0 in
  m.(0) <- 1.0;
  if n > 1 then m.(1) <- -.d1 /. d0;
  for k = 2 to n - 1 do
    m.(k) <- ((-.d1 *. m.(k - 1)) -. (d2 *. m.(k - 2))) /. d0
  done;
  m

let test_moments_fig1 () =
  let g1 = 2.0 and g2 = 3.0 and c1 = 0.5 and c2 = 1.5 in
  let nl = Builders.fig1 ~g1 ~g2 ~c1 ~c2 () in
  let m = Awe.Moments.output_moments (Awe.Moments.compute ~count:6 (Mna.build nl)) in
  let expected = fig1_analytic_moments ~g1 ~g2 ~c1 ~c2 6 in
  Array.iteri
    (fun k mk -> check_float (Printf.sprintf "m%d" k) expected.(k) mk)
    m

let test_moments_inductor () =
  (* Series RL: H(s) across R is R/(R+sL): mₖ = (−L/R)ᵏ. *)
  let r = 10.0 and l = 1e-6 in
  let nl =
    Parser.parse_string
      (Printf.sprintf {|
V1 in 0 1
L1 in out %g
R1 out 0 %g
.output v(out)
|} l r)
  in
  let m = Awe.Moments.output_moments (Awe.Moments.compute ~count:4 (Mna.build nl)) in
  Array.iteri
    (fun k mk ->
      check_float (Printf.sprintf "m%d" k) ((-.l /. r) ** float_of_int k) mk)
    m

(* ------------------------------------------------------------------ *)
(* Padé / ROM *)

let test_pade_first_order_exact () =
  (* Moments of 1/(1+sτ): the 1-pole fit must recover p = −1/τ, k = 1/τ. *)
  let tau = 1e-6 in
  let m = Array.init 4 (fun k -> (-.tau) ** float_of_int k) in
  let rom = Awe.Pade.fit ~order:1 m in
  Alcotest.(check int) "one pole" 1 (Rom.order rom);
  check_float "pole" (-1.0 /. tau) rom.Rom.poles.(0).Cx.re;
  check_float "residue" (1.0 /. tau) rom.Rom.residues.(0).Cx.re

let test_pade_second_order_exact_poles () =
  (* Fig. 1 is exactly 2nd order: the order-2 AWE model must recover the
     exact poles, the roots of C1C2·s² + d1·s + G1G2. *)
  let g1 = 2.0 and g2 = 3.0 and c1 = 0.5 and c2 = 1.5 in
  let result = Awe.Driver.analyze ~order:2 (Builders.fig1 ~g1 ~g2 ~c1 ~c2 ()) in
  let d1 = (g2 *. c1) +. (g2 *. c2) +. (g1 *. c2) in
  let r1, r2 = Numeric.Roots.quadratic (c1 *. c2) d1 (g1 *. g2) in
  let expected = List.sort compare [ r1.Cx.re; r2.Cx.re ] in
  let actual =
    Array.to_list result.Awe.Driver.rom.Rom.poles
    |> List.map (fun (p : Cx.t) -> p.Cx.re)
    |> List.sort compare
  in
  List.iter2 (fun e a -> check_float ~tol:1e-6 "exact pole recovered" e a) expected actual

let test_rom_moments_roundtrip () =
  (* The fitted model must reproduce all 2q matched moments. *)
  let nl = Builders.rc_ladder ~sections:8 ~r:100.0 ~c:1e-12 () in
  let result = Awe.Driver.analyze ~order:3 nl in
  let back = Rom.moments result.Awe.Driver.rom 6 in
  Array.iteri
    (fun k mk ->
      check_float ~tol:1e-6 (Printf.sprintf "matched m%d" k)
        result.Awe.Driver.moments.(k) mk)
    back

let test_rom_dc_gain_exact () =
  let nl = Builders.rc_ladder ~sections:10 ~r:50.0 ~c:2e-12 () in
  let result = Awe.Driver.analyze ~order:2 nl in
  (* DC gain of any RC ladder to the far end is 1. *)
  check_float ~tol:1e-9 "dc gain" 1.0 (Rom.dc_gain result.Awe.Driver.rom)

let test_rom_step_response_vs_tran () =
  (* 4-pole model of an 8-section ladder vs trapezoidal simulation. *)
  let nl = Builders.rc_ladder ~sections:8 ~r:100.0 ~c:1e-12 () in
  let result = Awe.Driver.analyze ~order:4 nl in
  let rom = result.Awe.Driver.rom in
  let mna = Mna.build nl in
  let tau = Rom.time_constant rom in
  let wave =
    Spice.Tran.simulate mna ~input:Spice.Tran.step_input ~t_step:(tau /. 100.0)
      ~t_stop:(6.0 *. tau)
  in
  Array.iter
    (fun (t, y) ->
      if t > 0.0 then begin
        let yr = Rom.step rom t in
        if Float.abs (yr -. y) > 5e-3 then
          Alcotest.failf "step mismatch at t=%g: tran %g vs rom %g" t y yr
      end)
    wave

let test_rom_frequency_response_vs_ac () =
  let nl = Builders.rc_ladder ~sections:8 ~r:100.0 ~c:1e-12 () in
  let result = Awe.Driver.analyze ~order:4 nl in
  let rom = result.Awe.Driver.rom in
  let mna = Mna.build nl in
  let f_dom = Awe.Measures.dominant_pole_hz rom in
  (* Accurate through a decade above the dominant pole. *)
  List.iter
    (fun mult ->
      let f = f_dom *. mult in
      let exact = Spice.Ac.at_frequency mna f in
      let approx = Rom.at_frequency rom f in
      if Cx.norm (Cx.sub exact approx) > 0.02 *. Float.max 0.05 (Cx.norm exact) then
        Alcotest.failf "H(j2π·%g) mismatch: exact %s vs rom %s" f
          (Format.asprintf "%a" Cx.pp exact)
          (Format.asprintf "%a" Cx.pp approx))
    [ 0.01; 0.1; 1.0; 3.0; 10.0 ]

let test_rom_stability_enforced () =
  let nl = Builders.rc_ladder ~sections:12 ~r:100.0 ~c:1e-12 () in
  let result = Awe.Driver.analyze ~order:5 nl in
  Alcotest.(check bool) "model stable" true (Rom.is_stable result.Awe.Driver.rom)

let test_pade_degenerate () =
  match Awe.Pade.fit ~order:1 [| 0.0; 0.0 |] with
  | exception Awe.Pade.Degenerate _ -> ()
  | _ -> Alcotest.fail "expected Degenerate on all-zero moments"

let test_pade_order_reduction () =
  (* A single-pole system fitted at order 2 has a singular Hankel matrix:
     the fit must fall back to order 1 rather than fail. *)
  let tau = 1e-6 in
  let m = Array.init 4 (fun k -> (-.tau) ** float_of_int k) in
  let rom = Awe.Pade.fit ~order:2 m in
  Alcotest.(check int) "reduced to one pole" 1 (Rom.order rom);
  check_float ~tol:1e-6 "pole still exact" (-1.0 /. tau) rom.Rom.poles.(0).Cx.re

(* ------------------------------------------------------------------ *)
(* Complex poles: RLC circuits *)

let test_rlc_complex_poles () =
  (* Series RLC (underdamped): poles −ζω₀ ± jω₀√(1−ζ²). *)
  let r = 10.0 and l = 1e-6 and c = 1e-9 in
  let nl =
    Parser.parse_string
      (Printf.sprintf {|
V1 in 0 1
R1 in a %g
L1 a b %g
C1 b 0 %g
.output v(b)
|} r l c)
  in
  let rom = (Awe.Driver.analyze ~order:2 nl).Awe.Driver.rom in
  let w0 = 1.0 /. Float.sqrt (l *. c) in
  let zeta = r /. 2.0 *. Float.sqrt (c /. l) in
  Alcotest.(check int) "two poles" 2 (Rom.order rom);
  let p = rom.Rom.poles.(0) in
  check_float ~tol:1e-6 "real part" (-.zeta *. w0) p.Cx.re;
  check_float ~tol:1e-6 "imaginary part" (w0 *. Float.sqrt (1.0 -. (zeta *. zeta)))
    (Float.abs p.Cx.im);
  Alcotest.(check bool) "conjugate pair" true
    (Cx.close rom.Rom.poles.(0) (Cx.conj rom.Rom.poles.(1)))

let test_rlc_ladder_ringing_vs_tran () =
  (* The ringing step response of an underdamped RLC ladder: the ROM must
     track the oscillation, not just the envelope. *)
  let nl = Builders.rlc_ladder ~sections:3 ~r:30.0 ~l:10e-9 ~c:1e-12 () in
  let rom = (Awe.Driver.analyze ~order:5 nl).Awe.Driver.rom in
  let mna = Mna.build nl in
  let horizon = 10.0 *. Rom.time_constant rom in
  let wave =
    Spice.Tran.simulate mna ~input:Spice.Tran.step_input
      ~t_step:(horizon /. 4000.0) ~t_stop:horizon
  in
  let overshoot =
    Array.fold_left (fun acc (_, y) -> Float.max acc y) 0.0 wave
  in
  Alcotest.(check bool) "response rings" true (overshoot > 1.05);
  let overshoot_rom =
    Array.fold_left
      (fun acc (t, _) -> if t > 0.0 then Float.max acc (Rom.step rom t) else acc)
      0.0 wave
  in
  check_float ~tol:0.05 "overshoot reproduced" overshoot overshoot_rom;
  (* Pointwise the truncated model tracks the oscillation within a few
     percent of the swing (moment matching is weakest at the very first
     wavefront). *)
  Array.iter
    (fun (t, y) ->
      if t > horizon /. 50.0 then begin
        let yr = Rom.step rom t in
        if Float.abs (yr -. y) > 0.08 then
          Alcotest.failf "ringing mismatch at t=%g: tran %g vs rom %g" t y yr
      end)
    wave

let test_rlc_frequency_peak () =
  (* The ROM reproduces the resonant peak of the AC response. *)
  let nl = Builders.rlc_ladder ~sections:2 ~r:5.0 ~l:100e-9 ~c:1e-12 () in
  let rom = (Awe.Driver.analyze ~order:4 nl).Awe.Driver.rom in
  let mna = Mna.build nl in
  let f0 = 1.0 /. (2.0 *. Float.pi *. Float.sqrt (100e-9 *. 1e-12)) in
  List.iter
    (fun mult ->
      let f = f0 *. mult in
      let exact = Cx.norm (Spice.Ac.at_frequency mna f) in
      let approx = Cx.norm (Rom.at_frequency rom f) in
      if Float.abs (exact -. approx) > 0.03 *. Float.max 1.0 exact then
        Alcotest.failf "AC mismatch at %g Hz: %g vs %g" f exact approx)
    [ 0.2; 0.5; 0.8; 1.0 ]

(* ------------------------------------------------------------------ *)
(* Extensions: direct term, zeros, shifted expansion *)

let rc_highpass ~r ~c =
  Parser.parse_string
    (Printf.sprintf {|
V1 in 0 1
C1 in out %g
R1 out 0 %g
.output v(out)
|} c r)

let test_direct_term_highpass () =
  (* H(s) = sτ/(1+sτ) = 1 − (1/τ)/(s + 1/τ): d = 1, p = −1/τ, k = −1/τ. *)
  let r = 1e3 and c = 1e-9 in
  let tau = r *. c in
  let nl = rc_highpass ~r ~c in
  let result = Awe.Driver.analyze ~order:1 ~with_direct:true nl in
  let rom = result.Awe.Driver.rom in
  check_float ~tol:1e-9 "direct term" 1.0 rom.Rom.direct;
  check_float ~tol:1e-9 "pole" (-1.0 /. tau) rom.Rom.poles.(0).Cx.re;
  check_float ~tol:1e-9 "residue" (-1.0 /. tau) rom.Rom.residues.(0).Cx.re;
  (* Step response of a highpass: e^{−t/τ}. *)
  List.iter
    (fun t ->
      check_float ~tol:1e-9
        (Printf.sprintf "step at %g" t)
        (Float.exp (-.t /. tau))
        (Rom.step rom t))
    [ 0.1 *. tau; tau; 3.0 *. tau ]

let test_direct_term_strictly_proper () =
  (* When the model order covers the circuit exactly (Fig. 1 is 2nd order
     and strictly proper), the fitted direct term must vanish.  On truncated
     models d legitimately absorbs the unmodeled fast poles. *)
  let nl = Builders.fig1 ~g1:2.0 ~g2:3.0 ~c1:0.5 ~c2:1.5 () in
  let result = Awe.Driver.analyze ~order:2 ~with_direct:true nl in
  if Float.abs result.Awe.Driver.rom.Rom.direct > 1e-9 then
    Alcotest.failf "expected tiny direct term, got %g"
      result.Awe.Driver.rom.Rom.direct

let test_zeros_known_model () =
  (* H = (s+2)/((s+1)(s+3)) = 0.5/(s+1) + 0.5/(s+3): one zero at −2. *)
  let rom =
    Rom.make
      ~poles:[| Cx.of_float (-1.0); Cx.of_float (-3.0) |]
      ~residues:[| Cx.of_float 0.5; Cx.of_float 0.5 |]
      ()
  in
  let zeros = Rom.zeros rom in
  Alcotest.(check int) "one zero" 1 (Array.length zeros);
  check_float ~tol:1e-9 "zero location" (-2.0) zeros.(0).Cx.re

let test_zeros_highpass_at_origin () =
  let nl = rc_highpass ~r:1e3 ~c:1e-9 in
  let rom = (Awe.Driver.analyze ~order:1 ~with_direct:true nl).Awe.Driver.rom in
  let zeros = Rom.zeros rom in
  Alcotest.(check int) "one zero" 1 (Array.length zeros);
  if Cx.norm zeros.(0) > 1e-3 /. (1e3 *. 1e-9) then
    Alcotest.failf "highpass zero should sit at the origin, got %g"
      zeros.(0).Cx.re

let test_zeros_no_finite_zero () =
  let rom =
    Rom.make ~poles:[| Cx.of_float (-1.0) |] ~residues:[| Cx.of_float 1.0 |] ()
  in
  Alcotest.(check int) "all-pole model" 0 (Array.length (Rom.zeros rom))

let test_shifted_expansion_recovers_pole () =
  let r = 1e3 and c = 1e-9 in
  let tau = r *. c in
  let nl = rc_lowpass ~r ~c in
  (* Expand about a point well away from DC; the translated pole must land
     where the DC expansion put it. *)
  let result = Awe.Driver.analyze ~order:1 ~shift:(2.0 /. tau) nl in
  check_float ~tol:1e-9 "shifted pole" (-1.0 /. tau)
    result.Awe.Driver.rom.Rom.poles.(0).Cx.re;
  check_float ~tol:1e-9 "shifted residue" (1.0 /. tau)
    result.Awe.Driver.rom.Rom.residues.(0).Cx.re

let test_shifted_expansion_far_poles () =
  (* A ladder's far poles are invisible to low-order DC expansions; an
     expansion near the fast end finds a pole close to the fastest exact
     pole. *)
  let nl = Builders.rc_ladder ~sections:6 ~r:100.0 ~c:1e-12 () in
  let tf = Exact.Network.transfer_function nl in
  let exact =
    Exact.Network.poles tf (fun _ -> 0.0)
    |> Array.map (fun (p : Cx.t) -> p.Cx.re)
    |> Array.to_list |> List.sort compare
  in
  let fastest_exact = List.hd exact in
  (* Expand close to the fast pole (Padé converges to the poles nearest the
     expansion point). *)
  let result = Awe.Driver.analyze ~order:2 ~shift:(0.95 *. fastest_exact) nl in
  let closest =
    Array.fold_left
      (fun acc (p : Cx.t) ->
        Float.min acc (Float.abs ((p.Cx.re -. fastest_exact) /. fastest_exact)))
      Float.infinity result.Awe.Driver.rom.Rom.poles
  in
  Alcotest.(check bool)
    (Printf.sprintf "a shifted pole lands within 5%% of the fastest exact \
                     pole (rel err %.3f)" closest)
    true (closest < 0.05)

let test_group_delay_single_pole () =
  (* τ(0) = 1/|p| for one pole; decays at high frequency. *)
  let p = -1e6 in
  let rom =
    Rom.make ~poles:[| Cx.of_float p |] ~residues:[| Cx.of_float (-.p) |] ()
  in
  check_float ~tol:1e-9 "dc group delay" (1.0 /. Float.abs p)
    (Awe.Measures.group_delay rom 0.0);
  let tau_hi = Awe.Measures.group_delay rom 1e9 in
  Alcotest.(check bool) "delay collapses past the pole" true
    (tau_hi < 0.01 /. Float.abs p)

let test_group_delay_matches_fd_phase () =
  let nl = Builders.rc_ladder ~sections:6 ~r:100.0 ~c:1e-12 () in
  let rom = (Awe.Driver.analyze ~order:3 nl).Awe.Driver.rom in
  let f = Awe.Measures.dominant_pole_hz rom in
  let phase g = Cx.arg (Rom.at_frequency rom g) in
  let h = f *. 1e-5 in
  let fd = -.(phase (f +. h) -. phase (f -. h)) /. (2.0 *. Float.pi *. 2.0 *. h) in
  check_float ~tol:1e-4 "analytic vs finite-difference phase slope" fd
    (Awe.Measures.group_delay rom f)

(* ------------------------------------------------------------------ *)
(* Ramp response *)

let test_ramp_response_analytic () =
  (* Single pole: ramp response has the closed form
     y(t) = (1/T)[ m + (e^{pt}(1-e^{-pm}))/p - m ]... checked against the
     trapezoidal simulator instead of re-deriving. *)
  let r = 1e3 and c = 1e-9 in
  let tau = r *. c in
  let mna = Mna.build (rc_lowpass ~r ~c) in
  let rom = (Awe.Driver.analyze_mna ~order:1 mna).Awe.Driver.rom in
  let rise = 2.0 *. tau in
  let wave =
    Spice.Tran.simulate mna
      ~input:(Spice.Tran.ramp_input ~rise)
      ~t_step:(tau /. 400.0) ~t_stop:(8.0 *. tau)
  in
  Array.iter
    (fun (t, y) ->
      if t > 0.0 then begin
        let yr = Rom.ramp rom ~rise t in
        if Float.abs (yr -. y) > 1e-3 then
          Alcotest.failf "ramp mismatch at t=%g: tran %g vs rom %g" t y yr
      end)
    wave

let test_ramp_limits () =
  (* A very fast ramp approaches the step response; t=0 gives 0. *)
  let rom =
    Rom.make ~poles:[| Cx.of_float (-1.0) |] ~residues:[| Cx.of_float 1.0 |] ()
  in
  check_float "zero at t=0" 0.0 (Rom.ramp rom ~rise:1e-3 0.0);
  check_float ~tol:1e-3 "fast ramp ≈ step" (Rom.step rom 2.0)
    (Rom.ramp rom ~rise:1e-6 2.0)

(* ------------------------------------------------------------------ *)
(* Krylov (Arnoldi) reduction *)

let test_krylov_basis_orthonormal () =
  let nl = Builders.rc_ladder ~sections:10 ~r:100.0 ~c:1e-12 () in
  let v = Awe.Krylov.basis ~order:5 (Mna.build nl) in
  let q = Numeric.Matrix.cols v in
  Alcotest.(check int) "five columns" 5 q;
  let gram = Numeric.Matrix.mul (Numeric.Matrix.transpose v) v in
  Alcotest.(check bool) "VtV = I" true
    (Numeric.Matrix.equal ~tol:1e-10 gram (Numeric.Matrix.identity q))

let test_krylov_basis_degenerates () =
  (* A 1-state circuit's Krylov sequence collapses after a few vectors (the
     dynamic direction plus the algebraic content of r0). *)
  let v = Awe.Krylov.basis ~order:6 (Mna.build (rc_lowpass ~r:1e3 ~c:1e-9)) in
  Alcotest.(check bool) "sequence deflates early" true
    (Numeric.Matrix.cols v < 4)

let test_krylov_exact_small_system () =
  (* Fig. 1 is 2nd order: once the basis spans the reachable space (order 3
     covers both dynamic directions plus r0's algebraic content), the pencil
     reproduces the exact poles. *)
  let g1 = 2.0 and g2 = 3.0 and c1 = 0.5 and c2 = 1.5 in
  let mna = Mna.build (Builders.fig1 ~g1 ~g2 ~c1 ~c2 ()) in
  let result = Awe.Krylov.analyze ~order:3 mna in
  let d1 = (g2 *. c1) +. (g2 *. c2) +. (g1 *. c2) in
  let r1, r2 = Numeric.Roots.quadratic (c1 *. c2) d1 (g1 *. g2) in
  let expected = List.sort compare [ r1.Cx.re; r2.Cx.re ] in
  let actual =
    Array.to_list result.Awe.Driver.rom.Rom.poles
    |> List.map (fun (p : Cx.t) -> p.Cx.re)
    |> List.sort compare
  in
  List.iter2 (fun e a -> check_float ~tol:1e-6 "pencil pole" e a) expected actual

let test_krylov_matches_pade_low_order () =
  (* At low order both methods match the same moments, so the dominant poles
     agree. *)
  let nl = Builders.rc_ladder ~sections:10 ~r:100.0 ~c:1e-12 () in
  let mna = Mna.build nl in
  let pade = (Awe.Driver.analyze_mna ~order:3 mna).Awe.Driver.rom in
  let krylov = (Awe.Krylov.analyze ~order:4 mna).Awe.Driver.rom in
  check_float ~tol:1e-4 "dominant pole"
    (Cx.norm (Rom.dominant_pole pade))
    (Cx.norm (Rom.dominant_pole krylov))

let test_krylov_survives_high_order () =
  (* Order 8 on a 20-section ladder: explicit Hankel fitting typically
     collapses to far fewer poles; the orthogonal basis keeps the pencil
     well conditioned and the model accurate vs AC analysis. *)
  let nl = Builders.rc_ladder ~sections:20 ~r:100.0 ~c:1e-12 () in
  let mna = Mna.build nl in
  let krylov = (Awe.Krylov.analyze ~order:8 mna).Awe.Driver.rom in
  Alcotest.(check bool) "several poles retained" true (Rom.order krylov >= 5);
  let f_dom = Awe.Measures.dominant_pole_hz krylov in
  List.iter
    (fun mult ->
      let f = f_dom *. mult in
      let exact = Spice.Ac.at_frequency mna f in
      let got = Rom.at_frequency krylov f in
      if Cx.norm (Cx.sub exact got) > 0.02 then
        Alcotest.failf "Krylov model off at %gx: |err| = %g" mult
          (Cx.norm (Cx.sub exact got)))
    [ 0.5; 1.0; 3.0; 10.0; 30.0 ]

(* ------------------------------------------------------------------ *)
(* Multipoint AWE *)

let test_multipoint_merge () =
  let p1 = [| Cx.of_float (-1.0); Cx.make (-2.0) 1.0 |] in
  let p2 = [| Cx.of_float (-1.0000001); Cx.of_float (-5.0) |] in
  let merged = Awe.Multipoint.merge_poles [ p1; p2 ] in
  Alcotest.(check int) "near-duplicate dropped" 3 (Array.length merged)

let test_multipoint_single_point_matches_awe () =
  (* With one expansion point at DC, multipoint degenerates to plain AWE. *)
  let nl = Builders.rc_ladder ~sections:6 ~r:100.0 ~c:1e-12 () in
  let mna = Mna.build nl in
  let single = Awe.Multipoint.analyze ~order_per_point:2 ~points:[ Cx.zero ] mna in
  let plain = (Awe.Driver.analyze_mna ~order:2 mna).Awe.Driver.rom in
  check_float ~tol:1e-6 "same dominant pole"
    (Cx.norm (Rom.dominant_pole plain))
    (Cx.norm (Rom.dominant_pole single))

let test_multipoint_complex_moments () =
  (* Complex-shift moments are Taylor coefficients: for the RC lowpass,
     H(s₀+σ) = 1/(1+τ(s₀+σ)) gives mₖ = (−τ)ᵏ/(1+τs₀)^{k+1}. *)
  let r = 1e3 and c = 1e-9 in
  let tau = r *. c in
  let mna = Mna.build (rc_lowpass ~r ~c) in
  let s0 = Cx.make 0.0 (0.5 /. tau) in
  let m = Awe.Moments.complex_output_moments ~count:4 ~shift:s0 mna in
  let base = Cx.add Cx.one (Cx.scale tau s0) in
  Array.iteri
    (fun k mk ->
      let expected =
        Cx.div
          (Cx.of_float ((-.tau) ** float_of_int k))
          (Cx.pow_int base (k + 1))
      in
      if Cx.norm (Cx.sub expected mk) > 1e-9 *. Cx.norm expected then
        Alcotest.failf "complex m%d mismatch" k)
    m

let test_multipoint_wideband () =
  (* Complex frequency hopping: a 12-section ladder over 2 decades.  The
     pooled model must beat the single DC expansion across the band. *)
  let nl = Builders.rc_ladder ~sections:12 ~r:100.0 ~c:1e-12 () in
  let mna = Mna.build nl in
  let single = (Awe.Driver.analyze_mna ~order:2 mna).Awe.Driver.rom in
  let f_dom = Awe.Measures.dominant_pole_hz single in
  let w_dom = 2.0 *. Float.pi *. f_dom in
  let multi =
    Awe.Multipoint.analyze ~order_per_point:2
      ~points:[ Cx.zero; Cx.make 0.0 (10.0 *. w_dom); Cx.make 0.0 (50.0 *. w_dom) ]
      mna
  in
  Alcotest.(check bool) "multipoint pools more poles" true
    (Rom.order multi > Rom.order single);
  Alcotest.(check bool) "pooled model stable" true (Rom.is_stable multi);
  (* Absolute error (the passband is 1): beats the single expansion
     everywhere in the band, by a lot at the band edge. *)
  let err rom f =
    let exact = Spice.Ac.at_frequency mna f in
    Cx.norm (Cx.sub exact (Rom.at_frequency rom f))
  in
  List.iter
    (fun mult ->
      let f = f_dom *. mult in
      let e_multi = err multi f and e_single = err single f in
      if e_multi > e_single +. 1e-4 then
        Alcotest.failf "multipoint worse at %gx: %.5f vs single %.5f" mult
          e_multi e_single)
    [ 1.0; 3.0; 10.0; 30.0; 50.0 ];
  Alcotest.(check bool) "band edge much better" true
    (err multi (10.0 *. f_dom) < 0.3 *. err single (10.0 *. f_dom))

let test_multipoint_stable () =
  let nl = Builders.rc_ladder ~sections:10 ~r:50.0 ~c:2e-12 () in
  let mna = Mna.build nl in
  let f_dom =
    Awe.Measures.dominant_pole_hz (Awe.Driver.analyze_mna ~order:2 mna).Awe.Driver.rom
  in
  let w = 2.0 *. Float.pi *. f_dom in
  let rom =
    Awe.Multipoint.analyze ~points:[ Cx.zero; Cx.make 0.0 (20.0 *. w) ] mna
  in
  Alcotest.(check bool) "merged model stable" true (Rom.is_stable rom)

(* ------------------------------------------------------------------ *)
(* Measures *)

let test_measures_rc () =
  let tau = 1e-6 in
  let m = Array.init 4 (fun k -> (-.tau) ** float_of_int k) in
  let rom = Awe.Pade.fit ~order:1 m in
  check_float "dc gain" 1.0 (Awe.Measures.dc_gain rom);
  check_float ~tol:1e-6 "dominant pole Hz" (1.0 /. (2.0 *. Float.pi *. tau))
    (Awe.Measures.dominant_pole_hz rom);
  (match Awe.Measures.delay_50 rom with
  | Some t -> check_float ~tol:1e-4 "50%% delay = τ·ln2" (tau *. Float.log 2.0) t
  | None -> Alcotest.fail "expected a 50% crossing");
  (match Awe.Measures.rise_time rom with
  | Some t -> check_float ~tol:1e-3 "10-90 rise = τ·ln9" (tau *. Float.log 9.0) t
  | None -> Alcotest.fail "expected a rise time")

let test_measures_unity_gain () =
  (* Single pole with DC gain A0: f_unity ≈ A0·f_pole for A0 ≫ 1. *)
  let a0 = 1e5 and f_pole = 10.0 in
  let p = Cx.make (-2.0 *. Float.pi *. f_pole) 0.0 in
  let k = Cx.scale a0 (Cx.neg p) in
  let rom = Rom.make ~poles:[| p |] ~residues:[| k |] () in
  (match Awe.Measures.unity_gain_frequency rom with
  | Some f -> check_float ~tol:1e-4 "f_unity" (a0 *. f_pole) f
  | None -> Alcotest.fail "expected unity crossing");
  (match Awe.Measures.phase_margin rom with
  | Some pm -> check_float ~tol:1e-2 "phase margin ≈ 90°" 90.0 pm
  | None -> Alcotest.fail "expected phase margin")

let test_measures_no_unity_crossing () =
  (* DC gain 0.5 never crosses unity. *)
  let rom =
    Rom.make ~poles:[| Cx.of_float (-1.0) |] ~residues:[| Cx.of_float 0.5 |] ()
  in
  Alcotest.(check bool) "no crossing" true
    (Option.is_none (Awe.Measures.unity_gain_frequency rom))

let test_elmore () =
  check_float "elmore" 2.0 (Awe.Measures.elmore_delay [| 0.5; -1.0 |])

(* Reference measures: the boxed gain and the fixed 100-step bisection
   the unboxed, early-stopping ones must reproduce bit for bit. *)
module Reference = struct
  let gain_at m f = Cx.norm (Rom.at_frequency m f)

  let fastest_pole_hz m =
    Array.fold_left (fun acc p -> Float.max acc (Cx.norm p)) 0.0 m.Rom.poles
    /. (2.0 *. Float.pi)

  let unity_gain_frequency m =
    if Rom.order m = 0 then None
    else begin
      let f_lo = Float.max 1e-12 (Awe.Measures.dominant_pole_hz m /. 1e3) in
      if gain_at m f_lo <= 1.0 then None
      else begin
        let rec bracket f_hi tries =
          if tries = 0 then None
          else if gain_at m f_hi < 1.0 then Some f_hi
          else bracket (f_hi *. 10.0) (tries - 1)
        in
        match bracket (Float.max f_lo (fastest_pole_hz m *. 10.0)) 40 with
        | None -> None
        | Some f_hi ->
          let rec go lo hi n =
            if n = 0 then Some (Float.sqrt (lo *. hi))
            else begin
              let mid = Float.sqrt (lo *. hi) in
              if gain_at m mid > 1.0 then go mid hi (n - 1)
              else go lo mid (n - 1)
            end
          in
          go f_lo f_hi 100
      end
    end

  let phase_margin m =
    match unity_gain_frequency m with
    | None -> None
    | Some f ->
      let h = Rom.at_frequency m f in
      Some (180.0 +. (Cx.arg h *. 180.0 /. Float.pi))
end

(* Random ROMs of orders 1–4 built from real poles and conjugate pairs,
   with and without a direct term, scaled to a DC gain between 1e-2 and
   1e6 (so some never cross unity). *)
let rom_gen =
  QCheck2.Gen.(
    let log_uniform lo hi = map (fun u -> 10.0 ** u) (float_range lo hi) in
    let real_pole =
      let* a = log_uniform 1.0 9.0 and* k = float_range (-1.0) 1.0 in
      return [ (Cx.of_float (-.a), Cx.of_float k) ]
    in
    let pair =
      let* sigma = log_uniform 0.0 8.0 and* omega = log_uniform 1.0 9.0 in
      let* kr = float_range (-1.0) 1.0 and* ki = float_range (-1.0) 1.0 in
      let p = Cx.make (-.sigma) omega and k = Cx.make kr ki in
      return [ (p, k); (Cx.conj p, Cx.conj k) ]
    in
    let* order = 1 -- 4 in
    let rec parts q =
      if q = 0 then return []
      else if q = 1 then real_pole
      else
        let* first = oneof [ real_pole; pair ] in
        let* rest = parts (q - List.length first) in
        return (first @ rest)
    in
    let* terms = parts order in
    let* direct = oneof [ return 0.0; float_range (-2.0) 2.0 ] in
    let* gain = log_uniform (-2.0) 6.0 and* sign = oneofl [ 1.0; -1.0 ] in
    let poles = Array.of_list (List.map fst terms) in
    let residues = Array.of_list (List.map snd terms) in
    let sum = ref 0.0 in
    Array.iteri (fun i p -> sum := !sum -. (Cx.div residues.(i) p).Cx.re) poles;
    let scale = if !sum = 0.0 then 1.0 else ((sign *. gain) -. direct) /. !sum in
    return
      (Rom.make ~direct ~poles ~residues:(Array.map (Cx.scale scale) residues) ()))

let print_rom m = Format.asprintf "%a" Rom.pp m

let prop_measures_bit_identical =
  QCheck2.Test.make ~name:"unboxed measures ≡ boxed 100-step reference"
    ~count:500 ~print:print_rom rom_gen (fun m ->
      let bits = Int64.bits_of_float in
      let same_opt what a b =
        match (a, b) with
        | None, None -> ()
        | Some x, Some y when bits x = bits y -> ()
        | _ ->
          let show = function None -> "None" | Some v -> Printf.sprintf "%h" v in
          Alcotest.failf "%s: reference %s, got %s" what (show a) (show b)
      in
      let freqs =
        [ 0.0; 1e-3; 1.0; 1e3; 1e6; 1e9; 1e12 ]
        @ List.map (fun p -> Cx.norm p /. (2.0 *. Float.pi)) (Array.to_list m.Rom.poles)
        @ List.map (fun p -> p.Cx.im /. (2.0 *. Float.pi)) (Array.to_list m.Rom.poles)
      in
      List.iter
        (fun f ->
          let want = Reference.gain_at m f and got = Awe.Measures.gain_at m f in
          if bits want <> bits got then
            Alcotest.failf "gain_at %h: reference %h, got %h" f want got)
        freqs;
      let unity = Awe.Measures.unity_gain_frequency m in
      same_opt "unity_gain_frequency" (Reference.unity_gain_frequency m) unity;
      same_opt "phase_margin" (Reference.phase_margin m) (Awe.Measures.phase_margin m);
      same_opt "phase_margin_at"
        (Reference.phase_margin m)
        (Option.map (Awe.Measures.phase_margin_at m) unity);
      true)

(* The boxed Padé fit and step-response measures the unboxed ones must
   reproduce bit for bit: the LU elimination and complex solve they
   called, [Rom.moments] and [Rom.step] included.  (The old one-shot LU
   also ran a condition estimate, which never touched the solution.) *)
module Reference_finish = struct
  module Matrix = Numeric.Matrix

  let lu_solve_dense a b =
    let n = Matrix.rows a in
    let lu = Matrix.copy a in
    let perm = Array.init n (fun i -> i) in
    for k = 0 to n - 1 do
      let pivot_row = ref k in
      let pivot_mag = ref (Float.abs (Matrix.get lu k k)) in
      for i = k + 1 to n - 1 do
        let mag = Float.abs (Matrix.get lu i k) in
        if mag > !pivot_mag then begin
          pivot_mag := mag;
          pivot_row := i
        end
      done;
      if !pivot_mag = 0.0 then raise (Numeric.Lu.Singular k);
      if !pivot_row <> k then begin
        for j = 0 to n - 1 do
          let tmp = Matrix.get lu k j in
          Matrix.set lu k j (Matrix.get lu !pivot_row j);
          Matrix.set lu !pivot_row j tmp
        done;
        let tmp = perm.(k) in
        perm.(k) <- perm.(!pivot_row);
        perm.(!pivot_row) <- tmp
      end;
      let pivot = Matrix.get lu k k in
      for i = k + 1 to n - 1 do
        let factor = Matrix.get lu i k /. pivot in
        Matrix.set lu i k factor;
        if factor <> 0.0 then
          for j = k + 1 to n - 1 do
            Matrix.set lu i j (Matrix.get lu i j -. (factor *. Matrix.get lu k j))
          done
      done
    done;
    let x = Array.init n (fun i -> b.(perm.(i))) in
    for i = 1 to n - 1 do
      let acc = ref x.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (Matrix.get lu i j *. x.(j))
      done;
      x.(i) <- !acc
    done;
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (Matrix.get lu i j *. x.(j))
      done;
      x.(i) <- !acc /. Matrix.get lu i i
    done;
    x

  let cmatrix_solve n (a : Cx.t array) (b : Cx.t array) =
    let a = Array.copy a and x = Array.copy b in
    let at i j = a.((i * n) + j) in
    let put i j v = a.((i * n) + j) <- v in
    for k = 0 to n - 1 do
      let pivot_row = ref k in
      let pivot_mag = ref (Cx.norm (at k k)) in
      for i = k + 1 to n - 1 do
        let mag = Cx.norm (at i k) in
        if mag > !pivot_mag then begin
          pivot_mag := mag;
          pivot_row := i
        end
      done;
      if !pivot_mag = 0.0 then raise (Numeric.Cmatrix.Singular k);
      if !pivot_row <> k then begin
        for j = 0 to n - 1 do
          let tmp = at k j in
          put k j (at !pivot_row j);
          put !pivot_row j tmp
        done;
        let tmp = x.(k) in
        x.(k) <- x.(!pivot_row);
        x.(!pivot_row) <- tmp
      end;
      let pivot = at k k in
      for i = k + 1 to n - 1 do
        let f = Cx.div (at i k) pivot in
        if f <> Cx.zero then begin
          for j = k to n - 1 do
            put i j (Cx.sub (at i j) (Cx.mul f (at k j)))
          done;
          x.(i) <- Cx.sub x.(i) (Cx.mul f x.(k))
        end
      done
    done;
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := Cx.sub !acc (Cx.mul (at i j) x.(j))
      done;
      x.(i) <- Cx.div !acc (at i i)
    done;
    x

  let pow_int z n =
    let rec go acc base n =
      if n = 0 then acc
      else if n land 1 = 1 then go (Cx.mul acc base) (Cx.mul base base) (n asr 1)
      else go acc (Cx.mul base base) (n asr 1)
    in
    go Cx.one z n

  let rom_moments (m : Rom.t) n =
    Array.init n (fun k ->
        let acc = ref Cx.zero in
        Array.iteri
          (fun i p ->
            acc := Cx.add !acc (Cx.div m.Rom.residues.(i) (pow_int p (k + 1))))
          m.Rom.poles;
        let base = -. !acc.Cx.re in
        if k = 0 then base +. m.Rom.direct else base)

  let moment_scale m =
    let n = Array.length m in
    let rec first k =
      if k >= n then None else if m.(k) <> 0.0 then Some k else first (k + 1)
    in
    match first 0 with
    | None -> 1.0
    | Some j ->
      if j + 1 >= n || m.(j + 1) = 0.0 then 1.0 else Float.abs (m.(j) /. m.(j + 1))

  let scaled_moments alpha m =
    let factor = ref 1.0 in
    Array.map
      (fun v ->
        let out = v *. !factor in
        factor := !factor *. alpha;
        out)
      m

  let char_poly ~offset ~order m =
    let q = order in
    let h = Matrix.init q q (fun k j -> m.(offset + k + j)) in
    let rhs = Array.init q (fun k -> -.m.(offset + k + q)) in
    Numeric.Poly.of_coeffs (Array.append (lu_solve_dense h rhs) [| 1.0 |])

  let residues ~offset ~poles m =
    let q = Array.length poles in
    if q = 0 then [||]
    else begin
      let x = Array.map Cx.inv poles in
      let v =
        Array.init (q * q) (fun e ->
            let k = e / q and i = e mod q in
            Cx.neg (pow_int x.(i) (offset + k + 1)))
      in
      cmatrix_solve q v (Array.init q (fun k -> Cx.of_float m.(offset + k)))
    end

  let poles_of_char char =
    Numeric.Roots.of_poly char
    |> Array.to_list
    |> List.filter_map (fun x -> if Cx.norm x < 1e-30 then None else Some (Cx.inv x))
    |> Array.of_list

  let direct_for poles res m0 =
    let acc = ref Cx.zero in
    Array.iteri (fun i p -> acc := Cx.add !acc (Cx.div res.(i) p)) poles;
    m0 +. !acc.Cx.re

  let roundtrip_ok ~offset rom m =
    let n = Int.min (Array.length m) (offset + (2 * Rom.order rom)) in
    let back = rom_moments rom n in
    let ok = ref true in
    for k = 0 to n - 1 do
      if Float.abs (back.(k) -. m.(k)) > 1e-6 *. Float.max 1.0 (Float.abs m.(k))
      then ok := false
    done;
    !ok

  let visible_poles ~offset poles res m =
    let n = Array.length m in
    List.filter
      (fun i ->
        let k = res.(i) and p = poles.(i) in
        let rec any j =
          offset + j < n
          && (Cx.norm k /. (Cx.norm p ** float_of_int (j + 1))
              > 1e-9 *. Float.max 1e-30 (Float.abs m.(offset + j))
             || any (j + 1))
        in
        any 0)
      (List.init (Array.length poles) Fun.id)
    |> List.map (fun i -> poles.(i))
    |> Array.of_list

  let rec fit_scaled ~offset ~order m =
    if order < 1 then
      raise (Awe.Pade.Degenerate "no nonsingular Hankel system at any order");
    let lower () = fit_scaled ~offset ~order:(order - 1) m in
    match char_poly ~offset ~order m with
    | exception Numeric.Lu.Singular _ -> lower ()
    | char -> (
      let poles = poles_of_char char in
      if Array.length poles = 0 then lower ()
      else
        match residues ~offset ~poles m with
        | exception Numeric.Cmatrix.Singular _ -> lower ()
        | res -> (
          let kept = visible_poles ~offset poles res m in
          if Array.length kept = 0 then lower ()
          else
            match residues ~offset ~poles:kept m with
            | exception Numeric.Cmatrix.Singular _ -> lower ()
            | res ->
              let direct = if offset = 0 then 0.0 else direct_for kept res m.(0) in
              let rom = Rom.make ~direct ~poles:kept ~residues:res () in
              if roundtrip_ok ~offset rom m then rom else lower ()))

  let stabilize ~offset rom m =
    if Rom.is_stable rom then rom
    else begin
      let keep =
        Array.of_list
          (List.filter (fun (p : Cx.t) -> p.Cx.re < 0.0) (Array.to_list rom.Rom.poles))
      in
      if Array.length keep = 0 then
        raise (Awe.Pade.Degenerate "all poles unstable; cannot stabilize");
      let res = residues ~offset ~poles:keep m in
      let direct = if offset = 0 then 0.0 else direct_for keep res m.(0) in
      Rom.make ~direct ~poles:keep ~residues:res ()
    end

  let fit ~enforce_stability ~with_direct ~order m =
    let offset = if with_direct then 1 else 0 in
    if Array.for_all (fun v -> v = 0.0) m then
      raise (Awe.Pade.Degenerate "all moments are zero");
    let alpha = moment_scale m in
    let m_hat = scaled_moments alpha m in
    let rom = fit_scaled ~offset ~order m_hat in
    let rom = if enforce_stability then stabilize ~offset rom m_hat else rom in
    Rom.make ~direct:rom.Rom.direct
      ~poles:(Array.map (Cx.scale alpha) rom.Rom.poles)
      ~residues:(Array.map (Cx.scale alpha) rom.Rom.residues)
      ()

  let step (m : Rom.t) t =
    let acc = ref m.Rom.direct in
    Array.iteri
      (fun i p ->
        let ratio = Cx.div m.Rom.residues.(i) p in
        let term = Cx.mul ratio (Cx.sub (Cx.exp (Cx.scale t p)) Cx.one) in
        acc := !acc +. term.Cx.re)
      m.Rom.poles;
    !acc

  let default_horizon m = 30.0 *. Rom.time_constant m

  let crossing ?horizon m target =
    let horizon = match horizon with Some h -> h | None -> default_horizon m in
    if not (Float.is_finite horizon) then None
    else begin
      let samples = 4000 in
      let dt = horizon /. float_of_int samples in
      let rec go lo hi n =
        if n = 0 then 0.5 *. (lo +. hi)
        else begin
          let mid = 0.5 *. (lo +. hi) in
          if (step m mid -. target) *. (step m lo -. target) <= 0.0 then
            go lo mid (n - 1)
          else go mid hi (n - 1)
        end
      in
      let rec scan k prev =
        if k > samples then None
        else begin
          let t = dt *. float_of_int k in
          let y = step m t in
          if (prev -. target) *. (y -. target) <= 0.0 && prev <> y then
            Some (go (dt *. float_of_int (k - 1)) t 60)
          else scan (k + 1) y
        end
      in
      scan 1 (step m 0.0)
    end

  let delay_50 ?horizon m =
    let final = Rom.dc_gain m in
    if final = 0.0 then None else crossing ?horizon m (0.5 *. final)

  let rise_time ?(lo = 0.1) ?(hi = 0.9) ?horizon m =
    let final = Rom.dc_gain m in
    if final = 0.0 then None
    else
      match (crossing ?horizon m (lo *. final), crossing ?horizon m (hi *. final)) with
      | Some t_lo, Some t_hi -> Some (Float.abs (t_hi -. t_lo))
      | _, _ -> None

  let peak_step ?horizon m =
    let samples = 2000 in
    let horizon = match horizon with Some h -> h | None -> default_horizon m in
    let horizon = if Float.is_finite horizon then horizon else 1.0 in
    let dt = horizon /. float_of_int samples in
    let best_t = ref 0.0 and best_y = ref 0.0 in
    for k = 0 to samples do
      let t = dt *. float_of_int k in
      let y = step m t in
      if Float.abs y > Float.abs !best_y then begin
        best_t := t;
        best_y := y
      end
    done;
    (!best_t, !best_y)
end

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_rom (a : Rom.t) (b : Rom.t) =
  let same_cx (x : Cx.t) (y : Cx.t) = same_bits x.Cx.re y.Cx.re && same_bits x.Cx.im y.Cx.im in
  same_bits a.Rom.direct b.Rom.direct
  && Array.length a.Rom.poles = Array.length b.Rom.poles
  && Array.for_all2 same_cx a.Rom.poles b.Rom.poles
  && Array.for_all2 same_cx a.Rom.residues b.Rom.residues

(* Every fit of the moments of a random model — orders 1–4 whatever the
   model's own order, so singular Hankel systems, invisible and unstable
   poles and order reduction all occur — matches the boxed fit bit for
   bit, or raises the same exception. *)
let prop_pade_fit_bit_identical =
  QCheck2.Test.make ~name:"unboxed Padé fit ≡ boxed reference" ~count:500
    ~print:print_rom rom_gen (fun m ->
      let moments = Rom.moments m 9 in
      let want = Reference_finish.rom_moments m 9 in
      Array.iteri
        (fun k v ->
          if not (same_bits v want.(k)) then
            Alcotest.failf "Rom.moments m%d: reference %h, got %h" k want.(k) v)
        moments;
      let outcome f =
        match f () with
        | rom -> Ok rom
        | exception e -> Error (Printexc.to_string e)
      in
      List.iter
        (fun (order, with_direct, enforce_stability) ->
          let want =
            outcome (fun () ->
                Reference_finish.fit ~enforce_stability ~with_direct ~order moments)
          and got =
            outcome (fun () ->
                Awe.Pade.fit ~enforce_stability ~with_direct ~order moments)
          in
          match (want, got) with
          | Ok a, Ok b when same_rom a b -> ()
          | Error a, Error b when a = b -> ()
          | _ ->
            let show = function
              | Ok r -> print_rom r
              | Error e -> "exception " ^ e
            in
            Alcotest.failf "fit order %d direct %b stable %b: reference %s, got %s"
              order with_direct enforce_stability (show want) (show got))
        (List.concat_map
           (fun order ->
             [ (order, false, true); (order, true, true); (order, false, false);
               (order, true, false) ])
           [ 1; 2; 3; 4 ]);
      true)

(* The public one-shot pieces share the fit's cores. *)
let prop_pade_pieces_bit_identical =
  QCheck2.Test.make ~name:"char_poly, residues, Cmatrix.solve ≡ boxed reference"
    ~count:300 ~print:print_rom rom_gen (fun m ->
      let moments = Rom.moments m 10 in
      let q = Rom.order m in
      let show = function Ok v -> v | Error e -> "exception " ^ e in
      let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      let cxs zs =
        String.concat " "
          (List.map (fun (z : Cx.t) -> Printf.sprintf "%h,%h" z.Cx.re z.Cx.im)
             (Array.to_list zs))
      in
      let check what want got =
        if want <> got then
          Alcotest.failf "%s: reference %s, got %s" what (show want) (show got)
      in
      List.iter
        (fun offset ->
          check "char_poly"
            (outcome (fun () ->
                 String.concat " "
                   (List.map (Printf.sprintf "%h")
                      (Array.to_list
                         (Numeric.Poly.coeffs
                            (Reference_finish.char_poly ~offset ~order:q moments))))))
            (outcome (fun () ->
                 String.concat " "
                   (List.map (Printf.sprintf "%h")
                      (Array.to_list
                         (Numeric.Poly.coeffs (Awe.Pade.char_poly ~offset ~order:q moments))))));
          check "residues"
            (outcome (fun () ->
                 cxs (Reference_finish.residues ~offset ~poles:m.Rom.poles moments)))
            (outcome (fun () -> cxs (Awe.Pade.residues ~offset ~poles:m.Rom.poles moments))))
        [ 0; 1; 2 ];
      (* A Vandermonde system with a repeated pole is singular. *)
      let twice = Array.append m.Rom.poles [| m.Rom.poles.(0) |] in
      check "singular residues"
        (outcome (fun () -> cxs (Reference_finish.residues ~offset:0 ~poles:twice moments)))
        (outcome (fun () -> cxs (Awe.Pade.residues ~offset:0 ~poles:twice moments)));
      (* A general complex system built from the model's numbers. *)
      let n = q + 1 in
      let entry e =
        let p = m.Rom.poles.(e mod q) and k = m.Rom.residues.((e / q) mod q) in
        if e mod 3 = 0 then Cx.mul p k else Cx.add p (Cx.of_float (float_of_int e))
      in
      let a = Array.init (n * n) entry and b = Array.init n (fun i -> m.Rom.residues.(i mod q)) in
      check "Cmatrix.solve"
        (outcome (fun () -> cxs (Reference_finish.cmatrix_solve n a b)))
        (outcome (fun () -> cxs (Numeric.Cmatrix.solve (Numeric.Cmatrix.init n n (fun i j -> a.((i * n) + j))) b)));
      true)

(* The step-response measures, over the default horizon and explicit
   ones (a negative horizon scans backwards from t = 0). *)
let prop_step_measures_bit_identical =
  QCheck2.Test.make ~name:"step crossings and peak ≡ boxed reference" ~count:500
    ~print:print_rom rom_gen (fun m ->
      let same_opt what want got =
        match (want, got) with
        | None, None -> ()
        | Some x, Some y when same_bits x y -> ()
        | _ ->
          let show = function None -> "None" | Some v -> Printf.sprintf "%h" v in
          Alcotest.failf "%s: reference %s, got %s" what (show want) (show got)
      in
      let tau = Rom.time_constant m in
      List.iter
        (fun t ->
          let want = Reference_finish.step m t and got = Rom.step m t in
          if not (same_bits want got) then
            Alcotest.failf "step %h: reference %h, got %h" t want got)
        [ 0.0; -0.0; 0.1 *. tau; tau; 10.0 *. tau; -.tau ];
      List.iter
        (fun horizon ->
          let h = match horizon with None -> "default" | Some v -> Printf.sprintf "%h" v in
          same_opt ("delay_50 " ^ h)
            (Reference_finish.delay_50 ?horizon m)
            (Awe.Measures.delay_50 ?horizon m);
          same_opt ("rise_time " ^ h)
            (Reference_finish.rise_time ?horizon m)
            (Awe.Measures.rise_time ?horizon m);
          same_opt ("rise_time 0.5-0.5 " ^ h)
            (Reference_finish.rise_time ~lo:0.5 ~hi:0.5 ?horizon m)
            (Awe.Measures.rise_time ~lo:0.5 ~hi:0.5 ?horizon m);
          same_opt ("rise_time 0.9-0.1 " ^ h)
            (Reference_finish.rise_time ~lo:0.9 ~hi:0.1 ?horizon m)
            (Awe.Measures.rise_time ~lo:0.9 ~hi:0.1 ?horizon m);
          let wt, wy = Reference_finish.peak_step ?horizon m
          and gt, gy = Awe.Measures.peak_step ?horizon m in
          if not (same_bits wt gt && same_bits wy gy) then
            Alcotest.failf "peak_step %s: reference (%h, %h), got (%h, %h)" h wt wy gt gy)
        [ None; Some (3.0 *. tau); Some (200.0 *. tau); Some (-.tau); Some Float.infinity ];
      true)

(* ------------------------------------------------------------------ *)
(* Sensitivity *)

let test_sensitivity_rc_moment_derivs () =
  (* For H = 1/(1+s·R·C): m1 = −RC.  ∂m1/∂C = −R.  The stamp value of R1 is
     the conductance g = 1/R, and m1 = −C/g, so ∂m1/∂g = C/g². *)
  let r = 1e3 and c = 1e-9 in
  let mna = Mna.build (rc_lowpass ~r ~c) in
  let t = Awe.Sensitivity.create ~count:4 mna in
  let nl = Mna.netlist mna in
  let r1 = Option.get (Netlist.find nl "R1") in
  let c1 = Option.get (Netlist.find nl "C1") in
  let dm_r = Awe.Sensitivity.moment_derivatives t r1 in
  let dm_c = Awe.Sensitivity.moment_derivatives t c1 in
  check_float "∂m0/∂g = 0" 0.0 dm_r.(0);
  check_float "∂m1/∂g = C·R²" (c *. r *. r) dm_r.(1);
  check_float "∂m1/∂C = −R" (-.r) dm_c.(1)

let test_sensitivity_vs_finite_difference () =
  (* Spot-check adjoint moment derivatives against finite differences on a
     ladder. *)
  let nl = Builders.rc_ladder ~sections:5 ~r:100.0 ~c:1e-12 () in
  let mna = Mna.build nl in
  let t = Awe.Sensitivity.create ~count:6 mna in
  let base = Awe.Sensitivity.output_moments t in
  List.iter
    (fun name ->
      let e = Option.get (Netlist.find nl name) in
      let dm = Awe.Sensitivity.moment_derivatives t e in
      let v = Element.stamp_value e in
      let h = v *. 1e-6 in
      let moments_at w =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:6
             (Mna.build (Netlist.replace nl (Element.set_stamp_value e w))))
      in
      let plus = moments_at (v +. h) and minus = moments_at (v -. h) in
      Array.iteri
        (fun k dk ->
          let fd = (plus.(k) -. minus.(k)) /. (2.0 *. h) in
          let scale = Float.max (Float.abs fd) (Float.abs dk) in
          (* Central differences carry roundoff noise of order ε·|mₖ|/h;
             derivatives below that floor are indistinguishable from zero. *)
          let noise = 1e-12 *. Float.abs base.(k) /. h in
          if Float.abs (fd -. dk) > Float.max (1e-3 *. scale) noise then
            Alcotest.failf "%s ∂m%d: adjoint %g vs fd %g" name k dk fd)
        dm)
    [ "R2"; "C3"; "R5" ]

let test_sensitivity_opamp_ranking () =
  (* The paper's claim: sensitivity analysis singles out gout_q14 and ccomp
     on the op-amp.  They must rank in the top handful of 170 elements. *)
  let nl = Builders.opamp741 () in
  let ranked = Awe.Sensitivity.rank ~order:2 nl in
  let names = List.map (fun ((e : Element.t), _) -> e.Element.name) ranked in
  let position name =
    let rec go k = function
      | [] -> Alcotest.failf "%s not ranked" name
      | n :: _ when n = name -> k
      | _ :: rest -> go (k + 1) rest
    in
    go 0 names
  in
  let gname, cname = Builders.opamp_symbol_names in
  Alcotest.(check bool)
    (Printf.sprintf "%s in top 8 of %d" gname (List.length names))
    true
    (position gname < 8);
  Alcotest.(check bool)
    (Printf.sprintf "%s in top 8 of %d" cname (List.length names))
    true
    (position cname < 8)

let test_select_symbols () =
  let nl = Builders.rc_ladder ~sections:4 ~r:100.0 ~c:1e-12 () in
  let marked = Awe.Sensitivity.select_symbols ~n:2 nl in
  Alcotest.(check int) "two symbols marked" 2
    (List.length (Netlist.symbolic_elements marked))

let test_zero_sensitivity_fd () =
  (* Circuit with a finite zero: R1 from in to out with a parallel C1,
     loaded by R2 || C2.  Zero at z = -1/(R1*C1); dz/dC1 = 1/(R1*C1^2). *)
  let r1 = 1e3 and c1 = 1e-9 and r2 = 2e3 and c2 = 3e-9 in
  let nl =
    Parser.parse_string
      (Printf.sprintf
         {|
V1 in 0 1
R1 in out %g
C1 in out %g
R2 out 0 %g
C2 out 0 %g
.output v(out)
|}
         r1 c1 r2 c2)
  in
  let mna = Mna.build nl in
  let t = Awe.Sensitivity.create ~count:6 mna in
  let c1e = Option.get (Netlist.find nl "C1") in
  let pairs = Awe.Sensitivity.zero_sensitivities t ~order:2 c1e in
  Alcotest.(check int) "one finite zero" 1 (Array.length pairs);
  let z, dz = pairs.(0) in
  check_float ~tol:1e-4 "zero location" (-1.0 /. (r1 *. c1)) z.Cx.re;
  check_float ~tol:1e-3 "zero sensitivity" (1.0 /. (r1 *. c1 *. c1)) dz.Cx.re

let test_zero_sensitivity_no_zeros () =
  let mna = Mna.build (rc_lowpass ~r:1e3 ~c:1e-9) in
  let t = Awe.Sensitivity.create ~count:4 mna in
  let r1 = Option.get (Netlist.find (Mna.netlist mna) "R1") in
  Alcotest.(check int) "all-pole circuit: no zero sensitivities" 0
    (Array.length (Awe.Sensitivity.zero_sensitivities t ~order:1 r1))

let test_pole_sensitivity_fd () =
  (* Pole sensitivity on the RC lowpass: p = −g/C so ∂p/∂g = −1/C. *)
  let r = 1e3 and c = 1e-9 in
  let mna = Mna.build (rc_lowpass ~r ~c) in
  let t = Awe.Sensitivity.create ~count:4 mna in
  let r1 = Option.get (Netlist.find (Mna.netlist mna) "R1") in
  let pairs = Awe.Sensitivity.pole_sensitivities t ~order:1 r1 in
  Alcotest.(check int) "one pole" 1 (Array.length pairs);
  let p, dp = pairs.(0) in
  check_float ~tol:1e-6 "pole" (-1.0 /. (r *. c)) p.Cx.re;
  check_float ~tol:1e-6 "∂p/∂g" (-1.0 /. c) dp.Cx.re

(* ------------------------------------------------------------------ *)
(* Realize: ROM -> netlist synthesis *)

let realize_check ?(tol = 1e-9) rom =
  let nl = Awe.Realize.to_netlist rom in
  let mna = Mna.build nl in
  let f_dom =
    Cx.norm rom.Rom.poles.(0) /. (2.0 *. Float.pi)
  in
  List.iter
    (fun mult ->
      let f = f_dom *. mult in
      let direct = Rom.at_frequency rom f in
      let synth = Spice.Ac.at_frequency mna f in
      let scale = Float.max 1e-6 (Cx.norm direct) in
      if Cx.norm (Cx.sub direct synth) > tol *. scale then
        Alcotest.failf "realized H off at %g Hz: %s vs %s" f
          (Format.asprintf "%a" Cx.pp direct)
          (Format.asprintf "%a" Cx.pp synth))
    [ 0.0; 0.01; 0.3; 1.0; 3.0; 30.0 ]

let test_realize_real_poles () =
  let nl = Builders.rc_ladder ~sections:6 ~r:1e3 ~c:1e-12 () in
  let rom = (Awe.Driver.analyze ~order:3 nl).Awe.Driver.rom in
  realize_check rom

let test_realize_complex_pair () =
  let nl = Builders.rlc_ladder ~sections:2 ~r:30.0 ~l:10e-9 ~c:1e-12 () in
  let rom = (Awe.Driver.analyze ~order:4 nl).Awe.Driver.rom in
  (* Make sure the workload actually exercises the biquad branch. *)
  let has_complex =
    Array.exists (fun p -> Float.abs p.Cx.im > 1.0) rom.Rom.poles
  in
  Alcotest.(check bool) "workload has complex poles" true has_complex;
  realize_check rom

let test_realize_with_direct_term () =
  let rom =
    Rom.make ~direct:0.25
      ~poles:[| Cx.of_float (-1e6) |]
      ~residues:[| Cx.of_float 3e5 |]
      ()
  in
  realize_check rom;
  (* At very high frequency only the feedthrough survives. *)
  let nl = Awe.Realize.to_netlist rom in
  let h = Spice.Ac.at_frequency (Mna.build nl) 1e13 in
  check_float ~tol:1e-4 "feedthrough" 0.25 h.Cx.re

let test_realize_deck_roundtrip () =
  (* The emitted text parses back and still matches the ROM. *)
  let nl = Builders.rc_ladder ~sections:4 ~r:2e3 ~c:2e-12 () in
  let rom = (Awe.Driver.analyze ~order:2 nl).Awe.Driver.rom in
  let back = Parser.parse_string (Awe.Realize.to_deck rom) in
  let mna = Mna.build back in
  List.iter
    (fun f ->
      let a = Rom.at_frequency rom f and b = Spice.Ac.at_frequency mna f in
      if Cx.norm (Cx.sub a b) > 1e-9 *. Float.max 1e-6 (Cx.norm a) then
        Alcotest.failf "deck round-trip off at %g Hz" f)
    [ 0.0; 1e6; 1e8; 1e10 ]

let test_realize_step_response () =
  let nl = Builders.rc_ladder ~sections:5 ~r:1e3 ~c:1e-12 () in
  let rom = (Awe.Driver.analyze ~order:3 nl).Awe.Driver.rom in
  let synth = Mna.build (Awe.Realize.to_netlist rom) in
  let tau = Rom.time_constant rom in
  let wave =
    Spice.Tran.simulate synth ~input:Spice.Tran.step_input
      ~t_step:(tau /. 500.0) ~t_stop:(3.0 *. tau)
  in
  Array.iter
    (fun (t, y) ->
      if t > tau /. 20.0 then begin
        let expected = Rom.step rom t in
        if Float.abs (y -. expected) > 2e-3 then
          Alcotest.failf "realized step off at t=%g: %g vs %g" t y expected
      end)
    wave

let prop_realize_matches_rom =
  (* Random stable ROMs — a few real poles plus a conjugate pair, random
     residues, optional feedthrough — must synthesize exactly. *)
  QCheck2.Test.make ~name:"realized netlist ≡ ROM transfer" ~count:50
    QCheck2.Gen.(
      tup4 (int_range 0 3)
        (pair (float_range 0.1 100.0) (float_range 0.1 100.0))
        (pair (float_range (-10.0) 10.0) (float_range (-10.0) 10.0))
        (float_range (-1.0) 1.0))
    (fun (n_real, (sigma, omega), (kre, kim), direct) ->
      let reals =
        List.init n_real (fun i ->
            ( Cx.of_float (-.(float_of_int (i + 1)) *. sigma *. 1e6),
              Cx.of_float (kre +. float_of_int i) ))
      in
      let p = Cx.make (-.sigma *. 1e6) (omega *. 1e6) in
      let k = Cx.make kre kim in
      let pair = [ (p, k); (Cx.conj p, Cx.conj k) ] in
      let all = reals @ pair in
      let rom =
        Rom.make ~direct
          ~poles:(Array.of_list (List.map fst all))
          ~residues:(Array.of_list (List.map snd all))
          ()
      in
      let mna = Mna.build (Awe.Realize.to_netlist rom) in
      List.for_all
        (fun f ->
          let a = Rom.at_frequency rom f in
          let b = Spice.Ac.at_frequency mna f in
          Cx.norm (Cx.sub a b) <= 1e-8 *. Float.max 1e-6 (Cx.norm a))
        [ 0.0; 1e5; 1e6; 1e7; 1e9 ])

let test_realize_rejects_unpaired_complex () =
  let rom =
    Rom.make
      ~poles:[| Cx.make (-1e6) 2e6 |]
      ~residues:[| Cx.make 1e5 0.0 |]
      ()
  in
  match Awe.Realize.to_netlist rom with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on an unpaired complex pole"

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "awe"
    [
      ( "moments",
        [
          quick "RC lowpass analytic moments" test_moments_rc;
          quick "fig1 analytic moments" test_moments_fig1;
          quick "inductor moments" test_moments_inductor;
        ] );
      ( "pade",
        [
          quick "first-order exact" test_pade_first_order_exact;
          quick "second-order recovers exact poles" test_pade_second_order_exact_poles;
          quick "fitted model reproduces moments" test_rom_moments_roundtrip;
          quick "dc gain exact" test_rom_dc_gain_exact;
          quick "degenerate moments rejected" test_pade_degenerate;
          quick "automatic order reduction" test_pade_order_reduction;
          quick "stability enforced" test_rom_stability_enforced;
          QCheck_alcotest.to_alcotest prop_pade_fit_bit_identical;
          QCheck_alcotest.to_alcotest prop_pade_pieces_bit_identical;
        ] );
      ( "responses",
        [
          quick "step response matches transient" test_rom_step_response_vs_tran;
          quick "frequency response matches AC" test_rom_frequency_response_vs_ac;
        ] );
      ( "rlc",
        [
          quick "series RLC exact complex poles" test_rlc_complex_poles;
          quick "ringing ladder vs transient" test_rlc_ladder_ringing_vs_tran;
          quick "resonant peak vs AC" test_rlc_frequency_peak;
        ] );
      ( "ramp",
        [
          quick "ramp response matches transient" test_ramp_response_analytic;
          quick "ramp limits" test_ramp_limits;
        ] );
      ( "krylov",
        [
          quick "basis orthonormal" test_krylov_basis_orthonormal;
          quick "basis degenerates gracefully" test_krylov_basis_degenerates;
          quick "exact poles on a 2nd-order circuit" test_krylov_exact_small_system;
          quick "agrees with Pade at low order" test_krylov_matches_pade_low_order;
          quick "stays accurate at order 8" test_krylov_survives_high_order;
        ] );
      ( "multipoint",
        [
          quick "pole merging dedupes" test_multipoint_merge;
          quick "single point degenerates to AWE" test_multipoint_single_point_matches_awe;
          quick "complex-shift moments analytic" test_multipoint_complex_moments;
          quick "wideband accuracy" test_multipoint_wideband;
          quick "merged model stable" test_multipoint_stable;
        ] );
      ( "extensions",
        [
          quick "direct term on a highpass" test_direct_term_highpass;
          quick "direct term vanishes when strictly proper" test_direct_term_strictly_proper;
          quick "zeros of a known model" test_zeros_known_model;
          quick "highpass zero at the origin" test_zeros_highpass_at_origin;
          quick "all-pole model has no zeros" test_zeros_no_finite_zero;
          quick "shifted expansion recovers the pole" test_shifted_expansion_recovers_pole;
          quick "shifted expansion finds far poles" test_shifted_expansion_far_poles;
          quick "group delay of a single pole" test_group_delay_single_pole;
          quick "group delay matches phase slope" test_group_delay_matches_fd_phase;
        ] );
      ( "realize",
        [
          quick "real-pole synthesis matches H" test_realize_real_poles;
          quick "complex-pair biquad matches H" test_realize_complex_pair;
          quick "feedthrough term" test_realize_with_direct_term;
          quick "deck text round-trips" test_realize_deck_roundtrip;
          quick "step response matches ROM" test_realize_step_response;
          quick "unpaired complex pole rejected" test_realize_rejects_unpaired_complex;
          QCheck_alcotest.to_alcotest prop_realize_matches_rom;
        ] );
      ( "measures",
        [
          quick "RC measures analytic" test_measures_rc;
          quick "unity gain and phase margin" test_measures_unity_gain;
          quick "no unity crossing" test_measures_no_unity_crossing;
          quick "elmore delay" test_elmore;
          QCheck_alcotest.to_alcotest prop_measures_bit_identical;
          QCheck_alcotest.to_alcotest prop_step_measures_bit_identical;
        ] );
      ( "sensitivity",
        [
          quick "RC moment derivatives analytic" test_sensitivity_rc_moment_derivs;
          quick "adjoint matches finite differences" test_sensitivity_vs_finite_difference;
          quick "op-amp ranking finds the paper's symbols" test_sensitivity_opamp_ranking;
          quick "select_symbols marks top elements" test_select_symbols;
          quick "pole sensitivity analytic" test_pole_sensitivity_fd;
          quick "zero sensitivity analytic" test_zero_sensitivity_fd;
          quick "no spurious zero sensitivities" test_zero_sensitivity_no_zeros;
        ] );
    ]
