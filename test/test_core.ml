(* Tests for the AWEsymbolic core: partitioning, port reduction, symbolic
   moments, compiled evaluation — including the paper's central claim that
   compiled-symbolic results are identical to full numeric AWE. *)

module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Builders = Circuit.Builders
module Mna = Circuit.Mna
module Sym = Symbolic.Symbol
module Ratfun = Symbolic.Ratfun
module Mpoly = Symbolic.Mpoly
module Cx = Numeric.Cx
module Matrix = Numeric.Matrix
module Model = Awesymbolic.Model
module Partition = Awesymbolic.Partition

let check_float ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" name expected actual

let sym = Sym.intern

(* Substitute symbol values back into a netlist so full numeric AWE can be
   run at the same point the compiled model is evaluated at. *)
let substitute nl values =
  Netlist.map_elements
    (fun (e : Element.t) ->
      match e.Element.symbol with
      | Some s -> Element.set_stamp_value e (List.assoc (Sym.name s) values)
      | None -> e)
    nl

let fig1_c1_g2 () =
  let nl = Builders.fig1 () in
  let nl = Netlist.mark_symbolic nl "C1" (sym "C1") in
  Netlist.mark_symbolic nl "G2" (sym "G2")

(* ------------------------------------------------------------------ *)
(* Partition *)

let test_partition_fig1 () =
  let p = Partition.make (fig1_c1_g2 ()) in
  Alcotest.(check int) "two symbols" 2 (Array.length p.Partition.symbols);
  Alcotest.(check (list string)) "ports are in, n1, n2" [ "in"; "n1"; "n2" ]
    (Array.to_list p.Partition.ports);
  (* Numeric partition: G1, C2 plus three port probes. *)
  Alcotest.(check int) "numeric partition elements" 5
    (List.length (Netlist.elements p.Partition.numeric))

let test_partition_opamp () =
  let nl = Builders.opamp741 () in
  let gname, cname = Builders.opamp_symbol_names in
  let nl = Netlist.mark_symbolic nl gname (sym gname) in
  let nl = Netlist.mark_symbolic nl cname (sym cname) in
  let p = Partition.make nl in
  (* Ports: inp (input), out (output), d1 and d2 (symbolic terminals). *)
  Alcotest.(check (list string)) "ports" [ "d1"; "d2"; "inp"; "out" ]
    (Array.to_list p.Partition.ports)

let test_partition_no_symbols () =
  match Partition.make (Builders.fig1 ()) with
  | exception Awesym_error.Error { kind = Invalid_request; where = "partition.make"; _ }
    ->
    ()
  | _ -> Alcotest.fail "expected an invalid_request error without symbolic elements"

let test_partition_shared_symbol () =
  (* Two elements sharing one symbol: one symbol, both elements symbolic. *)
  let nl = Builders.coupled_lines ~segments:4 () in
  let rdrv = sym "rdrv" in
  let nl = Netlist.mark_symbolic nl "rdrv_a" rdrv in
  let nl = Netlist.mark_symbolic nl "rdrv_b" rdrv in
  let p = Partition.make nl in
  Alcotest.(check int) "one symbol" 1 (Array.length p.Partition.symbols);
  Alcotest.(check int) "two symbolic elements" 2 (List.length p.Partition.symbolic)

(* ------------------------------------------------------------------ *)
(* Port reduction *)

let test_port_reduction_resistive () =
  (* Star of two resistors: ports at both ends, center internal.
     Y of the series combination: [[g, -g], [-g, g]] with g = 1/(R1+R2). *)
  let nl =
    Circuit.Parser.parse_string
      {|
V1 a 0 1
R1 a mid 100
R2 mid b 300
R3 b 0 1k
C1 b 0 1p
.symbolic R3
.output v(b)
|}
  in
  (* R3 symbolic makes b a port; the input makes a a port. *)
  let p = Partition.make nl in
  Alcotest.(check (list string)) "ports" [ "a"; "b" ] (Array.to_list p.Partition.ports);
  let red = Awesymbolic.Port_reduction.compute ~count:3 p in
  let y0 = red.Awesymbolic.Port_reduction.series.(0) in
  let g = 1.0 /. 400.0 in
  check_float "Y0[a][a]" g (Matrix.get y0 0 0);
  check_float "Y0[a][b]" (-.g) (Matrix.get y0 0 1);
  check_float "Y0[b][a]" (-.g) (Matrix.get y0 1 0);
  check_float "Y0[b][b]" g (Matrix.get y0 1 1);
  (* Y1: the capacitor C1 sits directly on port b: Y1[b][b] = C1. *)
  let y1 = red.Awesymbolic.Port_reduction.series.(1) in
  check_float "Y1[b][b]" 1e-12 (Matrix.get y1 1 1);
  check_float "Y1[a][a]" 0.0 (Matrix.get y1 0 0)

let test_port_reduction_internal_storage () =
  (* Internal RC behind a port: Y(s) = (g + sC·g·R·g…) — check against a
     direct complex calculation at a test frequency. *)
  let nl =
    Circuit.Parser.parse_string
      {|
V1 a 0 1
R1 a mid 1k
C1 mid 0 1p
R2 mid b 2k
C2 b 0 1p
.symbolic C2
.output v(b)
|}
  in
  let p = Partition.make nl in
  let red = Awesymbolic.Port_reduction.compute ~count:8 p in
  let s = Cx.make 0.0 (2.0 *. Float.pi *. 1e6) in
  let y = Awesymbolic.Port_reduction.admittance_at red s in
  (* Direct: two-port of R1 - (C1 shunt) - R2 ladder.  Drive port a with 1V,
     short b: current into a = 1/(R1 + Zc1∥R2). *)
  let zc1 = Cx.inv (Cx.mul s (Cx.of_float 1e-12)) in
  let r1 = Cx.of_float 1e3 and r2 = Cx.of_float 2e3 in
  let par = Cx.div (Cx.mul zc1 r2) (Cx.add zc1 r2) in
  let y_aa = Cx.inv (Cx.add r1 par) in
  let got = Numeric.Cmatrix.get y 0 0 in
  if Cx.norm (Cx.sub y_aa got) > 1e-6 *. Cx.norm y_aa then
    Alcotest.failf "Y[a][a] mismatch: expected %s got %s"
      (Format.asprintf "%a" Cx.pp y_aa)
      (Format.asprintf "%a" Cx.pp got)

(* ------------------------------------------------------------------ *)
(* Symbolic moments: partitioned vs exact whole-circuit *)

let test_ratfun_moments_match_exact () =
  let nl = fig1_c1_g2 () in
  let part_moments = Model.moments_ratfun ~count:5 nl in
  let tf = Exact.Network.transfer_function nl in
  let exact_moments = Exact.Network.moments ~count:5 tf in
  Array.iteri
    (fun k rf ->
      Alcotest.(check bool)
        (Printf.sprintf "symbolic m%d identical" k)
        true
        (Ratfun.equal ~tol:1e-9 rf exact_moments.(k)))
    part_moments

let test_first_order_moments_multilinear () =
  (* Paper: first-order forms are multi-linear in the symbols. *)
  let nl = fig1_c1_g2 () in
  let m = Model.moments_ratfun ~count:2 nl in
  Array.iter
    (fun rf ->
      Alcotest.(check bool) "numerator multilinear" true
        (Mpoly.is_multilinear (Ratfun.num rf));
      Alcotest.(check bool) "denominator multilinear" true
        (Mpoly.is_multilinear (Ratfun.den rf)))
    m

(* ------------------------------------------------------------------ *)
(* Compiled model ≡ numeric AWE (the paper's identity claim) *)

let points_fig1 =
  [ [ ("C1", 1.0); ("G2", 1.0) ];
    [ ("C1", 0.3); ("G2", 2.5) ];
    [ ("C1", 4.0); ("G2", 0.2) ];
    [ ("C1", 0.05); ("G2", 9.0) ] ]

let test_compiled_moments_identical_fig1 () =
  let nl = fig1_c1_g2 () in
  let model = Model.build ~order:2 nl in
  List.iter
    (fun point ->
      let v = Model.values model point in
      let compiled = Model.eval_moments model v in
      let numeric =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:4 (Mna.build (substitute nl point)))
      in
      Array.iteri
        (fun k mk ->
          check_float ~tol:1e-9
            (Printf.sprintf "m%d at %s" k
               (String.concat ","
                  (List.map (fun (n, x) -> Printf.sprintf "%s=%g" n x) point)))
            numeric.(k) mk)
        compiled)
    points_fig1

let test_compiled_rom_identical_fig1 () =
  let nl = fig1_c1_g2 () in
  let model = Model.build ~order:2 nl in
  List.iter
    (fun point ->
      let v = Model.values model point in
      let rom_sym = Model.rom model v in
      let rom_num =
        (Awe.Driver.analyze ~order:2 (substitute nl point)).Awe.Driver.rom
      in
      let sorted r =
        Array.to_list r.Awe.Rom.poles
        |> List.map (fun (p : Cx.t) -> p.Cx.re)
        |> List.sort compare
      in
      List.iter2
        (fun a b -> check_float ~tol:1e-8 "pole identical" a b)
        (sorted rom_num) (sorted rom_sym))
    points_fig1

let test_closed_form_matches_numeric () =
  let nl = fig1_c1_g2 () in
  let model = Model.build ~order:2 nl in
  List.iter
    (fun point ->
      let v = Model.values model point in
      match Model.closed_form_rom model v with
      | None -> Alcotest.fail "expected closed form for RC circuit"
      | Some rom_cf ->
        let rom_num = Model.rom model v in
        let sorted r =
          Array.to_list r.Awe.Rom.poles
          |> List.map (fun (p : Cx.t) -> p.Cx.re)
          |> List.sort compare
        in
        List.iter2
          (fun a b -> check_float ~tol:1e-7 "closed-form pole" a b)
          (sorted rom_num) (sorted rom_cf))
    points_fig1

let test_opamp_compiled_identity () =
  let nl = Builders.opamp741 () in
  let gname, cname = Builders.opamp_symbol_names in
  let nl = Netlist.mark_symbolic nl gname (sym gname) in
  let nl = Netlist.mark_symbolic nl cname (sym cname) in
  let model = Model.build ~order:2 nl in
  List.iter
    (fun (gv, cv) ->
      let point = [ (gname, gv); (cname, cv) ] in
      let v = Model.values model point in
      let compiled = Model.eval_moments model v in
      let numeric =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:4 (Mna.build (substitute nl point)))
      in
      Array.iteri
        (fun k mk ->
          check_float ~tol:1e-7
            (Printf.sprintf "op-amp m%d at g=%g c=%g" k gv cv)
            numeric.(k) mk)
        compiled)
    [ (2e-6, 30e-12); (1e-5, 10e-12); (5e-7, 60e-12); (4e-6, 5e-12) ]

let test_coupled_lines_compiled_identity () =
  let nl = Builders.coupled_lines ~segments:6 () in
  let nl = Netlist.mark_symbolic nl "rdrv_a" (sym "g_drv") in
  let nl = Netlist.mark_symbolic nl "rdrv_b" (sym "g_drv") in
  let nl = Netlist.mark_symbolic nl "cload_a" (sym "c_load") in
  let nl = Netlist.mark_symbolic nl "cload_b" (sym "c_load") in
  let model = Model.build ~order:2 nl in
  List.iter
    (fun (rdrv, cload) ->
      let point = [ ("g_drv", 1.0 /. rdrv); ("c_load", cload) ] in
      let v = Model.values model point in
      let compiled = Model.eval_moments model v in
      let numeric =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:4 (Mna.build (substitute nl point)))
      in
      Array.iteri
        (fun k mk ->
          check_float ~tol:1e-7
            (Printf.sprintf "lines m%d at R=%g C=%g" k rdrv cload)
            numeric.(k) mk)
        compiled)
    [ (100.0, 50e-15); (30.0, 200e-15); (300.0, 20e-15); (75.0, 100e-15) ]

let test_symbolic_inductor_identity () =
  (* The paper stencils inductors as impedances via auxiliary currents; a
     symbolic L must go through the same identity check as R and C. *)
  let nl =
    Circuit.Parser.parse_string
      {|
V1 in 0 1
R1 in a 10
L1 a b 1u
C1 b 0 1n
R2 b 0 100
.symbolic L1
.output v(b)
|}
  in
  let model = Model.build ~order:2 nl in
  List.iter
    (fun lval ->
      let v = Model.values model [ ("L1", lval) ] in
      let compiled = Model.eval_moments model v in
      let nl_num =
        Netlist.replace nl
          (Element.set_stamp_value (Option.get (Netlist.find nl "L1")) lval)
      in
      let numeric =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:4 (Mna.build nl_num))
      in
      Array.iteri
        (fun k mk ->
          check_float ~tol:1e-9 (Printf.sprintf "m%d at L=%g" k lval) mk
            compiled.(k))
        numeric)
    [ 0.2e-6; 1e-6; 5e-6 ]

let test_symbolic_vccs_identity () =
  (* Symbolic transconductance: the op-amp with gm_q1 as a third symbol. *)
  let nl = Builders.opamp741 () in
  let gname, cname = Builders.opamp_symbol_names in
  let nl = Netlist.mark_symbolic nl gname (sym gname) in
  let nl = Netlist.mark_symbolic nl cname (sym cname) in
  let nl = Netlist.mark_symbolic nl "gm_q1" (sym "gm_q1") in
  let model = Model.build ~order:2 nl in
  Alcotest.(check int) "three symbols" 3 (Array.length (Model.symbols model));
  let point = [ (gname, 3e-6); (cname, 20e-12); ("gm_q1", 250e-6) ] in
  let v = Model.values model point in
  let compiled = Model.eval_moments model v in
  let numeric =
    Awe.Moments.output_moments
      (Awe.Moments.compute ~count:4 (Mna.build (substitute nl point)))
  in
  Array.iteri
    (fun k mk -> check_float ~tol:1e-7 (Printf.sprintf "m%d" k) mk compiled.(k))
    numeric

let test_order3_model_identity () =
  (* Orders above 2 have no closed form; the compiled-moment path must still
     match numeric AWE pole-for-pole. *)
  let nl = Builders.rc_ladder ~sections:10 ~r:100.0 ~c:1e-12 () in
  let nl = Netlist.mark_symbolic nl "C5" (sym "C5") in
  let nl = Netlist.mark_symbolic nl "R3" (sym "g3") in
  let model = Model.build ~order:3 nl in
  Alcotest.(check bool) "no closed form at order 3" true
    (Option.is_none (Model.closed_form model));
  List.iter
    (fun (c5, g3) ->
      let point = [ ("C5", c5); ("g3", g3) ] in
      let v = Model.values model point in
      let rom_sym = Model.rom model v in
      let rom_num =
        (Awe.Driver.analyze ~order:3 (substitute nl point)).Awe.Driver.rom
      in
      let key r =
        Array.to_list r.Awe.Rom.poles
        |> List.map (fun (p : Cx.t) -> p.Cx.re)
        |> List.sort compare
      in
      List.iter2
        (fun a b -> check_float ~tol:1e-6 "order-3 pole" a b)
        (key rom_num) (key rom_sym))
    [ (1e-12, 0.01); (5e-12, 0.002); (0.2e-12, 0.05) ]

let test_closed_form_none_on_complex_poles () =
  (* Underdamped RLC with a symbolic load: the order-2 discriminant goes
     negative, so the closed-form program reports None and the caller falls
     back to the compiled-moment path, which stays exact. *)
  let nl =
    Circuit.Parser.parse_string
      {|
V1 in 0 1
R1 in a 5
L1 a b 100n
C1 b 0 1p
.symbolic C1
.output v(b)
|}
  in
  let model = Model.build ~order:2 nl in
  let v = Model.values model [ ("C1", 1e-12) ] in
  Alcotest.(check bool) "closed form unavailable (complex poles)" true
    (Option.is_none (Model.closed_form_rom model v));
  let rom = Model.rom model v in
  let rom_num = (Awe.Driver.analyze ~order:2 nl).Awe.Driver.rom in
  check_float ~tol:1e-9 "moment path still exact"
    (Cx.norm (Awe.Rom.dominant_pole rom_num))
    (Cx.norm (Awe.Rom.dominant_pole rom))

let test_symbolic_mutual_identity () =
  (* A symbolic mutual inductance couples two branch currents — the most
     exotic stamp the partitioned path must reproduce. *)
  let nl =
    Circuit.Parser.parse_string
      {|
V1 in 0 1
R1 in p 10
L1 p 0 1u
L2 s 0 2u
K1 L1 L2 0.4u
R2 s out 20
C2 out 0 1p
.symbolic K1 M
.output v(out)
|}
  in
  let model = Model.build ~order:2 nl in
  List.iter
    (fun m ->
      let v = Model.values model [ ("M", m) ] in
      let compiled = Model.eval_moments model v in
      let nl_num =
        Netlist.replace nl
          (Element.set_stamp_value (Option.get (Netlist.find nl "K1")) m)
      in
      let numeric =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:4 (Mna.build nl_num))
      in
      Array.iteri
        (fun k mk ->
          check_float ~tol:1e-9 (Printf.sprintf "m%d at M=%g" k m) mk
            compiled.(k))
        numeric)
    [ 0.1e-6; 0.4e-6; 1.0e-6 ]

let test_evaluator_consistent () =
  let nl = fig1_c1_g2 () in
  let model = Model.build ~order:2 nl in
  let fast = Model.evaluator model in
  List.iter
    (fun point ->
      let v = Model.values model point in
      let a = Model.rom model v and b = fast v in
      check_float "evaluator dc gain" (Awe.Rom.dc_gain a) (Awe.Rom.dc_gain b))
    points_fig1

let test_values_missing_symbol () =
  let model = Model.build ~order:1 (fig1_c1_g2 ()) in
  match Model.values model [ ("C1", 1.0) ] with
  | exception Awesym_error.Error { kind = Awesym_error.Invalid_request; _ } ->
    ()
  | _ -> Alcotest.fail "expected invalid_request on missing binding"

(* ---- compiled sensitivity programs ---- *)

let central_fd f v j =
  let h = Float.max 1e-9 (1e-6 *. Float.abs v.(j)) in
  let bump d =
    let w = Array.copy v in
    w.(j) <- w.(j) +. d;
    f w
  in
  let hi = bump h and lo = bump (-.h) in
  Array.map2 (fun a b -> (a -. b) /. (2.0 *. h)) hi lo

let test_sensitivity_matches_fd () =
  let model = Model.build ~order:2 (fig1_c1_g2 ()) in
  let v = Model.values model [ ("C1", 2.5); ("G2", 0.7) ] in
  let sens = Model.eval_sensitivities model v in
  Alcotest.(check int) "one row per moment" 4 (Array.length sens);
  Alcotest.(check int) "one column per symbol" 2 (Array.length sens.(0));
  Array.iteri
    (fun j _ ->
      let fd = central_fd (Model.eval_moments model) v j in
      Array.iteri
        (fun k dk ->
          check_float ~tol:1e-5
            (Printf.sprintf "dm%d/ds%d vs finite difference" k j)
            dk sens.(k).(j))
        fd)
    v

let test_sensitivity_matches_adjoint () =
  (* The compiled symbolic derivative must agree with the numeric adjoint
     machinery of Sec. 2.3 evaluated at the same circuit point. *)
  let nl = Builders.opamp741 () in
  let gname, cname = Builders.opamp_symbol_names in
  let nl = Netlist.mark_symbolic nl gname (sym gname) in
  let nl = Netlist.mark_symbolic nl cname (sym cname) in
  let model = Model.build ~order:2 nl in
  let point = [ (gname, 2e-6); (cname, 30e-12) ] in
  let v = Model.values model point in
  let sens = Model.eval_sensitivities model v in
  let numeric_nl = substitute nl point in
  let adj = Awe.Sensitivity.create ~count:4 (Mna.build numeric_nl) in
  let col name =
    let e = Option.get (Netlist.find numeric_nl name) in
    Awe.Sensitivity.moment_derivatives adj e
  in
  let syms = Model.symbols model in
  Array.iteri
    (fun j s ->
      let name = Sym.name s in
      let expected = col name in
      Array.iteri
        (fun k dk ->
          check_float ~tol:1e-6
            (Printf.sprintf "adjoint dm%d/d%s" k name)
            dk sens.(k).(j))
        expected)
    syms

let test_pole_sensitivity_matches_fd () =
  let model = Model.build ~order:2 (fig1_c1_g2 ()) in
  let v = Model.values model [ ("C1", 1.5); ("G2", 2.0) ] in
  let pole1_at w =
    match Model.closed_form_rom model w with
    | Some rom -> rom.Awe.Rom.poles.(0).Numeric.Cx.re
    | None -> Alcotest.fail "closed form vanished"
  in
  match Model.eval_pole_sensitivities model v with
  | None -> Alcotest.fail "order-2 model must expose pole sensitivities"
  | Some (dp1, _) ->
    Array.iteri
      (fun j _ ->
        let fd = central_fd (fun w -> [| pole1_at w |]) v j in
        check_float ~tol:1e-4
          (Printf.sprintf "dp1/ds%d vs finite difference" j)
          fd.(0) dp1.(j))
      v

let test_zero_program_bridged_rc () =
  (* Bridged RC: Cb across R1 puts the one finite zero at z = −1/(R1·Cb),
     and the circuit is exactly 2-pole, so the compiled symbolic zero must
     be exact. *)
  let r name p n v =
    Element.make ~name ~kind:Element.Resistor ~pos:p ~neg:n ~value:v ()
  in
  let c name p n v =
    Element.make ~name ~kind:Element.Capacitor ~pos:p ~neg:n ~value:v ()
  in
  let nl =
    Netlist.empty
    |> Fun.flip Netlist.add
         (Element.make ~name:"Vin" ~kind:Element.Vsource ~pos:"in" ~neg:"0"
            ~value:1.0 ())
    |> Fun.flip Netlist.add (r "R1" "in" "n1" 1e3)
    |> Fun.flip Netlist.add (c "Cb" "in" "n1" 2e-12)
    |> Fun.flip Netlist.add (c "C1" "n1" "0" 5e-12)
    |> Fun.flip Netlist.add (r "R2" "n1" "out" 2e3)
    |> Fun.flip Netlist.add (c "C2" "out" "0" 3e-12)
    |> Fun.flip Netlist.with_input "Vin"
    |> Fun.flip Netlist.with_output (Netlist.Node "out")
  in
  let nl = Netlist.mark_symbolic nl "Cb" (sym "Cb") in
  let nl = Netlist.mark_symbolic nl "C2" (sym "C2") in
  let model = Model.build ~order:2 nl in
  let prog =
    match Model.zero_program model with
    | Some p -> p
    | None -> Alcotest.fail "order-2 model must compile a zero program"
  in
  List.iter
    (fun (cb, c2) ->
      let v = Model.values model [ ("Cb", cb); ("C2", c2) ] in
      let z = (Symbolic.Slp.eval prog v).(0) in
      check_float ~tol:1e-9
        (Printf.sprintf "analytic zero at Cb=%g" cb)
        (-1.0 /. (1e3 *. cb)) z;
      let rom = Model.rom model v in
      match Awe.Rom.zeros rom with
      | [| z_rom |] ->
        check_float ~tol:1e-6 "matches ROM zero" z_rom.Numeric.Cx.re z
      | other ->
        Alcotest.failf "expected one ROM zero, got %d" (Array.length other))
    [ (2e-12, 3e-12); (8e-12, 1e-12); (0.5e-12, 10e-12) ]

let test_zero_program_none_for_order1 () =
  let model = Model.build ~order:1 (fig1_c1_g2 ()) in
  match Model.zero_program model with
  | None -> ()
  | Some _ -> Alcotest.fail "order-1 model has no finite zero"

let test_pole_sensitivity_none_at_order3 () =
  let nl = Builders.rc_ladder ~sections:5 ~r:1e3 ~c:1e-12 () in
  let nl = Netlist.mark_symbolic nl "R1" (sym "R1") in
  let model = Model.build ~order:3 nl in
  (match Model.pole_sensitivity_program model with
  | None -> ()
  | Some _ -> Alcotest.fail "no closed form at order 3");
  match Model.eval_pole_sensitivities model (Model.values model [ ("R1", 1e-3) ]) with
  | None -> ()
  | Some _ -> Alcotest.fail "no pole sensitivities at order 3"

(* ---- multi-output models ---- *)

let test_build_many_matches_single () =
  (* One shared analysis for far-end crosstalk, near-end crosstalk, and the
     aggressor's own far end: each resulting model must equal the model
     built for that output alone. *)
  let nl = Builders.coupled_lines ~segments:6 () in
  let nl = Netlist.mark_symbolic nl "rdrv_a" (sym "g_drv") in
  let nl = Netlist.mark_symbolic nl "rdrv_b" (sym "g_drv") in
  let nl = Netlist.mark_symbolic nl "cload_a" (sym "c_load") in
  let nl = Netlist.mark_symbolic nl "cload_b" (sym "c_load") in
  let outputs =
    [ Netlist.Node "b6"; Netlist.Node "b1"; Netlist.Node "a6";
      Netlist.Diff ("a6", "b6") ]
  in
  let models = Model.build_many ~order:2 nl ~outputs in
  Alcotest.(check int) "one model per output" 4 (List.length models);
  List.iter2
    (fun output model ->
      let single = Model.build ~order:2 (Netlist.with_output nl output) in
      List.iter
        (fun (g, c) ->
          let point = [ ("g_drv", g); ("c_load", c) ] in
          let v = Model.values model point in
          let shared = Model.eval_moments model v in
          let alone = Model.eval_moments single (Model.values single point) in
          Array.iteri
            (fun k mk ->
              check_float ~tol:1e-9
                (Printf.sprintf "m%d shared vs single" k)
                alone.(k) mk)
            shared)
        [ (0.01, 50e-15); (0.002, 200e-15) ])
    outputs models

let test_build_many_numeric_identity () =
  (* And each output's compiled moments must match whole-circuit numeric
     AWE observed at that node. *)
  let nl = Builders.coupled_lines ~segments:5 () in
  let nl = Netlist.mark_symbolic nl "cload_b" (sym "c_load") in
  let outputs = [ Netlist.Node "b5"; Netlist.Node "a5" ] in
  let models = Model.build_many ~order:2 nl ~outputs in
  let point = [ ("c_load", 120e-15) ] in
  List.iter2
    (fun output model ->
      let m_sym = Model.eval_moments model (Model.values model point) in
      let numeric_nl = Netlist.with_output (substitute nl point) output in
      let m_num =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:4 (Mna.build numeric_nl))
      in
      Array.iteri
        (fun k mk -> check_float ~tol:1e-8 (Printf.sprintf "m%d" k) m_num.(k) mk)
        m_sym)
    outputs models

let test_build_many_rejects_empty () =
  match Model.build_many (fig1_c1_g2 ()) ~outputs:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on empty outputs"

let test_build_many_unknown_node () =
  match
    Model.build_many (fig1_c1_g2 ()) ~outputs:[ Circuit.Netlist.Node "nope" ]
  with
  | exception Awesym_error.Error { kind = Invalid_request; _ } -> ()
  | _ -> Alcotest.fail "expected failure on unknown output node"

let test_elmore_program () =
  let model = Model.build ~order:2 (fig1_c1_g2 ()) in
  let prog = Model.elmore_program model in
  List.iter
    (fun point ->
      let v = Model.values model point in
      check_float "compiled Elmore = -m1/m0"
        (Awe.Measures.elmore_delay (Model.eval_moments model v))
        (Symbolic.Slp.eval prog v).(0))
    points_fig1

(* Property: compiled sensitivities match finite differences at random
   points (the derivative DAGs stay correct across the whole symbol box,
   not just at hand-picked values). *)
let prop_sensitivity_fd =
  let model = Model.build ~order:2 (fig1_c1_g2 ()) in
  QCheck2.Test.make ~name:"compiled sensitivities ≡ finite differences"
    ~count:50
    QCheck2.Gen.(pair (float_range 0.1 10.0) (float_range 0.1 10.0))
    (fun (c1, g2) ->
      let v = Model.values model [ ("C1", c1); ("G2", g2) ] in
      let sens = Model.eval_sensitivities model v in
      let m = Model.eval_moments model v in
      let ok = ref true in
      Array.iteri
        (fun j vj ->
          let fd = central_fd (Model.eval_moments model) v j in
          Array.iteri
            (fun k dk ->
              (* FD truncation noise floor: the moment's own magnitude per
                 unit of the perturbed symbol. *)
              let floor_kj =
                1e-4 *. Float.abs m.(k) /. Float.max (Float.abs vj) 1e-9
              in
              let scale =
                Float.max (Float.abs dk)
                  (Float.max (Float.abs sens.(k).(j)) floor_kj)
              in
              if Float.abs (dk -. sens.(k).(j)) > 1e-3 *. scale then
                ok := false)
            fd)
        v;
      !ok)

(* Property: compiled moments equal numeric AWE moments at random points. *)
let prop_compiled_identity =
  let nl = fig1_c1_g2 () in
  let model = Model.build ~order:2 nl in
  QCheck2.Test.make ~name:"compiled symbolic ≡ numeric AWE on random points"
    ~count:100
    QCheck2.Gen.(pair (float_range 0.05 20.0) (float_range 0.05 20.0))
    (fun (c1, g2) ->
      let point = [ ("C1", c1); ("G2", g2) ] in
      let v = Model.values model point in
      let compiled = Model.eval_moments model v in
      let numeric =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:4 (Mna.build (substitute nl point)))
      in
      Array.for_all2
        (fun a b -> Float.abs (a -. b) <= 1e-8 *. Float.max 1.0 (Float.abs a))
        numeric compiled)

(* ------------------------------------------------------------------ *)
(* Validate *)

let test_validate_clean_model () =
  let model = Model.build ~order:2 (fig1_c1_g2 ()) in
  let report =
    Awesymbolic.Validate.run ~points:25
      ~ranges:[ ("C1", 0.1, 10.0); ("G2", 0.1, 10.0) ]
      model
  in
  Alcotest.(check int) "points" 25 report.Awesymbolic.Validate.points;
  Alcotest.(check bool) "moments identical" true
    (report.Awesymbolic.Validate.max_moment_error < 1e-9);
  Alcotest.(check bool) "poles identical" true
    (report.Awesymbolic.Validate.max_pole_error < 1e-9)

let test_validate_missing_range () =
  let model = Model.build ~order:1 (fig1_c1_g2 ()) in
  match
    Awesymbolic.Validate.run ~points:3 ~ranges:[ ("C1", 0.1, 1.0) ] model
  with
  | exception Awesym_error.Error { kind = Awesym_error.Invalid_request; _ } ->
    ()
  | _ -> Alcotest.fail "expected invalid_request without a G2 range"

let test_moment_bounds () =
  (* The interval enclosure must contain the moments at every sampled point
     of the box. *)
  (* Boxes must stay narrow enough that no elimination pivot's enclosure
     straddles zero (interval arithmetic drops correlations); ±15 % is the
     realistic process-variation regime anyway. *)
  let model = Model.build ~order:2 (fig1_c1_g2 ()) in
  let ranges = [ ("C1", 0.85, 1.15); ("G2", 0.85, 1.15) ] in
  let bounds = Model.moment_bounds model ranges in
  List.iter
    (fun (c1, g2) ->
      let m = Model.eval_moments model (Model.values model [ ("C1", c1); ("G2", g2) ]) in
      Array.iteri
        (fun k mk ->
          if not (Symbolic.Interval.contains bounds.(k) mk) then
            Alcotest.failf "m%d = %g escapes %s at C1=%g G2=%g" k mk
              (Format.asprintf "%a" Symbolic.Interval.pp bounds.(k))
              c1 g2)
        m)
    [ (0.85, 0.85); (0.85, 1.15); (1.15, 0.85); (1.15, 1.15); (1.0, 1.0);
      (0.95, 1.07) ]

let test_moment_bounds_missing () =
  let model = Model.build ~order:1 (fig1_c1_g2 ()) in
  match Model.moment_bounds model [ ("C1", 0.5, 2.0) ] with
  | exception Awesym_error.Error { kind = Awesym_error.Invalid_request; _ } ->
    ()
  | _ -> Alcotest.fail "expected invalid_request without a G2 range"

(* ------------------------------------------------------------------ *)
(* Symbolic transient response (the paper's time-domain claim) *)

let test_transient_program_matches_rom () =
  (* The compiled symbolic step response must equal the numeric ROM's step
     response at every (symbol, time) combination. *)
  let nl = fig1_c1_g2 () in
  let model = Model.build ~order:2 nl in
  match Model.transient_program model with
  | None -> Alcotest.fail "expected a transient program at order 2"
  | Some prog ->
    let run = Symbolic.Slp.make_evaluator prog in
    List.iter
      (fun point ->
        let v = Model.values model point in
        let rom = Model.rom model v in
        List.iter
          (fun time ->
            let y_sym = (run (Array.append v [| time |])).(0) in
            let y_rom = Awe.Rom.step rom time in
            check_float ~tol:1e-9
              (Printf.sprintf "y(%g) at %s" time
                 (String.concat ","
                    (List.map (fun (n, x) -> Printf.sprintf "%s=%g" n x) point)))
              y_rom y_sym)
          [ 0.1; 0.5; 1.0; 3.0; 10.0 ])
      points_fig1

let test_transient_program_crosstalk () =
  (* Second-order cross-talk waveforms from the symbolic form — the exact
     mechanism behind the paper's Figs. 9 and 10. *)
  let nl = Builders.coupled_lines ~segments:20 () in
  let nl = Netlist.mark_symbolic nl "rdrv_a" (sym "g_drv") in
  let nl = Netlist.mark_symbolic nl "rdrv_b" (sym "g_drv") in
  let nl = Netlist.mark_symbolic nl "cload_a" (sym "c_load") in
  let nl = Netlist.mark_symbolic nl "cload_b" (sym "c_load") in
  let model = Model.build ~order:2 nl in
  match Model.transient_program model with
  | None -> Alcotest.fail "expected a transient program"
  | Some prog ->
    let run = Symbolic.Slp.make_evaluator prog in
    List.iter
      (fun rdrv ->
        let point = [ ("g_drv", 1.0 /. rdrv); ("c_load", 50e-15) ] in
        let v = Model.values model point in
        let rom = Model.rom model v in
        List.iter
          (fun time ->
            let y_sym = (run (Array.append v [| time |])).(0) in
            check_float ~tol:1e-7
              (Printf.sprintf "crosstalk y(%g) R=%g" time rdrv)
              (Awe.Rom.step rom time) y_sym)
          [ 1e-10; 5e-10; 2e-9 ])
      [ 25.0; 100.0; 400.0 ]

let test_frequency_program_matches_rom () =
  (* Re/Im of H(jω) from the compiled symbolic form = ROM evaluation. *)
  let nl = fig1_c1_g2 () in
  let model = Model.build ~order:2 nl in
  match Model.frequency_program model with
  | None -> Alcotest.fail "expected a frequency program at order 2"
  | Some prog ->
    let run = Symbolic.Slp.make_evaluator prog in
    List.iter
      (fun point ->
        let v = Model.values model point in
        let rom = Model.rom model v in
        List.iter
          (fun w ->
            let out = run (Array.append v [| w |]) in
            let h = Awe.Rom.transfer rom (Cx.make 0.0 w) in
            check_float ~tol:1e-9 (Printf.sprintf "Re H at w=%g" w) h.Cx.re out.(0);
            check_float ~tol:1e-9 (Printf.sprintf "Im H at w=%g" w) h.Cx.im out.(1))
          [ 0.01; 0.3; 1.0; 5.0; 50.0 ])
      points_fig1

let test_transient_program_none_at_order3 () =
  let nl = fig1_c1_g2 () in
  let model = Model.build ~order:3 nl in
  Alcotest.(check bool) "no closed transient form at order 3" true
    (Option.is_none (Model.transient_program model))

(* ------------------------------------------------------------------ *)
(* Macromodel *)

let rc_block () =
  (* A source-free RC ladder block with ports at both ends. *)
  Circuit.Parser.parse_string
    {|
R1 a m1 100
C1 m1 0 1p
R2 m1 m2 100
C2 m2 0 1p
R3 m2 b 100
C3 b 0 0.5p
I1 a 0 0
|}
(* The 0-A source only exists so the netlist has a designated input when
   needed elsewhere; Macromodel ignores it. *)

let test_macromodel_matches_ac () =
  let nl = rc_block () in
  let mm = Awesymbolic.Macromodel.reduce ~order:3 ~ports:[ "a"; "b" ] nl in
  let reduction =
    Awesymbolic.Port_reduction.of_netlist ~count:8 ~ports:[| "a"; "b" |]
      (Netlist.add_all Netlist.empty
         (List.filter
            (fun (e : Element.t) -> not (Element.is_source e))
            (Netlist.elements nl)))
  in
  (* Compare the fitted model against the truncated exact series well inside
     its convergence region, and against direct values at low frequency. *)
  List.iter
    (fun f ->
      let s = Cx.make 0.0 (2.0 *. Float.pi *. f) in
      let fitted = Awesymbolic.Macromodel.admittance mm s in
      let exact = Awesymbolic.Port_reduction.admittance_at reduction s in
      for j = 0 to 1 do
        for k = 0 to 1 do
          let a = Numeric.Cmatrix.get fitted j k in
          let b = Numeric.Cmatrix.get exact j k in
          if Cx.norm (Cx.sub a b) > 2e-2 *. Float.max 1e-6 (Cx.norm b) then
            Alcotest.failf "Y[%d][%d] mismatch at %g Hz" j k f
        done
      done)
    [ 1e6; 1e8; 3e8 ]

let test_macromodel_synthesis_embeds () =
  (* Synthesize the fitted 2-port back into elements, embed it in a
     driver/load harness, and check v(out) against the same harness solved
     algebraically on the fitted Y(s): the synthesis must be exact. *)
  let mm = Awesymbolic.Macromodel.reduce ~order:3 ~ports:[ "a"; "b" ] (rc_block ()) in
  let rs = 50.0 and rl = 5e3 in
  let harness =
    Awesymbolic.Macromodel.to_netlist mm
    |> Fun.flip Netlist.add
         (Element.make ~name:"Vin" ~kind:Element.Vsource ~pos:"in" ~neg:"0"
            ~value:1.0 ())
    |> Fun.flip Netlist.add
         (Element.make ~name:"Rs" ~kind:Element.Resistor ~pos:"in" ~neg:"a"
            ~value:rs ())
    |> Fun.flip Netlist.add
         (Element.make ~name:"Rl" ~kind:Element.Resistor ~pos:"b" ~neg:"0"
            ~value:rl ())
    |> Fun.flip Netlist.with_input "Vin"
    |> Fun.flip Netlist.with_output (Netlist.Node "b")
  in
  let mna = Mna.build harness in
  List.iter
    (fun f ->
      let s = Cx.make 0.0 (2.0 *. Float.pi *. f) in
      (* (Y + diag(1/Rs, 1/Rl))·v = [vin/Rs; 0] on the fitted Y. *)
      let y = Awesymbolic.Macromodel.admittance mm s in
      let a = Numeric.Cmatrix.init 2 2 (fun i j -> Numeric.Cmatrix.get y i j) in
      Numeric.Cmatrix.add_entry a 0 0 (Cx.of_float (1.0 /. rs));
      Numeric.Cmatrix.add_entry a 1 1 (Cx.of_float (1.0 /. rl));
      let v = Numeric.Cmatrix.solve a [| Cx.of_float (1.0 /. rs); Cx.zero |] in
      let expected = v.(1) in
      let measured = Spice.Ac.at_frequency mna f in
      if Cx.norm (Cx.sub expected measured) > 1e-9 *. Float.max 1e-9 (Cx.norm expected)
      then
        Alcotest.failf "synthesized block off at %g Hz: %s vs %s" f
          (Format.asprintf "%a" Cx.pp expected)
          (Format.asprintf "%a" Cx.pp measured))
    [ 0.0; 1e6; 1e8; 1e9; 1e10 ]

let test_macromodel_reciprocal () =
  (* RC networks are reciprocal: Y must be symmetric. *)
  let mm = Awesymbolic.Macromodel.reduce ~order:2 ~ports:[ "a"; "b" ] (rc_block ()) in
  let s = Cx.make 0.0 (2.0 *. Float.pi *. 1e8) in
  let y = Awesymbolic.Macromodel.admittance mm s in
  let y01 = Numeric.Cmatrix.get y 0 1 and y10 = Numeric.Cmatrix.get y 1 0 in
  if Cx.norm (Cx.sub y01 y10) > 1e-6 *. Cx.norm y01 then
    Alcotest.fail "reciprocity violated"

let test_macromodel_dc_transfer () =
  (* At DC the block is the resistive ladder: Y[a][a] = 1/(R1+R2+R3). *)
  let mm = Awesymbolic.Macromodel.reduce ~order:2 ~ports:[ "a"; "b" ] (rc_block ()) in
  let y0 = Awesymbolic.Macromodel.admittance mm Cx.zero in
  check_float ~tol:1e-9 "DC input conductance" (1.0 /. 300.0)
    (Numeric.Cmatrix.get y0 0 0).Cx.re;
  check_float ~tol:1e-9 "DC transfer conductance" (-1.0 /. 300.0)
    (Numeric.Cmatrix.get y0 0 1).Cx.re

let test_macromodel_step_current () =
  (* Driving port a with a step: the port-a current settles to the DC
     conductance, the port-b current to the (negative) transfer value. *)
  let mm = Awesymbolic.Macromodel.reduce ~order:3 ~ports:[ "a"; "b" ] (rc_block ()) in
  let late = 1e-6 in
  check_float ~tol:1e-6 "i_a(∞)" (1.0 /. 300.0)
    (Awesymbolic.Macromodel.step_current mm ~into:0 ~driven:0 late);
  check_float ~tol:1e-6 "i_b(∞)" (-1.0 /. 300.0)
    (Awesymbolic.Macromodel.step_current mm ~into:1 ~driven:0 late)

let test_macromodel_s_parameters () =
  (* Passivity: |S| ≤ 1 everywhere; at DC with matched reference the
     transmission must dominate reflection for a through-connected block. *)
  let mm = Awesymbolic.Macromodel.reduce ~order:3 ~ports:[ "a"; "b" ] (rc_block ()) in
  List.iter
    (fun f ->
      let s_mat =
        Awesymbolic.Macromodel.s_parameters mm ~z0:50.0
          (Cx.make 0.0 (2.0 *. Float.pi *. f))
      in
      for j = 0 to 1 do
        for k = 0 to 1 do
          let mag = Cx.norm (Numeric.Cmatrix.get s_mat j k) in
          if mag > 1.0 +. 1e-6 then
            Alcotest.failf "|S[%d][%d]| = %g > 1 at %g Hz" j k mag f
        done
      done)
    [ 1e3; 1e7; 1e9 ]

let test_macromodel_touchstone () =
  let mm = Awesymbolic.Macromodel.reduce ~order:2 ~ports:[ "a"; "b" ] (rc_block ()) in
  let freqs = [| 1e6; 1e8 |] in
  let text = Awesymbolic.Macromodel.touchstone mm ~z0:50.0 ~frequencies:freqs in
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "" && l.[0] <> '!')
  in
  (match lines with
  | header :: _ ->
    Alcotest.(check string) "option line" "# Hz S RI R 50" header
  | [] -> Alcotest.fail "empty touchstone");
  let data = List.tl lines in
  Alcotest.(check int) "one row per frequency" 2 (List.length data);
  List.iteri
    (fun i row ->
      let fields =
        String.split_on_char ' ' row
        |> List.filter (fun s -> s <> "")
        |> List.map float_of_string
      in
      Alcotest.(check int) "9 columns for a 2-port" 9 (List.length fields);
      let f = List.nth fields 0 in
      check_float "frequency column" freqs.(i) f;
      (* Column order S11 S21 S12 S22; check S11 against s_parameters. *)
      let s =
        Awesymbolic.Macromodel.s_parameters mm ~z0:50.0
          (Numeric.Cx.make 0.0 (2.0 *. Float.pi *. f))
      in
      let s11 = Numeric.Cmatrix.get s 0 0 in
      check_float ~tol:1e-9 "S11 re" s11.Numeric.Cx.re (List.nth fields 1);
      check_float ~tol:1e-9 "S11 im" s11.Numeric.Cx.im (List.nth fields 2);
      let s21 = Numeric.Cmatrix.get s 1 0 in
      check_float ~tol:1e-9 "S21 re" s21.Numeric.Cx.re (List.nth fields 3);
      (* Passivity of the exported data. *)
      List.iteri
        (fun k v ->
          if k >= 1 && Float.abs v > 1.0 +. 1e-9 then
            Alcotest.failf "non-passive S entry %g" v)
        fields)
    data

let test_macromodel_bad_port () =
  match Awesymbolic.Macromodel.reduce ~ports:[ "nope" ] (rc_block ()) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown port accepted"

(* ------------------------------------------------------------------ *)
(* Compiled-model artifacts: save/load round trips, integrity checks,
   and the content-addressed build cache *)

module Artifact = Awesymbolic.Artifact
module Cache = Awesymbolic.Cache

let bits = Int64.bits_of_float

let with_temp_file f =
  let path = Filename.temp_file "awesym-test" ".awm" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let check_bits name expected actual =
  Array.iteri
    (fun k x ->
      if bits x <> bits actual.(k) then
        Alcotest.failf "%s: entry %d differs: %h vs %h" name k x actual.(k))
    expected

let test_artifact_roundtrip () =
  let nl = fig1_c1_g2 () in
  let model = Model.build ~order:2 nl in
  with_temp_file @@ fun path ->
  Model.save model path;
  let loaded = Model.load path in
  Alcotest.(check int) "order survives" (Model.order model) (Model.order loaded);
  Alcotest.(check (list string))
    "symbols survive"
    (Array.to_list (Array.map Sym.name (Model.symbols model)))
    (Array.to_list (Array.map Sym.name (Model.symbols loaded)));
  check_bits "nominals survive" (Model.nominal_values model)
    (Model.nominal_values loaded);
  Alcotest.(check bool) "output metadata survives" true
    (Model.output_meta model = Model.output_meta loaded);
  (* Evaluations must be bit-identical, not merely close. *)
  List.iter
    (fun point ->
      let v = Model.values model point in
      check_bits "moments bit-identical"
        (Model.eval_moments model v)
        (Model.eval_moments loaded v);
      match (Model.closed_form_rom model v, Model.closed_form_rom loaded v) with
      | Some a, Some b ->
        check_bits "closed-form poles bit-identical"
          (Array.map (fun (p : Cx.t) -> p.Cx.re) a.Awe.Rom.poles)
          (Array.map (fun (p : Cx.t) -> p.Cx.re) b.Awe.Rom.poles)
      | None, None -> ()
      | _ -> Alcotest.fail "closed-form availability changed across save/load")
    points_fig1;
  (* Reconstructed symbolic forms keep the derived programs working. *)
  let v = Model.values loaded [ ("C1", 1.5); ("G2", 0.8) ] in
  check_float "loaded Elmore program"
    (Awe.Measures.elmore_delay (Model.eval_moments loaded v))
    (Symbolic.Slp.eval (Model.elmore_program loaded) v).(0);
  (* Only the netlist analysis itself is gone. *)
  match Model.partition_opt loaded with
  | None -> ()
  | Some _ -> Alcotest.fail "partition should be unavailable on a loaded model"

let test_artifact_save_is_deterministic () =
  let model = Model.build ~order:2 (fig1_c1_g2 ()) in
  with_temp_file @@ fun p1 ->
  with_temp_file @@ fun p2 ->
  Model.save model p1;
  Model.save model p2;
  let read p = In_channel.with_open_bin p In_channel.input_all in
  Alcotest.(check bool) "same bytes on every save" true (read p1 = read p2)

let expect_format_error ~substring path =
  match Model.load path with
  | exception Artifact.Format_error msg ->
    if
      not
        (String.length msg >= String.length substring
        && (let found = ref false in
            for i = 0 to String.length msg - String.length substring do
              if String.sub msg i (String.length substring) = substring then
                found := true
            done;
            !found))
    then
      Alcotest.failf "Format_error message %S does not mention %S" msg substring
  | exception e ->
    Alcotest.failf "expected Format_error, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "corrupted artifact loaded without complaint"

let rewrite path f =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let data = f (Bytes.of_string data) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc data)

let test_artifact_corruption_detected () =
  let model = Model.build ~order:2 (fig1_c1_g2 ()) in
  with_temp_file @@ fun path ->
  Model.save model path;
  (* Flip one payload byte: the MD5 check must catch it. *)
  rewrite path (fun b ->
      let i = Bytes.length b - 3 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      b);
  expect_format_error ~substring:"corrupted" path

let test_artifact_version_drift_detected () =
  let model = Model.build ~order:2 (fig1_c1_g2 ()) in
  with_temp_file @@ fun path ->
  Model.save model path;
  (* Bump the version field (it sits right after the magic string). *)
  rewrite path (fun b ->
      Bytes.set_int32_le b (String.length Artifact.magic)
        (Int32.of_int (Artifact.version + 1));
      b);
  expect_format_error ~substring:"version" path

let test_artifact_truncation_detected () =
  let model = Model.build ~order:2 (fig1_c1_g2 ()) in
  with_temp_file @@ fun path ->
  Model.save model path;
  rewrite path (fun b -> Bytes.sub b 0 (Bytes.length b / 2));
  (* Half a file keeps the header but loses payload bytes. *)
  (match Model.load path with
  | exception Artifact.Format_error _ -> ()
  | _ -> Alcotest.fail "truncated artifact loaded");
  rewrite path (fun b -> Bytes.sub b 0 7);
  expect_format_error ~substring:"too short" path

let test_artifact_bad_magic_detected () =
  let model = Model.build ~order:2 (fig1_c1_g2 ()) in
  with_temp_file @@ fun path ->
  Model.save model path;
  rewrite path (fun b ->
      Bytes.set b 0 'X';
      b);
  expect_format_error ~substring:"magic" path

let test_build_cached_roundtrip () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "awesym-cache-test-%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let nl = fig1_c1_g2 () in
  let key = Cache.key ~order:2 nl in
  let entry = Cache.path ~dir key in
  (* Miss: builds and writes the artifact. *)
  let fresh = Model.build_cached ~cache_dir:dir ~order:2 nl in
  Alcotest.(check bool) "artifact written on miss" true (Sys.file_exists entry);
  (* Hit: loads the artifact, bit-identical evaluations. *)
  let cached = Model.build_cached ~cache_dir:dir ~order:2 nl in
  List.iter
    (fun point ->
      let v = Model.values fresh point in
      check_bits "cache hit bit-identical"
        (Model.eval_moments fresh v)
        (Model.eval_moments cached v))
    points_fig1;
  (* A different order is a different key: no false sharing. *)
  Alcotest.(check bool) "order is part of the key" true
    (Cache.key ~order:3 nl <> key);
  (* Corrupt the entry: build_cached must rebuild silently. *)
  rewrite entry (fun b ->
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
      b);
  let rebuilt = Model.build_cached ~cache_dir:dir ~order:2 nl in
  let v = Model.values fresh [ ("C1", 2.0); ("G2", 0.5) ] in
  check_bits "rebuilt after corruption"
    (Model.eval_moments fresh v)
    (Model.eval_moments rebuilt v)

let test_cache_atomic_write () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "awesym-atomic-test-%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Cache.ensure_dir dir;
  let nl = fig1_c1_g2 () in
  let entry = Cache.path ~dir (Cache.key ~order:2 nl) in
  (* A crashed writer — half an artifact, then an exception — must leave
     no entry behind: a later build_cached sees a clean miss, never a
     half-written hit. *)
  let model = Model.build ~order:2 nl in
  (match
     Cache.atomic_write entry (fun tmp ->
         Model.save model tmp;
         let len = (Unix.stat tmp).Unix.st_size in
         let truncated = open_out_gen [ Open_wronly ] 0o644 tmp in
         Unix.ftruncate (Unix.descr_of_out_channel truncated) (len / 2);
         close_out truncated;
         failwith "simulated crash mid-write")
   with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "crashing writer did not raise");
  Alcotest.(check bool) "no destination after crash" false
    (Sys.file_exists entry);
  Alcotest.(check bool) "no temp litter after crash" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".tmp"))
       (Sys.readdir dir));
  (* build_cached on the same key treats the aborted write as a miss and
     produces a working entry. *)
  let rebuilt = Model.build_cached ~cache_dir:dir ~order:2 nl in
  Alcotest.(check bool) "entry published after clean write" true
    (Sys.file_exists entry);
  let v = Model.values model [ ("C1", 2.0); ("G2", 0.5) ] in
  check_bits "post-recovery model intact"
    (Model.eval_moments model v)
    (Model.eval_moments rebuilt v);
  (* A successful atomic_write replaces the entry in one step. *)
  Cache.atomic_write entry (fun tmp -> Model.save model tmp);
  let loaded = Model.load entry in
  check_bits "atomically replaced entry loads"
    (Model.eval_moments model v)
    (Model.eval_moments loaded v)

let test_cache_gc_kernels () =
  (* Model artifacts (.awm) and compiled kernels (.cmxs) share one gc
     budget; .tmp crash leftovers and .bad quarantined objects are swept
     unconditionally.  Eviction is oldest-access-first across both
     entry kinds. *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "awesym-gc-test-%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Cache.ensure_dir dir;
  let put name bytes age_s =
    let p = Filename.concat dir name in
    let oc = open_out_bin p in
    output_string oc (String.make bytes 'k');
    close_out oc;
    let t = Unix.gettimeofday () -. age_s in
    Unix.utimes p t t;
    p
  in
  let old_awm = put "old.awm" 1000 300.0 in
  let old_ckpt = put "orphan-sweep.ckpt" 1000 250.0 in
  let old_cmxs = put "old-kernel.cmxs" 1000 200.0 in
  let new_awm = put "new.awm" 1000 10.0 in
  let new_cmxs = put "new-kernel.cmxs" 1000 5.0 in
  let tmp = put ".awesym-leftover.tmp" 50 0.0 in
  let bad = put "stale-kernel.cmxs.bad" 50 0.0 in
  (* A budget holding the two newest entries: the three oldest go — one
     of each extension, proving artifacts, kernels, and orphaned sweep
     checkpoints share the pool — and the sweep removes .tmp/.bad
     regardless of their size or age. *)
  let stats = Cache.gc ~dir ~max_bytes:2000 () in
  Alcotest.(check int) "scanned entries (post-sweep)" 5 stats.Cache.scanned;
  Alcotest.(check int) "evicted oldest three" 3 stats.Cache.deleted;
  Alcotest.(check int) "bytes before" 5000 stats.Cache.bytes_before;
  Alcotest.(check int) "bytes after fits budget" 2000 stats.Cache.bytes_after;
  List.iter
    (fun (p, expect) ->
      Alcotest.(check bool) (Filename.basename p) expect (Sys.file_exists p))
    [
      (old_awm, false); (old_ckpt, false); (old_cmxs, false);
      (new_awm, true); (new_cmxs, true); (tmp, false); (bad, false);
    ];
  (* A second run under the same budget is a no-op. *)
  let again = Cache.gc ~dir ~max_bytes:2000 () in
  Alcotest.(check int) "steady state deletes nothing" 0 again.Cache.deleted

let test_artifact_golden () =
  (* A committed artifact pins the on-disk format: if [Artifact.version] (or
     the byte layout) drifts without regenerating the golden file — see
     test/golden/README.md — this load fails and CI goes red. *)
  let model = Model.load "golden/fig1_order2.awm" in
  Alcotest.(check int) "golden order" 2 (Model.order model);
  Alcotest.(check (list string))
    "golden symbols" [ "C1"; "G2" ]
    (Array.to_list (Array.map Sym.name (Model.symbols model)));
  (* fig1 with C1 = G2 = 1 has moments 1, −3, 8, −21 (paper Sec. 2.1). *)
  let m =
    Model.eval_moments model (Model.values model [ ("C1", 1.0); ("G2", 1.0) ])
  in
  check_float "golden m0" 1.0 m.(0);
  check_float "golden m1" (-3.0) m.(1);
  check_float "golden m2" 8.0 m.(2);
  check_float "golden m3" (-21.0) m.(3)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "awesymbolic"
    [
      ( "partition",
        [
          quick "fig1 ports and split" test_partition_fig1;
          quick "op-amp ports" test_partition_opamp;
          quick "no symbols rejected" test_partition_no_symbols;
          quick "shared symbol" test_partition_shared_symbol;
        ] );
      ( "port_reduction",
        [
          quick "resistive two-port" test_port_reduction_resistive;
          quick "internal storage vs direct" test_port_reduction_internal_storage;
        ] );
      ( "symbolic_moments",
        [
          quick "partitioned ≡ exact whole-circuit" test_ratfun_moments_match_exact;
          quick "first-order forms multilinear" test_first_order_moments_multilinear;
        ] );
      ( "compiled",
        [
          quick "fig1 moments identical" test_compiled_moments_identical_fig1;
          quick "fig1 poles identical" test_compiled_rom_identical_fig1;
          quick "closed form matches numeric fit" test_closed_form_matches_numeric;
          quick "op-amp identity (paper Sec. 3.1)" test_opamp_compiled_identity;
          quick "coupled lines identity (paper Sec. 3.2)" test_coupled_lines_compiled_identity;
          quick "symbolic inductor identity" test_symbolic_inductor_identity;
          quick "symbolic transconductance identity" test_symbolic_vccs_identity;
          quick "order-3 model identity" test_order3_model_identity;
          quick "closed form degrades gracefully" test_closed_form_none_on_complex_poles;
          quick "symbolic mutual inductance identity" test_symbolic_mutual_identity;
          quick "fast evaluator consistent" test_evaluator_consistent;
          quick "missing binding rejected" test_values_missing_symbol;
          quick "sensitivity program vs finite difference"
            test_sensitivity_matches_fd;
          quick "sensitivity program vs adjoint (op-amp)"
            test_sensitivity_matches_adjoint;
          quick "pole sensitivity vs finite difference"
            test_pole_sensitivity_matches_fd;
          quick "pole sensitivity absent at order 3"
            test_pole_sensitivity_none_at_order3;
          quick "compiled symbolic zero (bridged RC)"
            test_zero_program_bridged_rc;
          quick "no zero program at order 1" test_zero_program_none_for_order1;
          quick "compiled Elmore delay" test_elmore_program;
          quick "build_many ≡ per-output build" test_build_many_matches_single;
          quick "build_many ≡ numeric AWE per output"
            test_build_many_numeric_identity;
          quick "build_many rejects empty outputs" test_build_many_rejects_empty;
          quick "build_many rejects unknown node" test_build_many_unknown_node;
        ]
        @ props [ prop_compiled_identity; prop_sensitivity_fd ] );
      ( "validate",
        [
          quick "clean model reports tiny errors" test_validate_clean_model;
          quick "missing range rejected" test_validate_missing_range;
          quick "interval bounds enclose samples" test_moment_bounds;
          quick "interval bounds need every range" test_moment_bounds_missing;
        ] );
      ( "transient",
        [
          quick "symbolic step response = ROM step" test_transient_program_matches_rom;
          quick "crosstalk waveforms from the symbolic form" test_transient_program_crosstalk;
          quick "frequency response from the symbolic form" test_frequency_program_matches_rom;
          quick "no closed form at order 3" test_transient_program_none_at_order3;
        ] );
      ( "macromodel",
        [
          quick "fitted Y matches series" test_macromodel_matches_ac;
          quick "synthesis embeds exactly" test_macromodel_synthesis_embeds;
          quick "reciprocity" test_macromodel_reciprocal;
          quick "DC conductances" test_macromodel_dc_transfer;
          quick "step currents settle" test_macromodel_step_current;
          quick "passive S-parameters" test_macromodel_s_parameters;
          quick "unknown port rejected" test_macromodel_bad_port;
          quick "touchstone export" test_macromodel_touchstone;
        ] );
      ( "artifact",
        [
          quick "save/load round trip bit-identical" test_artifact_roundtrip;
          quick "save is deterministic" test_artifact_save_is_deterministic;
          quick "corruption detected" test_artifact_corruption_detected;
          quick "version drift detected" test_artifact_version_drift_detected;
          quick "truncation detected" test_artifact_truncation_detected;
          quick "bad magic detected" test_artifact_bad_magic_detected;
          quick "build cache miss/hit/corruption" test_build_cached_roundtrip;
          quick "atomic cache writes" test_cache_atomic_write;
          quick "gc shares budget across .awm/.cmxs" test_cache_gc_kernels;
          quick "committed golden artifact loads" test_artifact_golden;
        ] );
    ]
