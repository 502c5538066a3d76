(* Heavier end-to-end scenarios: larger circuits, more symbols, and
   cross-subsystem flows exercised together. *)

module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Builders = Circuit.Builders
module Mna = Circuit.Mna
module Sym = Symbolic.Symbol
module Cx = Numeric.Cx
module Model = Awesymbolic.Model

let check_float ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" name expected actual

let substitute nl values =
  Netlist.map_elements
    (fun (e : Element.t) ->
      match e.Element.symbol with
      | Some s -> Element.set_stamp_value e (List.assoc (Sym.name s) values)
      | None -> e)
    nl

let test_large_coupled_lines_identity () =
  (* 300 segments per line (1205 unknowns): the compiled model must stay
     bit-faithful to numeric AWE. *)
  let nl = Builders.coupled_lines ~segments:300 () in
  let nl = Netlist.mark_symbolic nl "rdrv_a" (Sym.intern "g_drv") in
  let nl = Netlist.mark_symbolic nl "rdrv_b" (Sym.intern "g_drv") in
  let nl = Netlist.mark_symbolic nl "cload_a" (Sym.intern "c_load") in
  let nl = Netlist.mark_symbolic nl "cload_b" (Sym.intern "c_load") in
  let model = Model.build ~order:2 nl in
  List.iter
    (fun (rdrv, cload) ->
      let point = [ ("g_drv", 1.0 /. rdrv); ("c_load", cload) ] in
      let m_sym = Model.eval_moments model (Model.values model point) in
      let m_num =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:4 (Mna.build (substitute nl point)))
      in
      Array.iteri
        (fun k mk ->
          check_float ~tol:1e-8 (Printf.sprintf "m%d (R=%g)" k rdrv) mk
            m_sym.(k))
        m_num)
    [ (50.0, 20e-15); (200.0, 150e-15) ]

let test_four_symbol_opamp () =
  (* Four simultaneous symbols spanning all element kinds the op-amp uses:
     conductance, two capacitors, and a transconductance. *)
  let nl = Builders.opamp741 () in
  let marks = [ "gout_q14"; "ccomp"; "gm_q1"; "cload" ] in
  let nl =
    List.fold_left (fun nl n -> Netlist.mark_symbolic nl n (Sym.intern n)) nl marks
  in
  let model = Model.build ~order:2 nl in
  Alcotest.(check int) "four symbols" 4 (Array.length (Model.symbols model));
  let point =
    [ ("gout_q14", 3e-6); ("ccomp", 25e-12); ("gm_q1", 150e-6);
      ("cload", 20e-12) ]
  in
  let m_sym = Model.eval_moments model (Model.values model point) in
  let m_num =
    Awe.Moments.output_moments
      (Awe.Moments.compute ~count:4 (Mna.build (substitute nl point)))
  in
  Array.iteri
    (fun k mk -> check_float ~tol:1e-7 (Printf.sprintf "m%d" k) mk m_sym.(k))
    m_num;
  (* Compiled evaluation must stay a micro-scale operation even with four
     inputs: sanity-bound 10k evaluations under a second. *)
  let eval = Model.evaluator model in
  let v = Model.values model point in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 10_000 do
    ignore (eval v)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "10k evaluations in %.3f s" dt)
    true (dt < 1.0)

let test_mesh_delay_monotone () =
  (* Physical sanity across a sweep: weaker grid drivers always slow the far
     corner down. *)
  let nl = Builders.rc_mesh ~rows:10 ~cols:10 ~r:2.0 ~c:20e-15 () in
  let nl = Netlist.mark_symbolic nl "Rdrv" (Sym.intern "g_drv") in
  let model = Model.build ~order:2 nl in
  let eval = Model.evaluator model in
  let delay rdrv =
    match
      Awe.Measures.delay_50 (eval (Model.values model [ ("g_drv", 1.0 /. rdrv) ]))
    with
    | Some t -> t
    | None -> Alcotest.fail "expected a delay"
  in
  let prev = ref 0.0 in
  List.iter
    (fun rdrv ->
      let d = delay rdrv in
      if d <= !prev then
        Alcotest.failf "delay not monotone at Rdrv=%g (%.3g <= %.3g)" rdrv d !prev;
      prev := d)
    [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 ]

let test_opamp_step_vs_tran () =
  (* Open-loop op-amp step response: 4-pole AWE model against trapezoidal
     integration of the full 170-element circuit. *)
  let nl = Builders.opamp741 () in
  let rom = (Awe.Driver.analyze ~order:4 nl).Awe.Driver.rom in
  let mna = Mna.build nl in
  let tau = Awe.Rom.time_constant rom in
  let wave =
    Spice.Tran.simulate mna ~input:Spice.Tran.step_input ~t_step:(tau /. 100.0)
      ~t_stop:(3.0 *. tau)
  in
  let final = Awe.Rom.dc_gain rom in
  Array.iter
    (fun (t, y) ->
      if t > tau /. 10.0 then begin
        let yr = Awe.Rom.step rom t in
        if Float.abs (yr -. y) > 0.01 *. Float.abs final then
          Alcotest.failf "op-amp step mismatch at t=%g" t
      end)
    wave

let test_macromodel_of_coupled_lines () =
  (* Reduce the 50-segment coupled-line block to a 4-port macromodel and
     check transfer admittances against the exact truncated series. *)
  let nl = Builders.coupled_lines ~segments:50 () in
  let block =
    Netlist.add_all Netlist.empty
      (List.filter
         (fun (e : Element.t) -> not (Element.is_source e))
         (Netlist.elements nl))
  in
  let ports = [ "a_drv"; "b_drv"; "a50"; "b50" ] in
  let mm = Awesymbolic.Macromodel.reduce ~order:3 ~ports block in
  let reduction =
    Awesymbolic.Port_reduction.of_netlist ~count:8
      ~ports:(Array.of_list ports) block
  in
  List.iter
    (fun f ->
      let s = Cx.make 0.0 (2.0 *. Float.pi *. f) in
      let fitted = Awesymbolic.Macromodel.admittance mm s in
      let exact = Awesymbolic.Port_reduction.admittance_at reduction s in
      for j = 0 to 3 do
        for k = 0 to 3 do
          let a = Numeric.Cmatrix.get fitted j k in
          let b = Numeric.Cmatrix.get exact j k in
          let scale = Float.max 1e-4 (Cx.norm b) in
          if Cx.norm (Cx.sub a b) > 0.05 *. scale then
            Alcotest.failf "Y[%d][%d] off at %g Hz" j k f
        done
      done)
    [ 1e6; 1e7 ]

let test_cli_pipeline_files () =
  (* Export → file → parse → model: the full persistence loop. *)
  let nl = Builders.fig1 () in
  let nl = Netlist.mark_symbolic nl "C1" (Sym.intern "C1") in
  let path = Filename.temp_file "awesym_test" ".cir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Circuit.Export.to_file nl path;
      let back = Circuit.Parser.parse_file path in
      let model = Model.build ~order:2 back in
      let rom = Model.rom model (Model.values model [ ("C1", 2.0) ]) in
      check_float ~tol:1e-12 "dc gain" 1.0 (Awe.Rom.dc_gain rom))

(* ------------------------------------------------------------------ *)
(* Randomized whole-pipeline fuzzing on arbitrary RC networks *)

(* A random connected RC network: a resistor spanning tree over [nodes]
   non-ground nodes (guaranteeing a DC path), extra random resistors, and a
   capacitor at every node. *)
let random_rc_network rand ~nodes =
  let name k = Printf.sprintf "t%d" k in
  let elements = ref [] in
  let add e = elements := e :: !elements in
  add
    (Element.make ~name:"Vin" ~kind:Element.Vsource ~pos:(name 0) ~neg:"0"
       ~value:1.0 ());
  for k = 1 to nodes - 1 do
    let parent = rand () mod k in
    add
      (Element.make
         ~name:(Printf.sprintf "Rt%d" k)
         ~kind:Element.Resistor ~pos:(name parent) ~neg:(name k)
         ~value:(10.0 +. float_of_int (rand () mod 990))
         ())
  done;
  for k = 0 to nodes - 1 do
    add
      (Element.make
         ~name:(Printf.sprintf "Cn%d" k)
         ~kind:Element.Capacitor ~pos:(name k) ~neg:"0"
         ~value:(1e-13 +. (float_of_int (rand () mod 100) *. 1e-13))
         ())
  done;
  (* A few cross links make the graph non-tree-like. *)
  let extras = rand () mod 4 in
  for e = 0 to extras - 1 do
    let a = rand () mod nodes and b = rand () mod nodes in
    if a <> b then
      add
        (Element.make
           ~name:(Printf.sprintf "Rx%d" e)
           ~kind:Element.Resistor ~pos:(name a) ~neg:(name b)
           ~value:(100.0 +. float_of_int (rand () mod 900))
           ())
  done;
  let out = name (nodes - 1) in
  Netlist.empty
  |> Fun.flip Netlist.add_all (List.rev !elements)
  |> Fun.flip Netlist.with_input "Vin"
  |> Fun.flip Netlist.with_output (Netlist.Node out)

let int_rand seed =
  let state = ref seed in
  fun () ->
    state := ((!state * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
    (!state lsr 17) land 0xFFFFFF

let prop_random_network_awe_vs_ac =
  QCheck2.Test.make ~name:"AWE matches AC on random RC networks" ~count:40
    QCheck2.Gen.(pair (int_range 3 14) (int_range 0 10000))
    (fun (nodes, seed) ->
      let nl = random_rc_network (int_rand seed) ~nodes in
      let mna = Mna.build nl in
      match Awe.Driver.analyze_mna ~order:4 mna with
      | exception Awe.Pade.Degenerate _ -> QCheck2.assume_fail ()
      | result ->
        let rom = result.Awe.Driver.rom in
        let f_dom = Awe.Measures.dominant_pole_hz rom in
        List.for_all
          (fun mult ->
            let f = f_dom *. mult in
            let exact = Spice.Ac.at_frequency mna f in
            Cx.norm (Cx.sub exact (Awe.Rom.at_frequency rom f)) < 0.08)
          [ 0.1; 0.5; 1.0 ])

let prop_random_network_symbolic_identity =
  QCheck2.Test.make
    ~name:"compiled symbolic ≡ numeric AWE on random RC networks" ~count:40
    QCheck2.Gen.(pair (int_range 3 12) (int_range 0 10000))
    (fun (nodes, seed) ->
      let rand = int_rand seed in
      let nl = random_rc_network rand ~nodes in
      (* Mark one random capacitor and one random tree resistor symbolic. *)
      let cap = Printf.sprintf "Cn%d" (rand () mod nodes) in
      let res = Printf.sprintf "Rt%d" (1 + (rand () mod (nodes - 1))) in
      let nl = Netlist.mark_symbolic nl cap (Sym.intern "sym_c") in
      let nl = Netlist.mark_symbolic nl res (Sym.intern "sym_g") in
      let model = Model.build ~order:2 nl in
      let c_val = 1e-13 +. (float_of_int (rand () mod 500) *. 1e-14) in
      let g_val = 1e-4 +. (float_of_int (rand () mod 100) *. 1e-4) in
      let point = [ ("sym_c", c_val); ("sym_g", g_val) ] in
      let m_sym = Model.eval_moments model (Model.values model point) in
      let m_num =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:4 (Mna.build (substitute nl point)))
      in
      Array.for_all2
        (fun a b ->
          Float.abs (a -. b) <= 1e-7 *. Float.max (Float.abs a) 1e-30
          || Float.abs a < 1e-25)
        m_num m_sym)

(* cwd is _build/default/test under `dune runtest`, the project root under
   a direct `dune exec`. *)
let decks_dir =
  List.find_opt Sys.file_exists [ "../decks"; "decks" ]
  |> Option.value ~default:"../decks"

(* ---- coupled RLC lines (inductive + capacitive crosstalk) ---- *)

let test_rlc_lines_structure () =
  let segments = 4 in
  let nl = Builders.coupled_rlc_lines ~segments ~k_couple:0.3 () in
  let total, _ = Netlist.stats nl in
  (* Per segment: 2R + 2L + 2C + 1 coupling C + 1 mutual = 8; plus two
     drivers and two loads (stats excludes the source). *)
  Alcotest.(check int) "element count" ((8 * segments) + 4) total

let test_rlc_lines_awe_matches_ac () =
  let nl = Builders.coupled_rlc_lines ~segments:8 ~k_couple:0.4 () in
  let mna = Mna.build nl in
  let rom = (Awe.Driver.analyze_mna ~order:4 mna).Awe.Driver.rom in
  let f_dom = Awe.Measures.dominant_pole_hz rom in
  List.iter
    (fun mult ->
      let f = f_dom *. mult in
      let exact = Spice.Ac.at_frequency mna f in
      let err = Cx.norm (Cx.sub exact (Awe.Rom.at_frequency rom f)) in
      if err > 0.02 then
        Alcotest.failf "AWE vs AC at %.3g Hz: err %.3g" f err)
    [ 0.1; 0.5; 1.0; 2.0 ]

let test_rlc_crosstalk_polarity () =
  (* The classic signature of inductive coupling: with capacitive coupling
     only, far-end victim noise is positive (same polarity as the
     aggressor); when mutual inductance dominates, the far-end pulse flips
     negative.  Measured with the transient baseline, no AWE involved. *)
  let first_peak nl =
    let mna = Mna.build nl in
    let wave =
      Spice.Tran.simulate mna ~input:Spice.Tran.step_input ~t_step:5e-12
        ~t_stop:2e-9
    in
    (* Signed extremum of the early response. *)
    Array.fold_left
      (fun acc (_, y) -> if Float.abs y > Float.abs acc then y else acc)
      0.0 wave
  in
  let capacitive =
    first_peak (Builders.coupled_rlc_lines ~segments:8 ~k_couple:0.0 ())
  in
  let inductive =
    first_peak
      (Builders.coupled_rlc_lines ~segments:8 ~k_couple:0.7 ~c_couple:0.05e-12
         ())
  in
  if capacitive <= 0.0 then
    Alcotest.failf "capacitive far-end noise should be positive: %.4f"
      capacitive;
  if inductive >= 0.0 then
    Alcotest.failf "inductively dominated far-end noise should flip: %.4f"
      inductive

let test_rlc_lines_symbolic_identity () =
  (* Symbolic load on a structure full of mutual inductances: the numeric
     partition carries all the K elements and the compiled model must stay
     identical to whole-circuit numeric AWE. *)
  let nl = Builders.coupled_rlc_lines ~segments:6 ~k_couple:0.35 () in
  let nl = Netlist.mark_symbolic nl "cload_b" (Sym.intern "c_load") in
  let model = Model.build ~order:3 nl in
  List.iter
    (fun cload ->
      let point = [ ("c_load", cload) ] in
      let m_sym = Model.eval_moments model (Model.values model point) in
      let m_num =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:6 (Mna.build (substitute nl point)))
      in
      Array.iteri
        (fun k mk ->
          let scale =
            Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1e-30 m_num
          in
          if Float.abs (mk -. m_num.(k)) > 1e-7 *. Float.max (Float.abs m_num.(k)) (1e-9 *. scale)
          then
            Alcotest.failf "m%d at cload=%g: num %.12g sym %.12g" k cload
              m_num.(k) mk)
        m_sym)
    [ 20e-15; 100e-15; 400e-15 ]

let test_rlc_display_path_degrades_cleanly () =
  (* Known representation limit, pinned: the exact Cramer (display) path
     cannot survive float fraction-free elimination on this incidence-heavy
     26-unknown system (det Y⁰ ~ 1e-17 by cancellation), and must fail with
     a clean [Failure] — while the compiled elimination path stays exact
     (the `validate` CLI reports ~1e-16 against numeric AWE). *)
  let nl = Circuit.Parser.parse_file (Filename.concat decks_dir "coupled_rlc.cir") in
  let model = Model.build ~order:2 nl in
  let m = Model.eval_moments model (Model.values model [ ("M", 3e-9) ]) in
  if not (Array.for_all Float.is_finite m) then
    Alcotest.fail "compiled path must evaluate";
  match Format.asprintf "%a" (Model.pp_forms ~count:4) nl with
  | _ -> Alcotest.fail "expected the Cramer display path to refuse"
  | exception Failure _ -> ()

let prop_random_network_multi_output =
  QCheck2.Test.make
    ~name:"build_many ≡ numeric AWE per output on random RC networks"
    ~count:25
    QCheck2.Gen.(pair (int_range 4 10) (int_range 0 10000))
    (fun (nodes, seed) ->
      let rand = int_rand seed in
      let nl = random_rc_network rand ~nodes in
      let cap = Printf.sprintf "Cn%d" (rand () mod nodes) in
      let nl = Netlist.mark_symbolic nl cap (Sym.intern "sym_c") in
      (* Observe two random distinct nodes plus their difference. *)
      let n1 = Printf.sprintf "t%d" (rand () mod nodes) in
      let n2 = Printf.sprintf "t%d" (rand () mod nodes) in
      let outputs =
        [ Netlist.Node n1; Netlist.Node n2; Netlist.Diff (n1, n2) ]
      in
      let models = Model.build_many ~order:2 nl ~outputs in
      let c_val = 1e-13 +. (float_of_int (rand () mod 500) *. 1e-14) in
      let point = [ ("sym_c", c_val) ] in
      let moments_of model =
        Model.eval_moments model (Model.values model point)
      in
      let numeric output =
        Awe.Moments.output_moments
          (Awe.Moments.compute ~count:4
             (Mna.build (Netlist.with_output (substitute nl point) output)))
      in
      let agree ?(scale = [||]) m_num m_sym =
        let ok = ref true in
        Array.iteri
          (fun k a ->
            let b = m_sym.(k) in
            (* A Diff output cancels node moments; rounding dust at the
               operands' magnitude is correct behaviour, not error. *)
            let floor =
              if k < Array.length scale then 1e-9 *. scale.(k) else 0.0
            in
            if
              Float.abs (a -. b) > Float.max (1e-7 *. Float.abs a) floor
              && Float.abs a >= 1e-25
            then ok := false)
          m_num;
        !ok
      in
      match models with
      | [ model1; model2; model_diff ] ->
        let s1 = moments_of model1 and s2 = moments_of model2 in
        let operand_scale =
          Array.map2 (fun a b -> Float.abs a +. Float.abs b) s1 s2
        in
        agree (numeric (Netlist.Node n1)) s1
        && agree (numeric (Netlist.Node n2)) s2
        && agree ~scale:operand_scale
             (numeric (Netlist.Diff (n1, n2)))
             (moments_of model_diff)
      | _ -> false)

(* Sparse and dense port reduction compile the same program, or both fail
   with the same classified kind, on random decks from the lib/circuit
   generators with random symbol subsets at orders 1–4: the pin that lets
   the dense branch go.  The two paths' errors differ in their site,
   which names the factorization (lu.factor, sparse.factor).  On a
   failure the report prints the shrunk deck. *)
let gen_sparse_dense_case =
  let open QCheck2.Gen in
  let* nl =
    oneof
      [
        map2
          (fun nodes seed -> random_rc_network (int_rand seed) ~nodes)
          (int_range 3 12) (int_range 0 10000);
        map (fun sections -> Builders.rc_ladder ~sections ~r:100.0 ~c:1e-12 ())
          (int_range 1 12);
        map (fun depth -> Builders.rc_tree ~depth ~r:50.0 ~c:2e-13 ()) (int_range 1 4);
        map2
          (fun rows cols -> Builders.rc_mesh ~rows ~cols ~r:2.0 ~c:20e-15 ())
          (int_range 2 4) (int_range 2 4);
        map
          (fun sections -> Builders.rlc_ladder ~sections ~r:10.0 ~l:1e-9 ~c:1e-12 ())
          (int_range 1 8);
        map (fun segments -> Builders.coupled_lines ~segments ()) (int_range 1 8);
        map2
          (fun segments k_couple -> Builders.coupled_rlc_lines ~segments ~k_couple ())
          (int_range 1 6) (float_range 0.0 0.6);
      ]
  in
  let passive =
    List.filter
      (fun (e : Element.t) ->
        match e.Element.kind with
        | Element.Resistor | Element.Conductance | Element.Capacitor
        | Element.Inductor ->
          true
        | _ -> false)
      (Netlist.elements nl)
  in
  let* picks = list_size (int_range 1 3) (int_bound (List.length passive - 1)) in
  let* order = int_range 1 4 in
  let mark nl i =
    let name = (List.nth passive i).Element.name in
    Netlist.mark_symbolic nl name (Sym.intern name)
  in
  return (List.fold_left mark nl picks, order)

let prop_sparse_dense_same_program =
  QCheck2.Test.make ~name:"sparse ≡ dense port reduction on random decks"
    ~count:300
    ~print:(fun (nl, order) ->
      Printf.sprintf "order %d\n%s" order (Circuit.Export.to_deck nl))
    gen_sparse_dense_case
    (fun (nl, order) ->
      let build sparse =
        match Model.build ~order ~sparse nl with
        | m -> Ok (Symbolic.Slp.digest (Model.program m))
        | exception e -> Error (Awesym_error.classify e).Awesym_error.kind
      in
      match (build true, build false) with
      | Error Awesym_error.Internal, _ | _, Error Awesym_error.Internal -> false
      | sparse, dense -> sparse = dense)

(* Two pathologies originally caught by the random-network fuzzer, pinned
   as concrete regressions. *)

let test_regression_constant_pivot_trap () =
  (* An RC tree whose port-frame constant subblock is near-singular: the
     compiled pipeline once picked structurally "nice" but numerically
     terrible pivots here and returned m0 = −0.43 instead of 1. *)
  let nl =
    Circuit.Parser.parse_string
      {|
V1 t0 0 1
Rt1 t0 t1 915
Rt2 t1 t2 902
Rt3 t2 t3 391
Rt4 t1 t4 824
Rt5 t3 t5 641
Rt6 t2 t6 326
Rt7 t4 t7 109
Rt8 t3 t8 830
Rt9 t7 t9 739
Rt10 t2 t10 594
Cn0 t0 0 7.2p
Cn1 t1 0 900f
Cn2 t2 0 4.6p
Cn3 t3 0 1.9p
Cn4 t4 0 8.9p
Cn5 t5 0 8p
Cn6 t6 0 4.4p
Cn7 t7 0 900f
Cn8 t8 0 4.1p
Cn9 t9 0 1.6p
Cn10 t10 0 2.8p
Rx0 t2 t5 542
Rx1 t7 t0 523
.symbolic Cn9 sym_c
.symbolic Rt5 sym_g
.output v(t10)
|}
  in
  let model = Model.build ~order:2 nl in
  let point = [ ("sym_c", 1.6e-12); ("sym_g", 1.0 /. 641.0) ] in
  let m_sym = Model.eval_moments model (Model.values model point) in
  let m_num =
    Awe.Moments.output_moments
      (Awe.Moments.compute ~count:4 (Mna.build (substitute nl point)))
  in
  Array.iteri
    (fun k mk -> check_float ~tol:1e-9 (Printf.sprintf "m%d" k) mk m_sym.(k))
    m_num

let test_regression_moment_invisible_pole () =
  (* A nearly single-pole branch response: the order-4 Hankel system is
     numerically rank one, and the fit once minted a moment-invisible
     "pole" at Re ≈ −1e−77 whose transfer exploded at its own resonance. *)
  let nl =
    Circuit.Parser.parse_string
      {|
V1 t0 0 1
Rt1 t0 t1 832
Rt2 t1 t2 689
Rt3 t0 t3 726
Cn0 t0 0 8p
Cn1 t1 0 5.5p
Cn2 t2 0 8.3p
Cn3 t3 0 4.6p
.output v(t3)
|}
  in
  let mna = Mna.build nl in
  let rom = (Awe.Driver.analyze_mna ~order:4 mna).Awe.Driver.rom in
  (* Every kept pole must be visible and physical. *)
  Array.iter
    (fun (p : Cx.t) ->
      if Float.abs p.Cx.re < 1e-3 *. Cx.norm p then
        Alcotest.failf "near-imaginary junk pole survived: (%g, %g)" p.Cx.re
          p.Cx.im)
    rom.Awe.Rom.poles;
  let f_dom = Awe.Measures.dominant_pole_hz rom in
  List.iter
    (fun mult ->
      let f = f_dom *. mult in
      let err =
        Cx.norm
          (Cx.sub (Spice.Ac.at_frequency mna f) (Awe.Rom.at_frequency rom f))
      in
      if err > 1e-3 then Alcotest.failf "transfer off at %gx: %g" mult err)
    [ 0.1; 0.5; 1.0; 3.0 ]

let test_floating_node_error () =
  (* A capacitor-only node has no DC path: AWE must fail loudly. *)
  let nl =
    Circuit.Parser.parse_string
      {|
V1 in 0 1
R1 in out 1k
C1 out island 1p
C2 island 0 1p
.output v(out)
|}
  in
  match Awe.Driver.analyze ~order:2 nl with
  | exception Numeric.Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular on a floating node"

(* Every deck shipped in decks/ must parse and run the pipeline its header
   advertises: linear decks through AWE (plus Model.build when they carry
   symbols), transistor-level decks through bias + linearize. *)

let test_all_decks_run () =
  let decks =
    Sys.readdir decks_dir
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cir")
    |> List.sort compare
  in
  if List.length decks < 6 then
    Alcotest.failf "expected the shipped decks, found %d" (List.length decks);
  List.iter
    (fun file ->
      let path = Filename.concat decks_dir file in
      match Circuit.Parser.parse_file path with
      | nl ->
        let rom = (Awe.Driver.analyze ~order:2 nl).Awe.Driver.rom in
        if not (Float.is_finite (Awe.Rom.dc_gain rom)) then
          Alcotest.failf "%s: non-finite dc gain" file;
        let symbols =
          List.filter_map
            (fun (e : Element.t) -> e.Element.symbol)
            (Netlist.elements nl)
        in
        if symbols <> [] then begin
          let model = Model.build ~order:2 nl in
          let nominal =
            Array.to_list (Model.symbols model)
            |> List.map (fun s ->
                   let e =
                     List.find
                       (fun (e : Element.t) -> e.Element.symbol = Some s)
                       (Netlist.elements nl)
                   in
                   (Sym.name s, Element.stamp_value e))
          in
          let m = Model.eval_moments model (Model.values model nominal) in
          if not (Array.for_all Float.is_finite m) then
            Alcotest.failf "%s: non-finite compiled moments" file
        end
      | exception Circuit.Parser.Parse_error _ ->
        (* Transistor-level deck: the linearization pipeline applies. *)
        let nl = Nonlinear.Parser.parse_file path in
        let sol = Nonlinear.Newton.solve nl in
        let lin = Nonlinear.Linearize.netlist nl sol in
        let rom = (Awe.Driver.analyze ~order:2 lin).Awe.Driver.rom in
        if not (Float.is_finite (Awe.Rom.dc_gain rom)) then
          Alcotest.failf "%s: non-finite linearized dc gain" file)
    decks

let test_missing_output_node_error () =
  let nl = Builders.fig1 () in
  let nl = Netlist.with_output nl (Netlist.Node "nope") in
  match Awe.Driver.analyze ~order:2 nl with
  | exception Awesym_error.Error { kind = Invalid_request; _ } -> ()
  | _ -> Alcotest.fail "expected a clean failure on an unknown output node"

let () =
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          slow "300-segment coupled lines identity" test_large_coupled_lines_identity;
          slow "four-symbol op-amp" test_four_symbol_opamp;
          slow "mesh delay monotone in driver strength" test_mesh_delay_monotone;
          slow "op-amp step response vs transient" test_opamp_step_vs_tran;
          slow "coupled-line macromodel" test_macromodel_of_coupled_lines;
          slow "export/parse/model file loop" test_cli_pipeline_files;
          slow "every shipped deck runs its pipeline" test_all_decks_run;
        ] );
      ( "rlc-lines",
        [
          Alcotest.test_case "structure" `Quick test_rlc_lines_structure;
          Alcotest.test_case "AWE matches AC" `Quick
            test_rlc_lines_awe_matches_ac;
          Alcotest.test_case "inductive coupling flips far-end polarity"
            `Quick test_rlc_crosstalk_polarity;
          Alcotest.test_case "symbolic identity with mutuals at scale" `Quick
            test_rlc_lines_symbolic_identity;
          Alcotest.test_case "Cramer display path degrades cleanly" `Quick
            test_rlc_display_path_degrades_cleanly;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "regression: constant-pivot trap" `Quick
            test_regression_constant_pivot_trap;
          Alcotest.test_case "regression: moment-invisible pole" `Quick
            test_regression_moment_invisible_pole;
          Alcotest.test_case "floating node fails loudly" `Quick
            test_floating_node_error;
          Alcotest.test_case "unknown output node fails cleanly" `Quick
            test_missing_output_node_error;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_random_network_awe_vs_ac;
              prop_random_network_symbolic_identity;
              prop_random_network_multi_output ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1992 |])
              prop_sparse_dense_same_program;
          ] );
    ]
