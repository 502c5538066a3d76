(* Frequency-domain symbolic analysis of the 741-class operational
   amplifier — the paper's Sec. 3.1 worked example.

   The flow mirrors the paper exactly:
   1. AWEsensitivity ranks all 170 linear elements; the two most significant
      (gout_q14 and ccomp) are chosen as symbols.
   2. A first-order AWEsymbolic model gives closed symbolic forms for the
      dominant pole p1 and the DC gain (the surfaces of Figs. 4-5).
   3. A second-order model gives the unity-gain frequency and phase margin
      surfaces (Figs. 6-7), identical to numeric AWE at every point.

   Run with:  dune exec examples/opamp_analysis.exe *)

module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Builders = Circuit.Builders
module Sym = Symbolic.Symbol
module Model = Awesymbolic.Model
module Measures = Awe.Measures

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  let nl = Builders.opamp741 () in
  let total, storage = Netlist.stats nl in
  Printf.printf "linearized op-amp: %d linear elements, %d energy-storage\n"
    total storage;

  section "AWEsensitivity ranking (top 8 of 170 elements)";
  let ranked = Awe.Sensitivity.rank ~order:2 nl in
  List.iteri
    (fun k ((e : Element.t), score) ->
      if k < 8 then
        Printf.printf "%2d. %-14s  normalized sensitivity %.3g\n" (k + 1)
          e.Element.name score)
    ranked;

  (* Pick the two paper symbols; the ranking puts them at the top. *)
  let gname, cname = Builders.opamp_symbol_names in
  let nl = Netlist.mark_symbolic nl gname (Sym.intern gname) in
  let nl = Netlist.mark_symbolic nl cname (Sym.intern cname) in
  Printf.printf "chosen symbols: %s, %s (as in the paper)\n" gname cname;

  section "First-order AWEsymbolic model (Figs. 4-5 surfaces)";
  let model1 = Model.build ~order:1 nl in
  Printf.printf "compiled first-order program: %d operations\n"
    (Model.num_operations model1);
  let g_nominal = 2e-6 and c_nominal = 30e-12 in
  let sweep_g = Array.init 5 (fun i -> g_nominal *. (0.25 +. (0.5 *. float_of_int i))) in
  let sweep_c = Array.init 5 (fun i -> c_nominal *. (0.25 +. (0.5 *. float_of_int i))) in
  Printf.printf "\ndominant pole p1 (Hz) as a function of the symbols:\n";
  Printf.printf "%12s" "gout \\ C";
  Array.iter (fun c -> Printf.printf "%12s" (Circuit.Units.format c)) sweep_c;
  print_newline ();
  Array.iter
    (fun g ->
      Printf.printf "%12s" (Circuit.Units.format g);
      Array.iter
        (fun c ->
          let rom = Model.rom model1 (Model.values model1 [ (gname, g); (cname, c) ]) in
          Printf.printf "%12.4g" (Measures.dominant_pole_hz rom))
        sweep_c;
      print_newline ())
    sweep_g;
  Printf.printf "\nDC gain (dB) as a function of the symbols:\n";
  Printf.printf "%12s" "gout \\ C";
  Array.iter (fun c -> Printf.printf "%12s" (Circuit.Units.format c)) sweep_c;
  print_newline ();
  Array.iter
    (fun g ->
      Printf.printf "%12s" (Circuit.Units.format g);
      Array.iter
        (fun c ->
          let rom = Model.rom model1 (Model.values model1 [ (gname, g); (cname, c) ]) in
          Printf.printf "%12.2f" (Measures.dc_gain_db rom))
        sweep_c;
      print_newline ())
    sweep_g;

  section "Second-order model (Figs. 6-7 surfaces)";
  let model2 = Model.build ~order:2 nl in
  Printf.printf "compiled second-order program: %d operations\n"
    (Model.num_operations model2);
  Printf.printf "\nunity-gain frequency (Hz) and phase margin (deg):\n";
  Printf.printf "%12s %12s %14s %14s\n" "gout_q14" "ccomp" "f_unity" "phase margin";
  Array.iter
    (fun g ->
      Array.iter
        (fun c ->
          let rom = Model.rom model2 (Model.values model2 [ (gname, g); (cname, c) ]) in
          let fu = Measures.unity_gain_frequency rom in
          let pm = Option.map (Measures.phase_margin_at rom) fu in
          Printf.printf "%12s %12s %14s %14s\n" (Circuit.Units.format g)
            (Circuit.Units.format c)
            (match fu with Some f -> Printf.sprintf "%.4g" f | None -> "-")
            (match pm with Some p -> Printf.sprintf "%.1f" p | None -> "-"))
        [| 10e-12; 30e-12; 60e-12 |])
    [| 1e-6; 2e-6; 4e-6 |];

  section "Identity with numeric AWE (paper: results are identical)";
  List.iter
    (fun (g, c) ->
      let rom_sym = Model.rom model2 (Model.values model2 [ (gname, g); (cname, c) ]) in
      let nl_num =
        Netlist.map_elements
          (fun (e : Element.t) ->
            if e.Element.name = gname then Element.set_stamp_value e g
            else if e.Element.name = cname then Element.set_stamp_value e c
            else e)
          nl
      in
      let rom_num = (Awe.Driver.analyze ~order:2 nl_num).Awe.Driver.rom in
      Printf.printf
        "g=%-8s c=%-6s  symbolic p1 = %.6g Hz   numeric p1 = %.6g Hz\n"
        (Circuit.Units.format g) (Circuit.Units.format c)
        (Measures.dominant_pole_hz rom_sym)
        (Measures.dominant_pole_hz rom_num))
    [ (2e-6, 30e-12); (8e-6, 15e-12) ];

  section "Compiled pole sensitivities (design knobs, no re-analysis)";
  (* The moment DAGs are differentiable: d(pole)/d(symbol) compiles to its
     own straight-line program, so "which way do I nudge ccomp" costs the
     same microseconds as an evaluation. *)
  let v0 = Model.values model2 [ (gname, 2e-6); (cname, 30e-12) ] in
  (match (Model.eval_pole_sensitivities model2 v0, Model.closed_form_rom model2 v0) with
  | Some (dp1, dp2), Some rom ->
    (* Closed-form pole order is quadratic-formula order; pick the dominant
       (slowest) branch for reporting. *)
    let p = rom.Awe.Rom.poles in
    let dom, ddom =
      if Numeric.Cx.norm p.(0) <= Numeric.Cx.norm p.(1) then (p.(0), dp1)
      else (p.(1), dp2)
    in
    Printf.printf "dominant pole p1 = %.4g rad/s\n" dom.Numeric.Cx.re;
    Array.iteri
      (fun j s ->
        Printf.printf "  dp1/d%-9s = %12.4g  (rad/s per unit)\n"
          (Symbolic.Symbol.name s) ddom.(j))
      (Model.symbols model2)
  | _ -> print_endline "(no closed form at this order)");
  print_newline ()
