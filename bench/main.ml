(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus the ablations called out in DESIGN.md.

   Usage:
     dune exec bench/main.exe                  # run everything
     dune exec bench/main.exe -- tab1          # one experiment
     dune exec bench/main.exe -- list          # list experiment ids
     dune exec bench/main.exe -- --json F.json [ids]
                                               # also write machine-readable
                                               # per-experiment stats

   Absolute times are machine-dependent; the claims under reproduction are
   the *ratios* and *shapes* (see EXPERIMENTS.md). *)

module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Builders = Circuit.Builders
module Mna = Circuit.Mna
module Sym = Symbolic.Symbol
module Model = Awesymbolic.Model
module Measures = Awe.Measures
module Cx = Numeric.Cx

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(* Timing and the deterministic value stream both come from Obs now, so the
   bench measures with the same clock the pipeline spans use. *)
let wall f = Obs.Span.timed f
let wall_only f = snd (Obs.Span.timed f)

let lcg seed =
  let rng = Obs.Rng.create seed in
  fun () -> Obs.Rng.float rng

(* ------------------------------------------------------------------ *)
(* Shared circuit setups *)

let opamp_symbolic () =
  let nl = Builders.opamp741 () in
  let gname, cname = Builders.opamp_symbol_names in
  let nl = Netlist.mark_symbolic nl gname (Sym.intern gname) in
  (Netlist.mark_symbolic nl cname (Sym.intern cname), gname, cname)

let opamp_at nl gname cname g c =
  Netlist.map_elements
    (fun (e : Element.t) ->
      if e.Element.name = gname then Element.set_stamp_value e g
      else if e.Element.name = cname then Element.set_stamp_value e c
      else e)
    nl

let lines_symbolic ?(segments = 100) output =
  let nl = Builders.coupled_lines ~segments ~output () in
  let nl = Netlist.mark_symbolic nl "rdrv_a" (Sym.intern "g_drv") in
  let nl = Netlist.mark_symbolic nl "rdrv_b" (Sym.intern "g_drv") in
  let nl = Netlist.mark_symbolic nl "cload_a" (Sym.intern "c_load") in
  Netlist.mark_symbolic nl "cload_b" (Sym.intern "c_load")

let g_grid = Array.init 7 (fun i -> 0.5e-6 *. float_of_int (i + 1))
let c_grid = Array.init 7 (fun i -> 10e-12 *. float_of_int (i + 1))

let print_surface ~row_label ~rows ~cols ~fmt_row ~fmt_col value =
  Printf.printf "%12s" row_label;
  Array.iter (fun c -> Printf.printf "%12s" (fmt_col c)) cols;
  print_newline ();
  Array.iter
    (fun r ->
      Printf.printf "%12s" (fmt_row r);
      Array.iter (fun c -> Printf.printf "%12s" (value r c)) cols;
      print_newline ())
    rows

(* ------------------------------------------------------------------ *)
(* EQ5 / EQ6 *)

let eq5 () =
  banner "EQ5/EQ6: exact symbolic forms of the Fig. 1 circuit";
  let tf = Exact.Network.transfer_function ~all_symbolic:true (Builders.fig1 ()) in
  Printf.printf "Eq. (5):  H(s) = %s\n" (Exact.Network.to_string tf);
  let nl6 = Builders.fig1 ~g1:5.0 () in
  let nl6 =
    List.fold_left
      (fun acc n -> Netlist.mark_symbolic acc n (Sym.intern n))
      nl6 [ "G2"; "C1"; "C2" ]
  in
  let tf6 = Exact.Network.transfer_function nl6 in
  Printf.printf "Eq. (6):  H(s) = %s\n" (Exact.Network.to_string tf6);
  Printf.printf
    "paper:    identical coefficient structure (multi-linear in each element)\n";
  Printf.printf "measured: multi-linear = %b\n"
    (Array.for_all Symbolic.Mpoly.is_multilinear
       (Array.append tf.Exact.Network.num tf.Exact.Network.den))

(* ------------------------------------------------------------------ *)
(* FIG4 / FIG5: op-amp first-order surfaces *)

let fig4 () =
  banner "FIG4: dominant pole p1 (Hz) vs (gout_q14, ccomp), 1st-order model";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:1 nl in
  let eval = Model.evaluator model in
  print_surface ~row_label:"gout \\ C" ~rows:g_grid ~cols:c_grid
    ~fmt_row:Circuit.Units.format ~fmt_col:Circuit.Units.format (fun g c ->
      let rom = eval (Model.values model [ (gname, g); (cname, c) ]) in
      Printf.sprintf "%.4g" (Measures.dominant_pole_hz rom));
  Printf.printf
    "\npaper shape: |p1| increases with gout_q14, decreases with ccomp\n";
  let p g c =
    Measures.dominant_pole_hz
      (eval (Model.values model [ (gname, g); (cname, c) ]))
  in
  Printf.printf
    "measured:    p1(4.5u,10p)=%.4g > p1(0.5u,10p)=%.4g;  p1(1u,70p)=%.4g < \
     p1(1u,10p)=%.4g\n"
    (p 4.5e-6 10e-12) (p 0.5e-6 10e-12) (p 1e-6 70e-12) (p 1e-6 10e-12)

let fig5 () =
  banner "FIG5: DC gain (dB) vs (gout_q14, ccomp), 1st-order model";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:1 nl in
  let eval = Model.evaluator model in
  print_surface ~row_label:"gout \\ C" ~rows:g_grid ~cols:c_grid
    ~fmt_row:Circuit.Units.format ~fmt_col:Circuit.Units.format (fun g c ->
      let rom = eval (Model.values model [ (gname, g); (cname, c) ]) in
      Printf.sprintf "%.2f" (Measures.dc_gain_db rom));
  (* Paper: the DC gain plot from the 2nd-order form is identical to the
     1st-order one because m0 is always exact. *)
  let model2 = Model.build ~order:2 nl in
  let worst = ref 0.0 in
  Array.iter
    (fun g ->
      Array.iter
        (fun c ->
          let v1 = Model.values model [ (gname, g); (cname, c) ] in
          let v2 = Model.values model2 [ (gname, g); (cname, c) ] in
          let d1 = Awe.Rom.dc_gain (Model.rom model v1) in
          let d2 = Awe.Rom.dc_gain (Model.rom model2 v2) in
          worst := Float.max !worst (Float.abs (d1 -. d2) /. Float.abs d1))
        c_grid)
    g_grid;
  Printf.printf
    "\npaper: DC gain from 1st- and 2nd-order forms identical (m0 exact)\n";
  Printf.printf "measured: max relative difference over the grid = %.2g\n" !worst

(* ------------------------------------------------------------------ *)
(* TAB1: iteration cost, numeric AWE vs compiled AWEsymbolic *)

let tab1 () =
  banner "TAB1: multi-evaluation runtime, numeric AWE vs AWEsymbolic (op-amp)";
  let nl, gname, cname = opamp_symbolic () in
  let model, t_compile = wall (fun () -> Model.build ~order:2 nl) in
  let eval = Model.evaluator model in
  let rand = lcg 0xBEEF in
  let point () =
    let g = 0.5e-6 +. (rand () *. 8e-6) in
    let c = 5e-12 +. (rand () *. 60e-12) in
    (g, c)
  in
  Printf.printf "one-time AWEsymbolic compilation: %.3f s (%d operations)\n\n"
    t_compile
    (Model.num_operations model);
  Printf.printf "%10s %15s %15s %10s\n" "datapoints" "AWE total (s)"
    "AWEsym total(s)" "speedup";
  let per_iter = ref (0.0, 0.0) in
  List.iter
    (fun n ->
      let pts = List.init n (fun _ -> point ()) in
      let t_awe =
        wall_only (fun () ->
            List.iter
              (fun (g, c) ->
                let nl_num = opamp_at nl gname cname g c in
                ignore (Awe.Driver.analyze ~order:2 nl_num))
              pts)
      in
      let t_sym =
        wall_only (fun () ->
            List.iter
              (fun (g, c) ->
                ignore (eval (Model.values model [ (gname, g); (cname, c) ])))
              pts)
      in
      Printf.printf "%10d %15.4f %15.6f %9.0fx\n" n t_awe t_sym (t_awe /. t_sym);
      if n = 1000 then
        per_iter := (t_awe /. float_of_int n, t_sym /. float_of_int n))
    [ 10; 100; 1000 ];
  let awe_it, sym_it = !per_iter in
  Printf.printf
    "\npaper (DECstation 5000): AWE 53.2 ms/iter, AWEsymbolic 0.16 ms/iter \
     (~330x)\n";
  Printf.printf
    "measured:                AWE %.3f ms/iter, AWEsymbolic %.4f ms/iter \
     (%.0fx)\n"
    (awe_it *. 1e3) (sym_it *. 1e3) (awe_it /. sym_it)

(* ------------------------------------------------------------------ *)
(* FIG6 / FIG7: op-amp second-order surfaces *)

let fig6 () =
  banner "FIG6: unity-gain frequency (Hz) vs (gout_q14, ccomp), 2nd-order model";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:2 nl in
  let eval = Model.evaluator model in
  print_surface ~row_label:"gout \\ C" ~rows:g_grid ~cols:c_grid
    ~fmt_row:Circuit.Units.format ~fmt_col:Circuit.Units.format (fun g c ->
      let rom = eval (Model.values model [ (gname, g); (cname, c) ]) in
      match Measures.unity_gain_frequency rom with
      | Some f -> Printf.sprintf "%.4g" f
      | None -> "-");
  Printf.printf
    "\npaper shape: f_unity set by gm/ccomp — falls as ccomp grows, \
     near-insensitive to gout_q14\n"

let fig7 () =
  banner "FIG7: phase margin (deg) vs (gout_q14, ccomp), 2nd-order model";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:2 nl in
  let eval = Model.evaluator model in
  print_surface ~row_label:"gout \\ C" ~rows:g_grid ~cols:c_grid
    ~fmt_row:Circuit.Units.format ~fmt_col:Circuit.Units.format (fun g c ->
      let rom = eval (Model.values model [ (gname, g); (cname, c) ]) in
      match Measures.phase_margin rom with
      | Some pm -> Printf.sprintf "%.1f" pm
      | None -> "-")

(* ------------------------------------------------------------------ *)
(* FIG9 / FIG10: cross-talk transients *)

let crosstalk_series rows pick =
  let model = Model.build ~order:2 (lines_symbolic Builders.Crosstalk) in
  let eval = Model.evaluator model in
  let times = Array.init 12 (fun k -> 0.2e-9 *. float_of_int (k + 1)) in
  Printf.printf "%10s" "     \\ t";
  Array.iter (fun t -> Printf.printf "%9.1e" t) times;
  print_newline ();
  List.iter
    (fun r ->
      let g_drv, c_load, label = pick r in
      let rom = eval (Model.values model [ ("g_drv", g_drv); ("c_load", c_load) ]) in
      Printf.printf "%10s" label;
      Array.iter (fun t -> Printf.printf "%9.4f" (Awe.Rom.step rom t)) times;
      print_newline ())
    rows;
  model

let fig9 () =
  banner "FIG9: cross-talk step response as Rdriver varies (2nd-order model)";
  let model =
    crosstalk_series [ 25.0; 50.0; 100.0; 200.0; 400.0 ] (fun r ->
        (1.0 /. r, 50e-15, Printf.sprintf "R=%g" r))
  in
  (* Shape check: the cross-talk peak grows and arrives later as the driver
     weakens. *)
  let eval = Model.evaluator model in
  let peak r =
    Measures.peak_step ~horizon:6e-9
      (eval (Model.values model [ ("g_drv", 1.0 /. r); ("c_load", 50e-15) ]))
  in
  let t_fast, y_fast = peak 25.0 in
  let t_slow, y_slow = peak 400.0 in
  Printf.printf
    "\npaper shape: weaker driver -> later, larger cross-talk pulse\n";
  Printf.printf
    "measured:    R=25: peak %.4f at %.2e s;  R=400: peak %.4f at %.2e s\n"
    y_fast t_fast y_slow t_slow

let fig10 () =
  banner "FIG10: cross-talk step response as Cload varies (2nd-order model)";
  ignore
    (crosstalk_series [ 10e-15; 50e-15; 100e-15; 200e-15; 400e-15 ] (fun c ->
         (1.0 /. 100.0, c, Circuit.Units.format c)))

(* ------------------------------------------------------------------ *)
(* TIME32: Sec. 3.2 runtimes on the big coupled-line model *)

let time32 () =
  banner "TIME32: coupled lines (1000 segments/line, as in the paper)";
  let segments = 1000 in
  let nl_sym = lines_symbolic ~segments Builders.Crosstalk in
  let nl_num = Builders.coupled_lines ~segments ~output:Builders.Crosstalk () in
  let _, t_awe = wall (fun () -> Awe.Driver.analyze ~order:2 nl_num) in
  let model, t_compile = wall (fun () -> Model.build ~order:2 nl_sym) in
  let eval = Model.evaluator model in
  let rand = lcg 0xCAFE in
  let n = 1000 in
  let t_incr =
    wall_only (fun () ->
        for _ = 1 to n do
          let r = 25.0 +. (rand () *. 400.0) in
          let c = 10e-15 +. (rand () *. 400e-15) in
          ignore (eval (Model.values model [ ("g_drv", 1.0 /. r); ("c_load", c) ]))
        done)
    /. float_of_int n
  in
  Printf.printf "single full AWE analysis:        %.3f s   (paper: 1.12 s)\n" t_awe;
  let _, t_awe_sparse =
    wall (fun () -> Awe.Driver.analyze ~order:2 ~sparse:true nl_num)
  in
  Printf.printf "  (same with the sparse solver:  %.3f s)\n" t_awe_sparse;
  Printf.printf "AWEsymbolic one-time compile:    %.3f s   (paper: 5.41 s)\n"
    t_compile;
  Printf.printf "AWEsymbolic incremental eval:    %.3g ms  (paper: 0.11 ms)\n"
    (t_incr *. 1e3);
  Printf.printf "incremental speedup over AWE:    %.0fx    (paper: ~10^4)\n"
    (t_awe /. t_incr)

(* ------------------------------------------------------------------ *)
(* Ablations *)

let abl_partition () =
  banner "ABL-PART: partitioned symbolic moments vs whole-circuit exact symbolic";
  Printf.printf "%10s %22s %26s\n" "sections" "partitioned ratfun (s)"
    "whole-circuit Bareiss (s)";
  List.iter
    (fun sections ->
      let nl = Builders.rc_ladder ~sections ~r:1.0 ~c:1.0 () in
      let nl = Netlist.mark_symbolic nl "C1" (Sym.intern "C1") in
      let nl =
        Netlist.mark_symbolic nl
          (Printf.sprintf "R%d" sections)
          (Sym.intern "Rlast")
      in
      let t_part = wall_only (fun () -> ignore (Model.moments_ratfun ~count:4 nl)) in
      let t_exact =
        wall_only (fun () ->
            let tf = Exact.Network.transfer_function nl in
            ignore (Exact.Network.moments ~count:4 tf))
      in
      Printf.printf "%10d %22.5f %26.5f\n" sections t_part t_exact)
    [ 2; 4; 8; 12; 16 ];
  Printf.printf
    "\nshape: partitioned cost stays flat (global system size ~ #symbols);\n\
     whole-circuit symbolic elimination grows quickly with circuit size\n"

let abl_prune () =
  banner "ABL-PRUNE: heuristic pruning vs AWE reduction across a symbol range";
  let nl = Netlist.mark_symbolic (Builders.fig1 ()) "C1" (Sym.intern "C1") in
  let tf = Exact.Network.transfer_function nl in
  let nominal _ = 1e-3 in
  let pruned = Exact.Prune.prune ~threshold:0.05 ~env:nominal tf in
  let model = Model.build ~order:2 nl in
  Printf.printf "%10s %16s %16s %16s\n" "C1" "exact |p1|" "pruned err %"
    "AWEsym err %";
  List.iter
    (fun c1 ->
      let env _ = c1 in
      let dominant t =
        Exact.Network.poles t env
        |> Array.fold_left (fun acc p -> Float.min acc (Cx.norm p)) Float.infinity
      in
      let exact = dominant tf in
      let p_pruned = dominant pruned in
      let rom = Model.rom model (Model.values model [ ("C1", c1) ]) in
      let p_sym = Cx.norm (Awe.Rom.dominant_pole rom) in
      Printf.printf "%10g %16.6g %16.2f %16.2g\n" c1 exact
        (100.0 *. Float.abs (p_pruned -. exact) /. exact)
        (100.0 *. Float.abs (p_sym -. exact) /. exact))
    [ 1e-3; 0.01; 0.1; 1.0; 10.0; 100.0 ];
  Printf.printf
    "\nshape: pruned-form error explodes away from the nominal point; the \
     AWE reduced form stays exact (2-pole circuit, 2-pole model)\n"

let abl_order () =
  banner "ABL-ORDER: approximation order vs step-response accuracy (RC ladder)";
  let nl = Builders.rc_ladder ~sections:20 ~r:100.0 ~c:1e-12 () in
  let mna = Mna.build nl in
  let reference =
    Spice.Tran.simulate mna ~input:Spice.Tran.step_input ~t_step:5e-12
      ~t_stop:25e-9
  in
  Printf.printf "%6s %12s %18s\n" "order" "poles kept" "max |error| vs tran";
  List.iter
    (fun order ->
      let rom = (Awe.Driver.analyze ~order nl).Awe.Driver.rom in
      let err =
        Array.fold_left
          (fun acc (t, y) ->
            if t > 10e-12 then Float.max acc (Float.abs (y -. Awe.Rom.step rom t))
            else acc)
          0.0 reference
      in
      Printf.printf "%6d %12d %18.2e\n" order (Awe.Rom.order rom) err)
    [ 1; 2; 3; 4; 5 ];
  Printf.printf
    "\nshape: error falls rapidly with order; order ~4 suffices (paper: \
     \"typically low, often less than five\")\n"

let abl_spice () =
  banner "ABL-SPICE: AWE vs traditional transient simulation cost";
  let nl = Builders.rc_ladder ~sections:100 ~r:100.0 ~c:1e-12 () in
  let mna = Mna.build nl in
  let rom = (Awe.Driver.analyze_mna ~order:4 mna).Awe.Driver.rom in
  let horizon = 8.0 *. Awe.Rom.time_constant rom in
  let t_tran =
    wall_only (fun () ->
        ignore
          (Spice.Tran.simulate mna ~input:Spice.Tran.step_input
             ~t_step:(horizon /. 2000.0) ~t_stop:horizon))
  in
  let t_awe = wall_only (fun () -> ignore (Awe.Driver.analyze_mna ~order:4 mna)) in
  Printf.printf "transient (2000 steps): %.4f s\n" t_tran;
  Printf.printf "AWE analysis:           %.4f s\n" t_awe;
  Printf.printf
    "speedup:                %.0fx   (paper: AWE at least an order of \
     magnitude faster than SPICE)\n"
    (t_tran /. t_awe)

(* ------------------------------------------------------------------ *)
(* ABL-SPARSE: dense vs sparse factorization on interconnect *)

let abl_sparse () =
  banner "ABL-SPARSE: dense vs sparse LU inside AWE (coupled lines)";
  Printf.printf "%10s %10s %16s %16s %10s\n" "segments" "unknowns"
    "dense AWE (s)" "sparse AWE (s)" "speedup";
  List.iter
    (fun segments ->
      let nl = Builders.coupled_lines ~segments ~output:Builders.Crosstalk () in
      let mna = Mna.build nl in
      let n = Numeric.Matrix.rows (Mna.g mna) in
      let t_dense =
        wall_only (fun () -> ignore (Awe.Driver.analyze_mna ~order:2 mna))
      in
      let t_sparse =
        wall_only (fun () ->
            ignore (Awe.Driver.analyze_mna ~order:2 ~sparse:true mna))
      in
      Printf.printf "%10d %10d %16.4f %16.4f %9.1fx\n" segments n t_dense
        t_sparse (t_dense /. t_sparse))
    [ 50; 100; 300; 600 ];
  let nl = Builders.coupled_lines ~segments:300 ~output:Builders.Crosstalk () in
  let g = Mna.g (Mna.build nl) in
  let f = Numeric.Sparse.factor (Numeric.Sparse.of_dense g) in
  Printf.printf
    "\nfill-in at 300 segments: %d extra non-zeros over %d structural\n"
    (Numeric.Sparse.fill_in f)
    (Numeric.Sparse.nnz (Numeric.Sparse.of_dense g));
  Printf.printf
    "shape: chain-structured MNA factors with near-zero fill; sparse wins \
     grow with size\n"

(* ------------------------------------------------------------------ *)
(* EXT-MULTI: beyond the paper — multipoint (complex frequency hopping) *)

let ext_multi () =
  banner "EXT-MULTI: multipoint AWE vs single expansion (extension ablation)";
  let nl = Builders.rc_ladder ~sections:12 ~r:100.0 ~c:1e-12 () in
  let mna = Mna.build nl in
  let single = (Awe.Driver.analyze_mna ~order:2 mna).Awe.Driver.rom in
  let f_dom = Measures.dominant_pole_hz single in
  let w = 2.0 *. Float.pi *. f_dom in
  let multi =
    Awe.Multipoint.analyze ~order_per_point:2
      ~points:[ Cx.zero; Cx.make 0.0 (10.0 *. w); Cx.make 0.0 (50.0 *. w) ]
      mna
  in
  Printf.printf "single DC expansion: %d poles;  multipoint: %d poles\n"
    (Awe.Rom.order single) (Awe.Rom.order multi);
  Printf.printf "%10s %10s %16s %16s\n" "f/f_dom" "|H|" "err single" "err multipoint";
  List.iter
    (fun mult ->
      let f = f_dom *. mult in
      let exact = Spice.Ac.at_frequency mna f in
      let e rom = Cx.norm (Cx.sub exact (Awe.Rom.at_frequency rom f)) in
      Printf.printf "%10g %10.4f %16.6f %16.6f\n" mult (Cx.norm exact)
        (e single) (e multi))
    [ 0.5; 1.0; 3.0; 10.0; 30.0; 50.0; 100.0 ];
  Printf.printf
    "\nshape: pooling imaginary-axis expansion points extends a low-order \
     model across the band\n"

(* ------------------------------------------------------------------ *)
(* EXT-KRYLOV: beyond the paper — explicit moment matching vs Arnoldi *)

let ext_krylov () =
  banner "EXT-KRYLOV: explicit Pade (AWE) vs Arnoldi projection at high order";
  let nl = Builders.rc_ladder ~sections:20 ~r:100.0 ~c:1e-12 () in
  let mna = Mna.build nl in
  let f_dom =
    Measures.dominant_pole_hz (Awe.Driver.analyze_mna ~order:2 mna).Awe.Driver.rom
  in
  let err rom mult =
    let f = f_dom *. mult in
    Cx.norm (Cx.sub (Spice.Ac.at_frequency mna f) (Awe.Rom.at_frequency rom f))
  in
  Printf.printf "%6s %12s %14s %12s %14s\n" "order" "pade poles"
    "pade err@10x" "arnoldi poles" "arnoldi err@10x";
  List.iter
    (fun order ->
      let pade =
        match Awe.Driver.analyze_mna ~order mna with
        | r -> Some r.Awe.Driver.rom
        | exception _ -> None
      in
      let arnoldi =
        match Awe.Krylov.analyze ~order mna with
        | r -> Some r.Awe.Driver.rom
        | exception _ -> None
      in
      let cell = function
        | Some rom -> (Awe.Rom.order rom, Printf.sprintf "%.2e" (err rom 10.0))
        | None -> (0, "-")
      in
      let pp_, pe = cell pade and ap, ae = cell arnoldi in
      Printf.printf "%6d %12d %14s %12d %14s\n" order pp_ pe ap ae)
    [ 2; 4; 6; 8; 10 ];
  Printf.printf
    "\nshape: explicit Hankel fitting saturates (order reduction kicks in, \
     accuracy plateaus);\nthe orthogonal Krylov basis keeps improving — the \
     successor-method behaviour that\nhistorically superseded plain AWE\n"

(* ------------------------------------------------------------------ *)
(* EXT-DISTORTION: where the linearized model stops *)

let ext_distortion () =
  banner "EXT-DISTORTION: harmonic distortion vs drive (beyond linearization)";
  let module Models = Nonlinear.Models in
  let module Nl = Nonlinear.Netlist in
  let module E = Circuit.Element in
  let model = { Models.default_nmos with Models.lambda = 0.0 } in
  let stage =
    Nl.empty
    |> Fun.flip Nl.add_element
         (E.make ~name:"Vdd" ~kind:E.Vsource ~pos:"vdd" ~neg:"0" ~value:3.3 ())
    |> Fun.flip Nl.add_element
         (E.make ~name:"Vg" ~kind:E.Vsource ~pos:"g" ~neg:"0" ~value:1.0 ())
    |> Fun.flip Nl.add_element
         (E.make ~name:"Rd" ~kind:E.Resistor ~pos:"vdd" ~neg:"d" ~value:40e3 ())
    |> Fun.flip Nl.add_device
         (Nl.Mosfet { name = "M1"; drain = "d"; gate = "g"; source = "0"; model })
    |> Fun.flip Nl.with_ac_input "Vg"
    |> Fun.flip Nl.with_output (Circuit.Netlist.Node "d")
  in
  let vov = 1.0 -. model.Models.vth in
  Printf.printf "%12s %12s %12s %14s\n" "drive (mV)" "HD2 (%)" "HD3 (%)"
    "a/(4*Vov) (%)";
  List.iter
    (fun a ->
      let d = Nonlinear.Distortion.measure stage ~bias:1.0 ~f:1e3 ~amplitude:a in
      Printf.printf "%12.1f %12.4f %12.4f %14.4f\n" (a *. 1e3)
        (100.0 *. Nonlinear.Distortion.hd2 d)
        (100.0 *. Nonlinear.Distortion.hd3 d)
        (100.0 *. a /. (4.0 *. vov)))
    [ 5e-3; 10e-3; 25e-3; 50e-3; 100e-3 ];
  Printf.printf
    "\nshape: HD2 of the square-law stage tracks the analytic a/(4*Vov) and \
     grows\nlinearly with drive; the linearized model (what AWEsymbolic \
     compiles) predicts 0 —\nthe boundary of the paper's \"linear(ized)\" \
     scope, measured\n"

(* ------------------------------------------------------------------ *)
(* EXT-RLC: inductive vs capacitive crosstalk, symbolic in the mutual *)

let ext_rlc () =
  banner "EXT-RLC: far-end crosstalk vs mutual coupling (symbolic sweep)";
  let segments = 8 in
  let l_line = 100e-9 in
  let r_line = 400.0 and c_couple = 0.1e-12 in
  let lseg = l_line /. float_of_int segments in
  (* One symbol for every per-segment mutual: the coupling coefficient
     becomes a design knob of the compiled model.  The early-time crosstalk
     peak is a high-frequency feature, so this workload needs order ~10
     (with automatic reduction) where the paper's RC studies used 2 — the
     RLC limit of single-point expansion, quantified. *)
  let nl =
    Builders.coupled_rlc_lines ~segments ~r_line ~l_line ~c_couple
      ~k_couple:0.3 ()
  in
  let nl =
    List.fold_left
      (fun acc k ->
        Netlist.mark_symbolic acc (Printf.sprintf "k%d" k) (Sym.intern "m_seg"))
      nl
      (List.init segments (fun k -> k + 1))
  in
  let model = Model.build ~order:10 nl in
  Printf.printf "compiled program: %d operations (order 10, %d mutuals shared)\n\n"
    (Model.num_operations model) segments;
  let tran_peak k =
    let nl =
      Builders.coupled_rlc_lines ~segments ~r_line ~l_line ~c_couple
        ~k_couple:k ()
    in
    let wave =
      Spice.Tran.simulate (Mna.build nl) ~input:Spice.Tran.step_input
        ~t_step:5e-12 ~t_stop:4e-9
    in
    Array.fold_left
      (fun acc (_, y) -> if Float.abs y > Float.abs acc then y else acc)
      0.0 wave
  in
  Printf.printf "%8s %14s %14s %14s\n" "k" "compiled peak" "tran peak"
    "polarity";
  List.iter
    (fun k ->
      let rom = Model.rom model (Model.values model [ ("m_seg", k *. lseg) ]) in
      let _, y = Awe.Measures.peak_step ~horizon:4e-9 rom in
      Printf.printf "%8.2f %14.4f %14.4f %14s\n" k y (tran_peak k)
        (if y > 0.0 then "capacitive" else "inductive"))
    [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7 ];
  Printf.printf
    "\nshape: capacitive coupling alone gives positive far-end noise; \
     growing mutual\ninductance cancels and then flips it.  The compiled \
     symbolic sweep places the\ncrossover where the transient baseline does\n"

(* ------------------------------------------------------------------ *)
(* EXT-SENS: compiled sensitivity programs vs per-point numeric adjoint *)

let ext_sens () =
  banner "EXT-SENS: compiled dm/ds programs vs numeric adjoint per point";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:2 nl in
  let rand = lcg 0x5E45 in
  let n = 200 in
  let points =
    Array.init n (fun _ ->
        (0.5e-6 +. (rand () *. 8e-6), 5e-12 +. (rand () *. 60e-12)))
  in
  (* Numeric adjoint: every point pays a fresh MNA build + LU + direct and
     adjoint Krylov sequences. *)
  let t0 = Unix.gettimeofday () in
  let sink = ref 0.0 in
  Array.iter
    (fun (g, c) ->
      let numeric_nl = opamp_at nl gname cname g c in
      let adj = Awe.Sensitivity.create ~count:4 (Mna.build numeric_nl) in
      List.iter
        (fun name ->
          let e = Option.get (Netlist.find numeric_nl name) in
          let d = Awe.Sensitivity.moment_derivatives adj e in
          sink := !sink +. d.(1))
        [ gname; cname ])
    points;
  let t_adjoint = Unix.gettimeofday () -. t0 in
  (* Compiled: one differentiation+compile, then SLP runs. *)
  let t0 = Unix.gettimeofday () in
  let prog = Model.sensitivity_program model in
  let t_compile = Unix.gettimeofday () -. t0 in
  let run = Symbolic.Slp.make_evaluator prog in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun (g, c) ->
      let out = run (Model.values model [ (gname, g); (cname, c) ]) in
      sink := !sink +. out.(0))
    points;
  let t_compiled = Unix.gettimeofday () -. t0 in
  ignore !sink;
  Printf.printf "points: %d (all 8 dm_k/ds_j entries each)\n" n;
  Printf.printf "numeric adjoint:      %8.2f ms  (%.4f ms/point)\n"
    (t_adjoint *. 1e3)
    (t_adjoint *. 1e3 /. float_of_int n);
  Printf.printf "one-time derivative compile: %.2f ms\n" (t_compile *. 1e3);
  Printf.printf "compiled programs:    %8.2f ms  (%.4f ms/point)  %.0fx\n"
    (t_compiled *. 1e3)
    (t_compiled *. 1e3 /. float_of_int n)
    (t_adjoint /. Float.max t_compiled 1e-9);
  Printf.printf
    "\nshape: the paper's compile-once thesis applies to its own Sec. 2.3 \
     sensitivity\nmachinery — the derivative DAGs ride along for free\n"

(* ------------------------------------------------------------------ *)
(* SWEEP: batched SLP kernel vs per-point evaluation *)

let sweep_bench () =
  banner "SWEEP: batched kernel vs per-point loop (10k-point Monte-Carlo)";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:2 nl in
  let prog = Model.program model in
  let n = 10_000 in
  let axes =
    [
      { Sweep.Plan.name = gname;
        dist = Sweep.Dist.uniform ~lo:0.5e-6 ~hi:8.5e-6 };
      { Sweep.Plan.name = cname;
        dist = Sweep.Dist.uniform ~lo:5e-12 ~hi:65e-12 };
    ]
  in
  let plan = Sweep.Plan.make (Sweep.Plan.Monte_carlo n) axes in
  let cols =
    Sweep.Plan.columns
      ~symbols:(Array.map Sym.name (Model.symbols model))
      ~nominals:(Model.nominal_values model)
      ~rng:(Obs.Rng.create 42) plan
  in
  let nsym = Array.length cols in
  let point i = Array.init nsym (fun k -> cols.(k).(i)) in
  let sink = ref 0.0 in
  (* Naive loop: what a user sweep over [Model.eval_moments] costs — a fresh
     register file and output array every point. *)
  let t_naive =
    wall_only (fun () ->
        for i = 0 to n - 1 do
          sink := !sink +. (Model.eval_moments model (point i)).(0)
        done)
  in
  (* Scalar fast path: preallocated register file, still one instruction
     dispatch per operation per point. *)
  let run = Symbolic.Slp.make_evaluator prog in
  let t_scalar =
    wall_only (fun () ->
        for i = 0 to n - 1 do
          sink := !sink +. (run (point i)).(0)
        done)
  in
  (* Batched kernel: structure-of-arrays register file, dispatch amortized
     over 256-lane blocks. *)
  let batched, t_batch =
    wall (fun () -> Symbolic.Slp.eval_batch prog cols)
  in
  (* Bit-identity of the whole sweep, not just a spot check. *)
  let identical = ref true in
  for i = 0 to n - 1 do
    let out = run (point i) in
    Array.iteri
      (fun j v ->
        if Int64.bits_of_float v <> Int64.bits_of_float batched.(j).(i) then
          identical := false)
      out
  done;
  let per_point t = t /. float_of_int n *. 1e9 in
  Printf.printf "%d points, %d operations/point (order 2)\n\n" n
    (Model.num_operations model);
  Printf.printf "naive Model.eval_moments loop:   %8.1f ns/point\n"
    (per_point t_naive);
  Printf.printf "scalar make_evaluator loop:      %8.1f ns/point\n"
    (per_point t_scalar);
  Printf.printf "batched eval_batch kernel:       %8.1f ns/point\n"
    (per_point t_batch);
  Printf.printf "\nbatched speedup vs naive loop:   %.1fx\n"
    (t_naive /. t_batch);
  Printf.printf "batched speedup vs scalar loop:  %.1fx\n"
    (t_scalar /. t_batch);
  Printf.printf "bit-identical to per-point eval: %b\n" !identical;
  (* Land the numbers in the --json report (counters are no-ops unless
     telemetry is on). *)
  Obs.Metrics.add "bench.sweep.points" n;
  Obs.Metrics.add "bench.sweep.naive_ns" (int_of_float (t_naive *. 1e9));
  Obs.Metrics.add "bench.sweep.scalar_ns" (int_of_float (t_scalar *. 1e9));
  Obs.Metrics.add "bench.sweep.batched_ns" (int_of_float (t_batch *. 1e9));
  Obs.Metrics.add "bench.sweep.speedup_pct"
    (int_of_float (100.0 *. t_naive /. t_batch));
  Obs.Metrics.add "bench.sweep.bit_identical" (if !identical then 1 else 0);
  (* And the full engine on top of the kernel: statistics plus yield. *)
  let result =
    Sweep.Engine.run ~seed:42
      ~measures:[ Sweep.Engine.Dominant_pole_hz; Sweep.Engine.Phase_margin ]
      ~specs:
        [
          { Sweep.Engine.measure = Sweep.Engine.Phase_margin;
            bound = Sweep.Engine.Ge 60.0 };
        ]
      model plan
  in
  List.iter
    (fun (m, (s : Sweep.Stats.summary)) ->
      Printf.printf "\n%s: mean %.4g, std %.4g over %d points"
        (Sweep.Engine.measure_name m)
        s.Sweep.Stats.mean s.Sweep.Stats.std s.Sweep.Stats.n)
    result.Sweep.Engine.summaries;
  Option.iter
    (fun y -> Printf.printf "\nyield (phase margin >= 60 deg): %.1f%%\n" (100.0 *. y))
    result.Sweep.Engine.yield

(* ------------------------------------------------------------------ *)
(* SLP-CODEGEN: native compiled kernels vs the bytecode interpreter *)

let codegen_bench () =
  banner "SLP-CODEGEN: native .cmxs kernels vs bytecode interpreter";
  (* A private cache so the compile time below measures a cold miss, not
     whatever a previous run left behind. *)
  let saved_cache = Option.value ~default:"" (Sys.getenv_opt "AWESYM_CACHE_DIR") in
  let cache =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "awesym-bench-codegen-%d" (Unix.getpid ()))
  in
  Unix.putenv "AWESYM_CACHE_DIR" cache;
  let cleanup () =
    (match Sys.readdir cache with
    | names ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat cache f) with Sys_error _ -> ())
        names;
      (try Sys.rmdir cache with Sys_error _ -> ())
    | exception Sys_error _ -> ());
    Unix.putenv "AWESYM_CACHE_DIR" saved_cache;
    Symbolic.Slp.set_backend Symbolic.Slp.Interp;
    Codegen.uninstall ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:2 nl in
  let prog = Model.program model in
  let n = 10_000 in
  let axes =
    [
      { Sweep.Plan.name = gname;
        dist = Sweep.Dist.uniform ~lo:0.5e-6 ~hi:8.5e-6 };
      { Sweep.Plan.name = cname;
        dist = Sweep.Dist.uniform ~lo:5e-12 ~hi:65e-12 };
    ]
  in
  let plan = Sweep.Plan.make (Sweep.Plan.Monte_carlo n) axes in
  let cols =
    Sweep.Plan.columns
      ~symbols:(Array.map Sym.name (Model.symbols model))
      ~nominals:(Model.nominal_values model)
      ~rng:(Obs.Rng.create 42) plan
  in
  let nsym = Array.length cols in
  let point i = Array.init nsym (fun k -> cols.(k).(i)) in
  let sink = ref 0.0 in
  let reps = 5 in
  let scalar_loop run =
    for i = 0 to n - 1 do
      sink := !sink +. (run (point i)).(0)
    done
  in
  (* Interpreter first (no provider involved at all). *)
  Symbolic.Slp.set_backend Symbolic.Slp.Interp;
  let run_interp = Symbolic.Slp.make_evaluator prog in
  let t_scalar_interp = wall_only (fun () -> scalar_loop run_interp) in
  let batch_interp = Symbolic.Slp.eval_batch ~jobs:1 prog cols in
  let t_batch_interp =
    wall_only (fun () ->
        for _ = 1 to reps do
          ignore (Symbolic.Slp.eval_batch ~jobs:1 prog cols)
        done)
    /. float_of_int reps
  in
  (* One-time cost of the native backend: emit + ocamlopt + dynlink on a
     cold cache. *)
  Codegen.install ();
  Symbolic.Slp.set_backend Symbolic.Slp.Native;
  let compiled, t_compile = wall (fun () -> Codegen.available prog) in
  if not compiled then
    Printf.printf "native kernels unavailable (%s); timings below are \
                   interp vs interp\n"
      (match Codegen.last_error () with
      | Some e -> Awesym_error.to_string e
      | None -> "declined");
  let run_native = Symbolic.Slp.make_evaluator prog in
  let t_scalar_native = wall_only (fun () -> scalar_loop run_native) in
  let batch_native = Symbolic.Slp.eval_batch ~jobs:1 prog cols in
  let t_batch_native =
    wall_only (fun () ->
        for _ = 1 to reps do
          ignore (Symbolic.Slp.eval_batch ~jobs:1 prog cols)
        done)
    /. float_of_int reps
  in
  ignore !sink;
  (* The backend contract, measured over the whole sweep: every output of
     every point bit-identical, scalar and batched. *)
  let identical = ref true in
  for i = 0 to n - 1 do
    let a = run_interp (point i) in
    Symbolic.Slp.set_backend Symbolic.Slp.Native;
    let b = run_native (point i) in
    Symbolic.Slp.set_backend Symbolic.Slp.Interp;
    Array.iteri
      (fun j v ->
        if
          Int64.bits_of_float v <> Int64.bits_of_float b.(j)
          || Int64.bits_of_float batch_interp.(j).(i)
             <> Int64.bits_of_float batch_native.(j).(i)
        then identical := false)
      a
  done;
  let per_point t = t /. float_of_int n *. 1e9 in
  let batched_speedup = t_batch_interp /. Float.max t_batch_native 1e-12 in
  let scalar_speedup = t_scalar_interp /. Float.max t_scalar_native 1e-12 in
  (* The headline: what the native batched kernel buys over the scalar
     interpreter loop that eval/serve requests ran before this backend
     existed.  (Batched-interp vs batched-native is reported too, but the
     SoA interpreter already amortizes dispatch over 256 lanes and both
     kernels end up memory/port bound, so that ratio sits near 2-3x.) *)
  let kernel_speedup = t_scalar_interp /. Float.max t_batch_native 1e-12 in
  (* How many batched points pay off the one-time ocamlopt run. *)
  let amortize =
    let save = (t_batch_interp -. t_batch_native) /. float_of_int n in
    if save <= 0.0 then Float.infinity else t_compile /. save
  in
  Printf.printf "%d points, %d operations/point, block %d\n\n" n
    (Model.num_operations model) Symbolic.Slp.default_block;
  Printf.printf "one-time compile (emit+ocamlopt+dynlink): %7.1f ms\n\n"
    (t_compile *. 1e3);
  Printf.printf "scalar  interp: %8.1f ns/point\n" (per_point t_scalar_interp);
  Printf.printf "scalar  native: %8.1f ns/point   %5.1fx\n"
    (per_point t_scalar_native) scalar_speedup;
  Printf.printf "batched interp: %8.1f ns/point\n" (per_point t_batch_interp);
  Printf.printf "batched native: %8.1f ns/point   %5.1fx\n"
    (per_point t_batch_native) batched_speedup;
  Printf.printf "\nbatched native vs interpreted eval:  %5.1fx\n" kernel_speedup;
  Printf.printf "bit-identical across backends: %b\n" !identical;
  Printf.printf "compile amortized after %.0f batched points\n" amortize;
  Obs.Metrics.add "bench.codegen.points" n;
  Obs.Metrics.add "bench.codegen.scalar_interp_ns"
    (int_of_float (t_scalar_interp *. 1e9));
  Obs.Metrics.add "bench.codegen.scalar_native_ns"
    (int_of_float (t_scalar_native *. 1e9));
  Obs.Metrics.add "bench.codegen.batched_interp_ns"
    (int_of_float (t_batch_interp *. 1e9));
  Obs.Metrics.add "bench.codegen.batched_native_ns"
    (int_of_float (t_batch_native *. 1e9));
  Obs.Metrics.add "bench.codegen.compile_ms" (int_of_float (t_compile *. 1e3));
  Obs.Metrics.add "bench.codegen.batched_speedup_pct"
    (int_of_float (100.0 *. batched_speedup));
  Obs.Metrics.add "bench.codegen.scalar_speedup_pct"
    (int_of_float (100.0 *. scalar_speedup));
  Obs.Metrics.add "bench.codegen.kernel_speedup_pct"
    (int_of_float (100.0 *. kernel_speedup));
  Obs.Metrics.add "bench.codegen.bit_identical" (if !identical then 1 else 0);
  Obs.Metrics.add "bench.codegen.amortize_points"
    (if Float.is_finite amortize then int_of_float amortize else -1)

(* ------------------------------------------------------------------ *)
(* SWEEP-SCALING: domain-parallel sweep throughput vs jobs *)

let sweep_scaling () =
  banner "SWEEP-SCALING: 10k-point Monte-Carlo sweep vs worker domains";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:2 nl in
  let n = 10_000 in
  let axes =
    [
      { Sweep.Plan.name = gname;
        dist = Sweep.Dist.uniform ~lo:0.5e-6 ~hi:8.5e-6 };
      { Sweep.Plan.name = cname;
        dist = Sweep.Dist.uniform ~lo:5e-12 ~hi:65e-12 };
    ]
  in
  let plan = Sweep.Plan.make (Sweep.Plan.Monte_carlo n) axes in
  let run_at jobs = Sweep.Engine.run ~seed:42 ~jobs model plan in
  (* Warm once (pool spawn, first-touch scratch), then keep the best of 3 —
     the steady-state throughput a long sweep sees. *)
  let time_at jobs =
    ignore (run_at jobs);
    let best = ref Float.infinity in
    let result = ref None in
    for _ = 1 to 3 do
      let r, t = wall (fun () -> run_at jobs) in
      if t < !best then best := t;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let r1, t1 = time_at 1 in
  let r2, t2 = time_at 2 in
  let r4, t4 = time_at 4 in
  let identical =
    let j r = Obs.Json.to_string (Sweep.Engine.to_json r) in
    j r2 = j r1 && j r4 = j r1
  in
  let pps t = float_of_int n /. t in
  (* A requested count above the cores runs at the cap, so each row
     names the count that ran. *)
  let effective jobs = Runtime.resolve_jobs (Some jobs) in
  let effective4 = effective 4 in
  Printf.printf "hardware domains available: %d\n\n"
    (Domain.recommended_domain_count ());
  Printf.printf "%6s %9s %12s %14s %10s\n" "jobs" "effective" "best (s)" "points/s"
    "speedup";
  List.iter
    (fun (jobs, eff, t) ->
      Printf.printf "%6d %9d %12.4f %14.0f %9.2fx\n" jobs eff t (pps t) (t1 /. t))
    [ (1, effective 1, t1); (2, effective 2, t2); (4, effective4, t4) ];
  Printf.printf "\nreports byte-identical across jobs in {1, 2, 4}: %b\n"
    identical;
  Obs.Metrics.add "bench.sweep_scaling.points" n;
  Obs.Metrics.add "bench.sweep_scaling.domains"
    (Domain.recommended_domain_count ());
  Obs.Metrics.add "bench.sweep_scaling.jobs1_pps" (int_of_float (pps t1));
  Obs.Metrics.add "bench.sweep_scaling.jobs2_pps" (int_of_float (pps t2));
  Obs.Metrics.add "bench.sweep_scaling.jobs4_pps" (int_of_float (pps t4));
  Obs.Metrics.add "bench.sweep_scaling.jobs4_effective" effective4;
  Obs.Metrics.add "bench.sweep_scaling.speedup2_x100"
    (int_of_float (100.0 *. t1 /. t2));
  Obs.Metrics.add "bench.sweep_scaling.speedup4_x100"
    (int_of_float (100.0 *. t1 /. t4));
  Obs.Metrics.add "bench.sweep_scaling.byte_identical"
    (if identical then 1 else 0)

(* ------------------------------------------------------------------ *)
(* SWEEP-DIST: coordinator/worker sweep over real daemons vs one node *)

let sweep_dist () =
  banner "SWEEP-DIST: distributed sweep over 3 daemons vs single-node run";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:2 nl in
  let dir = Filename.temp_file "awesym_bench_dsweep" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let artifact = Filename.concat dir "opamp.awm" in
  Model.save model artifact;
  let n = 2_000 and block = 128 in
  let plan =
    Sweep.Plan.make (Sweep.Plan.Monte_carlo n)
      [
        { Sweep.Plan.name = gname;
          dist = Sweep.Dist.uniform ~lo:0.5e-6 ~hi:8.5e-6 };
        { Sweep.Plan.name = cname;
          dist = Sweep.Dist.uniform ~lo:5e-12 ~hi:65e-12 };
      ]
  in
  (* Warm once, then best of 3: steady-state single-node throughput. *)
  let single = ref None in
  let time_single () =
    let best = ref Float.infinity in
    for _ = 1 to 3 do
      let r, t = wall (fun () -> Sweep.Engine.run ~seed:42 ~block model plan) in
      if t < !best then best := t;
      single := Some r
    done;
    !best
  in
  ignore (Sweep.Engine.run ~seed:42 ~block model plan);
  let t_single = time_single () in
  (* Three real daemons (own domains, real unix sockets) — the full wire
     path: plan JSON out, hex-float chunk records back, claimed
     chunks, deterministic merge. *)
  let daemons =
    List.init 3 (fun i ->
        let sock = Filename.concat dir (Printf.sprintf "w%d.sock" i) in
        let config =
          {
            (Serve.Server.default_config
               ~listen:(Serve.Transport.Unix_sock sock)) with
            Serve.Server.max_models = 4;
            cache_gc_bytes = None;
          }
        in
        let server = Serve.Server.create config in
        let stop = ref false in
        let loop =
          Domain.spawn (fun () ->
              while Serve.Server.step server ~stop do () done)
        in
        (server, stop, loop))
  in
  let addrs =
    List.map
      (fun (s, _, _) -> Serve.Transport.to_string (Serve.Server.bound_addr s))
      daemons
  in
  let cfg = Dsweep.default_config ~addrs in
  let run_dist () =
    Dsweep.run ~seed:42 ~block cfg ~model ~model_path:artifact plan
  in
  ignore (run_dist ());
  let dist = ref None in
  let t_dist =
    let best = ref Float.infinity in
    for _ = 1 to 3 do
      let r, t = wall run_dist in
      if t < !best then best := t;
      dist := Some r
    done;
    !best
  in
  List.iter
    (fun (server, stop, loop) ->
      stop := true;
      Domain.join loop;
      Serve.Server.shutdown server)
    daemons;
  let j r = Obs.Json.to_string (Sweep.Engine.to_json (Option.get r)) in
  let identical = j !dist = j !single in
  let pps t = float_of_int n /. t in
  Printf.printf "%d points, block %d (%d chunks), 3 workers\n\n" n block
    ((n + block - 1) / block);
  Printf.printf "%-22s %12s %14s\n" "" "best (s)" "points/s";
  Printf.printf "%-22s %12.4f %14.0f\n" "single node" t_single (pps t_single);
  Printf.printf "%-22s %12.4f %14.0f\n" "distributed (3)" t_dist (pps t_dist);
  Printf.printf
    "\nreports byte-identical (distributed vs single-node): %b\n" identical;
  Printf.printf
    "note: one machine hosts all three daemons, so this measures wire + \
     merge overhead,\nnot cluster speedup — the guarded claims are identity \
     and bounded overhead\n";
  if not identical then
    failwith "sweep-dist: distributed report differs from single-node";
  Obs.Metrics.add "bench.sweep_dist.points" n;
  Obs.Metrics.add "bench.sweep_dist.single_pps" (int_of_float (pps t_single));
  Obs.Metrics.add "bench.sweep_dist.dist3_pps" (int_of_float (pps t_dist));
  Obs.Metrics.add "bench.sweep_dist.overhead_x100"
    (int_of_float (100.0 *. t_dist /. t_single));
  Obs.Metrics.add "bench.sweep_dist.identical" (if identical then 1 else 0)

(* ------------------------------------------------------------------ *)
(* SERVE: daemon throughput and latency vs per-request process spawn *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(Int.min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let serve_bench () =
  banner "SERVE: micro-batched daemon vs per-request process spawn";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:2 nl in
  let dir = Filename.temp_file "awesym_bench_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let artifact = Filename.concat dir "opamp.awm" in
  Model.save model artifact;
  let sock = Filename.concat dir "s.sock" in
  (* Closed-loop clients (one point per request, next request only after
     the reply) are the linger knob's worst case: waiting for company
     adds latency but no occupancy.  Serve such loads with a short
     linger — batching still coalesces whatever the clients' concurrency
     aligns. *)
  let config =
    {
      (Serve.Server.default_config ~listen:(Serve.Transport.Unix_sock sock)) with
      Serve.Server.batch =
        { Serve.Batcher.default_config with Serve.Batcher.linger_s = 2e-4 };
      max_models = 4;
      cache_gc_bytes = None;
    }
  in
  let server = Serve.Server.create config in
  let stop = ref false in
  let loop =
    Domain.spawn (fun () -> while Serve.Server.step server ~stop do () done)
  in
  let nclients = 4 and reqs = 250 in
  let run_client ci =
    Domain.spawn (fun () ->
        let rand = lcg (0x5E54 + ci) in
        let c =
          match Serve.Client.connect sock with
          | Ok c -> c
          | Error e -> failwith (Awesym_error.to_string e)
        in
        let lat = Array.make reqs 0.0 in
        for i = 0 to reqs - 1 do
          let g = 0.5e-6 +. (rand () *. 8e-6) in
          let cv = 5e-12 +. (rand () *. 60e-12) in
          let point =
            Model.values model [ (gname, g); (cname, cv) ]
          in
          let t0 = Unix.gettimeofday () in
          (match Serve.Client.eval c ~model:artifact [| point |] with
          | Ok _ -> ()
          | Error e -> failwith (Awesym_error.to_string e));
          lat.(i) <- Unix.gettimeofday () -. t0
        done;
        Serve.Client.close c;
        lat)
  in
  let t0 = Unix.gettimeofday () in
  let lats =
    List.init nclients run_client |> List.map Domain.join |> Array.concat
  in
  let served_wall = Unix.gettimeofday () -. t0 in
  stop := true;
  Domain.join loop;
  Serve.Server.shutdown server;
  Array.sort Float.compare lats;
  let total = nclients * reqs in
  let served_rps = float_of_int total /. served_wall in
  let p q = percentile lats q *. 1e6 in
  Printf.printf
    "daemon: %d requests from %d clients in %.3f s = %.0f req/s\n"
    total nclients served_wall served_rps;
  Printf.printf "latency p50 %.0f us, p90 %.0f us, p99 %.0f us\n" (p 0.50)
    (p 0.90) (p 0.99);
  (* Baseline: the same evaluation as one process spawn per request —
     what serving replaces.  Each spawn pays process startup plus a full
     artifact load. *)
  let awesym =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/awesym.exe"
  in
  if not (Sys.file_exists awesym) then
    Printf.printf
      "per-request spawn baseline skipped (%s not built)\n" awesym
  else begin
    let spawns = 20 in
    let cmd =
      Printf.sprintf "%s eval --model %s >/dev/null 2>&1"
        (Filename.quote awesym) (Filename.quote artifact)
    in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to spawns do
      if Sys.command cmd <> 0 then failwith "spawn baseline failed"
    done;
    let spawn_wall = Unix.gettimeofday () -. t0 in
    let spawn_rps = float_of_int spawns /. spawn_wall in
    let speedup = served_rps /. spawn_rps in
    Printf.printf
      "spawn: %d x `awesym eval` in %.3f s = %.1f req/s -> daemon is \
       %.1fx\n"
      spawns spawn_wall spawn_rps speedup;
    Obs.Metrics.add "bench.serve.spawn_rps" (int_of_float spawn_rps);
    Obs.Metrics.add "bench.serve.speedup_x100" (int_of_float (100.0 *. speedup))
  end;
  Obs.Metrics.add "bench.serve.requests" total;
  Obs.Metrics.add "bench.serve.rps" (int_of_float served_rps);
  Obs.Metrics.add "bench.serve.p50_us" (int_of_float (p 0.50));
  Obs.Metrics.add "bench.serve.p90_us" (int_of_float (p 0.90));
  Obs.Metrics.add "bench.serve.p99_us" (int_of_float (p 0.99))

(* ------------------------------------------------------------------ *)
(* SERVE-SCALING: sharded worker domains, both transports, plus the
   identity invariant the refactor must not bend: served moments are
   byte-identical at every worker count and over every transport. *)

let serve_scaling () =
  banner "SERVE-SCALING: sharded worker domains vs one worker (unix + tcp)";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:2 nl in
  let dir = Filename.temp_file "awesym_bench_servescale" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let artifact = Filename.concat dir "opamp.awm" in
  Model.save model artifact;
  let nclients = 4 and reqs = 200 in
  (* Client point streams are seeded by client index only, so every
     daemon configuration evaluates the exact same workload and the
     response bytes can be compared across configurations. *)
  let points_of ci =
    let rand = lcg (0x5CA1E + ci) in
    Array.init reqs (fun _ ->
        let g = 0.5e-6 +. (rand () *. 8e-6) in
        let cv = 5e-12 +. (rand () *. 60e-12) in
        Model.values model [ (gname, g); (cname, cv) ])
  in
  let bits_of_results results =
    (* One digest over every moment of every response, in (client, req,
       moment) order — byte equality without holding all runs at once. *)
    let buf = Buffer.create (nclients * reqs * 64) in
    Array.iter
      (Array.iter
         (Array.iter (fun m ->
              Buffer.add_int64_le buf (Int64.bits_of_float m))))
      results;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let run_config ~label ~workers ~listen =
    let config =
      {
        (Serve.Server.default_config ~listen) with
        Serve.Server.workers;
        batch =
          { Serve.Batcher.default_config with Serve.Batcher.linger_s = 2e-4 };
        max_models = 4;
        cache_gc_bytes = None;
      }
    in
    let server = Serve.Server.create config in
    let bound = Serve.Server.bound_addr server in
    let stop = ref false in
    let loop =
      Domain.spawn (fun () -> while Serve.Server.step server ~stop do () done)
    in
    let run_client ci =
      Domain.spawn (fun () ->
          let pts = points_of ci in
          let c =
            match Serve.Client.connect_addr bound with
            | Ok c -> c
            | Error e -> failwith (Awesym_error.to_string e)
          in
          let out =
            Array.map
              (fun point ->
                let t0 = Unix.gettimeofday () in
                match Serve.Client.eval c ~model:artifact [| point |] with
                | Error e -> failwith (Awesym_error.to_string e)
                | Ok r ->
                  let dt = Unix.gettimeofday () -. t0 in
                  (dt, r.Serve.Protocol.moments.(0)))
              pts
          in
          Serve.Client.close c;
          (Array.map fst out, Array.map snd out))
    in
    let t0 = Unix.gettimeofday () in
    let per_client =
      List.init nclients run_client |> List.map Domain.join
    in
    let wall = Unix.gettimeofday () -. t0 in
    stop := true;
    Domain.join loop;
    Serve.Server.shutdown server;
    let lats = Array.concat (List.map fst per_client) in
    let results = Array.of_list (List.map snd per_client) in
    Array.sort Float.compare lats;
    let total = nclients * reqs in
    let rps = float_of_int total /. wall in
    let p99 = percentile lats 0.99 *. 1e6 in
    Printf.printf
      "%-18s %d requests from %d clients in %.3f s = %.0f req/s, p99 %.0f us\n"
      label total nclients wall rps p99;
    (rps, p99, bits_of_results results)
  in
  let unix_addr name =
    Serve.Transport.Unix_sock (Filename.concat dir name)
  in
  let w1_rps, w1_p99, w1_bits =
    run_config ~label:"unix workers=1" ~workers:1 ~listen:(unix_addr "w1.sock")
  in
  let w4_rps, w4_p99, w4_bits =
    run_config ~label:"unix workers=4" ~workers:4 ~listen:(unix_addr "w4.sock")
  in
  let tcp_rps, _tcp_p99, tcp_bits =
    run_config ~label:"tcp  workers=4" ~workers:4
      ~listen:(Serve.Transport.Tcp ("127.0.0.1", 0))
  in
  (* The offline reference: the same points through the model's own
     moment evaluation, no daemon involved. *)
  let offline_bits =
    bits_of_results
      (Array.init nclients (fun ci ->
           Array.map (fun p -> Model.eval_moments model p) (points_of ci)))
  in
  let identical =
    w1_bits = offline_bits && w4_bits = offline_bits && tcp_bits = offline_bits
  in
  let speedup = w4_rps /. w1_rps in
  Printf.printf
    "4-worker speedup %.2fx over 1 worker (expect ~1x on a 1-core runner); \
     served vs offline bytes %s\n"
    speedup
    (if identical then "IDENTICAL" else "DIFFER");
  if not identical then
    failwith "serve-scaling: served moments are not byte-identical to offline";
  Obs.Metrics.add "bench.serve_scaling.w1_rps" (int_of_float w1_rps);
  Obs.Metrics.add "bench.serve_scaling.w4_rps" (int_of_float w4_rps);
  Obs.Metrics.add "bench.serve_scaling.tcp4_rps" (int_of_float tcp_rps);
  Obs.Metrics.add "bench.serve_scaling.w1_p99_us" (int_of_float w1_p99);
  Obs.Metrics.add "bench.serve_scaling.w4_p99_us" (int_of_float w4_p99);
  Obs.Metrics.add "bench.serve_scaling.speedup_x100"
    (int_of_float (100.0 *. speedup));
  Obs.Metrics.add "bench.serve_scaling.identical" (if identical then 1 else 0)

(* ------------------------------------------------------------------ *)
(* IDENT: the identity claim, measured *)

let ident () =
  banner "IDENT: compiled symbolic vs full numeric AWE (identical results)";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:2 nl in
  let rand = lcg 0x1DEA in
  let worst = ref 0.0 in
  for _ = 1 to 200 do
    let g = 0.5e-6 +. (rand () *. 8e-6) in
    let c = 5e-12 +. (rand () *. 60e-12) in
    let m_sym =
      Model.eval_moments model (Model.values model [ (gname, g); (cname, c) ])
    in
    let m_num =
      Awe.Moments.output_moments
        (Awe.Moments.compute ~count:4 (Mna.build (opamp_at nl gname cname g c)))
    in
    Array.iteri
      (fun k mk ->
        let rel = Float.abs (mk -. m_sym.(k)) /. Float.abs mk in
        worst := Float.max !worst rel)
      m_num
  done;
  Printf.printf "max relative moment discrepancy over 200 random points: %.2e\n"
    !worst;
  Printf.printf
    "paper: \"the results are identical to those obtained by a numeric AWE \
     analysis\"\n"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test per table/figure family *)

let bechamel () =
  banner "BECHAMEL: per-iteration microbenchmarks (OLS ns/run)";
  let open Bechamel in
  let open Toolkit in
  let nl, gname, cname = opamp_symbolic () in
  let model1 = Model.build ~order:1 nl in
  let model2 = Model.build ~order:2 nl in
  let eval1 = Model.evaluator model1 in
  let eval2 = Model.evaluator model2 in
  let v = Model.values model2 [ (gname, 2e-6); (cname, 30e-12) ] in
  let v1 = Model.values model1 [ (gname, 2e-6); (cname, 30e-12) ] in
  let nl_num = opamp_at nl gname cname 2e-6 30e-12 in
  let mna_num = Mna.build nl_num in
  let lines_model =
    Model.build ~order:2 (lines_symbolic ~segments:100 Builders.Crosstalk)
  in
  let lines_eval = Model.evaluator lines_model in
  let lines_v = Model.values lines_model [ ("g_drv", 0.01); ("c_load", 50e-15) ] in
  let lines_mna =
    Mna.build (Builders.coupled_lines ~segments:100 ~output:Builders.Crosstalk ())
  in
  let run_moments = Symbolic.Slp.make_evaluator (Model.program model2) in
  let tests =
    Test.make_grouped ~name:"awesymbolic" ~fmt:"%s/%s"
      [
        Test.make ~name:"tab1-awe-iteration"
          (Staged.stage (fun () -> ignore (Awe.Driver.analyze ~order:2 nl_num)));
        Test.make ~name:"tab1-awe-iteration-nostamp"
          (Staged.stage (fun () ->
               ignore (Awe.Driver.analyze_mna ~order:2 mna_num)));
        Test.make ~name:"tab1-awesymbolic-iteration"
          (Staged.stage (fun () -> ignore (eval2 v)));
        Test.make ~name:"tab1-moment-slp-only"
          (Staged.stage (fun () -> ignore (run_moments v)));
        Test.make ~name:"fig4-fig5-iteration"
          (Staged.stage (fun () -> ignore (eval1 v1)));
        Test.make ~name:"fig9-fig10-iteration"
          (Staged.stage (fun () -> ignore (lines_eval lines_v)));
        Test.make ~name:"time32-awe-analysis-100seg"
          (Staged.stage (fun () ->
               ignore (Awe.Driver.analyze_mna ~order:2 lines_mna)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        match Analyze.OLS.estimates est with
        | Some [ ns ] -> (name, ns) :: acc
        | Some _ | None -> acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns >= 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-50s %12s\n" name pretty)
    rows

(* ------------------------------------------------------------------ *)
(* OPTIMIZE: sizing / yield throughput on the compiled-model substrate *)

let optimize_bench () =
  banner "OPTIMIZE: gradient sizing and yield re-centering on the op-amp";
  let nl, gname, cname = opamp_symbolic () in
  let model = Model.build ~order:2 nl in
  let nominals = Model.nominal_values model in
  let nominal_of name =
    let syms = Model.symbols model in
    let rec find k =
      if k >= Array.length syms then invalid_arg name
      else if Sym.name syms.(k) = name then nominals.(k)
      else find (k + 1)
    in
    find 0
  in
  (* Sizing explores a wide design box around the nominals ... *)
  let axes =
    Array.to_list
      (Array.mapi
         (fun k s ->
           { Sweep.Plan.name = Sym.name s;
             dist = Sweep.Dist.around ~nominal:nominals.(k) ~pct:50.0 })
         (Model.symbols model))
  in
  (* ... while yield sees manufacturing-style spreads: lognormal on the
     output conductance, a ±20% window on the compensation cap. *)
  let yield_axes =
    [
      { Sweep.Plan.name = gname;
        dist =
          Sweep.Dist.lognormal ~mu:(Float.log (nominal_of gname)) ~sigma:0.15 };
      { Sweep.Plan.name = cname;
        dist = Sweep.Dist.around ~nominal:(nominal_of cname) ~pct:20.0 };
    ]
  in
  let objective =
    Opt.Objective.make
      ~goal:(Opt.Objective.Maximize Sweep.Engine.Unity_gain_frequency)
      ~specs:
        [ { Sweep.Engine.measure = Sweep.Engine.Phase_margin;
            bound = Sweep.Engine.Ge 60.0 } ]
      ()
  in
  let size_cfg =
    { (Opt.Sizing.default_config ~axes objective) with
      Opt.Sizing.restarts = 3;
      max_iters = 40 }
  in
  (* Spec thresholds sit just above the nominal performance, so the
     manufacturing spread fails a solid fraction of the seed population
     and re-centering has real work to do. *)
  let ugf0, dc0 =
    match
      Sweep.Engine.point_measures model
        [ Sweep.Engine.Unity_gain_frequency; Sweep.Engine.Dc_gain_db ]
        nominals
    with
    | [ u; d ] -> (u, d)
    | _ -> assert false
  in
  let yield_specs =
    [ { Sweep.Engine.measure = Sweep.Engine.Unity_gain_frequency;
        bound = Sweep.Engine.Ge (1.02 *. ugf0) };
      { Sweep.Engine.measure = Sweep.Engine.Dc_gain_db;
        bound = Sweep.Engine.Ge dc0 } ]
  in
  let yield_cfg =
    { (Opt.Recenter.default_config ~axes:yield_axes ~specs:yield_specs) with
      Opt.Recenter.points = 2000;
      iters = 3 }
  in
  (* Steady-state timings: warm once, keep the best of 3. *)
  let best3 f =
    ignore (f ());
    let best = ref Float.infinity in
    let result = ref None in
    for _ = 1 to 3 do
      let r, t = wall f in
      if t < !best then best := t;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  (* A single sizing run finishes in about a millisecond (the whole
     point of sizing on a compiled ROM), so time a batch of them to get
     above timer noise. *)
  let size_reps = 100 in
  let sized, t_size_total =
    best3 (fun () ->
        let last = ref None in
        for _ = 1 to size_reps do
          last := Some (Opt.Sizing.run model size_cfg)
        done;
        Option.get !last)
  in
  let t_size = t_size_total /. float_of_int size_reps in
  let evals =
    List.fold_left (fun acc r -> acc + r.Opt.Sizing.evals) 0 sized.Opt.Sizing.runs
  in
  let recentered, t_yield = best3 (fun () -> Opt.Recenter.run model yield_cfg) in
  let yield_points =
    yield_cfg.Opt.Recenter.points * List.length recentered.Opt.Recenter.history
  in
  let eval_pps = float_of_int evals /. t_size in
  let yield_pps = float_of_int yield_points /. t_yield in
  (* The determinism contract, measured end to end: report bytes across
     jobs counts and evaluation backends. *)
  let report req jobs =
    Obs.Json.to_string (Opt.Request.report_to_json (Opt.Request.run ~jobs model req))
  in
  let identical =
    List.for_all
      (fun req ->
        Symbolic.Slp.set_backend Symbolic.Slp.Interp;
        let base = report req 1 in
        let j4 = report req 4 in
        Codegen.install ();
        Symbolic.Slp.set_backend Symbolic.Slp.Native;
        let native = report req 1 in
        Symbolic.Slp.set_backend Symbolic.Slp.Interp;
        base = j4 && base = native)
      [ Opt.Request.Size size_cfg; Opt.Request.Yield yield_cfg ]
  in
  let best_run = List.nth sized.Opt.Sizing.runs sized.Opt.Sizing.best in
  Printf.printf "sizing: %d restarts x <=%d iters, %d evaluations in %.3f s\n"
    (size_cfg.Opt.Sizing.restarts + 1)
    size_cfg.Opt.Sizing.max_iters evals t_size;
  Printf.printf "        best %s after %d iters, objective %.6g\n"
    (Opt.Sizing.status_name sized.Opt.Sizing.status)
    best_run.Opt.Sizing.iters best_run.Opt.Sizing.final_f;
  Printf.printf "        %.0f objective/gradient evaluations per second\n\n"
    eval_pps;
  Printf.printf "yield:  %d points x %d sweeps in %.3f s (%.0f points/s)\n"
    yield_cfg.Opt.Recenter.points
    (List.length recentered.Opt.Recenter.history)
    t_yield yield_pps;
  Printf.printf "        yield %.2f%% -> %.2f%%\n"
    (100.0 *. Opt.Recenter.initial_yield recentered)
    (100.0 *. Opt.Recenter.final_yield recentered);
  Printf.printf
    "\nreports byte-identical across jobs {1,4} and backends \
     {interp,native}: %b\n"
    identical;
  Obs.Metrics.add "bench.optimize.evals" evals;
  Obs.Metrics.add "bench.optimize.eval_pps" (int_of_float eval_pps);
  Obs.Metrics.add "bench.optimize.yield_pps" (int_of_float yield_pps);
  Obs.Metrics.add "bench.optimize.best_iters" best_run.Opt.Sizing.iters;
  Obs.Metrics.add "bench.optimize.final_yield_pct"
    (int_of_float (100.0 *. Opt.Recenter.final_yield recentered));
  Obs.Metrics.add "bench.optimize.byte_identical" (if identical then 1 else 0)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("eq5", eq5);
    ("fig4", fig4);
    ("fig5", fig5);
    ("tab1", tab1);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig9", fig9);
    ("fig10", fig10);
    ("time32", time32);
    ("sweep", sweep_bench);
    ("slp-codegen", codegen_bench);
    ("sweep-scaling", sweep_scaling);
    ("sweep-dist", sweep_dist);
    ("optimize", optimize_bench);
    ("serve", serve_bench);
    ("serve-scaling", serve_scaling);
    ("ident", ident);
    ("abl-partition", abl_partition);
    ("abl-prune", abl_prune);
    ("abl-order", abl_order);
    ("abl-spice", abl_spice);
    ("abl-sparse", abl_sparse);
    ("ext-multi", ext_multi);
    ("ext-krylov", ext_krylov);
    ("ext-distortion", ext_distortion);
    ("ext-sens", ext_sens);
    ("ext-rlc", ext_rlc);
    ("bechamel", bechamel);
  ]

let select ids =
  match ids with
  | [] -> experiments
  | ids ->
    List.map
      (fun id ->
        match List.assoc_opt id experiments with
        | Some f -> (id, f)
        | None ->
          Printf.eprintf "unknown experiment %s (try: list)\n" id;
          exit 1)
      ids

(* Machine-readable mode: each experiment runs with telemetry on, and the
   report carries its wall time plus every metric it tripped.  `check`
   re-runs experiments through the same function. *)
let run_experiments ids : (string * Obs.experiment) list =
  Obs.enabled := true;
  let out =
    List.map
      (fun (id, f) ->
        Obs.reset ();
        let (), wall_s = Obs.Span.timed f in
        (id, { Obs.id; wall_s; metrics = Obs.Metrics.snapshot () }))
      (select ids)
  in
  Obs.enabled := false;
  out

let run_json path ids =
  let experiments = List.map snd (run_experiments ids) in
  Obs.Json.to_file path
    (Obs.Codec.encode Obs.bench_codec { machine = Obs.machine_info (); experiments });
  Printf.printf "\nbench stats written to %s\n" path

(* ------------------------------------------------------------------ *)
(* `check`: the perf-regression guard.  Compares a fresh bench run (or a
   fresh --json file) against the committed baseline and fails with a
   readable delta table when a directional metric regresses beyond the
   experiment's tolerance. *)

(* A bench document decodes canonically or ends the check (exit 2) with
   one classified line naming the JSON path of the first bad node. *)
let read_bench path : (string * Obs.experiment) list =
  let fail msg =
    Printf.eprintf "bench check: %s\n" msg;
    exit 2
  in
  let doc =
    match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok d -> d
    | Error msg -> fail (Printf.sprintf "%s: malformed JSON: %s" path msg)
    | exception Sys_error msg -> fail msg
  in
  match
    Awesym_error.decode ~file:path ~kind:Artifact_corrupt ~where:"bench.check"
      Obs.bench_codec doc
  with
  | Ok b -> List.map (fun (e : Obs.experiment) -> (e.id, e)) b.experiments
  | Error e -> fail (Awesym_error.to_string e)

type direction = Lower_better | Higher_better | Exact | Info

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Direction is inferred from the metric-name convention the experiments
   already follow: _ns/_us totals and wall time want to shrink, rates and
   speedups want to grow, *identical flags must not drop, and plain
   workload counters (lu.factor.count, ...) are informational. *)
let direction_of name =
  (* Suffixes attach to the final dot-segment: bench.serve.rps is a rate
     even though there is no underscore before "rps". *)
  let leaf =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let rate suffix = leaf = suffix || String.ends_with ~suffix:("_" ^ suffix) leaf in
  if contains_sub name "identical" then Exact
    (* serve_scaling runs more worker domains than small runners have
       cores, so its queueing latency is unbounded noise there; its
       throughput, speedup and byte-identity stay guarded. *)
  else if contains_sub name "serve_scaling" && (rate "ns" || rate "us") then
    Info
  else if name = "wall_s" || rate "ns" || rate "us" then Lower_better
  else if rate "rps" || rate "pps" || contains_sub name "speedup" then
    Higher_better
  else Info

(* Per-experiment tolerances (fraction of the baseline value).  Serving
   and scaling experiments measure latency under real concurrency, so
   they get the widest band; anything unlisted uses the default (which
   --tolerance overrides). *)
let default_tolerance = 0.5

let experiment_tolerances =
  [
    ("serve", 0.75); ("serve-scaling", 0.75); ("sweep", 0.75);
    ("sweep-scaling", 0.75); ("sweep-dist", 0.75);
    (* ocamlopt time dominates wall_s, and the interpreter-side timings
       swing ~2x with machine load.  The committed kernel_speedup_pct
       baseline (batched-native vs the interpreted per-point path) is
       ~16x, so even the widest band still guards the ≥5x contract. *)
    ("slp-codegen", 0.75);
  ]

(* Wall times below timer noise make relative deltas meaningless. *)
let wall_s_floor = 0.05

type delta = {
  d_exp : string;
  d_metric : string;
  d_base : float;
  d_fresh : float option;  (* None: metric vanished from the fresh run *)
  d_tol : float;
  d_regressed : bool;
}

let compare_runs ~tolerance baseline fresh =
  List.concat_map
    (fun (id, base) ->
      match List.assoc_opt id fresh with
      | None -> []
      | Some fr ->
        let tol =
          match List.assoc_opt id experiment_tolerances with
          | Some t -> Float.max t tolerance
          | None -> tolerance
        in
        let check name bv fv_opt =
          match direction_of name with
          | Info -> None
          | dir ->
            let regressed =
              match fv_opt with
              | None -> true
              | Some fv -> (
                match dir with
                | Exact -> fv < bv
                | Lower_better ->
                  (name <> "wall_s" || bv >= wall_s_floor)
                  && bv > 0.0
                  && fv > bv *. (1.0 +. tol)
                | Higher_better -> bv > 0.0 && fv < bv *. (1.0 -. tol)
                | Info -> false)
            in
            Some
              {
                d_exp = id;
                d_metric = name;
                d_base = bv;
                d_fresh = fv_opt;
                d_tol = tol;
                d_regressed = regressed;
              }
        in
        let counter (e : Obs.experiment) name =
          Option.map float_of_int (List.assoc_opt name e.metrics.counters)
        in
        List.filter_map Fun.id
          (check "wall_s" base.Obs.wall_s (Some fr.Obs.wall_s)
          :: List.map
               (fun (name, bv) -> check name (float_of_int bv) (counter fr name))
               base.metrics.counters))
    baseline

let render_deltas out deltas =
  Printf.fprintf out "%-14s %-34s %14s %14s %9s %6s  %s\n" "experiment"
    "metric" "baseline" "fresh" "delta" "tol" "status";
  List.iter
    (fun d ->
      let fresh_s, delta_s =
        match d.d_fresh with
        | None -> ("-", "-")
        | Some fv ->
          ( Printf.sprintf "%.6g" fv,
            if d.d_base = 0.0 then "-"
            else
              Printf.sprintf "%+.1f%%" ((fv -. d.d_base) /. d.d_base *. 100.0)
          )
      in
      Printf.fprintf out "%-14s %-34s %14.6g %14s %9s %5.0f%%  %s\n" d.d_exp
        d.d_metric d.d_base fresh_s delta_s (d.d_tol *. 100.0)
        (if d.d_regressed then
           if d.d_fresh = None then "MISSING"
           else "REGRESSED"
         else "ok"))
    deltas

let run_check args =
  let usage () =
    prerr_endline
      "usage: bench check [--baseline FILE] [--json FILE] [--report-only] \
       [--tolerance PCT] [--out FILE] [ids...]";
    exit 2
  in
  let baseline_path = ref "BENCH_pipeline.json" in
  let fresh_path = ref None in
  let report_only = ref false in
  let tolerance = ref default_tolerance in
  let out_path = ref None in
  let ids = ref [] in
  let rec parse = function
    | "--baseline" :: p :: rest ->
      baseline_path := p;
      parse rest
    | "--json" :: p :: rest ->
      fresh_path := Some p;
      parse rest
    | "--report-only" :: rest ->
      report_only := true;
      parse rest
    | "--tolerance" :: pct :: rest ->
      (match float_of_string_opt pct with
      | Some p when p >= 0.0 -> tolerance := p /. 100.0
      | _ -> usage ());
      parse rest
    | "--out" :: p :: rest ->
      out_path := Some p;
      parse rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
    | id :: rest ->
      ids := id :: !ids;
      parse rest
    | [] -> ()
  in
  parse args;
  let ids = List.rev !ids in
  let baseline = read_bench !baseline_path in
  let baseline =
    match ids with
    | [] -> baseline
    | _ -> List.filter (fun (id, _) -> List.mem id ids) baseline
  in
  if baseline = [] then begin
    Printf.eprintf "bench check: no experiments selected from %s\n"
      !baseline_path;
    exit 2
  end;
  let fresh =
    match !fresh_path with
    | Some p -> read_bench p
    | None ->
      Printf.printf "bench check: re-running %d experiments...\n%!"
        (List.length baseline);
      run_experiments (List.map fst baseline)
  in
  let deltas = compare_runs ~tolerance:!tolerance baseline fresh in
  let skipped =
    List.filter (fun (id, _) -> not (List.mem_assoc id fresh)) baseline
  in
  render_deltas stdout deltas;
  Option.iter
    (fun p ->
      let oc = open_out p in
      render_deltas oc deltas;
      close_out oc)
    !out_path;
  List.iter
    (fun (id, _) ->
      Printf.printf "note: experiment %s absent from fresh run; skipped\n" id)
    skipped;
  let regressions = List.filter (fun d -> d.d_regressed) deltas in
  Printf.printf "bench check: %d metrics compared, %d regressed (baseline %s)\n"
    (List.length deltas) (List.length regressions) !baseline_path;
  if regressions <> [] then
    if !report_only then
      print_endline "bench check: report-only mode; not failing the build"
    else exit 1

let () =
  (* [--jobs N] anywhere on the line sets the process-wide worker default
     (same resolution as the awesym CLI: --jobs > AWESYM_JOBS > 1). *)
  let rec strip_jobs = function
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j -> Runtime.set_default_jobs (Some j)
      | None ->
        Printf.eprintf "bench: malformed --jobs %s\n" n;
        exit 1);
      strip_jobs rest
    | x :: rest -> x :: strip_jobs rest
    | [] -> []
  in
  match strip_jobs (Array.to_list Sys.argv) with
  | [] | _ :: [] ->
    List.iter (fun (_, f) -> f ()) experiments;
    print_newline ()
  | _ :: [ "list" ] -> List.iter (fun (id, _) -> print_endline id) experiments
  | _ :: "--json" :: path :: ids -> run_json path ids
  | _ :: "check" :: rest -> run_check rest
  | _ :: ids ->
    List.iter (fun (_, f) -> f ()) (select ids);
    print_newline ()
