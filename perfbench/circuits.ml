(* The circuits and sweep plans the workloads run, as in the bench
   experiments they come from (time32, ext-rlc, sweep-scaling). *)

module Builders = Circuit.Builders
module Netlist = Circuit.Netlist
module Sym = Symbolic.Symbol
module Model = Awesymbolic.Model

let mark nl names sym =
  List.fold_left (fun acc n -> Netlist.mark_symbolic acc n (Sym.intern sym)) nl names

(* 1000-segment coupled RC lines, crosstalk output, drive conductance and
   load capacitance symbolic: the paper's large interconnect example. *)
let lines_segments = 1000

let lines () =
  let nl = Builders.coupled_lines ~segments:lines_segments ~output:Builders.Crosstalk () in
  mark (mark nl [ "rdrv_a"; "rdrv_b" ] "g_drv") [ "cload_a"; "cload_b" ] "c_load"

(* 8-segment coupled RLC lines with every per-segment mutual sharing the
   symbol m_seg; order 10 is what the early-time crosstalk peak needs. *)
let rlc_segments = 8
let rlc_order = 10
let rlc_l_line = 100e-9
let rlc_m_max = 0.7 *. rlc_l_line /. float_of_int rlc_segments

let rlc () =
  let nl =
    Builders.coupled_rlc_lines ~segments:rlc_segments ~r_line:400.0 ~l_line:rlc_l_line
      ~c_couple:0.1e-12 ~k_couple:0.3 ()
  in
  mark nl (List.init rlc_segments (fun k -> Printf.sprintf "k%d" (k + 1))) "m_seg"

let opamp () =
  let g, c = Builders.opamp_symbol_names in
  mark (mark (Builders.opamp741 ()) [ g ] g) [ c ] c

let opamp_model () = Model.build ~order:2 (opamp ())
let rlc_model () = Model.build ~order:rlc_order (rlc ())

let opamp_plan n =
  let g, c = Builders.opamp_symbol_names in
  Sweep.Plan.make (Sweep.Plan.Monte_carlo n)
    [
      { Sweep.Plan.name = g; dist = Sweep.Dist.uniform ~lo:0.5e-6 ~hi:8.5e-6 };
      { Sweep.Plan.name = c; dist = Sweep.Dist.uniform ~lo:5e-12 ~hi:65e-12 };
    ]

let rlc_plan n =
  Sweep.Plan.make (Sweep.Plan.Monte_carlo n)
    [ { Sweep.Plan.name = "m_seg"; dist = Sweep.Dist.uniform ~lo:0.0 ~hi:rlc_m_max } ]

let spec s =
  match Sweep.Engine.spec_of_string s with Ok s -> s | Error m -> failwith m
