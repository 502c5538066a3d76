(* awesym: command-line front end.

   Subcommands:
     awe        numeric AWE analysis (poles, residues, measures); --krylov
                switches to the Arnoldi-projection baseline, --sparse to the
                sparse factorization
     symbolic   AWEsymbolic: compile the symbolic model, print the symbolic
                forms, optionally evaluate at symbol values
     exact      exact symbolic transfer function (classical baseline)
     ac         AC sweep via direct complex solves
     tran       trapezoidal transient analysis
     rank       AWEsensitivity element ranking
     linearize  transistor-level deck -> operating point -> linear deck
     validate   compiled model vs full numeric AWE over symbol ranges
     macromodel N-port pole/residue reduction of a network block
     moments    raw circuit moments
     compile    build the symbolic model and save a versioned artifact
     eval       evaluate a saved model artifact at symbol values
     sweep      Monte-Carlo/LHS/corner/grid sweeps through the batch kernel
     optimize   gradient-based sizing and yield maximization on the model
     serve      persistent evaluation daemon with micro-batched kernel calls
     call       client for a running daemon (byte-identical to eval)
     cache      model-cache maintenance (gc)

   All subcommands read a SPICE-like deck (see Circuit.Parser; device cards
   per Nonlinear.Parser for linearize) with .input, .output and optional
   .symbolic directives. *)

open Cmdliner

let read_netlist path =
  try Ok (Circuit.Parser.parse_file path) with
  | Circuit.Parser.Parse_error (line, msg) ->
    Error (Printf.sprintf "%s:%d: %s" path line msg)
  | Sys_error msg -> Error msg

(* The transistor-level decks of `linearize` and `distortion`. *)
let read_nonlinear path =
  try Ok (Nonlinear.Parser.parse_file path) with
  | Nonlinear.Parser.Parse_error (line, msg) ->
    Error (Printf.sprintf "%s:%d: %s" path line msg)
  | Sys_error msg -> Error msg

let deck_arg =
  let doc = "Input netlist deck." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DECK" ~doc)

let order_arg =
  let doc = "Approximation order (number of poles)." in
  Arg.(value & opt int 2 & info [ "order"; "q" ] ~docv:"ORDER" ~doc)

let sparse_arg =
  Arg.(value & flag & info [ "sparse" ] ~doc:"Use the sparse factorization.")

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline msg;
    exit 1

let die msg =
  prerr_endline ("awesym: " ^ msg);
  exit 1

(* Every file a command writes goes through here, so an unwritable path
   is one classified error line naming the file. *)
let write_file path contents =
  Awesym_error.writing ~where:"cli.output" path (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc contents))

(* Shared telemetry flags: every subcommand takes --stats/--trace and runs
   under [with_obs], which turns the Obs subsystem on only when asked so the
   default path keeps its zero-overhead guarantee. *)
let obs_args =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print a phase-time tree and kernel counter tables to stderr \
             after the command runs.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write recorded spans as Chrome-trace JSON (load in \
             chrome://tracing or Perfetto).")
  in
  Term.(const (fun stats trace -> (stats, trace)) $ stats $ trace)

(* Shared worker-count flag for the compiled-model commands.  Setting the
   process-wide default (rather than threading the count through every
   call) keeps library signatures optional: anything that takes [?jobs]
   picks the flag up via [Runtime.resolve_jobs], the one place a count is
   resolved (--jobs > AWESYM_JOBS > 1, capped at the cores). *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel stages (default: \\$AWESYM_JOBS, \
           else 1), capped at the cores.  Results are bit-identical for \
           every jobs count.")

(* Shared evaluation-backend flag for the compiled-model commands (see
   docs/CODEGEN.md).  Like --jobs it sets process-wide state: libraries
   dispatch through [Slp]'s backend hooks, so nothing threads the choice
   through call signatures.  [interp] never installs the provider;
   [native] does, and the provider warns when it falls back. *)
let backend_arg =
  Arg.(
    value
    & opt (enum [ ("native", Symbolic.Slp.Native); ("interp", Symbolic.Slp.Interp) ])
        Symbolic.Slp.Interp
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "SLP evaluation backend: $(b,interp) (default: the bytecode \
           interpreter) or $(b,native) (compiled native kernels when the \
           OCaml toolchain can deliver them; otherwise a warning on stderr \
           and the interpreter).  Results are bit-identical whichever \
           backend runs.")

let set_runtime jobs backend =
  Runtime.set_default_jobs jobs;
  Symbolic.Slp.set_backend backend;
  if backend = Symbolic.Slp.Native then Codegen.install ()

let with_obs (stats, trace) f =
  (* Every command body runs under this wrapper, so classified failures
     from anywhere in the pipeline, typed exceptions with a registered
     classifier included, exit with one readable line instead of an OCaml
     backtrace.  An exception nothing classifies is a bug: it keeps the
     runtime's report and exit status. *)
  let f () =
    try f ()
    with exn -> (
      let bt = Printexc.get_raw_backtrace () in
      match Awesym_error.classify exn with
      | { kind = Internal; _ } -> Printexc.raise_with_backtrace exn bt
      | e ->
        prerr_endline ("awesym: error: " ^ Awesym_error.to_string e);
        exit 1)
  in
  if not (stats || trace <> None) then f ()
  else begin
    Obs.enabled := true;
    Obs.reset ();
    Fun.protect
      ~finally:(fun () ->
        if stats then Format.eprintf "%a@?" Obs.report ();
        Option.iter
          (fun path ->
            match Obs.write_trace path with
            | () -> Printf.eprintf "trace written to %s\n%!" path
            | exception Sys_error msg ->
              Printf.eprintf "awesym: cannot write trace: %s\n%!" msg;
              exit 1)
          trace;
        Obs.enabled := false)
      f
  end

(* --stats/--trace, --jobs and --backend: the runtime of the
   compiled-model commands. *)
let runtime_args =
  Term.(const (fun obs jobs backend -> (obs, jobs, backend)) $ obs_args $ jobs_arg $ backend_arg)

let with_runtime (obs, jobs, backend) f =
  with_obs obs @@ fun () ->
  set_runtime jobs backend;
  f ()

let print_rom rom =
  Format.printf "%a@." Awe.Rom.pp rom;
  Printf.printf "dc gain        : %g (%.2f dB)\n" (Awe.Measures.dc_gain rom)
    (Awe.Measures.dc_gain_db rom);
  Printf.printf "dominant pole  : %g Hz\n" (Awe.Measures.dominant_pole_hz rom);
  (match Awe.Measures.unity_gain_frequency rom with
  | Some f ->
    Printf.printf "unity gain     : %g Hz\n" f;
    Printf.printf "phase margin   : %.1f deg\n"
      (Awe.Measures.phase_margin_at rom f)
  | None -> ());
  match Awe.Measures.delay_50 rom with
  | Some t -> Printf.printf "50%% step delay : %g s\n" t
  | None -> ()

(* ------------------------------------------------------------------ *)

let awe_cmd =
  let run obs deck order krylov sparse realize_path =
    with_obs obs @@ fun () ->
    let nl = or_die (read_netlist deck) in
    let result =
      if krylov then Awe.Krylov.analyze ~order (Circuit.Mna.build nl)
      else Awe.Driver.analyze ~order ~sparse nl
    in
    Printf.printf "moments:";
    Array.iter (fun m -> Printf.printf " %g" m) result.Awe.Driver.moments;
    print_newline ();
    print_rom result.Awe.Driver.rom;
    match realize_path with
    | None -> ()
    | Some path ->
      write_file path (Awe.Realize.to_deck result.Awe.Driver.rom);
      Printf.printf "\nreduced-order model synthesized to %s\n" path
  in
  let krylov_arg =
    Arg.(
      value & flag
      & info [ "krylov" ] ~doc:"Use the Arnoldi-projection baseline instead \
                                of explicit moment matching.")
  in
  let realize_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "realize" ] ~docv:"FILE"
          ~doc:
            "Synthesize the reduced-order model back into a deck (one \
             state-space section per pole) and write it here.")
  in
  let doc = "Numeric AWE analysis: reduced-order model of the deck." in
  Cmd.v (Cmd.info "awe" ~doc)
    Term.(const run $ obs_args $ deck_arg $ order_arg $ krylov_arg $ sparse_arg
          $ realize_arg)

let bindings_arg =
  let doc =
    "Symbol assignment NAME=VALUE (repeatable); values take engineering \
     suffixes."
  in
  Arg.(value & opt_all string [] & info [ "set"; "s" ] ~docv:"NAME=VALUE" ~doc)

let parse_binding s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "malformed binding %S (want NAME=VALUE)" s)
  | Some k -> (
    let name = String.sub s 0 k in
    let v = String.sub s (k + 1) (String.length s - k - 1) in
    match Circuit.Units.parse v with
    | Some value -> Ok (name, value)
    | None -> Error (Printf.sprintf "malformed value in %S" s))

let symbolic_cmd =
  let run obs deck order bindings show_program =
    with_obs obs @@ fun () ->
    let nl = or_die (read_netlist deck) in
    let model = Awesymbolic.Model.build ~order nl in
    let symbols = Awesymbolic.Model.symbols model in
    Printf.printf "symbols : %s\n"
      (String.concat ", "
         (Array.to_list (Array.map Symbolic.Symbol.name symbols)));
    Printf.printf "compiled: %d operations for %d moments\n"
      (Awesymbolic.Model.num_operations model)
      (2 * order);
    (if order <= 2 then
       try
         Format.printf "%a@?"
           (Awesymbolic.Model.pp_forms ~count:(Int.min 4 (2 * order)))
           nl
       with Failure _ | Awesym_error.Error { kind = Singular_system; _ } ->
         (* The expanded (Cramer-form) display needs fraction-free exact
            division, which float coefficients cannot always support on
            large incidence-heavy systems.  The compiled model above is
            unaffected — it solves by elimination with numeric pivoting. *)
         print_endline
           "(expanded symbolic forms unavailable: fraction-free elimination \
            is\n ill-conditioned for this system; the compiled model is \
            unaffected —\n evaluate with --set or check it with `awesym \
            validate`)");
    if show_program then
      Format.printf "%a@." Symbolic.Slp.pp (Awesymbolic.Model.program model);
    if bindings <> [] then begin
      let bound = List.map (fun b -> or_die (parse_binding b)) bindings in
      let v = Awesymbolic.Model.values model bound in
      let rom = Awesymbolic.Model.rom model v in
      Printf.printf "\nevaluated at %s:\n"
        (String.concat ", "
           (List.map (fun (n, x) -> Printf.sprintf "%s=%g" n x) bound));
      print_rom rom
    end
  in
  let program_arg =
    Arg.(value & flag & info [ "program" ] ~doc:"Print the compiled program.")
  in
  let doc = "AWEsymbolic: compiled symbolic analysis of the deck." in
  Cmd.v
    (Cmd.info "symbolic" ~doc)
    Term.(const run $ obs_args $ deck_arg $ order_arg $ bindings_arg
          $ program_arg)

let exact_cmd =
  let run obs deck all_symbolic =
    with_obs obs @@ fun () ->
    let nl = or_die (read_netlist deck) in
    let tf = Exact.Network.transfer_function ~all_symbolic nl in
    Printf.printf "H(s) = %s\n" (Exact.Network.to_string tf)
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all-symbolic" ] ~doc:"Treat every element as a symbol.")
  in
  let doc = "Exact symbolic transfer function (classical baseline)." in
  Cmd.v (Cmd.info "exact" ~doc) Term.(const run $ obs_args $ deck_arg $ all_arg)

let ac_cmd =
  let run obs deck f_start f_stop points =
    with_obs obs @@ fun () ->
    let nl = or_die (read_netlist deck) in
    let mna = Circuit.Mna.build nl in
    Printf.printf "%14s %14s %12s\n" "freq (Hz)" "mag (dB)" "phase (deg)";
    Array.iter
      (fun (f, h) ->
        Printf.printf "%14.6g %14.4f %12.2f\n" f (Spice.Ac.magnitude_db h)
          (Spice.Ac.phase_deg h))
      (Spice.Ac.sweep mna ~f_start ~f_stop ~points)
  in
  let f_start =
    Arg.(value & opt float 1.0 & info [ "start" ] ~docv:"HZ" ~doc:"Start frequency.")
  in
  let f_stop =
    Arg.(value & opt float 1e9 & info [ "stop" ] ~docv:"HZ" ~doc:"Stop frequency.")
  in
  let points =
    Arg.(value & opt int 30 & info [ "points"; "n" ] ~doc:"Sweep points.")
  in
  let doc = "AC sweep by direct complex solves." in
  Cmd.v (Cmd.info "ac" ~doc)
    Term.(const run $ obs_args $ deck_arg $ f_start $ f_stop $ points)

let tran_cmd =
  let run obs deck t_step t_stop adaptive tol =
    with_obs obs @@ fun () ->
    let nl = or_die (read_netlist deck) in
    let mna = Circuit.Mna.build nl in
    let wave =
      if adaptive then
        Spice.Tran.simulate_adaptive ~tol mna ~input:Spice.Tran.step_input
          ~t_stop
      else
        match t_step with
        | Some t_step ->
          Spice.Tran.simulate mna ~input:Spice.Tran.step_input ~t_step ~t_stop
        | None ->
          prerr_endline "need --step (or --adaptive)";
          exit 1
    in
    Printf.printf "%14s %14s\n" "t (s)" "v(out)";
    Array.iter (fun (t, y) -> Printf.printf "%14.6g %14.6g\n" t y) wave;
    if adaptive then Printf.printf "(%d adaptive points)\n" (Array.length wave)
  in
  let t_step =
    Arg.(
      value
      & opt (some float) None
      & info [ "step" ] ~docv:"S" ~doc:"Fixed time step.")
  in
  let t_stop =
    Arg.(required & opt (some float) None & info [ "stop" ] ~docv:"S" ~doc:"Stop time.")
  in
  let adaptive_arg =
    Arg.(
      value & flag
      & info [ "adaptive" ] ~doc:"Variable step with error control.")
  in
  let tol_arg =
    Arg.(
      value & opt float 1e-6
      & info [ "tol" ] ~docv:"REL" ~doc:"Adaptive error tolerance.")
  in
  let doc = "Transient step response (trapezoidal integration)." in
  Cmd.v (Cmd.info "tran" ~doc)
    Term.(const run $ obs_args $ deck_arg $ t_step $ t_stop $ adaptive_arg
          $ tol_arg)

let rank_cmd =
  let run obs deck order top =
    with_obs obs @@ fun () ->
    let nl = or_die (read_netlist deck) in
    let ranked = Awe.Sensitivity.rank ~order nl in
    Printf.printf "%4s %-20s %14s\n" "#" "element" "sensitivity";
    List.iteri
      (fun k ((e : Circuit.Element.t), score) ->
        if k < top then
          Printf.printf "%4d %-20s %14.4g\n" (k + 1) e.Circuit.Element.name score)
      ranked
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~doc:"How many elements to list.")
  in
  let doc = "Rank elements by AWE pole/gain sensitivity." in
  Cmd.v (Cmd.info "rank" ~doc)
    Term.(const run $ obs_args $ deck_arg $ order_arg $ top_arg)

let linearize_cmd =
  let run obs deck out_path analyze =
    with_obs obs @@ fun () ->
    let nl = or_die (read_nonlinear deck) in
    let sol =
      try Nonlinear.Newton.solve nl with
      | Nonlinear.Newton.No_convergence msg ->
        prerr_endline ("DC solve failed: " ^ msg);
        exit 1
    in
    print_string (Nonlinear.Linearize.operating_report nl sol);
    let lin = Nonlinear.Linearize.netlist nl sol in
    (match out_path with
    | Some path ->
      write_file path (Circuit.Export.to_deck lin);
      Printf.printf "linearized netlist written to %s\n" path
    | None -> print_string (Circuit.Export.to_deck lin));
    if analyze then begin
      let result = Awe.Driver.analyze ~order:2 lin in
      print_newline ();
      print_rom result.Awe.Driver.rom
    end
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the linearized deck here.")
  in
  let analyze_arg =
    Arg.(value & flag & info [ "awe" ] ~doc:"Also run an order-2 AWE analysis.")
  in
  let doc = "Bias a transistor-level deck and emit its linearized netlist." in
  Cmd.v
    (Cmd.info "linearize" ~doc)
    Term.(const run $ obs_args $ deck_arg $ out_arg $ analyze_arg)

let distortion_cmd =
  let run obs deck f amplitude bias harmonics two_tone =
    with_obs obs @@ fun () ->
    let nl = or_die (read_nonlinear deck) in
    try
      match two_tone with
      | Some spec ->
        let k1, k2 =
          match String.split_on_char ':' spec with
          | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some k1, Some k2 -> (k1, k2)
            | _ ->
              prerr_endline "malformed --two-tone (want K1:K2)";
              exit 1)
          | _ ->
            prerr_endline "malformed --two-tone (want K1:K2)";
            exit 1
        in
        let d =
          Nonlinear.Distortion.two_tone nl ~bias ~f_base:f ~k1 ~k2 ~amplitude
        in
        Printf.printf "tones: %g V each at %s and %s, bias %g V\n" amplitude
          (Circuit.Units.format (f *. float_of_int k1))
          (Circuit.Units.format (f *. float_of_int k2))
          bias;
        Printf.printf "fundamentals: %.6g / %.6g\n" d.Nonlinear.Distortion.fund1
          d.Nonlinear.Distortion.fund2;
        Printf.printf "IM2 = %.4f%%   IM3 = %.4f%%  (of the first tone)\n"
          (100.0 *. d.Nonlinear.Distortion.im2 /. d.Nonlinear.Distortion.fund1)
          (100.0 *. d.Nonlinear.Distortion.im3 /. d.Nonlinear.Distortion.fund1)
      | None ->
        let d =
          Nonlinear.Distortion.measure nl ~bias ~f ~amplitude
            ~max_harmonic:harmonics
        in
        Printf.printf "drive: %g V at %s, bias %g V\n" amplitude
          (Circuit.Units.format f) bias;
        Printf.printf "%10s %14s %14s\n" "harmonic" "amplitude" "rel. to h1";
        Array.iteri
          (fun k h ->
            Printf.printf "%10d %14.6g %14.6g\n" k h
              (if k = 1 || d.Nonlinear.Distortion.fundamental = 0.0 then
                 (if k = 1 then 1.0 else Float.infinity)
               else h /. d.Nonlinear.Distortion.fundamental))
          d.Nonlinear.Distortion.harmonics;
        Printf.printf "\nTHD = %.4f%%  (HD2 = %.4f%%, HD3 = %.4f%%)\n"
          (100.0 *. d.Nonlinear.Distortion.thd)
          (100.0 *. Nonlinear.Distortion.hd2 d)
          (100.0 *. Nonlinear.Distortion.hd3 d)
    with Nonlinear.Tran.No_convergence t ->
      prerr_endline (Printf.sprintf "transient failed to converge at t = %g" t);
      exit 1
  in
  let two_tone_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "two-tone" ] ~docv:"K1:K2"
          ~doc:
            "Two-tone intermodulation instead of single-tone harmonics: \
             tones at K1 and K2 times the base frequency given by --freq.")
  in
  let f_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "f"; "freq" ] ~docv:"HZ" ~doc:"Drive frequency.")
  in
  let amp_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "a"; "amplitude" ] ~docv:"V" ~doc:"Drive amplitude.")
  in
  let bias_arg =
    Arg.(
      value & opt float 0.0
      & info [ "bias" ] ~docv:"V" ~doc:"DC bias added to the drive.")
  in
  let harmonics_arg =
    Arg.(value & opt int 5 & info [ "harmonics" ] ~doc:"Highest harmonic to report.")
  in
  let doc =
    "Measure harmonic distortion of a transistor-level deck (steady-state \
     transient + FFT)."
  in
  Cmd.v
    (Cmd.info "distortion" ~doc)
    Term.(const run $ obs_args $ deck_arg $ f_arg $ amp_arg $ bias_arg
          $ harmonics_arg $ two_tone_arg)

let sens_cmd =
  let run obs deck order bindings =
    with_obs obs @@ fun () ->
    let nl = or_die (read_netlist deck) in
    let model = Awesymbolic.Model.build ~order nl in
    let symbols = Awesymbolic.Model.symbols model in
    (* Default point: every symbol at its netlist (nominal) value. *)
    let nominal =
      Circuit.Netlist.symbolic_elements nl
      |> List.map (fun ((e : Circuit.Element.t), s) ->
             (Symbolic.Symbol.name s, Circuit.Element.stamp_value e))
    in
    let bound = List.map (fun b -> or_die (parse_binding b)) bindings in
    let point =
      List.map
        (fun (name, v) ->
          match List.find_opt (fun (n, _) -> n = name) bound with
          | Some (_, v') -> (name, v')
          | None -> (name, v))
        nominal
    in
    let v = Awesymbolic.Model.values model point in
    Printf.printf "at %s\n\n"
      (String.concat ", "
         (List.map (fun (n, x) -> Printf.sprintf "%s=%g" n x) point));
    let sens = Awesymbolic.Model.eval_sensitivities model v in
    Printf.printf "%-6s" "";
    Array.iter
      (fun s -> Printf.printf " %16s" ("d/d" ^ Symbolic.Symbol.name s))
      symbols;
    print_newline ();
    Array.iteri
      (fun k row ->
        Printf.printf "m%-5d" k;
        Array.iter (fun d -> Printf.printf " %16.6g" d) row;
        print_newline ())
      sens;
    match Awesymbolic.Model.eval_pole_sensitivities model v with
    | None -> ()
    | Some (dp1, dp2) ->
      print_newline ();
      List.iter
        (fun (label, dp) ->
          Printf.printf "%-6s" label;
          Array.iter (fun d -> Printf.printf " %16.6g" d) dp;
          print_newline ())
        [ ("p1", dp1); ("p2", dp2) ]
  in
  let doc =
    "Compiled symbolic sensitivities: d(moment)/d(symbol) and, for orders \
     1-2, d(pole)/d(symbol)."
  in
  Cmd.v (Cmd.info "sens" ~doc)
    Term.(const run $ obs_args $ deck_arg $ order_arg $ bindings_arg)

let validate_cmd =
  let run obs deck order points ranges =
    with_obs obs @@ fun () ->
    let nl = or_die (read_netlist deck) in
    let model = Awesymbolic.Model.build ~order nl in
    let parse_range s =
      match String.split_on_char '=' s with
      | [ name; bounds ] -> (
        match String.split_on_char ':' bounds with
        | [ lo; hi ] -> (
          match (Circuit.Units.parse lo, Circuit.Units.parse hi) with
          | Some lo, Some hi -> Ok (name, lo, hi)
          | _ -> Error (Printf.sprintf "malformed bounds in %S" s))
        | _ -> Error (Printf.sprintf "malformed range %S (want NAME=LO:HI)" s))
      | _ -> Error (Printf.sprintf "malformed range %S (want NAME=LO:HI)" s)
    in
    let ranges = List.map (fun r -> or_die (parse_range r)) ranges in
    (* Default range: a decade around each symbol's netlist value. *)
    let defaults =
      Circuit.Netlist.symbolic_elements nl
      |> List.map (fun ((e : Circuit.Element.t), s) ->
             let v = Circuit.Element.stamp_value e in
             (Symbolic.Symbol.name s, v /. 3.0, v *. 3.0))
    in
    let merged =
      defaults
      |> List.map (fun (name, lo, hi) ->
             match List.find_opt (fun (n, _, _) -> n = name) ranges with
             | Some r -> r
             | None -> (name, lo, hi))
    in
    let report = Awesymbolic.Validate.run ~points ~ranges:merged model in
    Format.printf "%a@." Awesymbolic.Validate.pp report
  in
  let points_arg =
    Arg.(value & opt int 50 & info [ "points"; "n" ] ~doc:"Sample count.")
  in
  let ranges_arg =
    Arg.(
      value & opt_all string []
      & info [ "range" ] ~docv:"NAME=LO:HI"
          ~doc:"Symbol range (default: a decade around the netlist value).")
  in
  let doc = "Validate the compiled model against full numeric AWE." in
  Cmd.v
    (Cmd.info "validate" ~doc)
    Term.(const run $ obs_args $ deck_arg $ order_arg $ points_arg
          $ ranges_arg)

let macromodel_cmd =
  let run obs deck order ports f_probe out_path ts_path =
    with_obs obs @@ fun () ->
    let nl = or_die (read_netlist deck) in
    if ports = [] then begin
      prerr_endline "need at least one --port";
      exit 1
    end;
    let mm =
      try Awesymbolic.Macromodel.reduce ~order ~ports nl
      with Failure msg ->
        prerr_endline msg;
        exit 1
    in
    Format.printf "%a@." Awesymbolic.Macromodel.pp mm;
    (match out_path with
    | None -> ()
    | Some path ->
      write_file path
        (Circuit.Export.to_deck (Awesymbolic.Macromodel.to_netlist mm));
      Printf.printf "synthesized N-port block written to %s\n" path);
    (match ts_path with
    | None -> ()
    | Some path ->
      let frequencies =
        Array.init 40 (fun k -> 1e3 *. (10.0 ** (float_of_int k /. 5.0)))
      in
      write_file path (Awesymbolic.Macromodel.touchstone mm ~z0:50.0 ~frequencies);
      Printf.printf "touchstone S-parameters written to %s\n" path);
    match f_probe with
    | None -> ()
    | Some f ->
      let s = Numeric.Cx.make 0.0 (2.0 *. Float.pi *. f) in
      let y = Awesymbolic.Macromodel.admittance mm s in
      Printf.printf "\nY(j·2π·%g):\n" f;
      Array.iteri
        (fun j pj ->
          Array.iteri
            (fun k pk ->
              let v = Numeric.Cmatrix.get y j k in
              Printf.printf "  Y[%s][%s] = %g %+gi\n" pj pk v.Numeric.Cx.re
                v.Numeric.Cx.im)
            (Awesymbolic.Macromodel.ports mm))
        (Awesymbolic.Macromodel.ports mm)
  in
  let ports_arg =
    Arg.(
      value & opt_all string []
      & info [ "port"; "p" ] ~docv:"NODE" ~doc:"Port node (repeatable).")
  in
  let probe_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "at" ] ~docv:"HZ" ~doc:"Also print Y(s) at this frequency.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Synthesize the macromodel as an embeddable deck block here.")
  in
  let ts_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "touchstone" ] ~docv:"FILE"
          ~doc:
            "Write S-parameters (50-ohm, 1 kHz - 60 MHz log sweep) in \
             Touchstone format here.")
  in
  let doc = "Reduce a network block to an N-port pole/residue macromodel." in
  Cmd.v
    (Cmd.info "macromodel" ~doc)
    Term.(const run $ obs_args $ deck_arg $ order_arg $ ports_arg $ probe_arg
          $ out_arg $ ts_arg)

let noise_cmd =
  let run obs deck f_probe f_start f_stop top =
    with_obs obs @@ fun () ->
    let nl = or_die (read_netlist deck) in
    let mna = Circuit.Mna.build nl in
    let density = Spice.Noise.output_density mna f_probe in
    Printf.printf "output noise density at %g Hz: %.4g V^2/Hz (%.4g nV/sqrt(Hz))\n"
      f_probe density
      (Float.sqrt density *. 1e9);
    Printf.printf "\ntop contributors:\n";
    List.iteri
      (fun k (name, d) ->
        if k < top then Printf.printf "  %-16s %.4g V^2/Hz\n" name d)
      (Spice.Noise.contributions mna f_probe);
    let total = Spice.Noise.integrated mna ~f_start ~f_stop in
    Printf.printf "\nintegrated over [%g, %g] Hz: %.4g V^2 (%.4g uVrms)\n"
      f_start f_stop total
      (Float.sqrt total *. 1e6)
  in
  let f_probe =
    Arg.(value & opt float 1e3 & info [ "at" ] ~docv:"HZ" ~doc:"Spot frequency.")
  in
  let f_start =
    Arg.(value & opt float 1.0 & info [ "start" ] ~docv:"HZ" ~doc:"Band start.")
  in
  let f_stop =
    Arg.(value & opt float 1e9 & info [ "stop" ] ~docv:"HZ" ~doc:"Band stop.")
  in
  let top_arg =
    Arg.(value & opt int 5 & info [ "top" ] ~doc:"Contributors to list.")
  in
  let doc = "Thermal (4kTR) output noise: density, breakdown, integral." in
  Cmd.v (Cmd.info "noise" ~doc)
    Term.(const run $ obs_args $ deck_arg $ f_probe $ f_start $ f_stop
          $ top_arg)

(* ------------------------------------------------------------------ *)
(* Compiled-model artifacts and sweeps *)

let load_model path =
  try Awesymbolic.Model.load path with
  | Awesymbolic.Artifact.Format_error msg ->
    die (Printf.sprintf "cannot load %s: %s" path msg)
  | Sys_error msg -> die msg

let cache_arg doc = Arg.(value & flag & info [ "cache" ] ~doc)

let build_model ~order ~cache nl =
  if cache then Awesymbolic.Model.build_cached ~order nl
  else Awesymbolic.Model.build ~order nl

let symbol_names model = Array.map Symbolic.Symbol.name (Awesymbolic.Model.symbols model)

let compile_cmd =
  let run ((_, _, backend) as rt) deck order out cache =
    with_runtime rt @@ fun () ->
    let model = build_model ~order ~cache (or_die (read_netlist deck)) in
    let out =
      match out with
      | Some o -> o
      | None -> Filename.remove_extension (Filename.basename deck) ^ ".awm"
    in
    Awesymbolic.Model.save model out;
    Printf.printf "compiled %s -> %s\n" deck out;
    Printf.printf "order %d, symbols: %s\n"
      (Awesymbolic.Model.order model)
      (String.concat ", " (Array.to_list (symbol_names model)));
    Printf.printf "%d operations over %d registers\n"
      (Awesymbolic.Model.num_operations model)
      (Symbolic.Slp.num_registers (Awesymbolic.Model.program model));
    (* Prewarm the kernel cache: later native eval/sweep/serve runs on
       this artifact hit the compiled object instead of paying ocamlopt. *)
    if backend = Symbolic.Slp.Native then begin
      let p = Awesymbolic.Model.program model in
      if Codegen.available p then
        Printf.printf "native kernel cached: %s\n"
          (Filename.basename (Codegen.cache_path p))
      else
        Printf.printf "native kernel unavailable (%s); runs will interpret\n"
          (match Codegen.last_error () with
          | Some e -> Awesym_error.kind_name e.Awesym_error.kind
          | None -> "declined")
    end
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Artifact path (default: the deck's basename with .awm).")
  in
  let cache_arg =
    cache_arg
      "Consult and populate the content-addressed model cache \
       (\\$AWESYM_CACHE_DIR or .awesym-cache)."
  in
  let doc =
    "Compile the deck's symbolic model and save it as a versioned, \
     checksummed artifact for later `eval` and `sweep` runs."
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const run $ runtime_args $ deck_arg $ order_arg $ out_arg $ cache_arg)

let model_arg =
  let doc = "Load a compiled model artifact instead of building a deck." in
  Arg.(
    value
    & opt (some file) None
    & info [ "model"; "m" ] ~docv:"FILE" ~doc)

(* DECK or --model FILE, for `sweep` and `optimize`: the artifact path
   given, and a loader that builds the deck (with --order and --cache) or
   loads the artifact. *)
let model_source_arg =
  let deck =
    let doc = "Input netlist deck (alternative to --model)." in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"DECK" ~doc)
  in
  let cache =
    cache_arg
      "Consult and populate the content-addressed model cache when building \
       from a deck."
  in
  let source deck model_path order cache =
    let load () =
      match (model_path, deck) with
      | Some _, Some _ -> die "give either a DECK or --model, not both"
      | None, None -> die "need a DECK or --model FILE"
      | Some p, None -> load_model p
      | None, Some d -> build_model ~order ~cache (or_die (read_netlist d))
    in
    (model_path, load)
  in
  Term.(const source $ deck $ model_arg $ order_arg $ cache)

let unknown_symbol names n =
  die
    (Printf.sprintf "unknown symbol %s (model has: %s)" n
       (String.concat ", " (Array.to_list names)))

(* Positional value vector from --set bindings over the model's symbol
   names, defaulting to nominals.  Shared by `eval` and `call` so both
   resolve a point identically. *)
let point_of_bindings ~names ~nominals bindings =
  let bound = List.map (fun b -> or_die (parse_binding b)) bindings in
  List.iter (fun (n, _) -> if not (Array.mem n names) then unknown_symbol names n) bound;
  Array.mapi
    (fun k n ->
      match List.assoc_opt n bound with Some x -> x | None -> nominals.(k))
    names

(* The one point-evaluation printer.  `eval` (offline) and `call` (served)
   both end here, so for the same model and point they print the same
   bytes — the CI smoke job diffs their outputs to prove the daemon is
   bit-exact.  The Padé finish is deterministic, so printing from raw
   moments is identical to [Model.rom]. *)
let print_point_eval ~model_path ~order ~names ~values ~moments ~show_moments =
  Printf.printf "model %s: order %d\n" model_path order;
  Printf.printf "at %s\n\n"
    (String.concat ", "
       (Array.to_list
          (Array.mapi (fun k n -> Printf.sprintf "%s=%g" n values.(k)) names)));
  if show_moments then begin
    Array.iteri (fun k m -> Printf.printf "m%-2d = %.12g\n" k m) moments;
    print_newline ()
  end;
  print_rom (Awe.Pade.fit ~order moments)

let moments_arg =
  Arg.(value & flag & info [ "moments" ] ~doc:"Also print the raw moments.")

let eval_cmd =
  let run rt model_path bindings show_moments =
    with_runtime rt @@ fun () ->
    let model_path =
      match model_path with
      | Some p -> p
      | None -> die "need --model FILE (produce one with `awesym compile`)"
    in
    let model = load_model model_path in
    let names = symbol_names model in
    let v =
      point_of_bindings ~names ~nominals:(Awesymbolic.Model.nominal_values model)
        bindings
    in
    print_point_eval ~model_path
      ~order:(Awesymbolic.Model.order model)
      ~names ~values:v
      ~moments:(Awesymbolic.Model.eval_moments model v)
      ~show_moments
  in
  let doc =
    "Evaluate a compiled model artifact at symbol values (defaults: the \
     nominal values stored in the artifact)."
  in
  Cmd.v (Cmd.info "eval" ~doc)
    Term.(const run $ runtime_args $ model_arg $ bindings_arg $ moments_arg)

let parse_vary s =
  match String.index_opt s '=' with
  | None ->
    Error (Printf.sprintf "malformed --vary %S (want NAME=DIST)" s)
  | Some k -> (
    let name = String.sub s 0 k in
    let rest = String.sub s (k + 1) (String.length s - k - 1) in
    let num v =
      match Circuit.Units.parse v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "malformed value %S in --vary %S" v s)
    in
    let dist mk a b =
      match (num a, num b) with
      | Ok a, Ok b -> (
        try Ok (name, `Dist (mk a b))
        with Invalid_argument msg -> Error msg)
      | (Error _ as e), _ | _, (Error _ as e) -> e
    in
    match String.split_on_char ':' rest with
    | [ "pct"; p ] -> (
      match float_of_string_opt p with
      | Some p when p > 0.0 -> Ok (name, `Pct p)
      | _ -> Error (Printf.sprintf "malformed percentage in --vary %S" s))
    | [ "uniform"; lo; hi ] ->
      dist (fun lo hi -> Sweep.Dist.uniform ~lo ~hi) lo hi
    | [ "normal"; mean; std ] ->
      dist (fun mean std -> Sweep.Dist.normal ~mean ~std) mean std
    | [ "lognormal"; mu; sigma ] ->
      dist (fun mu sigma -> Sweep.Dist.lognormal ~mu ~sigma) mu sigma
    | _ ->
      Error
        (Printf.sprintf
           "malformed --vary %S (want NAME=pct:P, NAME=uniform:LO:HI, \
            NAME=normal:MEAN:STD, or NAME=lognormal:MU:SIGMA)"
           s))

(* Axes from --vary over the symbols [names] with [nominals] (a local
   model's or a daemon's): pct:P is relative to the symbol's nominal, and
   no --vary sweeps every symbol at pct:20. *)
let axes_of_varies ~names ~nominals varies =
  let around k pct = Sweep.Dist.around ~nominal:nominals.(k) ~pct in
  if varies = [] then
    Array.to_list (Array.mapi (fun k name -> { Sweep.Plan.name; dist = around k 20.0 }) names)
  else
    List.map
      (fun v ->
        match or_die (parse_vary v) with
        | name, `Dist dist -> { Sweep.Plan.name; dist }
        | name, `Pct p -> (
          match Array.find_index (( = ) name) names with
          | Some k -> { Sweep.Plan.name; dist = around k p }
          | None -> unknown_symbol names name))
      varies

let describe_dist = function
  | Sweep.Dist.Uniform { lo; hi } -> Printf.sprintf "uniform[%g, %g]" lo hi
  | Sweep.Dist.Normal { mean; std } -> Printf.sprintf "normal(%g, %g)" mean std
  | Sweep.Dist.Lognormal { mu; sigma } ->
    Printf.sprintf "lognormal(%g, %g)" mu sigma

let print_axis (a : Sweep.Plan.axis) =
  Printf.printf "  %s ~ %s\n" a.name (describe_dist a.dist)

let parse_specs = List.map (fun s -> or_die (Sweep.Engine.spec_of_string s))

(* --json FILE, or '-' for stdout after a blank line. *)
let write_json ~what path j =
  match path with
  | None -> ()
  | Some "-" ->
    print_newline ();
    print_endline (Obs.Json.to_string j)
  | Some path ->
    write_file path (Obs.Json.to_string_pretty j);
    Printf.printf "\n%s written to %s\n" what path

(* The flags `sweep` and `optimize` share; each command words its own
   help. *)
let vary_arg doc =
  Arg.(value & opt_all string [] & info [ "vary" ] ~docv:"NAME=DIST" ~doc)

let spec_arg doc =
  Arg.(value & opt_all string [] & info [ "spec" ] ~docv:"MEASURE<=LIMIT" ~doc)

let seed_arg doc = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let json_arg doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let checkpoint_args ~checkpoint ~resume =
  Term.(
    const (fun c r -> (c, r))
    $ Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc:checkpoint)
    $ Arg.(value & flag & info [ "resume" ] ~doc:resume))

let check_resume (checkpoint, resume) =
  if resume && checkpoint = None then
    die "--resume needs --checkpoint FILE to resume from"

let sweep_cmd =
  let run rt (model_path, load) varies mc lhs corners grid measures specs seed
      block json_path on_fault ((checkpoint, resume) as ckpt) worker_addrs
      chunk_timeout dist_retries =
    with_runtime rt @@ fun () ->
    let model = load () in
    let axes =
      axes_of_varies ~names:(symbol_names model)
        ~nominals:(Awesymbolic.Model.nominal_values model) varies
    in
    let kind =
      match (mc, lhs, corners, grid) with
      | Some n, None, false, None -> Sweep.Plan.Monte_carlo n
      | None, Some n, false, None -> Sweep.Plan.Latin_hypercube n
      | None, None, true, None -> Sweep.Plan.Corners
      | None, None, false, Some n -> Sweep.Plan.Grid n
      | None, None, false, None -> Sweep.Plan.Monte_carlo 1000
      | _ -> die "choose at most one of --mc, --lhs, --corners, --grid"
    in
    let measures =
      match measures with
      | [] -> Sweep.Engine.default_measures
      | ms -> List.map (fun m -> or_die (Sweep.Engine.measure_of_string m)) ms
    in
    let specs = parse_specs specs in
    let plan =
      try Sweep.Plan.make kind axes with Invalid_argument msg -> die msg
    in
    let policy = or_die (Sweep.Engine.policy_of_string on_fault) in
    check_resume ckpt;
    let result =
      try
        match worker_addrs with
        | [] ->
          Sweep.Engine.run ~seed ?block ~measures ~specs ~policy ?checkpoint
            ~resume model plan
        | addrs ->
          (* Coordinator mode: the daemons load the artifact themselves,
             so the sweep must name one — a deck built in this process
             has no path the workers could agree on. *)
          let model_path =
            match model_path with
            | Some p -> p
            | None ->
              die
                "--worker-addr needs --model FILE (an artifact path the \
                 worker daemons can read)"
          in
          let cfg =
            {
              (Dsweep.default_config ~addrs) with
              chunk_timeout_s = chunk_timeout;
              worker_retries = dist_retries;
            }
          in
          Dsweep.run ~seed ?block ~measures ~specs ~policy ?checkpoint ~resume
            ~log:prerr_endline cfg ~model ~model_path plan
      with
      | Failure msg | Invalid_argument msg -> die msg
    in
    Printf.printf "sweep: %s, %d points, seed %d%s\n"
      (Sweep.Plan.kind_name plan.Sweep.Plan.kind)
      result.Sweep.Engine.n seed
      (match worker_addrs with
      | [] -> ""
      | ws -> Printf.sprintf ", distributed over %d workers" (List.length ws));
    (match result.Sweep.Engine.failed with
    | [] -> ()
    | failed ->
      Printf.printf
        "  %d of %d points failed (policy %s); statistics cover the %d \
         survivors\n"
        (List.length failed) result.Sweep.Engine.n
        (Sweep.Engine.policy_name policy)
        (Sweep.Engine.survivors result);
      List.iteri
        (fun i (fp : Sweep.Engine.failed_point) ->
          if i < 5 then
            Printf.printf "    point %d (%d attempts): %s\n" fp.point
              fp.attempts
              (Awesym_error.to_string fp.error))
        failed;
      if List.length failed > 5 then
        Printf.printf "    ... and %d more (see the JSON report)\n"
          (List.length failed - 5));
    List.iter print_axis plan.Sweep.Plan.axes;
    print_newline ();
    Printf.printf "%-22s %12s %12s %12s %12s %12s %9s\n" "measure" "mean"
      "std" "min" "median" "max" "finite";
    List.iter
      (fun (m, (s : Sweep.Stats.summary)) ->
        let median =
          match List.assoc_opt 0.5 s.Sweep.Stats.quantiles with
          | Some v -> v
          | None -> nan
        in
        Printf.printf "%-22s %12.5g %12.5g %12.5g %12.5g %12.5g %5d/%-4d\n"
          (Sweep.Engine.measure_name m)
          s.Sweep.Stats.mean s.Sweep.Stats.std s.Sweep.Stats.min median
          s.Sweep.Stats.max s.Sweep.Stats.finite s.Sweep.Stats.n)
      result.Sweep.Engine.summaries;
    if result.Sweep.Engine.spec_yields <> [] then begin
      print_newline ();
      List.iter
        (fun (s, y) ->
          Printf.printf "spec %-24s yield %6.2f%%\n"
            (Sweep.Engine.spec_to_string s)
            (100.0 *. y))
        result.Sweep.Engine.spec_yields;
      Option.iter
        (fun y -> Printf.printf "overall yield %6.2f%%\n" (100.0 *. y))
        result.Sweep.Engine.yield
    end;
    write_json ~what:"sweep report" json_path (Sweep.Engine.to_json result)
  in
  let vary_arg =
    vary_arg
      "Sweep a symbol: NAME=pct:P (uniform ±P% around nominal), \
       NAME=uniform:LO:HI, NAME=normal:MEAN:STD, or \
       NAME=lognormal:MU:SIGMA.  Repeatable.  Default: every symbol at \
       pct:20."
  in
  let mc_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "mc" ] ~docv:"N"
          ~doc:"Monte-Carlo sampling with N points (the default, N=1000).")
  in
  let lhs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "lhs" ] ~docv:"N" ~doc:"Latin-hypercube sampling with N points.")
  in
  let corners_arg =
    Arg.(
      value & flag
      & info [ "corners" ]
          ~doc:"Evaluate all 2^k corner combinations of the axis bounds.")
  in
  let grid_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "grid" ] ~docv:"N"
          ~doc:"Full cartesian grid, N points per axis.")
  in
  let measure_arg =
    Arg.(
      value & opt_all string []
      & info [ "measure" ] ~docv:"NAME"
          ~doc:
            "Performance measure to summarize (dc_gain, dc_gain_db, \
             dominant_pole_hz, unity_gain_frequency, phase_margin, \
             delay_50, rise_time, elmore_delay, or m0, m1, ...).  \
             Repeatable; default dc_gain, dominant_pole_hz, delay_50.")
  in
  let spec_arg =
    spec_arg
      "Yield requirement, e.g. 'delay_50<=1e-9' or 'dc_gain>=0.5'.  \
       Repeatable; the overall yield is the fraction of points passing \
       every spec."
  in
  let seed_arg =
    seed_arg
      "Obs.Rng seed for the sampling stream; recorded in the JSON report \
       so runs are reproducible."
  in
  let block_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "block" ] ~docv:"N"
          ~doc:"Batch kernel block size (default 256 lanes).")
  in
  let json_arg = json_arg "Write the machine-readable sweep report here ('-' = stdout)." in
  let on_fault_arg =
    Arg.(
      value & opt string "skip"
      & info [ "on-fault" ] ~docv:"POLICY"
          ~doc:
            "What a failing point does to the sweep: 'fail_fast' aborts, \
             'skip' (default) quarantines the point into failed_points and \
             keeps going, 'retry' / 'retry:N' re-attempts N times (default \
             2) with Pad\xc3\xa9 order reduction before quarantining.")
  in
  let checkpoint_args =
    checkpoint_args
      ~checkpoint:
        "Record completed chunks in FILE (atomically) so an interrupted \
         sweep can be resumed with --resume."
      ~resume:
        "Restore completed chunks from --checkpoint FILE and evaluate only \
         the remainder; the report is byte-identical to an uninterrupted \
         run."
  in
  let worker_addr_arg =
    Arg.(
      value & opt_all string []
      & info [ "worker-addr" ] ~docv:"ADDR"
          ~doc:
            "Coordinator mode: evaluate chunks on the serving daemon at \
             ADDR (unix:PATH or tcp:HOST:PORT).  Repeatable, one worker \
             per address; the merged report is byte-identical to a local \
             run at any worker count, and the sweep survives worker loss \
             (see docs/PARALLELISM.md).  Requires --model.")
  in
  let chunk_timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "chunk-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Distributed mode: deadline per chunk RPC; an expired chunk \
             is released and retried.")
  in
  let dist_retries_arg =
    Arg.(
      value & opt int 3
      & info [ "dist-retries" ] ~docv:"N"
          ~doc:
            "Distributed mode: consecutive transient failures before a \
             worker is declared dead; the survivors take the remaining \
             chunks.")
  in
  let doc =
    "Statistical sweep of a compiled model: Monte-Carlo, Latin-hypercube, \
     corner, or grid plans over element distributions, evaluated through \
     the batched SLP kernel into summaries and yield, with per-point fault \
     isolation, checkpoint/resume, and fault-tolerant distributed \
     execution over serving daemons (--worker-addr)."
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ runtime_args $ model_source_arg $ vary_arg $ mc_arg $ lhs_arg
      $ corners_arg $ grid_arg $ measure_arg $ spec_arg $ seed_arg $ block_arg
      $ json_arg $ on_fault_arg $ checkpoint_args $ worker_addr_arg
      $ chunk_timeout_arg $ dist_retries_arg)

let moments_cmd =
  let run obs deck count =
    with_obs obs @@ fun () ->
    let nl = or_die (read_netlist deck) in
    let mna = Circuit.Mna.build nl in
    let m = Awe.Moments.output_moments (Awe.Moments.compute ~count mna) in
    Array.iteri (fun k mk -> Printf.printf "m%-2d = %.12g\n" k mk) m
  in
  let count_arg =
    Arg.(value & opt int 8 & info [ "count"; "n" ] ~doc:"Number of moments.")
  in
  let doc = "Raw circuit moments of the designated output." in
  Cmd.v (Cmd.info "moments" ~doc)
    Term.(const run $ obs_args $ deck_arg $ count_arg)

(* ------------------------------------------------------------------ *)
(* Serving: the evaluation daemon and its client *)

let binary_version = "1.1.0"

(* Every schema this binary speaks, one place.  `awesym --version` prints
   the inventory, `awesym serve` answers it to pings, and mismatched
   peers reject each other by schema string — so version skew between a
   daemon and its clients is diagnosable from either end. *)
let version_inventory =
  [
    ("awesym", binary_version);
    ("artifact", "v" ^ string_of_int Awesymbolic.Artifact.version);
    ("kernel", Codegen.schema);
    ("sweep", Sweep.Engine.schema);
    ("opt", Opt.Request.schema);
    ("serve", Serve.Protocol.schema);
    ("reqtrace", Serve.Reqtrace.schema);
  ]

(* cmdliner's formatter wraps at ~78 columns but only breaks at spaces,
   so the whole string is one space-free token: the "one greppable line"
   property survives however many schemas accumulate. *)
let version_string =
  Printf.sprintf "awesym/%s(%s)" binary_version
    (String.concat ";"
       (List.filter_map
          (fun (k, v) ->
            if k = "awesym" then None
            else if k = "artifact" then Some (k ^ "-" ^ v)
            else Some v)
          version_inventory))

let socket_arg =
  let doc =
    "Daemon address: unix:PATH, tcp:HOST:PORT, or a bare Unix socket path."
  in
  Arg.(
    value
    & opt string ".awesym.sock"
    & info [ "socket" ] ~docv:"ADDR" ~doc)

let deadline_arg doc =
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let or_fail = function Ok v -> v | Error e -> die (Awesym_error.to_string e)

(* Connect to the daemon at [addr] and close the connection after [f].
   The connect retries with backoff: `call` right after `serve &` races
   the daemon's bind, and a restarting daemon is a transient, not an
   error worth surfacing. *)
let with_daemon addr f =
  let c = or_fail (Serve.Client.connect_retry addr) in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let serve_cmd =
  let run backend listen workers max_batch linger_ms
      worker_queue client_inflight max_models gc_mb trace_log
      trace_log_max_mb =
    set_runtime None backend;
    if max_batch < 1 || linger_ms < 0.0 then
      die "serve: --max-batch must be >= 1, --linger-ms >= 0";
    if workers < 1 || worker_queue < 1 || client_inflight < 1 then
      die "serve: --workers, --worker-queue and --client-inflight must be >= 1";
    if trace_log_max_mb < 1 then die "serve: --trace-log-max-mb must be >= 1";
    let listen_addr =
      match Serve.Transport.parse listen with
      | Ok a -> a
      | Error e -> die (Awesym_error.to_string e)
    in
    let config =
      {
        Serve.Server.listen = listen_addr;
        workers;
        batch = { Serve.Batcher.max_batch; linger_s = linger_ms /. 1e3 };
        admission = { Serve.Admission.per_client_inflight = client_inflight };
        worker_queue;
        max_models;
        cache_gc_bytes =
          (if gc_mb <= 0 then None else Some (gc_mb * 1024 * 1024));
        versions = version_inventory;
        trace_log;
        trace_log_max_bytes = trace_log_max_mb * 1024 * 1024;
        trace_capacity = 256;
      }
    in
    try Serve.Server.run ~log:prerr_endline config with
    | Unix.Unix_error (e, _, _) ->
      die (Printf.sprintf "serve: cannot bind %s: %s" listen
             (Unix.error_message e))
    | Awesym_error.Error e -> die (Awesym_error.to_string e)
  in
  let listen_arg =
    let doc =
      "Listen address: unix:PATH, tcp:HOST:PORT (tcp:HOST:0 binds an \
       ephemeral port, logged at startup), or a bare Unix socket path. \
       $(b,--socket) is an alias."
    in
    Arg.(
      value
      & opt string ".awesym.sock"
      & info [ "listen"; "socket" ] ~docv:"ADDR" ~doc)
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains; each owns a private model registry and \
             micro-batcher, and each model-bound request goes to the \
             worker with the fewest requests in flight.")
  in
  let worker_queue_arg =
    Arg.(
      value & opt int 1024
      & info [ "worker-queue" ] ~docv:"N"
          ~doc:
            "Per-worker backlog bound: requests admitted to a worker and \
             not yet answered.  When every worker is at the bound, \
             requests shed with an `overloaded` error.")
  in
  let client_inflight_arg =
    Arg.(
      value
      & opt int Serve.Admission.default_config.Serve.Admission.per_client_inflight
      & info [ "client-inflight" ] ~docv:"N"
          ~doc:
            "Per-connection in-flight request cap; a pipelining client \
             beyond it sheds `overloaded` while other clients keep \
             flowing.")
  in
  let max_batch_arg =
    Arg.(
      value & opt int Serve.Batcher.default_config.Serve.Batcher.max_batch
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Pending points that force an immediate flush.")
  in
  let linger_arg =
    Arg.(
      value & opt float 2.0
      & info [ "linger-ms" ] ~docv:"MS"
          ~doc:
            "How long the oldest queued request waits for company before \
             its batch flushes.")
  in
  let max_models_arg =
    Arg.(
      value & opt int 8
      & info [ "max-models" ] ~docv:"N"
          ~doc:"Resident compiled models (LRU beyond this).")
  in
  let gc_arg =
    Arg.(
      value & opt int 256
      & info [ "cache-gc-mb" ] ~docv:"MB"
          ~doc:
            "Run `cache gc` with this budget at startup so an unattended \
             daemon bounds what it inherits from past compiles; 0 skips.")
  in
  let trace_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-log" ] ~docv:"FILE"
          ~doc:
            "Append each completed request trace as one JSONL line here \
             (schema awesymbolic-reqtrace/1, floats as IEEE-754 hex bits); \
             rotated to FILE.1 past --trace-log-max-mb.")
  in
  let trace_log_max_arg =
    Arg.(
      value & opt int 16
      & info [ "trace-log-max-mb" ] ~docv:"MB"
          ~doc:"Trace-log size that triggers rotation.")
  in
  let doc =
    "Run the model-serving daemon: a persistent process that keeps \
     compiled artifacts resident in sharded worker domains (Unix socket \
     or TCP, see --listen) and coalesces concurrent evaluation requests \
     into micro-batched kernel calls.  Results are bit-identical to \
     offline `awesym eval` at any worker count.  SIGTERM drains \
     gracefully."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ backend_arg $ listen_arg $ workers_arg
      $ max_batch_arg $ linger_arg $ worker_queue_arg
      $ client_inflight_arg $ max_models_arg $ gc_arg $ trace_log_arg
      $ trace_log_max_arg)

let call_cmd =
  let run socket model_path bindings show_moments deadline_ms ping stats
      metrics traces_n trace_id shutdown =
    let daemon f = with_daemon socket (fun c -> or_fail (f c)) in
    if ping then begin
      let versions = daemon Serve.Client.ping in
      print_endline "pong";
      List.iter (fun (k, v) -> Printf.printf "  %s %s\n" k v) versions
    end
    else if stats then print_endline (Obs.Json.to_string (daemon Serve.Client.stats))
    else if metrics then print_string (daemon Serve.Client.metrics)
    else if traces_n <> None then
      List.iter
        (fun tr -> print_endline (Obs.Json.to_string tr))
        (daemon (Serve.Client.traces ~limit:(Option.get traces_n)))
    else if shutdown then begin
      daemon Serve.Client.shutdown;
      print_endline "draining"
    end
    else begin
      let model_path =
        match model_path with
        | Some p -> p
        | None -> die "need --model PATH (an artifact path on the server)"
      in
      let trace =
        Option.map
          (fun id ->
            let id =
              if id = "" then Serve.Client.new_trace_id () else id
            in
            (* On stderr so stdout stays byte-identical to offline eval. *)
            Printf.eprintf "trace_id %s\n%!" id;
            { Serve.Protocol.trace_id = id; parent_span = "awesym.call" })
          trace_id
      in
      with_daemon socket @@ fun c ->
      let info = or_fail (Serve.Client.info c model_path) in
      let names = info.Serve.Protocol.symbols in
      let v =
        point_of_bindings ~names ~nominals:info.Serve.Protocol.nominals
          bindings
      in
      let r =
        or_fail (Serve.Client.eval c ?trace ?deadline_ms ~model:model_path [| v |])
      in
      print_point_eval ~model_path ~order:r.Serve.Protocol.order ~names
        ~values:v
        ~moments:r.Serve.Protocol.moments.(0)
        ~show_moments
    end
  in
  let server_model_arg =
    let doc = "Artifact path, resolved on the server." in
    Arg.(value & opt (some string) None & info [ "model"; "m" ] ~docv:"PATH" ~doc)
  in
  let deadline_arg =
    deadline_arg
      "Relative deadline; the server answers a `timeout` error instead of \
       evaluating once it expires."
  in
  let ping_arg =
    Arg.(value & flag
         & info [ "ping" ] ~doc:"Liveness probe: print the server's versions.")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Print the server's metrics snapshot as JSON.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the server's metric surface in Prometheus text \
             exposition format (counters, gauges, latency quantiles).")
  in
  let traces_arg =
    Arg.(
      value
      & opt ~vopt:(Some 16) (some int) None
      & info [ "traces" ] ~docv:"N"
          ~doc:
            "Print the server's N most recent completed request traces, \
             one JSON object per line (default 16).")
  in
  let trace_id_arg =
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "trace-id" ] ~docv:"ID"
          ~doc:
            "Attach a trace context to the evaluation so it can be found \
             in the server's trace ring / --trace-log.  With no ID a \
             fresh one is generated; either way it is echoed on stderr.")
  in
  let shutdown_arg =
    Arg.(value & flag
         & info [ "shutdown" ] ~doc:"Ask the server to drain and exit.")
  in
  let doc =
    "Call a running `awesym serve` daemon.  The default operation \
     evaluates a model at symbol values and prints exactly what offline \
     `awesym eval` prints — floats cross the wire as IEEE-754 bit \
     patterns, so the outputs are byte-identical."
  in
  Cmd.v (Cmd.info "call" ~doc)
    Term.(
      const run $ socket_arg $ server_model_arg $ bindings_arg $ moments_arg
      $ deadline_arg $ ping_arg $ stats_arg $ metrics_arg $ traces_arg
      $ trace_id_arg $ shutdown_arg)

let top_cmd =
  let module J = Obs.Json in
  (* Pull a number out of a nested stats payload; absent fields render
     as 0 rather than failing, so `top` works across schema growth. *)
  let rec path j = function
    | [] -> Some j
    | name :: rest -> (
      match J.member name j with Some j' -> path j' rest | None -> None)
  in
  let num j p = match path j p with Some (J.Num v) -> v | _ -> 0.0 in
  let render socket s =
    let lat p = num s [ "metrics"; "histograms"; "serve.latency_us"; p ] in
    Printf.printf "awesym top — %s   uptime %.1fs\n" socket
      (num s [ "uptime_s" ]);
    Printf.printf "requests %12.0f   points %12.0f   qps %10.1f\n"
      (num s [ "requests" ]) (num s [ "points" ]) (num s [ "qps" ]);
    Printf.printf
      "queue_depth %8.0f   inflight %8.0f   resident_models %4.0f   \
       batches %8.0f\n"
      (num s [ "gauges"; "serve.queue_depth" ])
      (num s [ "gauges"; "batcher.inflight" ])
      (num s [ "gauges"; "registry.resident_models" ])
      (num s [ "batches" ]);
    Printf.printf
      "registry hit/miss/evict %.0f/%.0f/%.0f   rejected \
       timeout/overloaded %.0f/%.0f   traces %.0f\n"
      (num s [ "registry"; "hit" ])
      (num s [ "registry"; "miss" ])
      (num s [ "registry"; "evict" ])
      (num s [ "rejected"; "timeout" ])
      (num s [ "rejected"; "overloaded" ])
      (num s [ "traces_completed" ]);
    let n = num s [ "metrics"; "histograms"; "serve.latency_us"; "count" ] in
    if n > 0.0 then
      Printf.printf
        "latency_us p50 %10.1f   p90 %10.1f   p99 %10.1f   (n=%.0f)\n"
        (lat "p50") (lat "p90") (lat "p99") n;
    print_newline ()
  in
  let run socket interval count =
    let once () =
      with_daemon socket @@ fun c -> render socket (or_fail (Serve.Client.stats c))
    in
    match interval with
    | None -> once ()
    | Some dt ->
      if dt <= 0.0 then die "top: --interval must be > 0";
      let remaining = ref count in
      while !remaining <> 0 do
        once ();
        if !remaining > 0 then decr remaining;
        if !remaining <> 0 then Unix.sleepf dt
      done
  in
  let interval_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "interval"; "i" ] ~docv:"SECONDS"
          ~doc:"Refresh every SECONDS instead of printing once.")
  in
  let count_arg =
    Arg.(
      value & opt int (-1)
      & info [ "count"; "n" ] ~docv:"N"
          ~doc:"With --interval, stop after N refreshes (default: forever).")
  in
  let doc =
    "Human one-shot (or --interval) view of a running daemon's occupancy \
     and latency: requests, queue depth, in-flight batches, resident \
     models, and latency quantiles — the same data `awesym call --stats` \
     and `--metrics` expose machine-readably."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const run $ socket_arg $ interval_arg $ count_arg)

let cache_cmd =
  let gc =
    let run max_mb dir =
      let stats =
        try Awesymbolic.Cache.gc ?dir ~max_bytes:(max_mb * 1024 * 1024) ()
        with Invalid_argument msg -> die msg
      in
      Printf.printf
        "cache gc: scanned %d entries, deleted %d; %d -> %d bytes (budget \
         %d MiB)\n"
        stats.Awesymbolic.Cache.scanned stats.Awesymbolic.Cache.deleted
        stats.Awesymbolic.Cache.bytes_before stats.Awesymbolic.Cache.bytes_after
        max_mb
    in
    let max_mb_arg =
      Arg.(
        value & opt int 256
        & info [ "max-mb" ] ~docv:"MB"
            ~doc:"Size budget; oldest entries beyond it are deleted.")
    in
    let dir_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "dir" ] ~docv:"DIR"
            ~doc:
              "Cache directory (default: \\$AWESYM_CACHE_DIR, else \
               .awesym-cache).")
    in
    let doc =
      "Evict oldest-used model-cache entries until the cache fits a size \
       budget.  Deletion is atomic per entry; a concurrent compile is \
       never corrupted.  `awesym serve` runs this at startup."
    in
    Cmd.v (Cmd.info "gc" ~doc) Term.(const run $ max_mb_arg $ dir_arg)
  in
  let doc = "Operate on the content-addressed model cache." in
  Cmd.group (Cmd.info "cache" ~doc) [ gc ]

(* ------------------------------------------------------------------ *)
(* Optimization: sizing and yield maximization (see docs/OPTIMIZE.md) *)

let optimize_cmd =
  (* The human rendering of the typed report: a local run and a --remote
     one (whose report is decoded from the daemon's reply) print the same
     bytes. *)
  let print_values =
    List.iter (fun (name, x) -> Printf.printf "  %-20s = %g\n" name x)
  in
  let print_report = function
    | Opt.Request.Size_report r ->
      let starts = List.length r.runs in
      Printf.printf "optimize size: status %s (best of %d start%s: restart %d)\n"
        (Opt.Sizing.status_name r.status) starts
        (if starts = 1 then "" else "s")
        r.best;
      Option.iter
        (fun (b : Opt.Sizing.restart) ->
          Printf.printf "objective %.6g after %d accepted steps, %d evaluations\n"
            r.objective b.iters b.evals)
        (List.nth_opt r.runs r.best);
      print_newline ();
      print_endline "sized variables:";
      print_values r.variables;
      if r.measures <> [] then begin
        print_newline ();
        print_endline "measures at the sized point:";
        print_values r.measures
      end
    | Opt.Request.Yield_report r ->
      Printf.printf "optimize yield: %d points/iteration, seed %d\n" r.points r.seed;
      print_newline ();
      Printf.printf "%6s %10s %10s %10s\n" "iter" "yield" "passing" "survivors";
      List.iter
        (fun (i : Opt.Recenter.iteration) ->
          Printf.printf "%6d %9.2f%% %10d %10d\n" i.it (100.0 *. i.yield) i.passing
            i.survivors)
        r.iterations;
      print_newline ();
      Printf.printf "yield %.2f%% -> %.2f%% (%s)\n" (100.0 *. r.initial_yield)
        (100.0 *. r.final_yield)
        (if r.improved then "improved" else "not improved");
      print_endline "re-centered sampling axes:";
      List.iter print_axis r.final_axes
  in
  let run rt (model_path, load) mode varies specs goal area_weight penalty_weight
      seed restarts iters step tol points shrink require json_path
      ((checkpoint, resume) as ckpt) remote deadline_ms =
    with_runtime rt @@ fun () ->
    let specs = parse_specs specs in
    let goal = Option.map (fun g -> or_die (Opt.Objective.goal_of_string g)) goal in
    check_resume ckpt;
    (* Axes resolve against symbol names/nominals; pct varies need the
       nominal, which comes from the local model or the daemon's info. *)
    let request_of ~names ~nominals =
      let axes = axes_of_varies ~names ~nominals varies in
      match mode with
      | `Size ->
        let objective =
          Opt.Objective.make ?goal ~area_weight ~penalty_weight ~specs ()
        in
        let cfg = Opt.Sizing.default_config ~axes objective in
        Opt.Request.Size
          {
            cfg with
            Opt.Sizing.seed;
            restarts;
            max_iters = Option.value iters ~default:cfg.Opt.Sizing.max_iters;
            step0 = step;
            tol;
          }
      | `Yield ->
        let cfg = Opt.Recenter.default_config ~axes ~specs in
        Opt.Request.Yield
          {
            cfg with
            Opt.Recenter.points;
            iters = Option.value iters ~default:cfg.Opt.Recenter.iters;
            shrink;
            seed;
          }
    in
    let report =
      match remote with
      | Some addr ->
        if checkpoint <> None || resume then
          die "--checkpoint/--resume run locally; drop them with --remote";
        let model_path =
          match model_path with
          | Some p -> p
          | None -> die "--remote needs --model PATH (resolved on the server)"
        in
        with_daemon addr @@ fun c ->
        let info = or_fail (Serve.Client.info c model_path) in
        let req =
          request_of ~names:info.Serve.Protocol.symbols
            ~nominals:info.Serve.Protocol.nominals
        in
        let reply =
          or_fail
            (Serve.Client.optimize c
               {
                 Serve.Protocol.op_model = model_path;
                 op_request = Opt.Request.to_json req;
                 op_deadline_ms = deadline_ms;
               })
        in
        Opt.Request.report_of_json reply.Serve.Protocol.or_report
      | None ->
        let model = load () in
        let req =
          request_of ~names:(symbol_names model)
            ~nominals:(Awesymbolic.Model.nominal_values model)
        in
        Opt.Request.run ?checkpoint ~resume model req
    in
    print_report report;
    write_json ~what:"optimization report" json_path (Opt.Request.report_to_json report);
    Opt.Request.check_require ~require report
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("size", `Size); ("yield", `Yield) ]) `Size
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "$(b,size) (default): projected-gradient sizing of the --vary \
             symbols against --goal/--spec.  $(b,yield): iteratively \
             re-center the --vary sampling distributions toward the --spec \
             region to maximize Monte-Carlo yield.")
  in
  let vary_arg =
    vary_arg
      "Design variable and its range: NAME=pct:P, NAME=uniform:LO:HI, \
       NAME=normal:MEAN:STD, or NAME=lognormal:MU:SIGMA.  In size mode the \
       distribution's bounds become the box constraints; in yield mode it \
       is the sampling distribution.  Repeatable; default: every symbol at \
       pct:20."
  in
  let spec_arg =
    spec_arg
      "Design requirement, e.g. 'phase_margin>=60'.  Repeatable.  Size mode \
       penalizes violations (squared normalized hinge); yield mode \
       re-centers toward points passing every spec."
  in
  let goal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "goal" ] ~docv:"DIR:MEASURE"
          ~doc:
            "Size-mode scalar goal, e.g. 'minimize:delay_50' or \
             'maximize:unity_gain_frequency'.")
  in
  let area_weight_arg =
    Arg.(
      value & opt float 0.0
      & info [ "area-weight" ] ~docv:"W"
          ~doc:
            "Size mode: weight of the area proxy (sum of |value|/|nominal| \
             over the varied symbols).")
  in
  let penalty_weight_arg =
    Arg.(
      value & opt float 1.0
      & info [ "penalty-weight" ] ~docv:"W"
          ~doc:"Size mode: weight of the squared spec-violation hinges.")
  in
  let seed_arg =
    seed_arg
      "Obs.Rng seed for restart starting points (size) or sweep sampling \
       (yield); recorded in the report."
  in
  let restarts_arg =
    Arg.(
      value & opt int 0
      & info [ "restarts" ] ~docv:"N"
          ~doc:
            "Size mode: extra seeded starting points beyond the nominal \
             one; the best run wins.")
  in
  let iters_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "iters" ] ~docv:"N"
          ~doc:
            "Iteration budget: accepted descent steps per restart (size, \
             default 50) or re-centering iterations (yield, default 4).")
  in
  let step_arg =
    Arg.(
      value & opt float 0.25
      & info [ "step" ] ~docv:"S"
          ~doc:"Size mode: initial normalized step length (axes map to \
                [0,1]).")
  in
  let tol_arg =
    Arg.(
      value & opt float 1e-6
      & info [ "tol" ] ~docv:"T"
          ~doc:
            "Size mode: convergence tolerance on the projected-gradient \
             infinity norm in normalized coordinates.")
  in
  let points_arg =
    Arg.(
      value & opt int 1000
      & info [ "points" ] ~docv:"N"
          ~doc:"Yield mode: Monte-Carlo points per iteration.")
  in
  let shrink_arg =
    Arg.(
      value & opt float 1.0
      & info [ "shrink" ] ~docv:"F"
          ~doc:
            "Yield mode: per-iteration width/sigma multiplier in (0, 1] \
             (cross-entropy style contraction; 1 = re-center only).")
  in
  let require_arg =
    Arg.(
      value & flag
      & info [ "require-convergence" ]
          ~doc:
            "Size mode: exit with a classified max_iters / no_descent \
             error when the best restart did not converge (the trajectory \
             is still written to --checkpoint/--json first).")
  in
  let json_arg =
    json_arg
      "Write the machine-readable optimization report (schema \
       awesymbolic-opt/1, floats also as IEEE-754 hex bits) here ('-' = \
       stdout).  Byte-identical across --jobs counts, --backend choices, \
       and local vs --remote execution."
  in
  let checkpoint_args =
    checkpoint_args
      ~checkpoint:
        "Record completed restarts/iterations in FILE (atomically, .opt \
         extension recommended — `cache gc` ages them out) so an \
         interrupted optimization resumes with --resume."
      ~resume:
        "Restore completed units from --checkpoint FILE and compute only \
         the remainder; the report is byte-identical to an uninterrupted \
         run."
  in
  let remote_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "remote" ] ~docv:"ADDR"
          ~doc:
            "Run the optimization on the serving daemon at ADDR (unix:PATH \
             or tcp:HOST:PORT) instead of locally; requires --model with a \
             server-side artifact path.  The report bytes are identical to \
             a local run.")
  in
  let deadline_arg =
    deadline_arg
      "With --remote: relative deadline; the server answers a `timeout` \
       error instead of starting once it expires."
  in
  let doc =
    "Closed-loop design on a compiled model: gradient-based sizing \
     (adjoint sensitivities through the exact compiled Jacobian, \
     projected-gradient descent with Armijo line search, deterministic \
     seeded restarts) or Monte-Carlo yield maximization (iterative \
     re-centering of the sampling distributions toward the spec region \
     through the batched sweep engine).  Reports are byte-identical \
     across --jobs, --backend, and local vs --remote runs; see \
     docs/OPTIMIZE.md."
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(
      const run $ runtime_args $ model_source_arg $ mode_arg $ vary_arg $ spec_arg
      $ goal_arg $ area_weight_arg $ penalty_weight_arg $ seed_arg
      $ restarts_arg $ iters_arg $ step_arg $ tol_arg $ points_arg
      $ shrink_arg $ require_arg $ json_arg $ checkpoint_args $ remote_arg
      $ deadline_arg)

let () =
  let doc = "compiled symbolic circuit analysis via asymptotic waveform evaluation" in
  let info = Cmd.info "awesym" ~version:version_string ~doc in
  exit (Cmd.eval (Cmd.group info
    [ awe_cmd; symbolic_cmd; exact_cmd; ac_cmd; tran_cmd; rank_cmd; linearize_cmd;
      distortion_cmd; sens_cmd; validate_cmd; macromodel_cmd; noise_cmd;
      moments_cmd; compile_cmd; eval_cmd; sweep_cmd; optimize_cmd; serve_cmd;
      call_cmd; top_cmd; cache_cmd ]))
