(* Tests for the optimizer subsystem: exact adjoint gradients against
   central finite differences on random RC/RLC ladders (the qcheck
   property backing the sensitivity machinery), sizing trajectory
   monotonicity and determinism, yield re-centering improvement, the
   request/report wire layer (round-trips, jobs-invariance,
   checkpoint/resume byte-identity), the non-convergence error kinds,
   and the cache gc sweeping orphaned [.opt] trajectories. *)

module Sym = Symbolic.Symbol
module Netlist = Circuit.Netlist
module Builders = Circuit.Builders
module Model = Awesymbolic.Model
module Cache = Awesymbolic.Cache
module Dist = Sweep.Dist
module Plan = Sweep.Plan
module Engine = Sweep.Engine
module Json = Obs.Json
module Err = Awesym_error
module Objective = Opt.Objective
module Sizing = Opt.Sizing
module Recenter = Opt.Recenter
module Request = Opt.Request

(* A run's report as the JSON it is written as. *)
let run_report ?jobs ?checkpoint ?resume model req =
  Request.report_to_json (Request.run ?jobs ?checkpoint ?resume model req)

let fig1_c1_g2 () =
  let nl = Builders.fig1 () in
  let nl = Netlist.mark_symbolic nl "C1" (Sym.intern "C1") in
  Netlist.mark_symbolic nl "G2" (Sym.intern "G2")

let fig1_model = lazy (Model.build ~order:2 (fig1_c1_g2 ()))

let axes_around ?(pct = 50.0) model =
  let nominals = Model.nominal_values model in
  Array.to_list
    (Array.mapi
       (fun k s ->
         { Plan.name = Sym.name s;
           dist = Dist.around ~nominal:nominals.(k) ~pct })
       (Model.symbols model))

(* ------------------------------------------------------------------ *)
(* Gradients vs central finite differences on random ladders.

   The analytic gradient path (compiled sensitivity Jacobian + chain
   rule / moment-space differencing, see {!Opt.Objective}) must agree
   with a central difference of the objective value itself.  Decks are
   random RC and RLC ladders with element values spread over several
   decades and one or two elements marked symbolic, so the Jacobian
   columns cover both conductance- and capacitance-like scales. *)

(* All randomness is drawn as small ints and mapped to floats here, so
   qcheck's integer shrinkers apply and counterexamples print as the
   actual deck parameters. *)
let gen_ladder_case =
  QCheck2.Gen.(
    let unit k = float_of_int k /. 100.0 in
    let* rlc = bool in
    let* sections = int_range 1 3 in
    let* ru = int_range 0 100 in
    let* cu = int_range 0 100 in
    let* lu = int_range 0 100 in
    let* two_syms = bool in
    let* sym_section = int_range 1 sections in
    (* Evaluate slightly off-nominal so nothing sits on a symmetry. *)
    let* s0 = int_range 0 100 in
    let* s1 = int_range 0 100 in
    let* aw = int_range 0 50 in
    let r = 10.0 *. (1000.0 ** unit ru) in
    let c = 1e-12 *. (1000.0 ** unit cu) in
    let l = 1e-9 *. (1000.0 ** unit lu) in
    let scale0 = 0.8 +. (0.4 *. unit s0) in
    let scale1 = 0.8 +. (0.4 *. unit s1) in
    let area_w = unit aw in
    return (rlc, sections, r, c, l, two_syms, sym_section, scale0, scale1, area_w))

let prop_grad_matches_fd =
  QCheck2.Test.make ~name:"gradient matches central finite differences"
    ~count:60 gen_ladder_case
    (fun (rlc, sections, r, c, l, two_syms, sym_section, scale0, scale1, area_w)
    ->
      let nl =
        if rlc then Builders.rlc_ladder ~sections ~r ~l ~c ()
        else Builders.rc_ladder ~sections ~r ~c ()
      in
      let cname = Printf.sprintf "C%d" sym_section in
      let rname = Printf.sprintf "R%d" sym_section in
      let nl = Netlist.mark_symbolic nl cname (Sym.intern cname) in
      let nl =
        if two_syms then Netlist.mark_symbolic nl rname (Sym.intern rname)
        else nl
      in
      match Model.build ~order:(if rlc then 3 else 2) nl with
      | exception Numeric.Lu.Singular _ ->
        (* A degenerate parameter combination (e.g. extreme L/C ratios
           at order 3) has no model to differentiate — skip, the same
           way the sweep engine quarantines singular points. *)
        true
      | model ->
      let objective =
        Objective.make
          ~goal:(Objective.Minimize Engine.Elmore_delay)
          ~area_weight:area_w ()
      in
      let n = Array.length (Model.symbols model) in
      let free = Array.init n Fun.id in
      let v = Array.copy (Model.nominal_values model) in
      v.(0) <- v.(0) *. scale0;
      if n > 1 then v.(1) <- v.(1) *. scale1;
      let f0, g = Objective.value_grad objective model ~free v in
      if not (Float.is_finite f0) then
        QCheck2.Test.fail_report "objective not finite at the test point";
      Array.iteri
        (fun j gj ->
          let h = 1e-5 *. Float.abs v.(j) in
          let probe x =
            let w = Array.copy v in
            w.(j) <- x;
            Objective.value objective model ~free w
          in
          let fd = (probe (v.(j) +. h) -. probe (v.(j) -. h)) /. (2.0 *. h) in
          let scale = Float.max (Float.abs fd) (Float.abs gj) in
          let err = Float.abs (gj -. fd) in
          if Float.is_nan fd || err > 1e-3 *. Float.max scale 1e-30 then
            QCheck2.Test.fail_reportf
              "grad[%d] = %.12g but central difference = %.12g (deck %s x%d)"
              j gj fd
              (if rlc then "rlc" else "rc")
              sections)
        g;
      true)

(* ------------------------------------------------------------------ *)
(* Sizing: trajectory shape and determinism *)

let sizing_config ?(restarts = 2) ?(max_iters = 30) model =
  let objective =
    Objective.make ~goal:(Objective.Minimize Engine.Elmore_delay) ()
  in
  {
    (Sizing.default_config ~axes:(axes_around model) objective) with
    Sizing.restarts;
    max_iters;
  }

let test_sizing_monotone () =
  let model = Lazy.force fig1_model in
  let result = Sizing.run model (sizing_config model) in
  Alcotest.(check int) "one nominal + two seeded starts" 3
    (List.length result.Sizing.runs);
  List.iter
    (fun (run : Sizing.restart) ->
      let fs = List.map (fun s -> s.Sizing.f) run.Sizing.steps in
      let rec monotone = function
        | a :: (b :: _ as rest) ->
          if b > a then
            Alcotest.failf "restart %d: objective rose %.12g -> %.12g"
              run.Sizing.index a b;
          monotone rest
        | _ -> ()
      in
      monotone fs;
      (match fs with
      | last_first :: _ ->
        Alcotest.(check (float 0.0))
          "head of trajectory is the starting objective" last_first
          (match run.Sizing.steps with s :: _ -> s.Sizing.f | [] -> nan)
      | [] -> Alcotest.fail "empty trajectory");
      if run.Sizing.evals <= 0 then Alcotest.fail "no evaluations recorded")
    result.Sizing.runs;
  (* The best index really is the argmin of final objectives. *)
  let finals = List.map (fun r -> r.Sizing.final_f) result.Sizing.runs in
  let best_f = List.nth finals result.Sizing.best in
  List.iter
    (fun f -> if f < best_f then Alcotest.fail "best is not the argmin")
    finals;
  (* Determinism: the same config replays to the same trajectories. *)
  let again = Sizing.run model (sizing_config model) in
  List.iter2
    (fun (a : Sizing.restart) (b : Sizing.restart) ->
      Alcotest.(check int) "same iters" a.Sizing.iters b.Sizing.iters;
      Alcotest.(check bool) "same final bits" true
        (Int64.bits_of_float a.Sizing.final_f
        = Int64.bits_of_float b.Sizing.final_f))
    result.Sizing.runs again.Sizing.runs

(* ------------------------------------------------------------------ *)
(* Yield re-centering: strict improvement on a binding spec *)

let test_yield_improves () =
  let model = Lazy.force fig1_model in
  let nominals = Model.nominal_values model in
  (* A spec that roughly half the seed population fails: Elmore delay
     no worse than its nominal value.  Re-centering (with shrink) must
     concentrate the distributions in the passing region. *)
  let e0 =
    match Engine.point_measures model [ Engine.Elmore_delay ] nominals with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected one measure"
  in
  let axes =
    Array.to_list
      (Array.mapi
         (fun k s ->
           { Plan.name = Sym.name s;
             dist =
               Dist.normal ~mean:nominals.(k) ~std:(0.15 *. nominals.(k)) })
         (Model.symbols model))
  in
  let specs = [ { Engine.measure = Engine.Elmore_delay; bound = Engine.Le e0 } ] in
  let config =
    {
      (Recenter.default_config ~axes ~specs) with
      Recenter.points = 400;
      iters = 3;
      shrink = 0.8;
    }
  in
  let result = Recenter.run model config in
  let y0 = Recenter.initial_yield result in
  let y1 = Recenter.final_yield result in
  if y0 <= 0.05 || y0 >= 0.95 then
    Alcotest.failf "spec is not binding: initial yield %.3f" y0;
  if y1 <= y0 then Alcotest.failf "yield did not improve: %.3f -> %.3f" y0 y1;
  Alcotest.(check int) "seed sweep + 3 iterations" 4
    (List.length result.Recenter.history)

(* ------------------------------------------------------------------ *)
(* Request layer: round-trips, jobs-invariance, checkpoint/resume *)

let yield_request model =
  let nominals = Model.nominal_values model in
  let e0 =
    match Engine.point_measures model [ Engine.Elmore_delay ] nominals with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected one measure"
  in
  Request.Yield
    {
      (Recenter.default_config ~axes:(axes_around ~pct:30.0 model)
         ~specs:[ { Engine.measure = Engine.Elmore_delay; bound = Engine.Le e0 } ])
      with
      Recenter.points = 200;
      iters = 2;
    }

let test_request_round_trip () =
  let model = Lazy.force fig1_model in
  let reqs =
    [ Request.Size (sizing_config model); yield_request model ]
  in
  List.iter
    (fun req ->
      let j = Request.to_json req in
      let j2 = Request.to_json (Request.of_json j) in
      Alcotest.(check string) "request JSON round-trips" (Json.to_string j)
        (Json.to_string j2);
      (* The checkpoint key binds the request: distinct requests get
         distinct keys, the same request replays the same key. *)
      Alcotest.(check string) "key is stable" (Request.key model req)
        (Request.key model (Request.of_json j)))
    reqs;
  Alcotest.(check bool) "distinct requests, distinct keys" false
    (Request.key model (List.nth reqs 0) = Request.key model (List.nth reqs 1));
  (* A report that does not carry the schema is refused. *)
  match Request.of_json (Json.Obj [ ("schema", Json.Str "bogus/1") ]) with
  | exception Err.Error e ->
    Alcotest.(check string) "classified invalid_request" "invalid_request"
      (Err.kind_name e.Err.kind)
  | _ -> Alcotest.fail "schema mismatch must raise"

let test_report_jobs_invariant () =
  let model = Lazy.force fig1_model in
  let req = yield_request model in
  let r1 = Json.to_string (run_report ~jobs:1 model req) in
  let r4 = Json.to_string (run_report ~jobs:4 model req) in
  Alcotest.(check string) "report bytes identical across jobs" r1 r4

(* The lines of the checkpoint at [path], each without its newline. *)
let checkpoint_lines path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match List.rev (String.split_on_char '\n' text) with
  | "" :: rev -> List.rev rev
  | _ -> Alcotest.fail "checkpoint does not end in a newline"

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* Cut [path] back to the checkpoint an interrupted run would have left
   behind after its first [keep] completed units: the header line and
   the first [keep] unit lines. *)
let truncate_checkpoint path keep =
  let lines = checkpoint_lines path in
  if List.length lines < keep + 1 then
    Alcotest.failf "checkpoint has %d units, cannot keep %d" (List.length lines - 1) keep;
  write_lines path (List.filteri (fun i _ -> i <= keep) lines)

(* A yield request whose re-centering actually moves the axes (normal
   dists + shrink), so a resume that forgot the persisted re-centering
   would sweep the wrong axes and change the report bytes. *)
let binding_yield_request ?(iters = 3) model =
  let nominals = Model.nominal_values model in
  let e0 =
    match Engine.point_measures model [ Engine.Elmore_delay ] nominals with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected one measure"
  in
  let axes =
    Array.to_list
      (Array.mapi
         (fun k s ->
           { Plan.name = Sym.name s;
             dist = Dist.normal ~mean:nominals.(k) ~std:(0.15 *. nominals.(k)) })
         (Model.symbols model))
  in
  Request.Yield
    {
      (Recenter.default_config ~axes
         ~specs:
           [ { Engine.measure = Engine.Elmore_delay; bound = Engine.Le e0 } ])
      with
      Recenter.points = 300;
      iters;
      shrink = 0.8;
    }

let test_checkpoint_resume_midrun () =
  let model = Lazy.force fig1_model in
  let req = binding_yield_request model in
  let path = Filename.temp_file "awesym_opt" ".opt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let full = Json.to_string (run_report ~checkpoint:path model req) in
  (* Interrupt after each prefix of completed iterations in turn: the
     resumed run must re-sweep the *persisted re-centered* axes, not the
     interrupted iteration's own, and land on the same bytes. *)
  List.iter
    (fun keep ->
      truncate_checkpoint path keep;
      let resumed =
        Json.to_string (run_report ~checkpoint:path ~resume:true model req)
      in
      Alcotest.(check string)
        (Printf.sprintf "resume after %d iterations is byte-identical" keep)
        full resumed)
    [ 1; 2; 3 ]

let test_checkpoint_resume_stopped () =
  let model = Lazy.force fig1_model in
  (* An unsatisfiable spec: no point ever passes, so the run stops after
     the seed sweep with iterations still in budget.  A resume from that
     interrupted checkpoint must reconstruct the stop, not keep going. *)
  let req =
    match binding_yield_request ~iters:3 model with
    | Request.Yield cfg ->
      Request.Yield
        {
          cfg with
          Recenter.specs =
            [ { Engine.measure = Engine.Elmore_delay; bound = Engine.Le (-1.0) } ];
        }
    | _ -> assert false
  in
  let path = Filename.temp_file "awesym_opt" ".opt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let full = run_report ~checkpoint:path model req in
  (match Json.member "iterations" full with
  | Some (Json.List l) ->
    Alcotest.(check int) "stopped after the seed sweep" 1 (List.length l)
  | _ -> Alcotest.fail "report has no iterations");
  truncate_checkpoint path 1;
  let resumed =
    Json.to_string (run_report ~checkpoint:path ~resume:true model req)
  in
  Alcotest.(check string) "resumed stopped run is byte-identical"
    (Json.to_string full) resumed

let test_checkpoint_resume () =
  let model = Lazy.force fig1_model in
  let req = Request.Size (sizing_config ~restarts:1 ~max_iters:10 model) in
  let path = Filename.temp_file "awesym_opt" ".opt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let full = Json.to_string (run_report ~checkpoint:path model req) in
  (* The header line carries the key; no report is stored. *)
  let lines = checkpoint_lines path in
  Alcotest.(check string) "checkpoint header"
    (Printf.sprintf {|{"schema":"awesymbolic-ckpt/2","key":%S}|} (Request.key model req))
    (List.hd lines);
  Alcotest.(check int) "one line per restart" 3 (List.length lines);
  (* Resuming from the complete checkpoint recomputes nothing and
     rebuilds the report byte for byte. *)
  let resumed =
    Json.to_string (run_report ~checkpoint:path ~resume:true model req)
  in
  Alcotest.(check string) "resumed report byte-identical" full resumed

(* Checkpoint floats use the sweep checkpoints' codec, which reads only
   what it writes: a trajectory cell with its hex digits upper-cased is
   corrupt, not a float to resume from. *)
let test_checkpoint_rejects_uppercase_hex () =
  let model = Lazy.force fig1_model in
  let req = Request.Size (sizing_config ~restarts:1 ~max_iters:10 model) in
  let path = Filename.temp_file "awesym_opt" ".opt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  ignore (run_report ~checkpoint:path model req);
  truncate_checkpoint path 1;
  let header, doc =
    match checkpoint_lines path with
    | [ header; unit ] -> (
      match Json.of_string unit with
      | Ok j -> (header, j)
      | Error m -> Alcotest.failf "unreadable checkpoint unit: %s" m)
    | _ -> Alcotest.fail "expected a header and one unit"
  in
  (* Upper-case the first x_hex cell that has a letter to change. *)
  let changed = ref false in
  let rec upcase (j : Json.t) : Json.t =
    match j with
    | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "x_hex", Json.List cells when not !changed ->
               ( k,
                 Json.List
                   (List.map
                      (function
                        | Json.Str h
                          when (not !changed) && String.uppercase_ascii h <> h ->
                          changed := true;
                          Json.Str (String.uppercase_ascii h)
                        | c -> c)
                      cells) )
             | _ -> (k, upcase v))
           kvs)
    | Json.List l -> Json.List (List.map upcase l)
    | j -> j
  in
  write_lines path [ header; Json.to_string (upcase doc) ];
  if not !changed then Alcotest.fail "no x_hex cell with a hex letter";
  match run_report ~checkpoint:path ~resume:true model req with
  | exception Err.Error e ->
    Alcotest.(check string) "classified artifact_corrupt" "artifact_corrupt"
      (Err.kind_name e.Err.kind)
  | _ -> Alcotest.fail "upper-case hex cell was resumed"

(* ------------------------------------------------------------------ *)
(* Codecs: requests and checkpoint units decode what they encode and
   nothing else *)

let gen_axes =
  QCheck2.Gen.(
    let* k = int_range 1 3 in
    let* dists = list_repeat k Gens.dist in
    return (List.mapi (fun i dist -> { Plan.name = Printf.sprintf "x%d" i; dist }) dists))

let gen_measure =
  QCheck2.Gen.(
    oneof
      [ oneofl Engine.[ Dc_gain; Dc_gain_db; Dominant_pole_hz; Unity_gain_frequency;
                        Phase_margin; Delay_50; Rise_time; Elmore_delay ];
        map (fun k -> Engine.Moment k) (int_range 0 9) ])

(* Specs travel as their "%g" spelling, so the limit is the spelling's. *)
let gen_spec =
  QCheck2.Gen.(
    let* measure = gen_measure in
    let* limit = Gens.finite_float in
    let* le = bool in
    let limit = float_of_string (Printf.sprintf "%g" limit) in
    return { Engine.measure; bound = (if le then Engine.Le limit else Engine.Ge limit) })

let gen_request =
  QCheck2.Gen.(
    let weight = map Float.abs Gens.finite_float in
    let* axes = gen_axes in
    let* specs = small_list gen_spec in
    let* seed = nat in
    oneof
      [ (let direction up m = if up then Objective.Maximize m else Objective.Minimize m in
         let* goal = option (map2 direction bool gen_measure) in
         let* area_weight = weight in
         let* penalty_weight = weight in
         (* Objective.make needs some term. *)
         let goal =
           if goal = None && specs = [] && area_weight = 0.0 then
             Some (Objective.Minimize Engine.Delay_50)
           else goal
         in
         let* restarts = int_range 0 5 in
         let* max_iters = int_range 1 100 in
         let* step0 = Gens.finite_float in
         let* tol = Gens.finite_float in
         return
           (Request.Size
              { Sizing.axes;
                objective = Objective.make ?goal ~area_weight ~penalty_weight ~specs ();
                seed; restarts; max_iters; step0; tol }));
        (let* points = int_range 1 100_000 in
         let* iters = int_range 0 10 in
         let* shrink = Gens.finite_float in
         return (Request.Yield { Recenter.axes; specs; seed; points; iters; shrink })) ])

let request_decode j =
  match Request.of_json j with
  | t -> Ok (Request.to_json t)
  | exception Err.Error { kind = Err.Invalid_request; message; _ } -> Error message

let prop_request_round_trip =
  QCheck2.Test.make ~name:"request codec round trip" ~count:300 gen_request (fun t ->
      let j = Request.to_json t in
      match Request.of_json j with
      | t' -> t' = t && Json.to_string (Request.to_json t') = Json.to_string j
      | exception Err.Error e -> QCheck2.Test.fail_report (Err.to_string e))

let prop_request_mutation =
  Mutate.prop ~name:"mutated requests decode canonically or name the node" ~count:400
    gen_request Request.to_json request_decode

let floats = QCheck2.Gen.(array_size (int_range 1 3) Gens.weird_float)

let gen_restart =
  QCheck2.Gen.(
    let step =
      let* it = nat in
      let* f = Gens.weird_float in
      let* step = Gens.weird_float in
      let* x = floats in
      return { Sizing.it; f; step; x }
    in
    let* index = nat in
    let* x0 = floats in
    let* steps = small_list step in
    let* status = oneofl Sizing.[ Converged; Max_iters; No_descent ] in
    let* final_f = Gens.weird_float in
    let* final_x = floats in
    let* iters = nat in
    let* evals = nat in
    return { Sizing.index; x0; steps; status; final_f; final_x; iters; evals })

(* Units resume only in the order the run writes them: a repeated,
   skipped or surplus unit is corrupt at its line. *)
let test_checkpoint_unit_sequence () =
  let model = Lazy.force fig1_model in
  let req = Request.Size (sizing_config ~restarts:2 ~max_iters:10 model) in
  let path = Filename.temp_file "awesym_opt" ".opt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  ignore (run_report ~checkpoint:path model req);
  let header, u0, u1, u2 =
    match checkpoint_lines path with
    | [ h; a; b; c ] -> (h, a, b, c)
    | _ -> Alcotest.fail "expected a header and three units"
  in
  (* Restart 3 of a request with restarts 0..2. *)
  let u3 =
    match Json.of_string u2 with
    | Ok (Json.Obj (("restart", _) :: rest)) ->
      Json.to_string (Json.Obj (("restart", Json.Num 3.0) :: rest))
    | _ -> Alcotest.fail "a restart unit starts with its index"
  in
  List.iter
    (fun (what, lines, bad) ->
      write_lines path (header :: lines);
      match run_report ~checkpoint:path ~resume:true model req with
      | _ -> Alcotest.failf "%s was resumed" what
      | exception Err.Error e ->
        Alcotest.(check string) what "artifact_corrupt" (Err.kind_name e.Err.kind);
        Alcotest.(check (option int)) (what ^ ": line") (Some bad) e.Err.line)
    [ ("a repeated unit", [ u0; u0 ], 3);
      ("a skipped unit", [ u0; u2 ], 3);
      ("a surplus unit", [ u0; u1; u2; u3 ], 5) ]

let gen_iteration =
  QCheck2.Gen.(
    let* it = nat in
    let* axes = gen_axes in
    let* yield = Gens.weird_float in
    let* survivors = nat in
    let* passing = nat in
    let* next_axes = option gen_axes in
    return { Recenter.it; axes; yield; survivors; passing; next_axes })

(* Units are checkpoint contents: a failure is [Artifact_corrupt]. *)
let unit_decode codec j =
  match Err.decode ~kind:Artifact_corrupt ~where:"opt.checkpoint" codec j with
  | Ok u -> Ok (Obs.Codec.encode codec u)
  | Error e -> Error e.Err.message

let unit_props name gen codec =
  [ QCheck2.Test.make ~name:(name ^ " codec round trip") ~count:200 gen (fun u ->
        let j = Obs.Codec.encode codec u in
        match unit_decode codec j with
        | Ok j' -> Json.to_string j' = Json.to_string j
        | Error m -> QCheck2.Test.fail_report m);
    Mutate.prop ~name:("mutated " ^ name ^ " units decode canonically or name the node")
      ~count:300 gen (Obs.Codec.encode codec) (unit_decode codec) ]

(* Requests that used to run with a value other than the one written. *)
let test_noncanonical_requests () =
  let model = Lazy.force fig1_model in
  let edit req key value =
    match Request.to_json req with
    | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = key then Option.map (fun v -> (k, v)) value else Some (k, v))
           kvs)
    | _ -> Alcotest.fail "request is not an object"
  in
  let named what needle j =
    match request_decode j with
    | Error m when Mutate.contains m needle -> ()
    | Error m -> Alcotest.failf "%s: error does not name %s: %s" what needle m
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  let size = Request.Size (sizing_config model) and yield = yield_request model in
  named "seed 1.9" "$.seed:" (edit size "seed" (Some (Json.Num 1.9)));
  named "points 1e300" "$.points:" (edit yield "points" (Some (Json.Num 1e300)));
  named "missing restarts" {|$: missing field "restarts"|} (edit size "restarts" None);
  named "missing shrink" {|$: missing field "shrink"|} (edit yield "shrink" None);
  named "goal short form" "$.goal:"
    (edit size "goal" (Some (Json.Str "min:elmore_delay")))

(* ------------------------------------------------------------------ *)
(* Non-convergence: statuses, error kinds, require-convergence *)

let test_require_convergence () =
  let model = Lazy.force fig1_model in
  (* One accepted iteration against an unreachable tolerance: the best
     restart ends [Max_iters], and [require] escalates that status to
     the matching classified error. *)
  let cfg =
    { (sizing_config ~restarts:0 ~max_iters:1 model) with Sizing.tol = 1e-300 }
  in
  let req = Request.Size cfg in
  let report = run_report model req in
  (match Json.member "status" report with
  | Some (Json.Str s) -> Alcotest.(check string) "status" "max_iters" s
  | _ -> Alcotest.fail "report has no status");
  match Request.run ~require:true model req with
  | exception Err.Error e ->
    Alcotest.(check string) "kind" "max_iters" (Err.kind_name e.Err.kind)
  | _ -> Alcotest.fail "require:true must raise on max_iters"

let test_error_kinds () =
  List.iter
    (fun (kind, name) ->
      Alcotest.(check string) "kind_name" name (Err.kind_name kind);
      match Err.kind_of_name name with
      | Some k ->
        Alcotest.(check string) "kind_of_name inverts" name (Err.kind_name k)
      | None -> Alcotest.failf "kind_of_name %s" name)
    [ (Err.No_descent, "no_descent"); (Err.Max_iters, "max_iters") ];
  List.iter
    (fun status ->
      let name = Sizing.status_name status in
      match Sizing.status_of_name name with
      | Some s ->
        Alcotest.(check string) "status round-trips" name (Sizing.status_name s)
      | None -> Alcotest.failf "status_of_name %s" name)
    [ Sizing.Converged; Sizing.Max_iters; Sizing.No_descent ]

(* ------------------------------------------------------------------ *)
(* Cache gc sweeps orphaned .opt trajectories with the other entries *)

let test_cache_gc_opt () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "awesym-opt-gc-%d" (Unix.getpid ()))
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
    output_string oc (String.make bytes 'o');
    close_out oc;
    let t = Unix.gettimeofday () -. age_s in
    Unix.utimes p t t;
    p
  in
  let old_opt = put "abandoned-sizing.opt" 1000 300.0 in
  let old_awm = put "old.awm" 1000 200.0 in
  let new_opt = put "live-yield.opt" 1000 10.0 in
  let stats = Cache.gc ~dir ~max_bytes:1500 () in
  Alcotest.(check int) "evicted the two oldest" 2 stats.Cache.deleted;
  Alcotest.(check bool) "old .opt swept" false (Sys.file_exists old_opt);
  Alcotest.(check bool) "old .awm swept" false (Sys.file_exists old_awm);
  Alcotest.(check bool) "fresh .opt kept" true (Sys.file_exists new_opt)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "opt"
    [
      ( "gradients",
        [ QCheck_alcotest.to_alcotest prop_grad_matches_fd ] );
      ( "sizing",
        [
          quick "trajectory monotone, best is argmin, deterministic"
            test_sizing_monotone;
          quick "require-convergence classifies max_iters"
            test_require_convergence;
        ] );
      ( "yield",
        [ quick "re-centering strictly improves a binding spec"
            test_yield_improves ] );
      ( "request",
        [
          quick "request JSON and key round-trip" test_request_round_trip;
          quick "report bytes invariant across jobs" test_report_jobs_invariant;
          quick "checkpoint resume is byte-identical" test_checkpoint_resume;
          quick "checkpoint rejects upper-case hex" test_checkpoint_rejects_uppercase_hex;
          quick "checkpoint units resume only in sequence" test_checkpoint_unit_sequence;
          quick "mid-run interrupt/resume is byte-identical"
            test_checkpoint_resume_midrun;
          quick "resume reconstructs the no-passing-points stop"
            test_checkpoint_resume_stopped;
        ] );
      ( "codec",
        quick "non-canonical requests name their path" test_noncanonical_requests
        :: List.map QCheck_alcotest.to_alcotest
             ([ prop_request_round_trip; prop_request_mutation ]
             @ unit_props "restart" gen_restart Request.restart_codec
             @ unit_props "iteration" gen_iteration Request.iteration_codec) );
      ( "errors", [ quick "optimizer error kinds round-trip" test_error_kinds ] );
      ( "cache", [ quick "gc sweeps orphaned .opt files" test_cache_gc_opt ] );
    ]
