(* Workloads [sweep-rom] and [sweep-moments]: repeated Monte-Carlo sweeps
   through [Sweep.Engine.run], each finished by writing its report. *)

module Model = Awesymbolic.Model
module Engine = Sweep.Engine
module Slp = Symbolic.Slp

type cfg = {
  name : string;  (* metric prefix *)
  model : Model.t;
  points : int;  (* per sweep *)
  plan : int -> Sweep.Plan.t;
  measures : Engine.measure list;
  specs : Engine.spec list;
  jobs : int;
  check_jobs : int;  (* the jobs count whose report must match *)
}

(* Op-amp yield sweep: the Padé/measure finish dominates, and jobs = the
   usable cores, so the runtime pool's scaling shows. *)
let rom (env : Util.env) =
  {
    name = "sweep_rom";
    model = Circuits.opamp_model ();
    points = 20_000;
    plan = Circuits.opamp_plan;
    measures = [ Engine.Dominant_pole_hz; Engine.Unity_gain_frequency; Engine.Phase_margin ];
    specs = [ Circuits.spec "phase_margin>=60" ];
    jobs = env.cores;
    check_jobs = 1;
  }

(* Raw moments of the order-10 RLC program at jobs 1: the SLP kernel does
   nearly all the work; the pool and the Padé finish are bypassed. *)
let moments (_ : Util.env) =
  {
    name = "sweep_moments";
    model = Circuits.rlc_model ();
    points = 20_000;
    plan = Circuits.rlc_plan;
    measures = [ Engine.Moment 0; Engine.Moment 1; Engine.Moment 5 ];
    specs = [];
    jobs = 1;
    check_jobs = 2;
  }

let stream = 1

let sweep cfg ~seed ~jobs =
  let r =
    Engine.run ~seed ~jobs ~measures:cfg.measures ~specs:cfg.specs cfg.model
      (cfg.plan cfg.points)
  in
  (r, Obs.Json.to_string (Engine.to_json r))

let setup make env =
  let cfg = make env in
  ignore (sweep { cfg with points = cfg.points / 10 } ~seed:1 ~jobs:cfg.jobs);
  cfg

let run make (env : Util.env) ~seed ~seconds =
  let cfg, setup_s = Util.setup_median ~scale:true (fun () -> setup make env) in
  let quarantined = ref 0 and first = ref "" in
  let lat, window =
    Util.repeat_for ~scale:true seconds (fun i ->
        let r, report = sweep cfg ~seed:(Util.derive seed stream i) ~jobs:cfg.jobs in
        quarantined := !quarantined + List.length r.Engine.failed;
        if i = 0 then first := report)
  in
  let _, again = sweep cfg ~seed:(Util.derive seed stream 0) ~jobs:cfg.check_jobs in
  Util.check (again = !first) "%s: report at jobs %d differs from jobs %d" cfg.name
    cfg.check_jobs cfg.jobs;
  let n = Array.length lat in
  let points = n * cfg.points in
  {
    Util.setup_s;
    ops = n;
    window_s = window;
    latencies = lat;
    attempted = points;
    failed = !quarantined;
    children_rss_mb = 0.0;
    named = [ (cfg.name ^ "_pps", float_of_int points /. window, "points/s") ];
    info =
      [
        ("points per sweep", string_of_int cfg.points);
        ("sweeps", string_of_int n);
        ("slp ops", string_of_int (Model.num_operations cfg.model));
        ("jobs", string_of_int cfg.jobs);
        ("jobs exceed cores", string_of_bool (cfg.jobs > env.cores));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run: the staged API [Engine.run] is built from, with a span per
   stage, then the chunk stage split into kernel and measure finish. *)

let staged cfg ~seed =
  let sp name = Tracer.with_ (cfg.name ^ "." ^ name) in
  Tracer.with_ cfg.name @@ fun () ->
  let prep =
    sp "columns" (fun () ->
        Engine.prepare ~seed ~jobs:cfg.jobs ~measures:cfg.measures ~specs:cfg.specs cfg.model
          (cfg.plan cfg.points))
  in
  let chunks =
    sp "chunk_eval" (fun () ->
        Runtime.parallel_map ~jobs:cfg.jobs
          (fun i -> Some (Engine.eval_chunk prep i))
          (Array.init (Engine.prep_num_chunks prep) Fun.id))
  in
  let r = sp "stats" (fun () -> Engine.finish prep chunks) in
  let report = sp "report" (fun () -> Obs.Json.to_string (Engine.to_json r)) in
  (prep, r, report)

let decompose cfg prep =
  let sp name = Tracer.with_ (cfg.name ^ "." ^ name) in
  let mcols =
    sp "kernel" (fun () -> Slp.eval_batch ~jobs:1 (Model.program cfg.model) (Engine.prep_inputs prep))
  in
  let measures = Engine.prep_measures prep in
  sp "finish" (fun () ->
      for i = 0 to Engine.prep_points prep - 1 do
        let moments = Array.map (fun col -> col.(i)) mcols in
        (* A point the sweep would quarantine raises here too. *)
        try ignore (Engine.moment_measures cfg.model measures moments) with _ -> ()
      done)

(* Untraced reference sweeps; also returns the first reports, which the
   traced sweeps of the same seeds must reproduce byte for byte. *)
let throughput cfg ~seed ~jobs ~seconds =
  let reports = ref [] in
  let lat, window =
    Util.repeat_for ~min_reps:2 seconds (fun i ->
        let _, report = sweep cfg ~seed:(Util.derive seed stream i) ~jobs in
        if i < 5 then reports := report :: !reports)
  in
  (float_of_int (Array.length lat * cfg.points) /. window, lat, Array.of_list (List.rev !reports))

let traced make (env : Util.env) ~seed ~seconds =
  let cfg = setup make env in
  let pps, ref_lat, reference = throughput cfg ~seed ~jobs:cfg.jobs ~seconds in
  let reps = Array.length reference in
  Tracer.on := true;
  let quarantined = ref 0 and prep0 = ref None in
  for i = 0 to reps - 1 do
    let prep, r, report = staged cfg ~seed:(Util.derive seed stream i) in
    Util.check (report = reference.(i)) "%s: staged report differs from Engine.run" cfg.name;
    quarantined := !quarantined + List.length r.Engine.failed;
    if i = 0 then prep0 := Some prep
  done;
  let traced_wall = Util.median (Tracer.durations cfg.name) in
  decompose cfg (Option.get !prep0);
  Tracer.on := false;
  let one = Tracer.self and name s = cfg.name ^ "." ^ s in
  let kernel = one (name "kernel") and finish = one (name "finish") in
  (* Seconds per sweep: the staged stages ran [reps] times, the
     decomposition once. *)
  let per_sweep s =
    match s with
    | "kernel" -> kernel
    | "finish" -> finish
    | _ -> one (name s) /. float_of_int reps
  in
  let stages = List.map name [ "columns"; "chunk_eval"; "stats"; "report" ] in
  let dom, _ = Tracer.dominant ~root:cfg.name ~layers:stages in
  let split = if kernel >= finish then name "kernel" else name "finish" in
  let points = float_of_int cfg.points in
  let extra =
    if cfg.name = "sweep_rom" then begin
      let pps1, _, _ = throughput cfg ~seed ~jobs:1 ~seconds in
      [
        ("sweep_rom.quarantined", float_of_int !quarantined, "count");
        ("runtime.parallel_eff", pps /. (float_of_int cfg.jobs *. pps1), "ratio");
      ]
    end
    else
      [
        ( "sweep_moments.kernel_ns_per_op",
          kernel *. 1e9 /. (points *. float_of_int (Model.num_operations cfg.model)),
          "ns" );
      ]
  in
  {
    Util.metrics =
      List.map (fun s -> (name s ^ "_s", per_sweep s, "s"))
        [ "columns"; "chunk_eval"; "kernel"; "finish"; "stats"; "report" ]
      @ extra
      @ [
          (cfg.name ^ ".coverage", Tracer.coverage ~root:cfg.name ~layers:stages, "ratio");
          (cfg.name ^ ".trace_overhead", traced_wall /. Util.median ref_lat, "x");
        ];
    l_attempted = reps * cfg.points;
    l_failed = !quarantined;
    notes =
      [
        Printf.sprintf "%s: dominant stage %s; within it %s dominates (kernel %.1f%%, finish %.1f%% of kernel+finish)"
          cfg.name dom split
          (100.0 *. kernel /. (kernel +. finish))
          (100.0 *. finish /. (kernel +. finish));
        Printf.sprintf "%s: %.0f points/s at jobs %d, kernel %.0f points/s at jobs 1" cfg.name pps
          cfg.jobs (points /. kernel);
      ];
  }
