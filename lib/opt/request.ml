module Model = Awesymbolic.Model
module Checkpoint = Awesymbolic.Checkpoint
module Engine = Sweep.Engine
module Plan = Sweep.Plan
module Dist = Sweep.Dist
module Sym = Symbolic.Symbol
module Err = Awesym_error
module J = Obs.Json
module C = Obs.Codec

let schema = "awesymbolic-opt/1"

type t = Size of Sizing.config | Yield of Recenter.config

(* ---- request codec ---- *)

let axes =
  C.list
    (C.record (fun name dist -> { Plan.name; dist })
       [ C.req "name" C.string (fun a -> a.Plan.name);
         C.req "dist" Dist.codec (fun a -> a.Plan.dist) ])

(* A string holding [to_string v]: decoding parses it and requires the
   spelling [to_string] gives back, so "min:dc_gain" is not a goal
   "minimize:dc_gain" decodes from. *)
let spelled of_string to_string =
  C.refine
    (fun s ->
      match of_string s with
      | Ok v when to_string v = s -> Ok v
      | Ok v -> Error (Printf.sprintf "%S is spelled %S" s (to_string v))
      | Error _ as e -> e)
    to_string C.string

let specs = C.list (spelled Engine.spec_of_string Engine.spec_to_string)

(* The objective's members are contiguous in a sizing request; decoding
   revalidates them through [Objective.make]. *)
let objective =
  C.refine
    (fun (specs, goal, area_weight, penalty_weight) ->
      match Objective.make ?goal ~area_weight ~penalty_weight ~specs () with
      | o -> Ok o
      | exception Err.Error e -> Error e.Err.message)
    (fun (o : Objective.t) -> (o.specs, o.goal, o.area_weight, o.penalty_weight))
    (C.record (fun s g a p -> (s, g, a, p))
       [ C.req "specs" specs (fun (s, _, _, _) -> s);
         C.opt "goal"
           (spelled Objective.goal_of_string Objective.goal_to_string)
           (fun (_, g, _, _) -> g);
         C.req "area_weight" C.num (fun (_, _, a, _) -> a);
         C.req "penalty_weight" C.num (fun (_, _, _, p) -> p) ])

(* A document of this schema whose "mode" member selects its body. *)
let by_mode cases =
  C.record Fun.id [ C.const "schema" (J.Str schema); C.inline (C.tagged "mode" cases) Fun.id ]

let codec =
  let axes =
    C.refine (function [] -> Error "no axes to optimize" | l -> Ok l) Fun.id axes
  in
  let size =
    C.record
      (fun axes objective seed restarts max_iters step0 tol ->
        { Sizing.axes; objective; seed; restarts; max_iters; step0; tol })
      [ C.req "axes" axes (fun c -> c.Sizing.axes);
        C.inline objective (fun c -> c.Sizing.objective);
        C.req "seed" C.int (fun c -> c.Sizing.seed);
        C.req "restarts" C.int (fun c -> c.Sizing.restarts);
        C.req "max_iters" C.int (fun c -> c.Sizing.max_iters);
        C.req "step" C.num (fun c -> c.Sizing.step0);
        C.req "tol" C.num (fun c -> c.Sizing.tol) ]
  and yield =
    C.record
      (fun axes specs seed points iters shrink ->
        { Recenter.axes; specs; seed; points; iters; shrink })
      [ C.req "axes" axes (fun c -> c.Recenter.axes);
        C.req "specs" specs (fun c -> c.Recenter.specs);
        C.req "seed" C.int (fun c -> c.Recenter.seed);
        C.req "points" C.int (fun c -> c.Recenter.points);
        C.req "iters" C.int (fun c -> c.Recenter.iters);
        C.req "shrink" C.num (fun c -> c.Recenter.shrink) ]
  in
  by_mode
    [ C.case "size" size (fun c -> Size c) (function Size c -> Some c | Yield _ -> None);
      C.case "yield" yield (fun c -> Yield c) (function Yield c -> Some c | Size _ -> None) ]

(* Decode at a boundary of this module, raising its classified error. *)
let decode kind where c j =
  match Err.decode ~kind ~where c j with Ok v -> v | Error e -> raise (Err.Error e)

let to_json = C.encode codec
let of_json = decode Invalid_request "opt.request" codec

let key model t =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ schema; J.to_string (to_json t); Model.fingerprint model ]))

(* ---- checkpoint unit codecs: sizing restarts and yield iterations,
   floats as the readable + exact pairs the reports carry ---- *)

let hexes = C.array C.hexfloat

let step_codec =
  C.record (fun it f step x -> { Sizing.it; f; step; x })
    [ C.req "it" C.int (fun s -> s.Sizing.it);
      C.float_pair "f" (fun s -> s.Sizing.f);
      C.float_pair "step" (fun s -> s.Sizing.step);
      C.req "x_hex" hexes (fun s -> s.Sizing.x) ]

let status =
  C.enum
    (List.map (fun s -> (Sizing.status_name s, s)) Sizing.[ Converged; Max_iters; No_descent ])

let restart_codec =
  C.record
    (fun index status iters evals final_f x0 final_x steps ->
      { Sizing.index; x0; steps; status; final_f; final_x; iters; evals })
    [ C.req "restart" C.int (fun r -> r.Sizing.index);
      C.req "status" status (fun (r : Sizing.restart) -> r.status);
      C.req "iters" C.int (fun r -> r.Sizing.iters);
      C.req "evals" C.int (fun r -> r.Sizing.evals);
      C.float_pair "final_f" (fun r -> r.Sizing.final_f);
      C.req "x0_hex" hexes (fun r -> r.Sizing.x0);
      C.req "final_x_hex" hexes (fun r -> r.Sizing.final_x);
      C.req "trajectory" (C.list step_codec) (fun r -> r.Sizing.steps) ]

let iteration_codec =
  C.record
    (fun it yield survivors passing axes next_axes ->
      { Recenter.it; axes; yield; survivors; passing; next_axes })
    [ C.req "it" C.int (fun i -> i.Recenter.it);
      C.float_pair "yield" (fun i -> i.Recenter.yield);
      C.req "survivors" C.int (fun i -> i.Recenter.survivors);
      C.req "passing" C.int (fun i -> i.Recenter.passing);
      C.req "axes" axes (fun (i : Recenter.iteration) -> i.axes);
      C.opt "next_axes" axes (fun i -> i.Recenter.next_axes) ]

(* ---- reports ---- *)

type size_report = {
  key : string;
  status : Sizing.status;
  best : int;
  seed : int;
  restarts : int;
  max_iters : int;
  step : float;
  tol : float;
  objective : float;
  variables : (string * float) list;
  measures : (string * float) list;
  runs : Sizing.restart list;
}

type yield_report = {
  key : string;
  seed : int;
  points : int;
  iters : int;
  shrink : float;
  initial_yield : float;
  final_yield : float;
  improved : bool;
  final_axes : Plan.axis list;
  iterations : Recenter.iteration list;
}

type report = Size_report of size_report | Yield_report of yield_report

(* One variable or measure of a size report: [{name, value, value_hex}]. *)
let named_value =
  C.record
    (fun name value -> (name, value))
    [ C.req "name" C.string fst; C.float_pair "value" snd ]

let report_codec =
  let size =
    C.record
      (fun key status best seed restarts max_iters step tol objective variables measures
           runs ->
        { key; status; best; seed; restarts; max_iters; step; tol; objective; variables;
          measures; runs })
      [ C.req "key" C.string (fun (r : size_report) -> r.key);
        C.req "status" status (fun r -> r.status);
        C.req "best" C.int (fun r -> r.best);
        C.req "seed" C.int (fun (r : size_report) -> r.seed);
        C.req "restarts" C.int (fun r -> r.restarts);
        C.req "max_iters" C.int (fun r -> r.max_iters);
        C.float_pair "step" (fun r -> r.step);
        C.float_pair "tol" (fun r -> r.tol);
        C.float_pair "objective" (fun r -> r.objective);
        C.req "variables" (C.list named_value) (fun r -> r.variables);
        C.req "measures" (C.list named_value) (fun r -> r.measures);
        C.req "runs" (C.list restart_codec) (fun r -> r.runs) ]
  and yield =
    C.record
      (fun key seed points iters shrink initial_yield final_yield improved final_axes
           iterations ->
        { key; seed; points; iters; shrink; initial_yield; final_yield; improved;
          final_axes; iterations })
      [ C.req "key" C.string (fun r -> r.key);
        C.req "seed" C.int (fun r -> r.seed);
        C.req "points" C.int (fun r -> r.points);
        C.req "iters" C.int (fun r -> r.iters);
        C.float_pair "shrink" (fun r -> r.shrink);
        C.float_pair "initial_yield" (fun r -> r.initial_yield);
        C.float_pair "final_yield" (fun r -> r.final_yield);
        C.req "improved" C.bool (fun r -> r.improved);
        C.req "final_axes" axes (fun r -> r.final_axes);
        C.req "iterations" (C.list iteration_codec) (fun r -> r.iterations) ]
  in
  by_mode
    [ C.case "size" size
        (fun r -> Size_report r)
        (function Size_report r -> Some r | Yield_report _ -> None);
      C.case "yield" yield
        (fun r -> Yield_report r)
        (function Yield_report r -> Some r | Size_report _ -> None) ]

let report_to_json = C.encode report_codec
let report_of_json = decode Parse "opt.report" report_codec

(* The model's input vector with the sized axes at [x], the rest nominal. *)
let vfull model axes x =
  let symbols = Array.map Sym.name (Model.symbols model) in
  let v = Array.copy (Model.nominal_values model) in
  List.iteri
    (fun j (a : Plan.axis) ->
      Option.iter (fun i -> v.(i) <- x.(j)) (Array.find_index (( = ) a.name) symbols))
    axes;
  v

let size_report model key (cfg : Sizing.config) (res : Sizing.result) =
  let best = List.find (fun r -> r.Sizing.index = res.Sizing.best) res.runs in
  let measures =
    let ms = Objective.measures cfg.objective in
    match Engine.point_measures model ms (vfull model cfg.axes best.Sizing.final_x) with
    | exception _ -> []
    | vals -> List.map2 (fun m x -> (Engine.measure_name m, x)) ms vals
  in
  Size_report
    {
      key;
      status = res.status;
      best = res.best;
      seed = cfg.seed;
      restarts = cfg.restarts;
      max_iters = cfg.max_iters;
      step = cfg.step0;
      tol = cfg.tol;
      objective = best.Sizing.final_f;
      variables = List.mapi (fun j (a : Plan.axis) -> (a.name, best.Sizing.final_x.(j))) cfg.axes;
      measures;
      runs = res.runs;
    }

let yield_report key (cfg : Recenter.config) (res : Recenter.result) =
  let initial_yield = Recenter.initial_yield res and final_yield = Recenter.final_yield res in
  Yield_report
    {
      key;
      seed = cfg.seed;
      points = cfg.points;
      iters = cfg.iters;
      shrink = cfg.shrink;
      initial_yield;
      final_yield;
      improved = final_yield > initial_yield;
      final_axes = res.final_axes;
      iterations = res.history;
    }

(* ---- the entry point ---- *)

let check_require ~require report =
  match report with
  | Size_report { status = Max_iters; _ } when require ->
    Err.raise_error Max_iters ~where:"opt.size"
      "iteration budget exhausted before convergence (best restart)"
  | Size_report { status = No_descent; _ } when require ->
    Err.raise_error No_descent ~where:"opt.size"
      "line search found no descent direction (best restart)"
  | Size_report _ | Yield_report _ -> ()

let run ?jobs ?block ?checkpoint ?(resume = false) ?(require = false) model t =
  Obs.Span.with_ ~name:"opt.run" @@ fun () ->
  Obs.Metrics.incr "opt.requests";
  let k = key model t in
  (* Restore the [count] units of [unit] already done, in the order the
     run writes them (unit [i] has [index] [i]), and hand them to
     [compute] with the append of each new one.  With every unit
     restored, [compute] rebuilds the report as an uninterrupted run
     does. *)
  let drive unit index count compute =
    let restored = ref [] in
    let record =
      match checkpoint with
      | None -> ignore
      | Some path ->
        let ck =
          Checkpoint.open_ ~where:"opt.checkpoint" ~key:k ~resume path (fun i j ->
              let u = decode Artifact_corrupt "opt.checkpoint" unit j in
              if index u <> i || i >= count then
                Err.errorf Artifact_corrupt ~where:"opt.checkpoint"
                  "unit %d out of sequence: the run writes units 0..%d in order" (index u)
                  (count - 1);
              restored := u :: !restored)
        in
        fun u -> Checkpoint.record ck (C.encode unit u)
    in
    let report = compute (List.rev !restored) record in
    check_require ~require report;
    report
  in
  match t with
  | Size cfg ->
    drive restart_codec (fun r -> r.Sizing.index) (cfg.restarts + 1)
      (fun completed on_restart ->
        size_report model k cfg (Sizing.run ~completed ~on_restart model cfg))
  | Yield cfg ->
    drive iteration_codec (fun i -> i.Recenter.it) (cfg.iters + 1)
      (fun history on_iteration ->
        yield_report k cfg (Recenter.run ?jobs ?block ~history ~on_iteration model cfg))
