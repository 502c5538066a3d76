module Model = Awesymbolic.Model
module Cache = Awesymbolic.Cache
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
  C.record Fun.id
    [ C.const "schema" (J.Str schema);
      C.inline
        (C.tagged "mode"
           [ C.case "size" size
               (fun c -> Size c)
               (function Size c -> Some c | Yield _ -> None);
             C.case "yield" yield
               (fun c -> Yield c)
               (function Yield c -> Some c | Size _ -> None) ])
        Fun.id ]

let to_json = C.encode codec

let of_json j =
  match Err.decode ~kind:Invalid_request ~where:"opt.request" codec j with
  | Ok t -> t
  | Error e -> raise (Err.Error e)

let key model t =
  let symbols = Array.map Sym.name (Model.symbols model) in
  let nominals = Model.nominal_values model in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ([
             schema;
             J.to_string (to_json t);
             string_of_int (Model.order model);
             string_of_int (Model.num_operations model);
           ]
          @ Array.to_list symbols
          @ List.map C.hex (Array.to_list nominals))))

(* ---- checkpoint unit codecs: sizing restarts and yield iterations,
   floats as the readable + exact pairs the reports carry ---- *)

let hexes = C.array C.hexfloat

let step_codec =
  C.record (fun it f step x -> { Sizing.it; f; step; x })
    [ C.req "it" C.int (fun s -> s.Sizing.it);
      C.float_pair "f" (fun s -> s.Sizing.f);
      C.float_pair "step" (fun s -> s.Sizing.step);
      C.req "x_hex" hexes (fun s -> s.Sizing.x) ]

let restart_codec =
  let status =
    C.enum
      (List.map
         (fun s -> (Sizing.status_name s, s))
         Sizing.[ Converged; Max_iters; No_descent ])
  in
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

(* One variable or measure of a size report: [{name, value, value_hex}]. *)
let named_value =
  C.record
    (fun name value -> (name, value))
    [ C.req "name" C.string fst; C.float_pair "value" snd ]

let vfull model axes x =
  let symbols = Array.map Sym.name (Model.symbols model) in
  let v = Array.copy (Model.nominal_values model) in
  List.iteri
    (fun j (a : Plan.axis) ->
      let rec go i =
        if i >= Array.length symbols then ()
        else if symbols.(i) = a.Plan.name then v.(i) <- x.(j)
        else go (i + 1)
      in
      go 0)
    axes;
  v

let size_report model k (cfg : Sizing.config) (res : Sizing.result) =
  let best = List.find (fun r -> r.Sizing.index = res.Sizing.best) res.runs in
  let vars =
    List.mapi
      (fun j (a : Plan.axis) -> C.encode named_value (a.name, best.Sizing.final_x.(j)))
      cfg.axes
  in
  let measures =
    let ms = Objective.measures cfg.objective in
    let v = vfull model cfg.axes best.Sizing.final_x in
    match Engine.point_measures model ms v with
    | exception _ -> []
    | vals ->
      List.map2 (fun m x -> C.encode named_value (Engine.measure_name m, x)) ms vals
  in
  J.Obj
    ([
       ("schema", J.Str schema);
       ("mode", J.Str "size");
       ("key", J.Str k);
       ("status", J.Str (Sizing.status_name res.Sizing.status));
       ("best", J.Num (float_of_int res.best));
       ("seed", J.Num (float_of_int cfg.seed));
       ("restarts", J.Num (float_of_int cfg.restarts));
       ("max_iters", J.Num (float_of_int cfg.max_iters));
     ]
    @ C.write_field (C.float_pair "step" Fun.id) cfg.step0
    @ C.write_field (C.float_pair "tol" Fun.id) cfg.tol
    @ C.write_field (C.float_pair "objective" Fun.id) best.Sizing.final_f
    @ [
        ("variables", J.List vars);
        ("measures", J.List measures);
        ("runs", J.List (List.map (C.encode restart_codec) res.runs));
      ])

let yield_report k (cfg : Recenter.config) (res : Recenter.result) =
  let initial = Recenter.initial_yield res
  and final = Recenter.final_yield res in
  J.Obj
    ([
       ("schema", J.Str schema);
       ("mode", J.Str "yield");
       ("key", J.Str k);
       ("seed", J.Num (float_of_int cfg.seed));
       ("points", J.Num (float_of_int cfg.points));
       ("iters", J.Num (float_of_int cfg.iters));
     ]
    @ C.write_field (C.float_pair "shrink" Fun.id) cfg.shrink
    @ C.write_field (C.float_pair "initial_yield" Fun.id) initial
    @ C.write_field (C.float_pair "final_yield" Fun.id) final
    @ [
        ("improved", J.Bool (final > initial));
        ("final_axes", C.encode axes res.Recenter.final_axes);
        ("iterations", J.List (List.map (C.encode iteration_codec) res.history));
      ])

(* ---- checkpoint files ---- *)

type 'u resume_state = Fresh | Partial of 'u list | Complete of J.t

(* The document, its units through [unit] (stored already encoded, as
   [C.json], while a run appends to them). *)
let ckpt_codec unit =
  C.record
    (fun key mode units result -> (key, mode, units, result))
    [
      C.const "schema" (J.Str schema);
      C.const "kind" (J.Str "checkpoint");
      C.req "key" C.string (fun (k, _, _, _) -> k);
      C.req "mode" C.string (fun (_, m, _, _) -> m);
      C.req "units" (C.list unit) (fun (_, _, us, _) -> us);
      C.opt "result" C.json (fun (_, _, _, r) -> r);
    ]

let load_checkpoint path ~key:k unit =
  if not (Sys.file_exists path) then Fresh
  else begin
    let doc =
      match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok d -> d
      | Error m ->
        Err.errorf Artifact_corrupt ~where:"opt.checkpoint" ~file:path
          "malformed JSON: %s" m
      | exception Sys_error m ->
        Err.raise_error Artifact_corrupt ~where:"opt.checkpoint" ~file:path m
    in
    let decode unit =
      match
        Err.decode ~file:path ~kind:Artifact_corrupt ~where:"opt.checkpoint"
          (ckpt_codec unit) doc
      with
      | Ok d -> d
      | Error e -> raise (Err.Error e)
    in
    (* The key first, units opaque: another optimization's checkpoint is
       a mismatch, not a corrupt unit. *)
    let k', _, _, _ = decode C.json in
    if k' <> k then
      Err.errorf Invalid_request ~where:"opt.checkpoint" ~file:path
        "checkpoint was written by a different optimization (key mismatch)";
    match decode unit with
    | _, _, _, Some report -> Complete report
    | _, _, units, None -> Partial units
  end

(* ---- the entry point ---- *)

let mode_name = function Size _ -> "size" | Yield _ -> "yield"

let check_require ~require report =
  if require then
    match J.member "status" report with
    | Some (J.Str "max_iters") ->
      Err.raise_error Max_iters ~where:"opt.size"
        "iteration budget exhausted before convergence (best restart)"
    | Some (J.Str "no_descent") ->
      Err.raise_error No_descent ~where:"opt.size"
        "line search found no descent direction (best restart)"
    | _ -> ()

let run ?jobs ?block ?checkpoint ?(resume = false) ?(require = false) model t =
  Obs.Span.with_ ~name:"opt.run" @@ fun () ->
  Obs.Metrics.incr "opt.requests";
  let k = key model t in
  (* Resume the units of [unit] already done, hand the rest to [compute]
     with a callback that checkpoints each new one. *)
  let drive unit compute =
    let state =
      match checkpoint with
      | Some path when resume -> load_checkpoint path ~key:k unit
      | _ -> Fresh
    in
    match state with
    | Complete report ->
      Obs.Metrics.incr "opt.checkpoint.restored";
      check_require ~require report;
      report
    | Fresh | Partial _ ->
      let units0 = match state with Partial us -> us | _ -> [] in
      if units0 <> [] then Obs.Metrics.incr "opt.checkpoint.restored";
      let written = ref (List.map (C.encode unit) units0) in
      let save ?result () =
        match checkpoint with
        | None -> ()
        | Some path ->
          Cache.atomic_write path (fun tmp ->
              J.to_file tmp
                (C.encode (ckpt_codec C.json) (k, mode_name t, !written, result)))
      in
      let on_unit u =
        written := !written @ [ C.encode unit u ];
        save ()
      in
      let report = compute units0 on_unit in
      save ~result:report ();
      check_require ~require report;
      report
  in
  match t with
  | Size cfg ->
    drive restart_codec (fun completed on_restart ->
        size_report model k cfg (Sizing.run ~completed ~on_restart model cfg))
  | Yield cfg ->
    drive iteration_codec (fun history on_iteration ->
        yield_report k cfg
          (Recenter.run ?jobs ?block ~history ~on_iteration model cfg))
