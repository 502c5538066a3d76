module Model = Awesymbolic.Model
module Cache = Awesymbolic.Cache
module Engine = Sweep.Engine
module Plan = Sweep.Plan
module Dist = Sweep.Dist
module Sym = Symbolic.Symbol
module Err = Awesym_error
module J = Obs.Json

let schema = "awesymbolic-opt/1"

type t = Size of Sizing.config | Yield of Recenter.config

(* ---- hex-bit floats, the sweep checkpoints' codec (JSON null-ifies
   non-finite numbers, bit patterns don't) ---- *)

let float_of_hexbits ~where s =
  match Engine.float_of_hexbits s with
  | Some v -> v
  | None -> Err.errorf Artifact_corrupt ~where "bad hex float %S" s

let float_fields name v = [ (name, J.Num v); (name ^ "_hex", J.Str (Engine.hexbits v)) ]

let hex_list vs = J.List (List.map (fun v -> J.Str (Engine.hexbits v)) (Array.to_list vs))

(* ---- request codec ---- *)

let bad fmt =
  Printf.ksprintf
    (fun m -> Err.raise_error Invalid_request ~where:"opt.request" m)
    fmt

let axis_json (a : Plan.axis) =
  J.Obj [ ("name", J.Str a.Plan.name); ("dist", Dist.to_json a.Plan.dist) ]

let axes_json axes = J.List (List.map axis_json axes)

let specs_json specs =
  J.List (List.map (fun s -> J.Str (Engine.spec_to_string s)) specs)

let to_json = function
  | Size c ->
    J.Obj
      ([
         ("schema", J.Str schema);
         ("mode", J.Str "size");
         ("axes", axes_json c.Sizing.axes);
         ("specs", specs_json c.Sizing.objective.Objective.specs);
       ]
      @ (match c.Sizing.objective.Objective.goal with
        | None -> []
        | Some g -> [ ("goal", J.Str (Objective.goal_to_string g)) ])
      @ [
          ("area_weight", J.Num c.Sizing.objective.Objective.area_weight);
          ("penalty_weight", J.Num c.Sizing.objective.Objective.penalty_weight);
          ("seed", J.Num (float_of_int c.Sizing.seed));
          ("restarts", J.Num (float_of_int c.Sizing.restarts));
          ("max_iters", J.Num (float_of_int c.Sizing.max_iters));
          ("step", J.Num c.Sizing.step0);
          ("tol", J.Num c.Sizing.tol);
        ])
  | Yield c ->
    J.Obj
      [
        ("schema", J.Str schema);
        ("mode", J.Str "yield");
        ("axes", axes_json c.Recenter.axes);
        ("specs", specs_json c.Recenter.specs);
        ("seed", J.Num (float_of_int c.Recenter.seed));
        ("points", J.Num (float_of_int c.Recenter.points));
        ("iters", J.Num (float_of_int c.Recenter.iters));
        ("shrink", J.Num c.Recenter.shrink);
      ]

let axis_of_json j =
  match (J.member "name" j, J.member "dist" j) with
  | Some (J.Str name), Some dj -> (
    match Dist.of_json dj with
    | Ok dist -> { Plan.name; dist }
    | Error e -> bad "axis %s: %s" name e)
  | _ -> bad "each axis needs a name and a dist"

let of_json j =
  (match J.member "schema" j with
  | Some (J.Str s) when s = schema -> ()
  | Some (J.Str s) -> bad "schema mismatch: %s (want %s)" s schema
  | _ -> bad "missing schema field");
  let axes =
    match J.member "axes" j with
    | Some (J.List (_ :: _ as l)) -> List.map axis_of_json l
    | _ -> bad "missing or empty axes"
  in
  let specs =
    match J.member "specs" j with
    | Some (J.List l) ->
      List.map
        (function
          | J.Str s -> (
            match Engine.spec_of_string s with
            | Ok s -> s
            | Error e -> bad "%s" e)
          | _ -> bad "each spec must be a string")
        l
    | None -> []
    | _ -> bad "specs must be a list"
  in
  let num name default =
    match J.member name j with
    | Some (J.Num v) -> v
    | None -> default
    | _ -> bad "%s must be a number" name
  in
  let int name default = int_of_float (num name (float_of_int default)) in
  match J.member "mode" j with
  | Some (J.Str "size") ->
    let goal =
      match J.member "goal" j with
      | Some (J.Str g) -> (
        match Objective.goal_of_string g with
        | Ok g -> Some g
        | Error e -> bad "%s" e)
      | None | Some J.Null -> None
      | _ -> bad "goal must be a string"
    in
    let objective =
      Objective.make ?goal
        ~area_weight:(num "area_weight" 0.0)
        ~penalty_weight:(num "penalty_weight" 1.0)
        ~specs ()
    in
    Size
      {
        Sizing.axes;
        objective;
        seed = int "seed" 42;
        restarts = int "restarts" 0;
        max_iters = int "max_iters" 50;
        step0 = num "step" 0.25;
        tol = num "tol" 1e-6;
      }
  | Some (J.Str "yield") ->
    Yield
      {
        Recenter.axes;
        specs;
        points = int "points" 1000;
        iters = int "iters" 4;
        shrink = num "shrink" 1.0;
        seed = int "seed" 42;
      }
  | _ -> bad "mode must be \"size\" or \"yield\""

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
          @ List.map Engine.hexbits (Array.to_list nominals))))

(* ---- checkpoint unit codecs: sizing restarts and yield iterations
   round-trip through the same hex-float JSON the report embeds ---- *)

let corrupt fmt =
  Printf.ksprintf
    (fun m -> Err.raise_error Artifact_corrupt ~where:"opt.checkpoint" m)
    fmt

let jint name j =
  match J.member name j with
  | Some (J.Num v) -> int_of_float v
  | _ -> corrupt "missing integer field %s" name

let jhex name j =
  match J.member name j with
  | Some (J.Str s) -> float_of_hexbits ~where:"opt.checkpoint" s
  | _ -> corrupt "missing hex field %s" name

let jhexes name j =
  match J.member name j with
  | Some (J.List l) ->
    Array.of_list
      (List.map
         (function
           | J.Str s -> float_of_hexbits ~where:"opt.checkpoint" s
           | _ -> corrupt "non-string entry in %s" name)
         l)
  | _ -> corrupt "missing hex list %s" name

let step_json (s : Sizing.step_record) =
  J.Obj
    ([ ("it", J.Num (float_of_int s.Sizing.it)) ]
    @ float_fields "f" s.Sizing.f
    @ float_fields "step" s.Sizing.step
    @ [ ("x_hex", hex_list s.Sizing.x) ])

let step_of_json j =
  {
    Sizing.it = jint "it" j;
    f = jhex "f_hex" j;
    step = jhex "step_hex" j;
    x = jhexes "x_hex" j;
  }

let restart_json (r : Sizing.restart) =
  J.Obj
    ([
       ("restart", J.Num (float_of_int r.Sizing.index));
       ("status", J.Str (Sizing.status_name r.Sizing.status));
       ("iters", J.Num (float_of_int r.Sizing.iters));
       ("evals", J.Num (float_of_int r.Sizing.evals));
     ]
    @ float_fields "final_f" r.Sizing.final_f
    @ [
        ("x0_hex", hex_list r.Sizing.x0);
        ("final_x_hex", hex_list r.Sizing.final_x);
        ("trajectory", J.List (List.map step_json r.Sizing.steps));
      ])

let restart_of_json j =
  let status =
    match J.member "status" j with
    | Some (J.Str s) -> (
      match Sizing.status_of_name s with
      | Some st -> st
      | None -> corrupt "unknown status %s" s)
    | _ -> corrupt "missing status"
  in
  let steps =
    match J.member "trajectory" j with
    | Some (J.List l) -> List.map step_of_json l
    | _ -> corrupt "missing trajectory"
  in
  {
    Sizing.index = jint "restart" j;
    x0 = jhexes "x0_hex" j;
    steps;
    status;
    final_f = jhex "final_f_hex" j;
    final_x = jhexes "final_x_hex" j;
    iters = jint "iters" j;
    evals = jint "evals" j;
  }

let iteration_json (i : Recenter.iteration) =
  J.Obj
    ([ ("it", J.Num (float_of_int i.Recenter.it)) ]
    @ float_fields "yield" i.Recenter.yield
    @ [
        ("survivors", J.Num (float_of_int i.Recenter.survivors));
        ("passing", J.Num (float_of_int i.Recenter.passing));
        ("axes", axes_json i.Recenter.axes);
      ]
    @
    match i.Recenter.next_axes with
    | None -> []
    | Some a -> [ ("next_axes", axes_json a) ])

let iteration_of_json j =
  let axes =
    match J.member "axes" j with
    | Some (J.List l) -> List.map axis_of_json l
    | _ -> corrupt "missing axes"
  in
  let next_axes =
    match J.member "next_axes" j with
    | Some (J.List l) -> Some (List.map axis_of_json l)
    | None -> None
    | _ -> corrupt "next_axes must be a list"
  in
  {
    Recenter.it = jint "it" j;
    axes;
    yield = jhex "yield_hex" j;
    survivors = jint "survivors" j;
    passing = jint "passing" j;
    next_axes;
  }

(* ---- reports ---- *)

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
      (fun j (a : Plan.axis) ->
        J.Obj
          ([ ("name", J.Str a.Plan.name) ]
          @ float_fields "value" best.Sizing.final_x.(j)))
      cfg.axes
  in
  let measures =
    let ms = Objective.measures cfg.objective in
    let v = vfull model cfg.axes best.Sizing.final_x in
    match Engine.point_measures model ms v with
    | exception _ -> []
    | vals ->
      List.map2
        (fun m x ->
          J.Obj
            ([ ("name", J.Str (Engine.measure_name m)) ]
            @ float_fields "value" x))
        ms vals
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
    @ float_fields "step" cfg.step0
    @ float_fields "tol" cfg.tol
    @ float_fields "objective" best.Sizing.final_f
    @ [
        ("variables", J.List vars);
        ("measures", J.List measures);
        ("runs", J.List (List.map restart_json res.runs));
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
    @ float_fields "shrink" cfg.shrink
    @ float_fields "initial_yield" initial
    @ float_fields "final_yield" final
    @ [
        ("improved", J.Bool (final > initial));
        ("final_axes", axes_json res.Recenter.final_axes);
        ("iterations", J.List (List.map iteration_json res.history));
      ])

(* ---- checkpoint files ---- *)

type resume_state = Fresh | Partial of J.t list | Complete of J.t

let ckpt_doc ~key:k ~mode ?result units =
  J.Obj
    ([
       ("schema", J.Str schema);
       ("kind", J.Str "checkpoint");
       ("key", J.Str k);
       ("mode", J.Str mode);
       ("units", J.List units);
     ]
    @ match result with None -> [] | Some r -> [ ("result", r) ])

let load_checkpoint path ~key:k =
  if not (Sys.file_exists path) then Fresh
  else begin
    let doc =
      let text =
        try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with Sys_error m ->
          Err.raise_error Artifact_corrupt ~where:"opt.checkpoint" ~file:path m
      in
      match J.of_string text with
      | Ok d -> d
      | Error m ->
        Err.errorf Artifact_corrupt ~where:"opt.checkpoint" ~file:path
          "malformed JSON: %s" m
    in
    (match J.member "schema" doc with
    | Some (J.Str s) when s = schema -> ()
    | _ ->
      Err.errorf Artifact_corrupt ~where:"opt.checkpoint" ~file:path
        "not an optimizer checkpoint");
    (match J.member "key" doc with
    | Some (J.Str k') when k' = k -> ()
    | _ ->
      Err.errorf Invalid_request ~where:"opt.checkpoint" ~file:path
        "checkpoint was written by a different optimization (key mismatch)");
    match J.member "result" doc with
    | Some r -> Complete r
    | None -> (
      match J.member "units" doc with
      | Some (J.List units) -> Partial units
      | _ ->
        Err.errorf Artifact_corrupt ~where:"opt.checkpoint" ~file:path
          "checkpoint has no units")
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
  let state =
    match checkpoint with
    | Some path when resume -> load_checkpoint path ~key:k
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
    let written = ref units0 in
    let save ?result () =
      match checkpoint with
      | None -> ()
      | Some path ->
        Cache.atomic_write path (fun tmp ->
            J.to_file tmp (ckpt_doc ~key:k ~mode:(mode_name t) ?result !written))
    in
    let report =
      match t with
      | Size cfg ->
        let completed = List.map restart_of_json units0 in
        let on_restart rr =
          written := !written @ [ restart_json rr ];
          save ()
        in
        let res = Sizing.run ~completed ~on_restart model cfg in
        size_report model k cfg res
      | Yield cfg ->
        let history = List.map iteration_of_json units0 in
        let on_iteration entry =
          written := !written @ [ iteration_json entry ];
          save ()
        in
        let res =
          Recenter.run ?jobs ?block ~history ~on_iteration model cfg
        in
        yield_report k cfg res
    in
    save ~result:report ();
    check_require ~require report;
    report
