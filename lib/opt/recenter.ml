module Model = Awesymbolic.Model
module Engine = Sweep.Engine
module Plan = Sweep.Plan
module Dist = Sweep.Dist
module Sym = Symbolic.Symbol
module Err = Awesym_error

type iteration = {
  it : int;
  axes : Plan.axis list;
  yield : float;
  survivors : int;
  passing : int;
  next_axes : Plan.axis list option;
}

type config = {
  axes : Plan.axis list;
  specs : Engine.spec list;
  points : int;
  iters : int;
  shrink : float;
  seed : int;
}

let default_config ~axes ~specs =
  { axes; specs; points = 1000; iters = 4; shrink = 1.0; seed = 42 }

type result = {
  config : config;
  history : iteration list;
  final_axes : Plan.axis list;
}

let initial_yield r = (List.hd r.history).yield
let final_yield r = (List.hd (List.rev r.history)).yield

let validate cfg =
  if cfg.specs = [] then
    Err.raise_error Invalid_request ~where:"opt.yield"
      "yield maximization needs at least one spec";
  if cfg.points < 2 then
    Err.errorf Invalid_request ~where:"opt.yield" "points must be >= 2, got %d"
      cfg.points;
  if cfg.iters < 1 then
    Err.errorf Invalid_request ~where:"opt.yield" "iters must be >= 1, got %d"
      cfg.iters;
  if not (cfg.shrink > 0.0 && cfg.shrink <= 1.0) then
    Err.errorf Invalid_request ~where:"opt.yield"
      "shrink must be in (0, 1], got %g" cfg.shrink

(* One full sweep over the current axes through the staged engine API —
   the chunks [Engine.run] evaluates, by the same step, merged by
   index. *)
let sweep_once ?jobs ?block model ~specs ~seed axes points =
  let plan = Plan.make (Plan.Monte_carlo points) axes in
  let prep = Engine.prepare ~seed ?block ?jobs ~measures:[] ~specs model plan in
  let results = Engine.evaluate ?jobs prep in
  (prep, results, Engine.finish prep results)

(* The all-spec pass mask over the plan's points, read off the evaluated
   chunks.  Quarantined points never pass. *)
let pass_mask prep results =
  let specs = Engine.prep_specs prep in
  let marr = Array.of_list (Engine.prep_measures prep) in
  let col_of m =
    let rec go j = if marr.(j) = m then j else go (j + 1) in
    go 0
  in
  let spec_cols = List.map (fun s -> (s, col_of s.Engine.measure)) specs in
  let n = Engine.prep_points prep in
  let pass = Array.make n false in
  let npass = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some r ->
        let vals = Engine.chunk_values r in
        let lo = Engine.chunk_lo r and len = Engine.chunk_len r in
        let failed = Array.make len false in
        List.iter
          (fun p ->
            let li = p - lo in
            if li >= 0 && li < len then failed.(li) <- true)
          (Engine.chunk_failures r);
        for li = 0 to len - 1 do
          let i = lo + li in
          if
            (not failed.(li))
            && List.for_all
                 (fun ((s : Engine.spec), c) -> Engine.passes s.bound vals.(c).(li))
                 spec_cols
          then begin
            pass.(i) <- true;
            incr npass
          end
        done)
    results;
  (pass, !npass)

(* Shift a distribution's center to [center] (clamped into the original
   distribution's bounds) and scale its width by [shrink]. *)
let shift_dist ~bounds0 ~shrink ~center d =
  let blo, bhi = bounds0 in
  let clamp c = Float.min bhi (Float.max blo c) in
  match d with
  | Dist.Uniform { lo; hi } ->
    let w = (hi -. lo) *. shrink in
    let c = clamp center in
    let lo' = c -. (w /. 2.0) and hi' = c +. (w /. 2.0) in
    let lo', hi' =
      if lo' < blo then (blo, blo +. w)
      else if hi' > bhi then (bhi -. w, bhi)
      else (lo', hi')
    in
    Dist.uniform ~lo:lo' ~hi:hi'
  | Dist.Normal { std; _ } ->
    Dist.normal ~mean:(clamp center) ~std:(std *. shrink)
  | Dist.Lognormal { sigma; _ } ->
    Dist.lognormal
      ~mu:(log (Float.max (clamp center) 1e-300))
      ~sigma:(sigma *. shrink)

let run ?jobs ?block ?(history = []) ?(on_iteration = fun _ -> ()) model cfg =
  Obs.Span.with_ ~name:"opt.yield" @@ fun () ->
  validate cfg;
  let symbols = Array.map Sym.name (Model.symbols model) in
  let sym_index name =
    let rec go i =
      if i >= Array.length symbols then
        Err.errorf Invalid_request ~where:"opt.yield"
          "axis %s is not a model symbol" name
      else if symbols.(i) = name then i
      else go (i + 1)
    in
    go 0
  in
  let axis_syms = List.map (fun a -> sym_index a.Plan.name) cfg.axes in
  let bounds0 = List.map (fun a -> Dist.bounds a.Plan.dist) cfg.axes in
  (* Restored history replays verbatim.  Each unit records both the axes
     it swept and the re-centered [next_axes] its successor sweeps, so a
     resumed run continues exactly where the interrupted one would have:
     from the persisted re-centering, or stopped (never re-centering on
     an empty pass set would replay as [next_axes = None] mid-budget). *)
  let restored = List.sort (fun a b -> compare a.it b.it) history in
  let start_axes, start_stop, next_it =
    match List.rev restored with
    | [] -> (cfg.axes, false, 0)
    | last :: _ -> (
      ( (match last.next_axes with Some a -> a | None -> last.axes),
        (last.next_axes = None && last.it < cfg.iters),
        last.it + 1 ))
  in
  let axes = ref start_axes in
  let recorded = ref (List.rev restored) in
  let stop = ref start_stop in
  (* Iteration [it = 0] sweeps the original axes; each later iteration
     sweeps the re-centered ones.  Every sweep reuses the same seed —
     common random numbers keep the yield estimates comparable. *)
  for it = next_it to cfg.iters do
    if not !stop then begin
      let prep, results, res =
        sweep_once ?jobs ?block model ~specs:cfg.specs ~seed:cfg.seed !axes
          cfg.points
      in
      let yield = Option.value ~default:0.0 res.Engine.yield in
      let pass, npass = pass_mask prep results in
      let next =
        if it >= cfg.iters || npass = 0 then None
        else begin
          let cols = Engine.prep_inputs prep in
          let n = Engine.prep_points prep in
          Some
            (List.map2
               (fun (cur, sj) b0 ->
                 let sum = ref 0.0 in
                 for i = 0 to n - 1 do
                   if pass.(i) then sum := !sum +. cols.(sj).(i)
                 done;
                 let center = !sum /. float_of_int npass in
                 {
                   cur with
                   Plan.dist =
                     shift_dist ~bounds0:b0 ~shrink:cfg.shrink ~center
                       cur.Plan.dist;
                 })
               (List.combine !axes axis_syms)
               bounds0)
        end
      in
      let entry =
        {
          it;
          axes = !axes;
          yield;
          survivors = Engine.survivors res;
          passing = npass;
          next_axes = next;
        }
      in
      recorded := entry :: !recorded;
      on_iteration entry;
      Obs.Metrics.incr "opt.yield.iters";
      Obs.Metrics.add "opt.yield.points" cfg.points;
      Obs.Metrics.set_gauge "opt.yield.estimate" yield;
      match next with
      | Some a -> axes := a
      | None -> if npass = 0 then stop := true
    end
  done;
  { config = cfg; history = List.rev !recorded; final_axes = !axes }
