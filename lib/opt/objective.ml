module Model = Awesymbolic.Model
module Engine = Sweep.Engine
module Err = Awesym_error

type goal = Minimize of Engine.measure | Maximize of Engine.measure

type t = {
  goal : goal option;
  area_weight : float;
  penalty_weight : float;
  specs : Engine.spec list;
}

let make ?goal ?(area_weight = 0.0) ?(penalty_weight = 1.0) ?(specs = []) () =
  if area_weight < 0.0 || not (Float.is_finite area_weight) then
    Err.errorf Invalid_request ~where:"opt.objective"
      "area weight must be finite and >= 0, got %g" area_weight;
  if penalty_weight < 0.0 || not (Float.is_finite penalty_weight) then
    Err.errorf Invalid_request ~where:"opt.objective"
      "penalty weight must be finite and >= 0, got %g" penalty_weight;
  if goal = None && specs = [] && area_weight = 0.0 then
    Err.raise_error Invalid_request ~where:"opt.objective"
      "objective is empty: need a goal, at least one spec, or a positive \
       area weight";
  { goal; area_weight; penalty_weight; specs }

let goal_to_string = function
  | Minimize m -> "minimize:" ^ Engine.measure_name m
  | Maximize m -> "maximize:" ^ Engine.measure_name m

let goal_of_string s =
  match String.index_opt s ':' with
  | None ->
    Error
      (Printf.sprintf
         "goal %S must look like minimize:measure or maximize:measure" s)
  | Some i -> (
    let dir = String.lowercase_ascii (String.trim (String.sub s 0 i)) in
    let name = String.sub s (i + 1) (String.length s - i - 1) in
    match (dir, Engine.measure_of_string name) with
    | ("minimize" | "min"), Ok m -> Ok (Minimize m)
    | ("maximize" | "max"), Ok m -> Ok (Maximize m)
    | _, Error e -> Error e
    | _, Ok _ ->
      Error (Printf.sprintf "goal direction %S is not minimize/maximize" dir))

let measures t =
  let wanted =
    (match t.goal with
    | Some (Minimize m) | Some (Maximize m) -> [ m ]
    | None -> [])
    @ List.map (fun (s : Engine.spec) -> s.Engine.measure) t.specs
  in
  List.fold_left
    (fun acc m -> if List.mem m acc then acc else acc @ [ m ])
    [] wanted

(* Normalized hinge: 0 inside the spec, violation in units of the limit
   outside.  NaN measures propagate to a NaN hinge (the caller maps a
   NaN objective to infinity). *)
let hinge (s : Engine.spec) x =
  match s.Engine.bound with
  | Engine.Le limit ->
    Float.max 0.0 ((x -. limit) /. Float.max (Float.abs limit) 1e-30)
  | Engine.Ge limit ->
    Float.max 0.0 ((limit -. x) /. Float.max (Float.abs limit) 1e-30)

let area model ~free v =
  let nominals = Model.nominal_values model in
  Array.fold_left
    (fun acc j ->
      acc +. (Float.abs v.(j) /. Float.max (Float.abs nominals.(j)) 1e-300))
    0.0 free

let assemble t ~area_term value_of =
  let f = ref 0.0 in
  (match t.goal with
  | Some (Minimize m) -> f := !f +. value_of m
  | Some (Maximize m) -> f := !f -. value_of m
  | None -> ());
  f := !f +. (t.area_weight *. area_term);
  List.iter
    (fun s ->
      let h = hinge s (value_of s.Engine.measure) in
      f := !f +. (t.penalty_weight *. h *. h))
    t.specs;
  if Float.is_nan !f then infinity else !f

let value t model ~free v =
  Obs.Metrics.incr "opt.obj.evals";
  let ms = measures t in
  match Engine.point_measures model ms v with
  | exception _ -> infinity
  | vals ->
    let table = List.combine ms vals in
    assemble t
      ~area_term:(area model ~free v)
      (fun m -> List.assoc m table)

(* Relative parameter step for the moment-space central difference.  The
   perturbation is formed from the exact Jacobian column, so this only
   controls how far the deterministic measure finish is probed — small
   enough to stay local, large enough to stand clear of the finish's own
   rounding. *)
let fd_rel = 1e-4

let value_grad t model ~free v =
  Obs.Metrics.incr "opt.obj.grads";
  let ms = measures t in
  let nfree = Array.length free in
  let finish moments =
    match Engine.moment_measures model ms moments with
    | vals -> vals
    | exception _ -> List.map (fun _ -> nan) ms
  in
  match (Model.eval_moments model v, Model.eval_sensitivities model v) with
  | exception _ -> (infinity, Array.make nfree nan)
  | moments, jac ->
    let nm = Array.length moments in
    (* The sweep's fault rule: only a moment the measures read counts. *)
    let base =
      if
        Array.exists
          (fun k -> not (Float.is_finite moments.(k)))
          (Engine.moments_read ~order:(Model.order model) ms)
      then List.map (fun _ -> nan) ms
      else finish moments
    in
    let table = List.combine ms base in
    let value_of m = List.assoc m table in
    let f = assemble t ~area_term:(area model ~free v) value_of in
    (* d(measure)/d(v_{free.(j)}) for every requested measure: analytic
       where the measure is a plain function of one or two moments, a
       central difference through the finish along the Jacobian column
       otherwise. *)
    let grads =
      Array.map
        (fun sj ->
          let dm k = jac.(k).(sj) in
          let needs_fd =
            List.exists
              (function
                | Engine.Moment _ | Engine.Elmore_delay -> false | _ -> true)
              ms
          in
          let fd_table =
            if not needs_fd then []
            else begin
              let step = fd_rel *. Float.max (Float.abs v.(sj)) 1e-30 in
              let perturb sign =
                Array.init nm (fun k -> moments.(k) +. (sign *. step *. dm k))
              in
              let plus = finish (perturb 1.0)
              and minus = finish (perturb (-1.0)) in
              List.map2
                (fun m (p, q) -> (m, (p -. q) /. (2.0 *. step)))
                ms
                (List.combine plus minus)
            end
          in
          fun m ->
            match m with
            | Engine.Moment k -> if k < nm then dm k else nan
            | Engine.Elmore_delay ->
              (* e = -m1/m0, de = (m1·dm0 - m0·dm1)/m0² *)
              let m0 = moments.(0) and m1 = moments.(1) in
              ((m1 *. dm 0) -. (m0 *. dm 1)) /. (m0 *. m0)
            | m -> List.assoc m fd_table)
        free
    in
    let g =
      Array.init nfree (fun j ->
          let dmeas = grads.(j) in
          let acc = ref 0.0 in
          (match t.goal with
          | Some (Minimize m) -> acc := !acc +. dmeas m
          | Some (Maximize m) -> acc := !acc -. dmeas m
          | None -> ());
          let sj = free.(j) in
          let nominal =
            Float.max (Float.abs (Model.nominal_values model).(sj)) 1e-300
          in
          acc :=
            !acc
            +. t.area_weight *. (if v.(sj) < 0.0 then -1.0 else 1.0) /. nominal;
          List.iter
            (fun s ->
              let x = value_of s.Engine.measure in
              let h = hinge s x in
              if h > 0.0 then begin
                let scale, sign =
                  match s.Engine.bound with
                  | Engine.Le limit -> (Float.max (Float.abs limit) 1e-30, 1.0)
                  | Engine.Ge limit -> (Float.max (Float.abs limit) 1e-30, -1.0)
                in
                acc :=
                  !acc
                  +. t.penalty_weight *. 2.0 *. h *. sign /. scale
                     *. dmeas s.Engine.measure
              end)
            t.specs;
          !acc)
    in
    (f, g)
