module E = Symbolic.Expr
module Slp = Symbolic.Slp
module Sym = Symbolic.Symbol
module Cx = Numeric.Cx

type t = {
  partition : Partition.t option;
      (* [None] for models loaded from an artifact: the netlist analysis is
         not stored on disk, only its compiled results. *)
  order : int;
  symbols : Sym.t array;
  nominals : float array;
  output : Circuit.Netlist.output option;
  moment_exprs : E.t array;
  moment_program : Slp.t;
  closed : (Closed_form.order2 * Slp.t) option;
  bounds_program : Slp.t Lazy.t;
      (* Cramer-form (polynomial-ratio) variant of the moment program:
         point-for-point identical algebraically, but far better behaved
         under interval evaluation, where elimination programs' subtractive
         pivots straddle zero almost immediately. *)
  sensitivity : Slp.t Lazy.t;
  pole_sensitivity : Slp.t option Lazy.t;
}

(* Derivative programs are rebuilt from the moment/closed-form DAGs, so
   they exist for loaded artifacts too (via [Slp.to_exprs]). *)
let derived_lazies symbols moment_exprs closed =
  let sensitivity =
    lazy
      (let rows =
         Array.map
           (fun m -> Array.map (fun s -> E.deriv m s) symbols)
           moment_exprs
       in
       Slp.compile ~inputs:symbols (Array.concat (Array.to_list rows)))
  in
  let pole_sensitivity =
    lazy
      (Option.map
         (fun (cf, _) ->
           let exprs =
             Array.concat
               [
                 Array.map (E.deriv cf.Closed_form.pole1) symbols;
                 Array.map (E.deriv cf.Closed_form.pole2) symbols;
               ]
           in
           Slp.compile ~inputs:symbols exprs)
         closed)
  in
  (sensitivity, pole_sensitivity)

(* Closed-form pole/residue DAGs for the orders that have them.  This is
   Expr-constructing (hash-consing) work, so it must run on the domain
   that owns the DAG — never inside pool workers. *)
let closed_exprs order moment_exprs =
  (* Structurally degenerate moment sequences (e.g. exactly geometric —
     the circuit is effectively single-pole in the symbols) make the
     closed forms divide by a folded zero; such models simply have no
     closed form and use the compiled-moment path. *)
  match order with
  | 1 -> (
    match
      ( Closed_form.pole_order1 moment_exprs,
        Closed_form.residue_order1 moment_exprs )
    with
    | p, k ->
      let cf =
        {
          Closed_form.pole1 = p;
          pole2 = E.zero;
          residue1 = k;
          residue2 = E.zero;
        }
      in
      Some (cf, [| p; k |])
    | exception Division_by_zero -> None)
  | 2 -> (
    match Closed_form.order2 moment_exprs with
    | cf ->
      Some
        ( cf,
          [| cf.Closed_form.pole1; cf.Closed_form.pole2;
             cf.Closed_form.residue1; cf.Closed_form.residue2 |] )
    | exception Division_by_zero -> None)
  | _ -> None

(* Record assembly from already-compiled programs. *)
let assemble_compiled partition ~output order moment_exprs bounds_program
    ~moment_program ~closed =
  let symbols = partition.Partition.symbols in
  let nominals = Array.map (Partition.nominal partition) symbols in
  let sensitivity, pole_sensitivity =
    derived_lazies symbols moment_exprs closed
  in
  { partition = Some partition; order; symbols; nominals; output;
    moment_exprs; moment_program; closed; bounds_program; sensitivity;
    pole_sensitivity }

(* One partition / port reduction / elimination serves every output: only
   the selector differs, so the marginal cost per extra output is a
   projection plus a compile.  [outputs = None] builds the netlist's
   designated output, resolved after the partition so a deck's errors
   surface in the partition's order. *)
let build_outputs ?(order = 2) ?(sparse = false) ?jobs nl outputs =
  if order < 1 then invalid_arg "Model.build: order must be >= 1";
  Obs.Span.with_ ~name:"model.compile" @@ fun () ->
  if !Obs.enabled then Obs.Metrics.incr "model.build.count";
  let partition = Partition.make ?extra_outputs:outputs nl in
  let outputs = Option.value outputs ~default:[ Circuit.Netlist.output nl ] in
  let count = 2 * order in
  let reduction = Port_reduction.compute ~sparse ?jobs ~count partition in
  let system = Global_system.build partition reduction in
  let nominal sym = Partition.nominal partition sym in
  let vectors = Global_system.solve_vectors_expr system ~nominal ~count in
  let raw = lazy (Global_system.solve_raw system ~count) in
  let symbols = partition.Partition.symbols in
  (* Phase 1 (sequential): all Expr-DAG construction — projections and
     closed forms go through the global hash-consing tables, which are
     single-domain only. *)
  let prepared =
    Array.of_list
      (List.map
         (fun output ->
           let sel = Global_system.selector_for system output in
           let moment_exprs = Global_system.project_expr system vectors sel in
           let bounds_program =
             lazy
               (Slp.compile ~inputs:symbols
                  (Global_system.moments_expr
                     (Global_system.project system (Lazy.force raw) sel)))
           in
           (output, moment_exprs, closed_exprs order moment_exprs,
            bounds_program))
         outputs)
  in
  (* Phase 2 (parallel): per-output compiles only READ the shared DAG
     (node ids and structure), so they fan out across domains. *)
  let compiled =
    Runtime.parallel_map ?jobs
      (fun (_, moment_exprs, cx, _) ->
        ( Slp.compile ~inputs:symbols moment_exprs,
          Option.map (fun (cf, es) -> (cf, Slp.compile ~inputs:symbols es)) cx
        ))
      prepared
  in
  Array.to_list
    (Array.mapi
       (fun i (output, moment_exprs, _, bounds_program) ->
         let moment_program, closed = compiled.(i) in
         assemble_compiled partition ~output:(Some output) order moment_exprs
           bounds_program ~moment_program ~closed)
       prepared)

let build ?order ?sparse ?jobs nl =
  match build_outputs ?order ?sparse ?jobs nl None with
  | [ m ] -> m
  | _ -> assert false

let build_many ?order ?sparse ?jobs nl ~outputs =
  if outputs = [] then invalid_arg "Model.build_many: no outputs";
  build_outputs ?order ?sparse ?jobs nl (Some outputs)

let order t = t.order
let symbols t = Array.copy t.symbols
let nominal_values t = Array.copy t.nominals
let output_meta t = t.output

let partition_opt t = t.partition
let moment_exprs t = Array.copy t.moment_exprs
let program t = t.moment_program
let num_operations t = Slp.num_instructions t.moment_program

let values t bindings =
  Array.map
    (fun s ->
      match List.assoc_opt (Sym.name s) bindings with
      | Some v -> v
      | None ->
        Awesym_error.errorf Invalid_request ~where:"model.values"
          "no value bound for symbol %s (the model needs every one of its \
           symbols bound)"
          (Sym.name s))
    t.symbols

let eval_moments t v = Slp.eval t.moment_program v

let rom t v = Awe.Pade.fit ~order:t.order (eval_moments t v)

let evaluator t =
  let run = Slp.make_evaluator t.moment_program in
  fun v -> Awe.Pade.fit ~order:t.order (run v)

let closed_form t = Option.map fst t.closed

let closed_form_rom t v =
  match t.closed with
  | None -> None
  | Some (_, prog) ->
    let out = Slp.eval prog v in
    let finite = Array.for_all Float.is_finite out in
    if not finite then None
    else if t.order = 1 then
      Some
        (Awe.Rom.make
           ~poles:[| Cx.of_float out.(0) |]
           ~residues:[| Cx.of_float out.(1) |]
           ())
    else
      Some
        (Awe.Rom.make
           ~poles:[| Cx.of_float out.(0); Cx.of_float out.(1) |]
           ~residues:[| Cx.of_float out.(2); Cx.of_float out.(3) |]
           ())

let moments_ratfun ?(count = 4) nl =
  let partition = Partition.make nl in
  let reduction = Port_reduction.compute ~count partition in
  let system = Global_system.build partition reduction in
  Global_system.moments_ratfun (Global_system.solve_moments system ~count)

let pp_forms ?(count = 4) ppf nl =
  let module Mpoly = Symbolic.Mpoly in
  let module Ratfun = Symbolic.Ratfun in
  let profile p =
    Mpoly.degree_profile p
    |> List.map (fun (s, e) ->
           if e = 1 then Sym.name s else Printf.sprintf "%s^%d" (Sym.name s) e)
    |> String.concat ", "
  in
  let side ppf p =
    if Mpoly.num_terms p <= 12 then Mpoly.pp ppf p
    else
      Format.fprintf ppf "P(%s; %d terms)" (profile p) (Mpoly.num_terms p)
  in
  let moments = moments_ratfun ~count nl in
  Array.iteri
    (fun k rf ->
      let den = Ratfun.den rf in
      if Mpoly.is_const den then
        Format.fprintf ppf "m%d = %a@." k side (Ratfun.num rf)
      else
        Format.fprintf ppf "m%d = (%a) / (%a)@." k side (Ratfun.num rf) side den)
    moments

let moment_bounds t ranges =
  let boxes =
    Array.map
      (fun s ->
        match List.find_opt (fun (n, _, _) -> n = Sym.name s) ranges with
        | Some (_, lo, hi) -> Symbolic.Interval.make lo hi
        | None ->
          Awesym_error.errorf Invalid_request ~where:"model.moment_bounds"
            "no range given for symbol %s" (Sym.name s))
      t.symbols
  in
  Slp.eval_interval (Lazy.force t.bounds_program) boxes

let elmore_program t =
  (* −m₁/m₀, the first-moment delay estimate, straight off the moment DAGs:
     the symbolic form of the estimate physical-design tools sweep. *)
  Slp.compile ~inputs:t.symbols
    [| E.neg (E.div t.moment_exprs.(1) t.moment_exprs.(0)) |]

let zero_program t =
  match t.closed with
  | None -> None
  | Some (cf, _) ->
    (* H(s) = k₁/(s−p₁) + k₂/(s−p₂) = ((k₁+k₂)s − (k₁p₂+k₂p₁)) / D(s):
       the single finite zero is z = (k₁p₂ + k₂p₁)/(k₁ + k₂).  Order-1
       models (pole2 = residue2 = 0) have no finite zero, and z folds to 0
       there, so only genuinely 2-branch forms compile. *)
    if E.equal cf.Closed_form.pole2 E.zero then None
    else
      let num =
        E.add
          (E.mul cf.Closed_form.residue1 cf.Closed_form.pole2)
          (E.mul cf.Closed_form.residue2 cf.Closed_form.pole1)
      in
      let den = E.add cf.Closed_form.residue1 cf.Closed_form.residue2 in
      Some (Slp.compile ~inputs:t.symbols [| E.div num den |])

let sensitivity_program t = Lazy.force t.sensitivity

let eval_sensitivities t v =
  let n = Array.length t.symbols in
  let flat = Slp.eval (Lazy.force t.sensitivity) v in
  Array.init
    (Array.length t.moment_exprs)
    (fun k -> Array.sub flat (k * n) n)

let pole_sensitivity_program t = Lazy.force t.pole_sensitivity

let eval_pole_sensitivities t v =
  match Lazy.force t.pole_sensitivity with
  | None -> None
  | Some prog ->
    let n = Array.length t.symbols in
    let flat = Slp.eval prog v in
    Some (Array.sub flat 0 n, Array.sub flat n n)

let time_symbol = Sym.intern "__time"

let transient_program t =
  match t.closed with
  | None -> None
  | Some (cf, _) ->
    let branch pole residue =
      (* (k/p)·(e^{p·t} − 1); an absent branch (order-1 models pad with
         zeros) contributes nothing. *)
      if E.equal pole E.zero then E.zero
      else
        E.mul
          (E.div residue pole)
          (E.sub (E.exp (E.mul pole (E.sym time_symbol))) E.one)
    in
    let y =
      E.add
        (branch cf.Closed_form.pole1 cf.Closed_form.residue1)
        (branch cf.Closed_form.pole2 cf.Closed_form.residue2)
    in
    let inputs = Array.append t.symbols [| time_symbol |] in
    Some (Slp.compile ~inputs [| y |])

let omega_symbol = Sym.intern "__omega"

let frequency_program t =
  match t.closed with
  | None -> None
  | Some (cf, _) ->
    let w = E.sym omega_symbol in
    let w2 = E.mul w w in
    (* For a real pole p and residue k:
       k/(jω − p) = k·(−p − jω)/(p² + ω²). *)
    let branch pole residue =
      if E.equal pole E.zero then (E.zero, E.zero)
      else begin
        let denom = E.add (E.mul pole pole) w2 in
        ( E.div (E.mul residue (E.neg pole)) denom,
          E.neg (E.div (E.mul residue w) denom) )
      end
    in
    let re1, im1 = branch cf.Closed_form.pole1 cf.Closed_form.residue1 in
    let re2, im2 = branch cf.Closed_form.pole2 cf.Closed_form.residue2 in
    let inputs = Array.append t.symbols [| omega_symbol |] in
    Some (Slp.compile ~inputs [| E.add re1 re2; E.add im1 im2 |])

(* ------------------------------------------------------------------ *)
(* Persistence *)

let to_payload t =
  {
    Artifact.order = t.order;
    symbol_names = Array.map Sym.name t.symbols;
    nominals = Array.copy t.nominals;
    output = t.output;
    moment_program = t.moment_program;
    closed_program = Option.map snd t.closed;
  }

let of_payload (p : Artifact.payload) =
  let symbols = Array.map Sym.intern p.symbol_names in
  if Array.length p.nominals <> Array.length symbols then
    raise (Artifact.Format_error "nominal/symbol count mismatch");
  if Slp.inputs p.moment_program <> symbols then
    raise
      (Artifact.Format_error
         "moment program inputs disagree with the symbol table");
  if Slp.num_outputs p.moment_program <> 2 * p.order then
    raise
      (Artifact.Format_error
         (Printf.sprintf "order-%d model with %d moment outputs" p.order
            (Slp.num_outputs p.moment_program)));
  (* Symbolic forms come back from the bytecode, so the derivative,
     Elmore, and time/frequency machinery keeps working on loaded
     models; only the netlist-side analyses (partition, moment bounds)
     stay unavailable. *)
  let moment_exprs = Slp.to_exprs p.moment_program in
  let closed =
    match p.closed_program with
    | None -> None
    | Some prog ->
      let expected = if p.order = 1 then 2 else 4 in
      if Slp.num_outputs prog <> expected then
        raise
          (Artifact.Format_error
             (Printf.sprintf "closed-form program with %d outputs, wanted %d"
                (Slp.num_outputs prog) expected));
      let es = Slp.to_exprs prog in
      let cf =
        if p.order = 1 then
          {
            Closed_form.pole1 = es.(0);
            pole2 = E.zero;
            residue1 = es.(1);
            residue2 = E.zero;
          }
        else
          {
            Closed_form.pole1 = es.(0);
            pole2 = es.(1);
            residue1 = es.(2);
            residue2 = es.(3);
          }
      in
      Some (cf, prog)
  in
  let sensitivity, pole_sensitivity =
    derived_lazies symbols moment_exprs closed
  in
  {
    partition = None;
    order = p.order;
    symbols;
    nominals = Array.copy p.nominals;
    output = p.output;
    moment_exprs;
    moment_program = p.moment_program;
    closed;
    bounds_program =
      lazy
        (Awesym_error.raise_error Invalid_request
           ~where:"model.moment_bounds"
           "unavailable for a model loaded from an artifact; rebuild it \
            from the deck");
    sensitivity;
    pole_sensitivity;
  }

let save t path = Artifact.save path (to_payload t)
let load path = of_payload (Artifact.load path)

let build_cached ?cache_dir ?(order = 2) ?(sparse = false) ?jobs nl =
  let dir =
    match cache_dir with Some d -> d | None -> Cache.default_dir ()
  in
  let key = Cache.key ~order ~sparse nl in
  let file = Cache.path ~dir key in
  let cached =
    if Sys.file_exists file then
      match
        Runtime.Fault.cut "cache.read" ~key:(Hashtbl.hash key);
        load file
      with
      | m ->
        if !Obs.enabled then Obs.Metrics.incr "model.cache.hit";
        Some m
      | exception (Artifact.Format_error _ | Sys_error _) ->
        (* Stale, corrupted, or concurrently written: rebuild below. *)
        None
      | exception Awesym_error.Error { kind = Injected_fault | Artifact_corrupt; _ }
        ->
        (* Fault containment: a cache entry is always reproducible, so a
           failed read — injected or real — degrades to a rebuild. *)
        None
    else None
  in
  match cached with
  | Some m -> m
  | None ->
    if !Obs.enabled then Obs.Metrics.incr "model.cache.miss";
    let m = build ~order ~sparse ?jobs nl in
    (try
       Cache.ensure_dir dir;
       (* Temp-file + rename: concurrent builders racing on this key each
          publish a complete artifact, and a crash mid-save leaves no
          partial file to poison later hits. *)
       Cache.atomic_write file (save m)
     with Sys_error _ -> ());
    m
