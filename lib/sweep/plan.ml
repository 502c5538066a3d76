type axis = { name : string; dist : Dist.t }

type kind =
  | Monte_carlo of int
  | Latin_hypercube of int
  | Corners
  | Grid of int

type t = { kind : kind; axes : axis list }

let make kind axes =
  if axes = [] then invalid_arg "Plan.make: no axes to sweep";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a.name then
        invalid_arg (Printf.sprintf "Plan.make: duplicate axis %s" a.name);
      Hashtbl.add seen a.name ())
    axes;
  (match kind with
  | Monte_carlo n | Latin_hypercube n ->
    if n < 1 then invalid_arg "Plan.make: need at least one point"
  | Grid n ->
    if n < 2 then invalid_arg "Plan.make: grid needs >= 2 points per axis"
  | Corners -> ());
  let p = { kind; axes } in
  (* Cartesian kinds explode with dimension; fail at plan time, not after
     an hour of sampling. *)
  (match kind with
  | Corners when List.length axes > 20 ->
    invalid_arg "Plan.make: corner plan over more than 20 axes"
  | Grid n
    when float_of_int (List.length axes) *. log (float_of_int n)
         > log 1_000_000.0 ->
    invalid_arg "Plan.make: grid plan exceeds 1,000,000 points"
  | _ -> ());
  p

let num_points t =
  let k = List.length t.axes in
  match t.kind with
  | Monte_carlo n | Latin_hypercube n -> n
  | Corners -> 1 lsl k
  | Grid n ->
    let rec pow acc i = if i = 0 then acc else pow (acc * n) (i - 1) in
    pow 1 k

let kind_name = function
  | Monte_carlo _ -> "monte-carlo"
  | Latin_hypercube _ -> "latin-hypercube"
  | Corners -> "corners"
  | Grid _ -> "grid"

(* Map plan axes onto the model's input slots: every model symbol gets a
   column; un-swept symbols hold their nominal value in every lane. *)
let slot_of_axis symbols a =
  let rec find k =
    if k >= Array.length symbols then
      Awesym_error.errorf Invalid_request ~where:"plan.columns"
        "swept symbol %s is not a model symbol (have: %s)" a.name
        (String.concat ", " (Array.to_list symbols))
    else if symbols.(k) = a.name then k
    else find (k + 1)
  in
  find 0

let columns ~symbols ~nominals ~rng ?jobs ?(block = 256) t =
  if Array.length symbols <> Array.length nominals then
    invalid_arg "Plan.columns: symbols/nominals length mismatch";
  if block < 1 then invalid_arg "Plan.columns: block must be >= 1";
  let n = num_points t in
  let axes = Array.of_list t.axes in
  let slots = Array.map (slot_of_axis symbols) axes in
  let cols =
    Array.init (Array.length symbols) (fun k -> Array.make n nominals.(k))
  in
  (* Writes are indexed by point, so chunked execution fills disjoint
     ranges, whichever domain runs a chunk. *)
  let fill f =
    Runtime.iter_chunks ?jobs ~n ~block (fun ~worker:_ (c : Runtime.Chunk.t) ->
        for i = c.lo to c.lo + c.len - 1 do
          f i
        done)
  in
  (match t.kind with
  | Monte_carlo _ ->
    (* Point-major order: all axes of point i are drawn before point i+1,
       so adding an axis changes other axes' draws but adding points never
       changes earlier points.  Per-chunk streams are jump-ahead copies of
       THE sequential stream: chunk c starts [c.lo * draws-per-point] raw
       draws in, so every point sees exactly the values one sequential
       loop draws. *)
    let dpp = Array.fold_left (fun acc a -> acc + Dist.draws a.dist) 0 axes in
    Runtime.iter_chunks ?jobs ~n ~block (fun ~worker:_ (c : Runtime.Chunk.t) ->
        let r = Obs.Rng.copy rng in
        Obs.Rng.skip r (c.lo * dpp);
        for i = c.lo to c.lo + c.len - 1 do
          Array.iteri
            (fun j a -> cols.(slots.(j)).(i) <- Dist.sample a.dist r)
            axes
        done);
    (* Leave the caller's stream where sequential sampling would. *)
    Obs.Rng.skip rng (n * dpp)
  | Latin_hypercube _ ->
    (* One stratified sample per stratum per axis, then a Fisher–Yates
       shuffle decorrelates the axes.  Shuffle and jitter draws are
       data-dependent on nothing but the stream, so they stay sequential;
       only the quantile transform fans out. *)
    let perm = Array.init n (fun i -> i) in
    Array.iteri
      (fun j a ->
        for i = n - 1 downto 1 do
          let k = Obs.Rng.int rng (i + 1) in
          let tmp = perm.(i) in
          perm.(i) <- perm.(k);
          perm.(k) <- tmp
        done;
        let col = cols.(slots.(j)) in
        (* [Array.init] draws in index order. *)
        let jitter = Array.init n (fun _ -> Obs.Rng.float rng) in
        fill (fun i ->
            let u = (float_of_int perm.(i) +. jitter.(i)) /. float_of_int n in
            (* Clamp away from the open endpoints quantile rejects. *)
            let u = Float.max 1e-12 (Float.min (1.0 -. 1e-12) u) in
            col.(i) <- Dist.quantile a.dist u))
      axes
  | Corners ->
    Array.iteri
      (fun j a ->
        let lo, hi = Dist.bounds a.dist in
        let col = cols.(slots.(j)) in
        fill (fun i -> col.(i) <- (if i land (1 lsl j) = 0 then lo else hi)))
      axes
  | Grid per_axis ->
    Array.iteri
      (fun j a ->
        let lo, hi = Dist.bounds a.dist in
        let step = (hi -. lo) /. float_of_int (per_axis - 1) in
        let col = cols.(slots.(j)) in
        (* Axis j varies fastest for low j: index i decomposes in base
           [per_axis] with digit j selecting axis j's grid line. *)
        let rec digit i k = if k = 0 then i mod per_axis else digit (i / per_axis) (k - 1) in
        fill (fun i -> col.(i) <- lo +. (float_of_int (digit i j) *. step)))
      axes);
  cols

let codec =
  let module C = Obs.Codec in
  let axis =
    C.record (fun name dist -> { name; dist })
      [ C.req "symbol" C.string (fun a -> a.name);
        C.req "dist" Dist.codec (fun a -> a.dist) ]
  in
  let kinds =
    List.map (fun k -> (k, k)) [ "monte-carlo"; "latin-hypercube"; "corners"; "grid" ]
  in
  (* ["points"] is derived for corners and grid, and must agree; the
     result is revalidated through [make] so a decoded plan obeys every
     constructor invariant. *)
  let build (kind, points, axes, per_axis) =
    let kind =
      match (kind, per_axis) with
      | "monte-carlo", None -> Ok (Monte_carlo points)
      | "latin-hypercube", None -> Ok (Latin_hypercube points)
      | "corners", None -> Ok Corners
      | "grid", Some n -> Ok (Grid n)
      | "grid", None -> Error "a grid plan needs per_axis"
      | k, _ -> Error (Printf.sprintf "per_axis on a %s plan" k)
    in
    match Result.map (fun k -> make k axes) kind with
    | Ok p when num_points p <> points ->
      Error (Printf.sprintf "points %d, but the plan has %d" points (num_points p))
    | r -> r
    | exception Invalid_argument m -> Error m
  in
  C.refine build
    (fun p ->
      let per_axis = match p.kind with Grid n -> Some n | _ -> None in
      (kind_name p.kind, num_points p, p.axes, per_axis))
    (C.record (fun kind points axes per_axis -> (kind, points, axes, per_axis))
       [ C.req "kind" (C.enum kinds) (fun (k, _, _, _) -> k);
         C.req "points" C.int (fun (_, n, _, _) -> n);
         C.req "axes" (C.list axis) (fun (_, _, axes, _) -> axes);
         C.opt "per_axis" C.int (fun (_, _, _, per_axis) -> per_axis) ])

let to_json = Obs.Codec.encode codec
let of_json j = Result.map_error Obs.Codec.error_to_string (Obs.Codec.decode codec j)
