module Mna = Circuit.Mna
module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Matrix = Numeric.Matrix
module Mpoly = Symbolic.Mpoly

type t = {
  n : int;
  matrices : Mpoly.t array array array;
      (* frequency-normalized: entry k holds [Yᵏ·ω₀ᵏ] *)
  rhs : Mpoly.t array;
  selector : (int * float) list;
  row_of : string -> int;
  scale : float array;
  omega0 : float;
      (* frequency normalization s = ω₀·ŝ; solved moments come back in ŝ
         powers and are denormalized by ω₀⁻ᵏ at projection time *)
}

let size t = t.n

let singular msg = Awesym_error.raise_error Singular_system ~where:"global_system" msg

let selector_for t output =
  let row name =
    match t.row_of name with
    | r -> r
    | exception Not_found ->
      failwith
        (Printf.sprintf
           "Global_system.selector_for: node %s is not a global unknown \
            (declare it as an output when partitioning)"
           name)
  in
  let raw =
    match output with
    | Netlist.Node a -> if row a >= 0 then [ (row a, 1.0) ] else []
    | Netlist.Diff (a, b) ->
      List.filter (fun (r, _) -> r >= 0) [ (row a, 1.0); (row b, -1.0) ]
  in
  List.map (fun (r, c) -> (r, c *. t.scale.(r))) raw

let build partition reduction =
  Obs.Span.with_ ~name:"model.global_system" @@ fun () ->
  let ports = partition.Partition.ports in
  (* Global netlist: input source, symbolic elements, and the numeric
     companions their stamps reference, indexed over the full port frame so
     every port has a row even when no symbolic element touches it. *)
  let global_nl =
    Netlist.empty
    |> Fun.flip Netlist.add_all
         ((partition.Partition.input
          :: List.map fst partition.Partition.symbolic)
         @ partition.Partition.companions)
  in
  let ix = Mna.index_of_netlist ~extra_nodes:(Array.to_list ports) global_nl in
  let n = Mna.size ix in
  let depth = Int.max 2 (Array.length reduction.Port_reduction.series) in
  let matrices = Array.init depth (fun _ -> Array.make_matrix n n Mpoly.zero) in
  let addm k i j v = matrices.(k).(i).(j) <- Mpoly.add matrices.(k).(i).(j) v in
  let rhs = Array.make n Mpoly.zero in
  (* Numeric partition: stencil each Yᵐ onto the port rows/columns.
     Entries that are pure float dust relative to the matrix scale (exact
     zeros contaminated by solver rounding) are dropped — they carry no
     information and poison the tolerance-chopped fraction-free display
     path with 10¹⁶-spread polynomials. *)
  Array.iteri
    (fun m ym ->
      let scale =
        Array.fold_left
          (fun acc row ->
            Array.fold_left (fun a v -> Float.max a (Float.abs v)) acc row)
          0.0
          (Matrix.to_arrays ym)
      in
      let floor = 1e-12 *. scale in
      Array.iteri
        (fun i pi ->
          let ri = Mna.node_row ix pi in
          Array.iteri
            (fun j pj ->
              let rj = Mna.node_row ix pj in
              let v = Matrix.get ym i j in
              if Float.abs v > floor then addm m ri rj (Mpoly.const v))
            ports)
        ports)
    reduction.Port_reduction.series;
  (* Symbolic partitions: each element's stamp with its symbol as the value;
     the expansion G + s·C is finite (Eq. 10). *)
  List.iter
    (fun ((e : Element.t), sym) ->
      let st = Mna.stamp_of ix e in
      let value = Mpoly.of_symbol sym in
      List.iter
        (fun { Mna.row; col; coeff } -> addm 0 row col (Mpoly.const coeff))
        st.Mna.g_const;
      List.iter
        (fun { Mna.row; col; coeff } -> addm 0 row col (Mpoly.scale coeff value))
        st.Mna.g_value;
      List.iter
        (fun { Mna.row; col; coeff } -> addm 1 row col (Mpoly.scale coeff value))
        st.Mna.c_value)
    partition.Partition.symbolic;
  (* Companion elements: numeric values, stamped at the global level because
     symbolic elements reference their branch currents. *)
  List.iter
    (fun (e : Element.t) ->
      let st = Mna.stamp_of ix e in
      let value = Element.stamp_value e in
      List.iter
        (fun { Mna.row; col; coeff } -> addm 0 row col (Mpoly.const coeff))
        st.Mna.g_const;
      List.iter
        (fun { Mna.row; col; coeff } -> addm 0 row col (Mpoly.const (coeff *. value)))
        st.Mna.g_value;
      List.iter
        (fun { Mna.row; col; coeff } -> addm 1 row col (Mpoly.const (coeff *. value)))
        st.Mna.c_value)
    partition.Partition.companions;
  (* Input source: incidence plus unit RHS (the impulse I₀; higher moment
     RHS terms vanish). *)
  let st = Mna.stamp_of ix partition.Partition.input in
  List.iter
    (fun { Mna.row; col; coeff } -> addm 0 row col (Mpoly.const coeff))
    st.Mna.g_const;
  List.iter
    (fun (r, coeff) -> rhs.(r) <- Mpoly.add rhs.(r) (Mpoly.const coeff))
    st.Mna.b_unit;
  let selector =
    let row name = Mna.node_row ix name in
    match Netlist.output partition.Partition.netlist with
    | Netlist.Node a -> if row a >= 0 then [ (row a, 1.0) ] else []
    | Netlist.Diff (a, b) ->
      List.filter (fun (r, _) -> r >= 0) [ (row a, 1.0); (row b, -1.0) ]
  in
  (* Frequency normalization s = ω₀·ŝ (the Exact.Network cure, applied to
     the global system): physical G entries sit near 1/R while C and L
     entries sit 10–13 decades below, and that spread defeats the
     tolerance-chopped exact division inside the fraction-free (Cramer)
     display path.  Scaling Yᵏ by ω₀ᵏ rebalances every matrix; the moment
     projection divides the k-th moment by ω₀ᵏ, so results are unchanged. *)
  let content_of m =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun a p -> Float.max a (Mpoly.content p)) acc row)
      0.0 m
  in
  let omega0 =
    (* Least-squares slope of log content(Yᵏ) against k: ω₀ = e^{−slope}
       flattens the whole family.  Clamped to 1 within a decade so already
       balanced systems (normalized units, the paper's examples) are left
       untouched. *)
    let pts =
      Array.to_list matrices
      |> List.mapi (fun k mk -> (float_of_int k, content_of mk))
      |> List.filter (fun (_, c) -> c > 0.0)
      |> List.map (fun (k, c) -> (k, Float.log c))
    in
    match pts with
    | [] | [ _ ] -> 1.0
    | _ ->
      let n = float_of_int (List.length pts) in
      let kbar = List.fold_left (fun a (k, _) -> a +. k) 0.0 pts /. n in
      let lbar = List.fold_left (fun a (_, l) -> a +. l) 0.0 pts /. n in
      let num =
        List.fold_left (fun a (k, l) -> a +. ((k -. kbar) *. (l -. lbar))) 0.0 pts
      in
      let den =
        List.fold_left (fun a (k, _) -> a +. ((k -. kbar) *. (k -. kbar))) 0.0 pts
      in
      let slope = if den > 0.0 then num /. den else 0.0 in
      if Float.abs slope < Float.log 10.0 then 1.0 else Float.exp (-.slope)
  in
  let matrices =
    Array.mapi
      (fun k mk ->
        if k = 0 then mk
        else
          let w = Float.pow omega0 (float_of_int k) in
          Array.map (Array.map (Mpoly.scale w)) mk)
      matrices
  in
  (* Symmetric equilibration with constant diagonal scalings:
     Y'ᵏ = D·Yᵏ·D, rhs' = D·rhs, selector' coefficients gain the row scale
     (V = D·V').  Exact algebra — the scale folds into float coefficients —
     but it compresses the 10⁵-plus magnitude spreads of mixed-conductance
     systems that otherwise defeat float-coefficient fraction-free
     elimination. *)
  let scale =
    Array.init n (fun i ->
        let worst = ref 0.0 in
        Array.iter
          (fun mk ->
            Array.iter
              (fun p -> worst := Float.max !worst (Mpoly.content p))
              mk.(i))
          matrices;
        if !worst > 0.0 then 1.0 /. Float.sqrt !worst else 1.0)
  in
  let matrices =
    Array.map
      (fun mk ->
        Array.mapi
          (fun i row ->
            Array.mapi (fun j p -> Mpoly.scale (scale.(i) *. scale.(j)) p) row)
          mk)
      matrices
  in
  let rhs = Array.mapi (fun i p -> Mpoly.scale scale.(i) p) rhs in
  let selector = List.map (fun (r, c) -> (r, c *. scale.(r))) selector in
  { n; matrices; rhs; selector; row_of = (fun name -> Mna.node_row ix name);
    scale; omega0 }

let moment_matrix t k =
  if k < Array.length t.matrices then t.matrices.(k)
  else Array.make_matrix t.n t.n Mpoly.zero

type moments = { det : Mpoly.t; numerators : Mpoly.t array }

type raw = { raw_det : Mpoly.t; vectors : Mpoly.t array array }

(* Fraction-free recursion: with V₀ = P₀/det and Vₖ = Pₖ/det^{k+1},
   Y⁰·Vₖ = −Σⱼ Yʲ·V_{k−j} becomes
   Y⁰·Pₖ = det · Qₖ with Qₖ = −Σⱼ det^{j−1}·(Yʲ·P_{k−j}),
   and Cramer gives Pₖ directly (the solve's denominator is det itself). *)
let solve_raw t ~count =
  if count < 1 then invalid_arg "Global_system.solve_moments: count >= 1";
  Obs.Span.with_ ~name:"model.solve_fraction_free" @@ fun () ->
  if !Obs.enabled then
    Obs.Metrics.observe "global.system.size" (float_of_int t.n);
  let y0 = t.matrices.(0) in
  let depth = Array.length t.matrices in
  let mul_mat_vec m v =
    Array.init t.n (fun i ->
        let acc = ref Mpoly.zero in
        for j = 0 to t.n - 1 do
          if not (Mpoly.is_zero m.(i).(j)) && not (Mpoly.is_zero v.(j)) then
            acc := Mpoly.add !acc (Mpoly.mul m.(i).(j) v.(j))
        done;
        !acc)
  in
  let p = Array.make count [||] in
  let nums0, det =
    try Exact.Bareiss.solve_cramer y0 t.rhs
    with Failure _ | Awesym_error.Error { kind = Singular_system; _ } ->
      singular "Y0 is singular"
  in
  if Mpoly.is_zero det then singular "Y0 is singular";
  p.(0) <- nums0;
  for k = 1 to count - 1 do
    let q = Array.make t.n Mpoly.zero in
    let power = ref Mpoly.one in
    (* j = 1 uses det⁰, j = 2 uses det¹, … *)
    for j = 1 to Int.min k (depth - 1) do
      let term = mul_mat_vec t.matrices.(j) p.(k - j) in
      Array.iteri
        (fun i v ->
          if not (Mpoly.is_zero v) then
            q.(i) <- Mpoly.sub q.(i) (Mpoly.mul !power v))
        term;
      power := Mpoly.mul !power det
    done;
    let nums, det' = Exact.Bareiss.solve_cramer y0 q in
    (* The matrix is the same every time, so the Cramer denominator is det
       again (up to the shared float rounding of the elimination). *)
    ignore det';
    p.(k) <- nums
  done;
  { raw_det = det; vectors = p }

let project t raw selector =
  let numerators =
    Array.mapi
      (fun k pk ->
        let denorm = Float.pow t.omega0 (-.float_of_int k) in
        List.fold_left
          (fun acc (r, coeff) ->
            Mpoly.add acc (Mpoly.scale (coeff *. denorm) pk.(r)))
          Mpoly.zero selector)
      raw.vectors
  in
  { det = raw.raw_det; numerators }

let solve_moments t ~count = project t (solve_raw t ~count) t.selector

let moments_ratfun m =
  Array.mapi
    (fun k num -> Symbolic.Ratfun.make num (Mpoly.pow m.det (k + 1)))
    m.numerators

let moments_expr m =
  let module E = Symbolic.Expr in
  let det = E.of_mpoly m.det in
  Array.mapi
    (fun k num -> E.div (E.of_mpoly num) (E.pow_int det (k + 1)))
    m.numerators

let solve_vectors_expr t ~nominal ~count =
  let module E = Symbolic.Expr in
  if count < 1 then
    invalid_arg "Global_system.moments_expr_by_elimination: count >= 1";
  Obs.Span.with_ ~name:"model.eliminate" @@ fun () ->
  if !Obs.enabled then
    Obs.Metrics.observe "global.system.size" (float_of_int t.n);
  let n = t.n in
  let value e = try Float.abs (E.eval e nominal) with Division_by_zero -> 0.0 in
  let to_expr m = Array.map (Array.map E.of_mpoly) m in
  let a = to_expr t.matrices.(0) in
  let depth = Array.length t.matrices in
  let higher = Array.init (depth - 1) (fun j -> to_expr t.matrices.(j + 1)) in
  (* LU with nominal-magnitude partial pivoting; L (unit diagonal) is stored
     below, U on and above. *)
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    let best = ref (-1) in
    let best_mag = ref 0.0 in
    for i = k to n - 1 do
      let mag = value a.(i).(k) in
      if mag > !best_mag then begin
        best_mag := mag;
        best := i
      end
    done;
    if !best < 0 then singular "Y0 is numerically singular at the nominal point";
    if !best <> k then begin
      let tmp = a.(k) in
      a.(k) <- a.(!best);
      a.(!best) <- tmp;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!best);
      perm.(!best) <- tmp
    end;
    for i = k + 1 to n - 1 do
      if not (E.equal a.(i).(k) E.zero) then begin
        let f = E.div a.(i).(k) a.(k).(k) in
        a.(i).(k) <- f;
        for j = k + 1 to n - 1 do
          if not (E.equal a.(k).(j) E.zero) then
            a.(i).(j) <- E.sub a.(i).(j) (E.mul f a.(k).(j))
        done
      end
    done
  done;
  let solve b =
    let x = Array.init n (fun i -> b.(perm.(i))) in
    for i = 1 to n - 1 do
      for j = 0 to i - 1 do
        if not (E.equal a.(i).(j) E.zero) && not (E.equal x.(j) E.zero) then
          x.(i) <- E.sub x.(i) (E.mul a.(i).(j) x.(j))
      done
    done;
    for i = n - 1 downto 0 do
      for j = i + 1 to n - 1 do
        if not (E.equal a.(i).(j) E.zero) && not (E.equal x.(j) E.zero) then
          x.(i) <- E.sub x.(i) (E.mul a.(i).(j) x.(j))
      done;
      x.(i) <- E.div x.(i) a.(i).(i)
    done;
    x
  in
  let rhs0 = Array.map E.of_mpoly t.rhs in
  let vs = Array.make count [||] in
  vs.(0) <- solve rhs0;
  for k = 1 to count - 1 do
    let rhs = Array.make n E.zero in
    for j = 1 to Int.min k (depth - 1) do
      let yj = higher.(j - 1) in
      let v = vs.(k - j) in
      for r = 0 to n - 1 do
        for c = 0 to n - 1 do
          if not (E.equal yj.(r).(c) E.zero) && not (E.equal v.(c) E.zero) then
            rhs.(r) <- E.sub rhs.(r) (E.mul yj.(r).(c) v.(c))
        done
      done
    done;
    vs.(k) <- solve rhs
  done;
  vs

let project_expr t vectors selector =
  let module E = Symbolic.Expr in
  Array.mapi
    (fun k v ->
      let denorm = Float.pow t.omega0 (-.float_of_int k) in
      List.fold_left
        (fun acc (r, coeff) ->
          E.add acc (E.mul (E.const (coeff *. denorm)) v.(r)))
        E.zero selector)
    vectors

let moments_expr_by_elimination t ~nominal ~count =
  project_expr t (solve_vectors_expr t ~nominal ~count) t.selector
