module Matrix = Numeric.Matrix

type index = {
  nl : Netlist.t;
  nodes : string array;
  node_tbl : (string, int) Hashtbl.t;
  aux_tbl : (string, int) Hashtbl.t;
  total : int;
}

let index_of_netlist ?(extra_nodes = []) nl =
  let nodes =
    Netlist.nodes nl @ List.filter (fun n -> not (Netlist.is_ground n)) extra_nodes
    |> List.sort_uniq Netlist.compare_nodes
    |> Array.of_list
  in
  let node_tbl = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun k n -> Hashtbl.replace node_tbl n k) nodes;
  let aux_tbl = Hashtbl.create 16 in
  let next = ref (Array.length nodes) in
  List.iter
    (fun (e : Element.t) ->
      if Element.needs_aux_current e then begin
        Hashtbl.replace aux_tbl e.Element.name !next;
        incr next
      end)
    (Netlist.elements nl);
  { nl; nodes; node_tbl; aux_tbl; total = !next }

let size ix = ix.total
let num_nodes ix = Array.length ix.nodes
let node_names ix = Array.copy ix.nodes

let node_row ix n =
  if Netlist.is_ground n then -1
  else
    match Hashtbl.find_opt ix.node_tbl n with
    | Some r -> r
    | None -> raise Not_found

let aux_row ix name =
  match Hashtbl.find_opt ix.aux_tbl name with
  | Some r -> r
  | None -> raise Not_found

type entry = { row : int; col : int; coeff : float }

type stamp = {
  g_const : entry list;
  g_value : entry list;
  c_value : entry list;
  b_unit : (int * float) list;
}

let live entries = List.filter (fun e -> e.row >= 0 && e.col >= 0) entries
let live_rhs entries = List.filter (fun (r, _) -> r >= 0) entries

(* Admittance-form two-terminal stamp: ±v at the four node positions. *)
let two_terminal p n =
  [ { row = p; col = p; coeff = 1.0 };
    { row = n; col = n; coeff = 1.0 };
    { row = p; col = n; coeff = -1.0 };
    { row = n; col = p; coeff = -1.0 } ]

(* The branch-current row of [ctrl], which [name] reads as its [what]:
   [ctrl] must be an element of a kind [ok] accepts, not merely one
   with a branch-current row. *)
let controlling_aux ix ~what ~ok name ctrl =
  match (Netlist.find ix.nl ctrl, Hashtbl.find_opt ix.aux_tbl ctrl) with
  | Some c, Some r when ok c.Element.kind -> r
  | _ ->
    Awesym_error.errorf Invalid_request ~where:"mna.stamp"
      "%s references %s, which is not %s in the circuit" name ctrl what

(* A CCCS/CCVS senses the current through a voltage source, controlled
   ones included (macromodel synthesis senses a VCVS). *)
let sensed_source ix name ctrl =
  controlling_aux ix ~what:"a V-source" name ctrl ~ok:(function
    | Element.Vsource | Element.Vcvs _ | Element.Ccvs _ -> true
    | _ -> false)

let coupled_inductor ix name l =
  controlling_aux ix ~what:"an inductor" name l ~ok:(( = ) Element.Inductor)

let stamp_of ix (e : Element.t) =
  let p = node_row ix e.Element.pos and n = node_row ix e.Element.neg in
  let nothing = { g_const = []; g_value = []; c_value = []; b_unit = [] } in
  match e.Element.kind with
  | Element.Resistor | Element.Conductance ->
    { nothing with g_value = live (two_terminal p n) }
  | Element.Capacitor -> { nothing with c_value = live (two_terminal p n) }
  | Element.Inductor ->
    let m = aux_row ix e.Element.name in
    {
      nothing with
      g_const =
        live
          [ { row = p; col = m; coeff = 1.0 };
            { row = n; col = m; coeff = -1.0 };
            { row = m; col = p; coeff = 1.0 };
            { row = m; col = n; coeff = -1.0 } ];
      c_value = [ { row = m; col = m; coeff = -1.0 } ];
    }
  | Element.Vsource ->
    let m = aux_row ix e.Element.name in
    {
      nothing with
      g_const =
        live
          [ { row = p; col = m; coeff = 1.0 };
            { row = n; col = m; coeff = -1.0 };
            { row = m; col = p; coeff = 1.0 };
            { row = m; col = n; coeff = -1.0 } ];
      b_unit = [ (m, 1.0) ];
    }
  | Element.Isource ->
    (* Value injects into pos, extracts from neg. *)
    { nothing with b_unit = live_rhs [ (p, 1.0); (n, -1.0) ] }
  | Element.Vccs (cp, cn) ->
    let cp = node_row ix cp and cn = node_row ix cn in
    {
      nothing with
      g_value =
        live
          [ { row = p; col = cp; coeff = 1.0 };
            { row = p; col = cn; coeff = -1.0 };
            { row = n; col = cp; coeff = -1.0 };
            { row = n; col = cn; coeff = 1.0 } ];
    }
  | Element.Vcvs (cp, cn) ->
    let m = aux_row ix e.Element.name in
    let cp = node_row ix cp and cn = node_row ix cn in
    {
      nothing with
      g_const =
        live
          [ { row = p; col = m; coeff = 1.0 };
            { row = n; col = m; coeff = -1.0 };
            { row = m; col = p; coeff = 1.0 };
            { row = m; col = n; coeff = -1.0 } ];
      g_value =
        live
          [ { row = m; col = cp; coeff = -1.0 };
            { row = m; col = cn; coeff = 1.0 } ];
    }
  | Element.Cccs ctrl ->
    let mc = sensed_source ix e.Element.name ctrl in
    {
      nothing with
      g_value =
        live
          [ { row = p; col = mc; coeff = 1.0 };
            { row = n; col = mc; coeff = -1.0 } ];
    }
  | Element.Mutual (l1, l2) ->
    (* Coupled inductors: the branch equations gain −s·M·i_other terms. *)
    let m1 = coupled_inductor ix e.Element.name l1 in
    let m2 = coupled_inductor ix e.Element.name l2 in
    {
      nothing with
      c_value =
        [ { row = m1; col = m2; coeff = -1.0 };
          { row = m2; col = m1; coeff = -1.0 } ];
    }
  | Element.Ccvs ctrl ->
    let m = aux_row ix e.Element.name in
    let mc = sensed_source ix e.Element.name ctrl in
    {
      nothing with
      g_const =
        live
          [ { row = p; col = m; coeff = 1.0 };
            { row = n; col = m; coeff = -1.0 };
            { row = m; col = p; coeff = 1.0 };
            { row = m; col = n; coeff = -1.0 } ];
      g_value = [ { row = m; col = mc; coeff = -1.0 } ];
    }

type t = {
  ix : index;
  ge : (int * int * float) list;
  ce : (int * int * float) list;
  gm : Matrix.t Lazy.t;
  cm : Matrix.t Lazy.t;
  b_input : float array;
  b_all : float array;
}

let dense_of_entries n entries =
  let m = Matrix.create n n in
  List.iter (fun (r, c, v) -> Matrix.add_entry m r c v) entries;
  m

let build nl =
  Obs.Span.with_ ~name:"mna.build" @@ fun () ->
  let ix = index_of_netlist nl in
  let n = ix.total in
  if !Obs.enabled then begin
    Obs.Metrics.incr "mna.build.count";
    Obs.Metrics.observe "mna.build.dim" (float_of_int n)
  end;
  let ge = ref [] and ce = ref [] in
  let b_input = Array.make n 0.0 and b_all = Array.make n 0.0 in
  let input_name = (Netlist.input nl).Element.name in
  List.iter
    (fun (e : Element.t) ->
      let st = stamp_of ix e in
      let v = Element.stamp_value e in
      List.iter (fun { row; col; coeff } -> ge := (row, col, coeff) :: !ge)
        st.g_const;
      List.iter
        (fun { row; col; coeff } -> ge := (row, col, coeff *. v) :: !ge)
        st.g_value;
      List.iter
        (fun { row; col; coeff } -> ce := (row, col, coeff *. v) :: !ce)
        st.c_value;
      List.iter
        (fun (r, coeff) ->
          b_all.(r) <- b_all.(r) +. (coeff *. e.Element.value);
          if e.Element.name = input_name then
            b_input.(r) <- b_input.(r) +. coeff)
        st.b_unit)
    (Netlist.elements nl);
  (* Preserve netlist stamping order — float accumulation order is part of
     the observable behaviour (rounding dust placement). *)
  let ge = List.rev !ge and ce = List.rev !ce in
  {
    ix;
    ge;
    ce;
    gm = lazy (dense_of_entries n ge);
    cm = lazy (dense_of_entries n ce);
    b_input;
    b_all;
  }

let index m = m.ix
let netlist m = m.ix.nl
let g m = Lazy.force m.gm
let c m = Lazy.force m.cm
let g_entries m = m.ge
let c_entries m = m.ce
let g_sparse m = Numeric.Sparse.of_entries m.ix.total m.ge
let c_sparse m = Numeric.Sparse.of_entries m.ix.total m.ce
let input_vector m = Array.copy m.b_input
let source_vector m = Array.copy m.b_all

let output_vector m =
  let l = Array.make m.ix.total 0.0 in
  let set n coeff =
    match node_row m.ix n with
    | r -> if r >= 0 then l.(r) <- l.(r) +. coeff
    | exception Not_found ->
      Awesym_error.errorf Invalid_request ~where:"mna.output"
        ~context:[ ("node", n) ]
        "output node %s is not in the circuit" n
  in
  (match Netlist.output m.ix.nl with
  | Netlist.Node a -> set a 1.0
  | Netlist.Diff (a, b) ->
    set a 1.0;
    set b (-1.0));
  l

let output_of m x =
  let l = output_vector m in
  let acc = ref 0.0 in
  Array.iteri (fun k v -> acc := !acc +. (v *. x.(k))) l;
  !acc

let symbolic_system ?(all_symbolic = false) nl =
  let module Mpoly = Symbolic.Mpoly in
  let module Sym = Symbolic.Symbol in
  let ix = index_of_netlist nl in
  let n = ix.total in
  let gm = Array.make_matrix n n Mpoly.zero in
  let cm = Array.make_matrix n n Mpoly.zero in
  let b = Array.make n Mpoly.zero in
  let input_name = (Netlist.input nl).Element.name in
  List.iter
    (fun (e : Element.t) ->
      let st = stamp_of ix e in
      let value_poly =
        match e.Element.symbol with
        | Some s -> Mpoly.of_symbol s
        | None ->
          if all_symbolic && not (Element.is_source e) then
            Mpoly.of_symbol (Sym.intern e.Element.name)
          else Mpoly.const (Element.stamp_value e)
      in
      let addg r c p = gm.(r).(c) <- Mpoly.add gm.(r).(c) p in
      let addc r c p = cm.(r).(c) <- Mpoly.add cm.(r).(c) p in
      List.iter
        (fun { row; col; coeff } -> addg row col (Mpoly.const coeff))
        st.g_const;
      List.iter
        (fun { row; col; coeff } -> addg row col (Mpoly.scale coeff value_poly))
        st.g_value;
      List.iter
        (fun { row; col; coeff } -> addc row col (Mpoly.scale coeff value_poly))
        st.c_value;
      if e.Element.name = input_name then
        List.iter
          (fun (r, coeff) -> b.(r) <- Mpoly.add b.(r) (Mpoly.const coeff))
          st.b_unit)
    (Netlist.elements nl);
  (ix, gm, cm, b)
