module Netlist = Circuit.Netlist
module Element = Circuit.Element

type t = {
  netlist : Netlist.t;
  symbolic : (Element.t * Symbolic.Symbol.t) list;
  symbols : Symbolic.Symbol.t array;
  companions : Element.t list;
  ports : string array;
  numeric : Netlist.t;
  input : Element.t;
}

let port_source_name node = "__port_" ^ node

let element_nodes (e : Element.t) =
  let base = [ e.Element.pos; e.Element.neg ] in
  match e.Element.kind with
  | Element.Vccs (cp, cn) | Element.Vcvs (cp, cn) -> cp :: cn :: base
  | Element.Resistor | Element.Conductance | Element.Capacitor
  | Element.Inductor | Element.Cccs _ | Element.Ccvs _ | Element.Mutual _
  | Element.Vsource | Element.Isource ->
    base

let make ?(extra_outputs = []) nl =
  Obs.Span.with_ ~name:"model.partition" @@ fun () ->
  let symbolic = Netlist.symbolic_elements nl in
  if symbolic = [] then
    Awesym_error.raise_error Invalid_request ~where:"partition.make"
      "no symbolic elements in the netlist (mark one with .symbolic)";
  let input = Netlist.input nl in
  (* Zero-valued extra sources are driveless — a 0-V source is a short, a
     0-A source an open — and show up routinely in linearized netlists
     (shorted DC supplies).  They stay in the numeric partition; sources
     that actually drive the circuit are out of scope beyond the input. *)
  List.iter
    (fun (e : Element.t) ->
      if
        Element.is_source e
        && e.Element.name <> input.Element.name
        && e.Element.value <> 0.0
      then
        Awesym_error.errorf Invalid_request ~where:"partition.make"
          "extra driving source %s (only the designated input is supported)"
          e.Element.name)
    (Netlist.elements nl);
  (match List.find_opt (fun ((e : Element.t), _) -> Element.is_source e) symbolic with
  | Some ((e : Element.t), _) ->
    Awesym_error.errorf Invalid_request ~where:"partition.make"
      "source %s cannot be symbolic" e.Element.name
  | None -> ());
  let symbols =
    List.map snd symbolic
    |> List.sort_uniq Symbolic.Symbol.compare
    |> Array.of_list
  in
  (* Coupling closure: mutual inductances reference the auxiliary branch
     currents of their inductors, so a coupled trio must live on one side of
     the partition.  Any trio touching a symbolic element drags its numeric
     members into the global system as companions; iterate to a fixpoint
     since shared inductors chain couplings together. *)
  let symbolic_names0 =
    List.map (fun ((e : Element.t), _) -> e.Element.name) symbolic
  in
  let global_names = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace global_names n ()) symbolic_names0;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (e : Element.t) ->
        match e.Element.kind with
        | Element.Mutual (l1, l2) ->
          let members = [ e.Element.name; l1; l2 ] in
          if List.exists (Hashtbl.mem global_names) members then
            List.iter
              (fun n ->
                if not (Hashtbl.mem global_names n) then begin
                  Hashtbl.replace global_names n ();
                  changed := true
                end)
              members
        | Element.Resistor | Element.Conductance | Element.Capacitor
        | Element.Inductor | Element.Vccs _ | Element.Vcvs _ | Element.Cccs _
        | Element.Ccvs _ | Element.Vsource | Element.Isource ->
          ())
      (Netlist.elements nl)
  done;
  let companions =
    Netlist.elements nl
    |> List.filter (fun (e : Element.t) ->
           Hashtbl.mem global_names e.Element.name
           && not (List.mem e.Element.name symbolic_names0))
  in
  let port_set = Hashtbl.create 16 in
  let note n = if not (Netlist.is_ground n) then Hashtbl.replace port_set n () in
  List.iter (fun (e, _) -> List.iter note (element_nodes e)) symbolic;
  List.iter (fun e -> List.iter note (element_nodes e)) companions;
  List.iter note (element_nodes input);
  let in_circuit n = List.exists (fun e -> List.mem n (element_nodes e)) (Netlist.elements nl) in
  let note_output_node n =
    if not (Netlist.is_ground n || in_circuit n) then
      Awesym_error.errorf Invalid_request ~where:"partition.make"
        ~context:[ ("node", n) ] "output node %s is not in the circuit" n;
    note n
  in
  let note_output = function
    | Netlist.Node a -> note_output_node a
    | Netlist.Diff (a, b) ->
      note_output_node a;
      note_output_node b
  in
  note_output (Netlist.output nl);
  List.iter note_output extra_outputs;
  let ports =
    Hashtbl.fold (fun n () acc -> n :: acc) port_set []
    |> List.sort Netlist.compare_nodes
  in
  let numeric_elements =
    Netlist.elements nl
    |> List.filter (fun (e : Element.t) ->
           (not (Hashtbl.mem global_names e.Element.name))
           &&
           match e.Element.kind with
           | Element.Vsource ->
             (* Shorted (0-V) supplies constrain the numeric partition. *)
             e.Element.name <> input.Element.name && e.Element.value = 0.0
           | Element.Isource -> false
           | Element.Resistor | Element.Conductance | Element.Capacitor
           | Element.Inductor | Element.Vccs _ | Element.Vcvs _
           | Element.Cccs _ | Element.Ccvs _ | Element.Mutual _ ->
             true)
  in
  let port_sources =
    List.map
      (fun node ->
        Element.make ~name:(port_source_name node) ~kind:Element.Vsource
          ~pos:node ~neg:"0" ~value:0.0 ())
      ports
  in
  let numeric =
    Netlist.empty
    |> Fun.flip Netlist.add_all (numeric_elements @ port_sources)
  in
  if !Obs.enabled then begin
    Obs.Metrics.incr "partition.make.count";
    Obs.Metrics.observe "partition.port_count"
      (float_of_int (List.length ports));
    Obs.Metrics.observe "partition.symbol_count"
      (float_of_int (Array.length symbols))
  end;
  {
    netlist = nl;
    symbolic;
    symbols;
    companions;
    ports = Array.of_list ports;
    numeric;
    input;
  }

let nominal t sym =
  match
    List.find_opt (fun (_, s) -> Symbolic.Symbol.equal s sym) t.symbolic
  with
  | Some (e, _) -> Element.stamp_value e
  | None -> raise Not_found

let num_ports t = Array.length t.ports

let pp ppf t =
  Format.fprintf ppf "@[<v>partition: %d symbols, %d ports@,symbols:"
    (Array.length t.symbols) (Array.length t.ports);
  Array.iter (fun s -> Format.fprintf ppf " %a" Symbolic.Symbol.pp s) t.symbols;
  Format.fprintf ppf "@,ports:";
  Array.iter (fun p -> Format.fprintf ppf " %s" p) t.ports;
  Format.fprintf ppf "@]"
