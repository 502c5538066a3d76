module Element = Circuit.Element

let conductance name pos neg value acc =
  (* Small-signal conductances can legitimately vanish (e.g. λ = 0); skip
     zero entries rather than stamp degenerate elements. *)
  if value > 0.0 then
    Element.make ~name ~kind:Element.Conductance ~pos ~neg ~value () :: acc
  else acc

let capacitor name pos neg value acc =
  if value > 0.0 then
    Element.make ~name ~kind:Element.Capacitor ~pos ~neg ~value () :: acc
  else acc

let vccs name pos neg cp cn value acc =
  if value <> 0.0 then
    Element.make ~name ~kind:(Element.Vccs (cp, cn)) ~pos ~neg ~value ()
    :: acc
  else acc

let device_small_signal sol device acc =
  let v = Newton.voltage sol in
  match device with
  | Netlist.Diode { name; anode; cathode; model } ->
    let _, gd = Models.diode_current model (v anode -. v cathode) in
    acc
    |> conductance ("g" ^ name ^ "_d") anode cathode gd
    |> capacitor ("c" ^ name ^ "_j") anode cathode model.Models.cj0
  | Netlist.Mosfet { name; drain; gate; source; model } ->
    let op =
      Models.mosfet_current model
        ~vgs:(v gate -. v source)
        ~vds:(v drain -. v source)
    in
    acc
    |> vccs ("g" ^ name ^ "_m") drain source gate source op.Models.gm
    |> conductance ("g" ^ name ^ "_ds") drain source op.Models.gds
    |> capacitor ("c" ^ name ^ "_gs") gate source model.Models.cgs
    |> capacitor ("c" ^ name ^ "_gd") gate drain model.Models.cgd
  | Netlist.Bjt { name; collector; base; emitter; model } ->
    let op =
      Models.bjt_current model
        ~vbe:(v base -. v emitter)
        ~vce:(v collector -. v emitter)
    in
    acc
    |> vccs ("g" ^ name ^ "_m") collector emitter base emitter op.Models.gm_b
    |> conductance ("g" ^ name ^ "_pi") base emitter op.Models.gpi
    |> conductance ("g" ^ name ^ "_o") collector emitter op.Models.go
    |> capacitor ("c" ^ name ^ "_pi") base emitter model.Models.cpi
    |> capacitor ("c" ^ name ^ "_mu") base collector model.Models.cmu

let netlist (nl : Netlist.t) sol =
  (* The same errors the linear path raises for the same omissions. *)
  let ac_input =
    match nl.Netlist.ac_input with
    | Some name -> name
    | None ->
      Awesym_error.raise_error Invalid_request ~where:"netlist.input"
        "the circuit has no independent source to drive it"
  in
  let output =
    match nl.Netlist.output with
    | Some o -> o
    | None ->
      Awesym_error.raise_error Invalid_request ~where:"netlist.output"
        "no output designated (add a .output card)"
  in
  let linear_small_signal (e : Element.t) acc =
    match e.Element.kind with
    | Element.Vsource ->
      (* DC supplies short; the AC input keeps unit amplitude. *)
      let amplitude = if e.Element.name = ac_input then 1.0 else 0.0 in
      Element.with_value e amplitude :: acc
    | Element.Isource ->
      if e.Element.name = ac_input then Element.with_value e 1.0 :: acc
      else acc (* DC current source is an AC open circuit *)
    | Element.Resistor | Element.Conductance | Element.Capacitor
    | Element.Inductor | Element.Vccs _ | Element.Vcvs _ | Element.Cccs _
    | Element.Ccvs _ | Element.Mutual _ ->
      e :: acc
  in
  let elements =
    List.fold_left (fun acc e -> linear_small_signal e acc) [] nl.Netlist.linear
  in
  let elements =
    List.fold_left
      (fun acc d -> device_small_signal sol d acc)
      elements nl.Netlist.devices
  in
  Circuit.Netlist.empty
  |> Fun.flip Circuit.Netlist.add_all (List.rev elements)
  |> Fun.flip Circuit.Netlist.with_input ac_input
  |> Fun.flip Circuit.Netlist.with_output output

let operating_report (nl : Netlist.t) sol =
  let buf = Buffer.create 512 in
  let v = Newton.voltage sol in
  Buffer.add_string buf
    (Printf.sprintf "DC operating point (%d Newton iterations, residual %.2e)\n"
       sol.Newton.iterations sol.Newton.residual);
  List.iter
    (fun (node, value) ->
      Buffer.add_string buf (Printf.sprintf "  v(%-8s) = %10.6f V\n" node value))
    sol.Newton.voltages;
  List.iter
    (fun device ->
      match device with
      | Netlist.Diode { name; anode; cathode; model } ->
        let i, gd = Models.diode_current model (v anode -. v cathode) in
        Buffer.add_string buf
          (Printf.sprintf "  %-8s id = %.4g A   gd = %.4g S\n" name i gd)
      | Netlist.Mosfet { name; drain; gate; source; model } ->
        let op =
          Models.mosfet_current model
            ~vgs:(v gate -. v source)
            ~vds:(v drain -. v source)
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-8s ids = %.4g A   gm = %.4g S   gds = %.4g S\n"
             name op.Models.ids op.Models.gm op.Models.gds)
      | Netlist.Bjt { name; collector; base; emitter; model } ->
        let op =
          Models.bjt_current model
            ~vbe:(v base -. v emitter)
            ~vce:(v collector -. v emitter)
        in
        Buffer.add_string buf
          (Printf.sprintf
             "  %-8s ic = %.4g A   gm = %.4g S   gpi = %.4g S   go = %.4g S\n"
             name op.Models.ic op.Models.gm_b op.Models.gpi op.Models.go))
    nl.Netlist.devices;
  Buffer.contents buf
