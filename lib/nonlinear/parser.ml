exception Parse_error of int * string

let fail lineno fmt = Printf.ksprintf (fun m -> raise (Parse_error (lineno, m))) fmt

let tokens line =
  let line =
    match String.index_opt line ';' with
    | Some k -> String.sub line 0 k
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

(* Split operand tokens into positional arguments and KEY=VALUE parameters. *)
let split_params lineno rest =
  let positional, params =
    List.partition (fun tok -> not (String.contains tok '=')) rest
  in
  let params =
    List.map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some k -> (
          let key = String.uppercase_ascii (String.sub tok 0 k) in
          let v = String.sub tok (k + 1) (String.length tok - k - 1) in
          match Circuit.Units.parse v with
          | Some value -> (key, value)
          | None -> fail lineno "malformed parameter value in %S" tok)
        | None -> assert false)
      params
  in
  (positional, params)

let param params key default = Option.value (List.assoc_opt key params) ~default

let device_of_card lineno name rest =
  let positional, params = split_params lineno rest in
  match (Char.lowercase_ascii name.[0], positional) with
  | 'd', [ anode; cathode ] ->
    let d = Models.default_diode in
    Netlist.Diode
      {
        name;
        anode;
        cathode;
        model =
          {
            Models.i_sat = param params "IS" d.Models.i_sat;
            emission = param params "N" d.Models.emission;
            cj0 = param params "CJ0" d.Models.cj0;
          };
      }
  | 'm', [ drain; gate; source; polarity ] ->
    let base =
      match String.uppercase_ascii polarity with
      | "NMOS" -> Models.default_nmos
      | "PMOS" -> Models.default_pmos
      | other -> fail lineno "unknown MOS polarity %s" other
    in
    Netlist.Mosfet
      {
        name;
        drain;
        gate;
        source;
        model =
          {
            base with
            Models.kp = param params "KP" base.Models.kp;
            vth = param params "VTH" base.Models.vth;
            lambda = param params "LAMBDA" base.Models.lambda;
            cgs = param params "CGS" base.Models.cgs;
            cgd = param params "CGD" base.Models.cgd;
          };
      }
  | 'q', [ collector; base_node; emitter ] ->
    let b = Models.default_npn in
    Netlist.Bjt
      {
        name;
        collector;
        base = base_node;
        emitter;
        model =
          {
            Models.i_sat_b = param params "IS" b.Models.i_sat_b;
            beta = param params "BF" b.Models.beta;
            v_early = param params "VAF" b.Models.v_early;
            cpi = param params "CPI" b.Models.cpi;
            cmu = param params "CMU" b.Models.cmu;
          };
      }
  | ('d' | 'm' | 'q'), _ -> fail lineno "wrong number of nodes for device %s" name
  | _ -> fail lineno "unknown device type %C" name.[0]

let parse_string text =
  (* Device cards go to the device list; every other line goes through the
     standard deck parser, with a blank in place of each device card, so
     its line numbers are the file's. *)
  let devices = ref [] in
  let stop = ref false in
  let linear_lines =
    List.mapi
      (fun k raw ->
        let lineno = k + 1 in
        let line = String.trim raw in
        if !stop || line = "" || line.[0] = '*' then raw
        else
          match tokens line with
          | [ d ] when String.lowercase_ascii d = ".end" ->
            stop := true;
            raw
          | directive :: _ when directive.[0] = '.' ->
            if String.lowercase_ascii directive = ".symbolic" then
              fail lineno ".symbolic applies after linearization, not here";
            raw
          | name :: rest when List.mem (Char.lowercase_ascii name.[0]) [ 'd'; 'm'; 'q' ] ->
            devices := (lineno, name, rest) :: !devices;
            ""
          | _ -> raw)
      (String.split_on_char '\n' text)
  in
  let linear_nl =
    try Circuit.Parser.parse_string (String.concat "\n" linear_lines)
    with Circuit.Parser.Parse_error (line, msg) -> raise (Parse_error (line, msg))
  in
  let nl = ref Netlist.empty in
  List.iter
    (fun e -> nl := Netlist.add_element !nl e)
    (Circuit.Netlist.elements linear_nl);
  List.iter
    (fun (lineno, name, rest) ->
      try nl := Netlist.add_device !nl (device_of_card lineno name rest)
      with Invalid_argument m -> fail lineno "%s" m)
    (List.rev !devices);
  (match
     try Some (Circuit.Netlist.input linear_nl) with Awesym_error.Error _ -> None
   with
  | Some input ->
    nl := Netlist.with_ac_input !nl input.Circuit.Element.name
  | None -> ());
  (match Circuit.Netlist.output_opt linear_nl with
  | Some output -> nl := Netlist.with_output !nl output
  | None -> ());
  !nl

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_string (really_input_string ic (in_channel_length ic)))
