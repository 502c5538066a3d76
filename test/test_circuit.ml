(* Unit tests for the circuit data model, parser, and MNA stamping. *)

module Units = Circuit.Units
module Element = Circuit.Element
module Netlist = Circuit.Netlist
module Parser = Circuit.Parser
module Mna = Circuit.Mna
module Builders = Circuit.Builders
module Matrix = Numeric.Matrix

let check_float ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" name expected actual

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units_parse () =
  let cases =
    [ ("1k", 1e3); ("2.2K", 2.2e3); ("10meg", 1e7); ("1u", 1e-6);
      ("30p", 30e-12); ("5n", 5e-9); ("100f", 100e-15); ("0.5m", 0.5e-3);
      ("3g", 3e9); ("1.5", 1.5); ("2e-12", 2e-12); ("-4k", -4e3) ]
  in
  List.iter
    (fun (s, expected) ->
      match Units.parse s with
      | Some v -> check_float s expected v
      | None -> Alcotest.failf "failed to parse %s" s)
    cases

let test_units_reject () =
  List.iter
    (fun s ->
      if Option.is_some (Units.parse s) then
        Alcotest.failf "should not parse %S" s)
    [ ""; "abc"; "1.2.3k"; "nan-ish";
      (* Spellings OCaml's float_of_string reads but SPICE does not. *)
      "0x10"; "0x1p10"; "1_000"; "infinity"; "1e";
      (* Overflow, and a nonzero literal that underflows to zero. *)
      "1e999"; "1e308t"; "1e-400"; "1e-320f" ]

let test_units_roundtrip () =
  List.iter
    (fun v ->
      check_float ~tol:1e-9 (Units.format v) v (Units.parse_exn (Units.format v)))
    [ 1e3; 2.2e-12; 30e-12; 5.0; 0.0; -3e6; 7e-9 ]

(* ------------------------------------------------------------------ *)
(* Elements / netlist *)

let test_element_validation () =
  (match
     Element.make ~name:"R1" ~kind:Element.Resistor ~pos:"a" ~neg:"b"
       ~value:(-5.0) ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative resistance accepted");
  let r = Element.make ~name:"R1" ~kind:Element.Resistor ~pos:"a" ~neg:"b" ~value:2.0 () in
  check_float "resistor stamp value is conductance" 0.5 (Element.stamp_value r);
  let r' = Element.set_stamp_value r 0.25 in
  check_float "set_stamp_value inverts" 4.0 r'.Element.value

let test_netlist_duplicate () =
  let r = Element.make ~name:"R1" ~kind:Element.Resistor ~pos:"a" ~neg:"0" ~value:1.0 () in
  let nl = Netlist.add Netlist.empty r in
  match Netlist.add nl r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate name accepted"

(* Model-based check of the netlist's name index: random sequences of
   [add], [replace], [mark_symbolic] and [map_elements] against a plain
   list of elements in insertion order, where [find] is the first element
   with the name.  Renaming maps let names collide, and the oldest element
   must then keep the name. *)
type netlist_op =
  | Op_add of int * float
  | Op_replace of int * float
  | Op_mark of int * int
  | Op_map of int

let prop_netlist_matches_list_model =
  let names = 6 in
  let name k = Printf.sprintf "R%d" k in
  let resistor ?symbol k value =
    Element.make ?symbol ~name:(name k) ~kind:Element.Resistor ~pos:"a" ~neg:"b" ~value ()
  in
  let sym k = Symbolic.Symbol.intern (Printf.sprintf "s%d" k) in
  (* Map 0 is the identity, 1 doubles every value, 2 halves every index
     in a name (so R2 and R3 both become R1). *)
  let map_fn = function
    | 0 -> Fun.id
    | 1 -> fun (e : Element.t) -> Element.with_value e (2.0 *. e.Element.value)
    | _ ->
      fun (e : Element.t) ->
        let n = e.Element.name in
        let k = int_of_string (String.sub n 1 (String.length n - 1)) in
        Element.make ?symbol:e.Element.symbol ~name:(name (k / 2)) ~kind:e.Element.kind
          ~pos:e.Element.pos ~neg:e.Element.neg ~value:e.Element.value ()
  in
  let gen =
    QCheck2.Gen.(
      let idx = int_range 0 (names - 1) and value = float_range 1.0 100.0 in
      list_size (int_range 0 40)
        (frequency
           [
             (5, map2 (fun k v -> Op_add (k, v)) idx value);
             (2, map2 (fun k v -> Op_replace (k, v)) idx value);
             (2, map2 (fun k s -> Op_mark (k, s)) idx (int_range 0 2));
             (1, map (fun f -> Op_map f) (int_range 0 2));
           ]))
  in
  let print ops =
    String.concat "; "
      (List.map
         (function
           | Op_add (k, v) -> Printf.sprintf "add R%d %g" k v
           | Op_replace (k, v) -> Printf.sprintf "replace R%d %g" k v
           | Op_mark (k, s) -> Printf.sprintf "mark R%d s%d" k s
           | Op_map f -> Printf.sprintf "map %d" f)
         ops)
  in
  let sig_of (e : Element.t) =
    (e.Element.name, e.Element.value, Option.map Symbolic.Symbol.name e.Element.symbol)
  in
  let find_model model n =
    List.find_opt (fun (e : Element.t) -> e.Element.name = n) model
  in
  let replace_model model (e : Element.t) =
    List.map
      (fun (old : Element.t) -> if old.Element.name = e.Element.name then e else old)
      model
  in
  let fail = QCheck2.Test.fail_reportf in
  QCheck2.Test.make ~name:"netlist index ≡ list model" ~count:500 ~print gen (fun ops ->
      let step (nl, model) op =
        match op with
        | Op_add (k, v) -> (
          let e = resistor k v in
          match Netlist.add nl e with
          | nl' ->
            if find_model model (name k) <> None then fail "add accepted duplicate R%d" k;
            (nl', model @ [ e ])
          | exception Invalid_argument _ ->
            if find_model model (name k) = None then fail "add rejected fresh R%d" k;
            (nl, model))
        | Op_replace (k, v) -> (
          let e = resistor k v in
          match Netlist.replace nl e with
          | nl' ->
            if find_model model (name k) = None then fail "replace found absent R%d" k;
            (nl', replace_model model e)
          | exception Not_found ->
            if find_model model (name k) <> None then fail "replace missed R%d" k;
            (nl, model))
        | Op_mark (k, s) -> (
          match Netlist.mark_symbolic nl (name k) (sym s) with
          | nl' -> (
            match find_model model (name k) with
            | Some e -> (nl', replace_model model (Element.with_symbol e (sym s)))
            | None -> fail "mark found absent R%d" k)
          | exception Not_found ->
            if find_model model (name k) <> None then fail "mark missed R%d" k;
            (nl, model))
        | Op_map f -> (Netlist.map_elements (map_fn f) nl, List.map (map_fn f) model)
      in
      let agree (nl, model) =
        List.map sig_of (Netlist.elements nl) = List.map sig_of model
        && List.for_all
             (fun k ->
               Option.map sig_of (Netlist.find nl (name k))
               = Option.map sig_of (find_model model (name k)))
             (List.init names Fun.id)
      in
      let _ =
        List.fold_left
          (fun state op ->
            let state = step state op in
            if not (agree state) then fail "diverged after %s" (print [ op ]);
            state)
          (Netlist.empty, []) ops
      in
      true)

let test_netlist_nodes () =
  let nl = Builders.fig1 () in
  Alcotest.(check (list string)) "nodes" [ "in"; "n1"; "n2" ] (Netlist.nodes nl)

let test_natural_node_order () =
  let sorted = List.sort Netlist.compare_nodes [ "a10"; "a2"; "a1"; "b1"; "a2x"; "a02" ] in
  Alcotest.(check (list string)) "natural order"
    [ "a1"; "a02"; "a2"; "a2x"; "a10"; "b1" ] sorted;
  Alcotest.(check int) "equal strings" 0 (Netlist.compare_nodes "n5" "n5");
  Alcotest.(check bool) "a9 before a10" true (Netlist.compare_nodes "a9" "a10" < 0);
  Alcotest.(check bool) "numeric runs before letter runs" true
    (Netlist.compare_nodes "a1000" "a_drv" < 0)

let test_netlist_stats () =
  let total, storage = Netlist.stats (Builders.fig1 ()) in
  Alcotest.(check int) "4 elements" 4 total;
  Alcotest.(check int) "2 storage" 2 storage

(* ------------------------------------------------------------------ *)
(* Parser *)

let deck = {|
* sample deck exercising every element kind
V1 in 0 1
R1 in n1 1k
C1 n1 0 1p      ; node cap
L1 n1 n2 1u
G1 n2 0 n1 0 2m
E1 n3 0 n2 0 10
F1 n3 0 V1 2
H1 n4 0 V1 50
I1 n4 0 1m
.symbolic C1
.symbolic R1 g_drv
.input V1
.output v(n3,n4)
.end
this junk after .end is ignored
|}

let test_parser_full_deck () =
  let nl = Parser.parse_string deck in
  Alcotest.(check int) "9 elements" 9 (List.length (Netlist.elements nl));
  (match Netlist.find nl "G1" with
  | Some e -> (
    match e.Element.kind with
    | Element.Vccs (cp, cn) ->
      Alcotest.(check string) "control +" "n1" cp;
      Alcotest.(check string) "control -" "0" cn;
      check_float "gm" 2e-3 e.Element.value
    | _ -> Alcotest.fail "G1 should be a VCCS")
  | None -> Alcotest.fail "G1 missing");
  let syms = Netlist.symbolic_elements nl in
  Alcotest.(check int) "two symbolic elements" 2 (List.length syms);
  (match Netlist.find nl "R1" with
  | Some { Element.symbol = Some s; _ } ->
    Alcotest.(check string) "renamed symbol" "g_drv" (Symbolic.Symbol.name s)
  | _ -> Alcotest.fail "R1 should carry symbol g_drv");
  (match Netlist.output nl with
  | Netlist.Diff ("n3", "n4") -> ()
  | _ -> Alcotest.fail "expected differential output");
  Alcotest.(check string) "input" "V1" (Netlist.input nl).Element.name

let test_parser_errors () =
  let expect_error text =
    match Parser.parse_string text with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect_error "R1 a b";
  expect_error "R1 a b 1x2";
  expect_error "Q1 a b 5";
  expect_error ".output n2";
  expect_error ".symbolic NOPE"

(* ------------------------------------------------------------------ *)
(* MNA *)

(* Voltage divider: V1(1V) - R1(1k) - out - R2(1k) - gnd.  v(out) = 0.5. *)
let divider () =
  Parser.parse_string
    {|
V1 in 0 1
R1 in out 1k
R2 out 0 1k
.output v(out)
|}

let test_mna_divider () =
  let mna = Mna.build (divider ()) in
  let x = Numeric.Lu.solve_dense (Mna.g mna) (Mna.source_vector mna) in
  check_float "divider output" 0.5 (Mna.output_of mna x)

let test_mna_dimensions () =
  let nl = Builders.fig1 () in
  let mna = Mna.build nl in
  (* 3 nodes + 1 V-source auxiliary current. *)
  Alcotest.(check int) "size" 4 (Matrix.rows (Mna.g mna));
  let ix = Mna.index mna in
  Alcotest.(check int) "nodes" 3 (Mna.num_nodes ix);
  Alcotest.(check int) "ground row" (-1) (Mna.node_row ix "0")

let test_mna_fig1_matrices () =
  (* Hand-checked stamps for the Fig. 1 circuit with G1=G2=C1=C2=1. *)
  let nl = Builders.fig1 () in
  let mna = Mna.build nl in
  let ix = Mna.index mna in
  let n_in = Mna.node_row ix "in"
  and n1 = Mna.node_row ix "n1"
  and n2 = Mna.node_row ix "n2" in
  let g = Mna.g mna and c = Mna.c mna in
  check_float "G[in][in]" 1.0 (Matrix.get g n_in n_in);
  check_float "G[n1][n1]" 2.0 (Matrix.get g n1 n1);
  check_float "G[n1][n2]" (-1.0) (Matrix.get g n1 n2);
  check_float "G[n2][n2]" 1.0 (Matrix.get g n2 n2);
  check_float "C[n1][n1]" 1.0 (Matrix.get c n1 n1);
  check_float "C[n2][n2]" 1.0 (Matrix.get c n2 n2);
  check_float "C[n1][n2]" 0.0 (Matrix.get c n1 n2)

let test_mna_inductor_aux () =
  (* V1 - L1 - R1 to ground: DC current = V/R through the inductor. *)
  let nl =
    Parser.parse_string {|
V1 in 0 2
L1 in mid 1m
R1 mid 0 4
.output v(mid)
|}
  in
  let mna = Mna.build nl in
  let x = Numeric.Lu.solve_dense (Mna.g mna) (Mna.source_vector mna) in
  check_float "DC: inductor is a short" 2.0 (Mna.output_of mna x);
  let ix = Mna.index mna in
  let il = x.(Mna.aux_row ix "L1") in
  check_float "inductor current" 0.5 il

let test_mna_controlled_sources () =
  (* VCVS doubling a divider: v(out) = 2 · 0.5 = 1. *)
  let nl =
    Parser.parse_string
      {|
V1 in 0 1
R1 in mid 1k
R2 mid 0 1k
E1 out 0 mid 0 2
R3 out 0 1k
.output v(out)
|}
  in
  let mna = Mna.build nl in
  let x = Numeric.Lu.solve_dense (Mna.g mna) (Mna.source_vector mna) in
  check_float "VCVS gain" 1.0 (Mna.output_of mna x)

let test_mna_cccs () =
  (* I(V1) flows through R1 = 1k from 1V: 1 mA.  F1 mirrors 2× into R2(1k):
     v(out) = −2·1e-3·1e3 if it leaves out... sign fixed by test. *)
  let nl =
    Parser.parse_string
      {|
V1 in 0 1
R1 in 0 1k
F1 out 0 V1 2
R2 out 0 1k
.output v(out)
|}
  in
  let mna = Mna.build nl in
  let x = Numeric.Lu.solve_dense (Mna.g mna) (Mna.source_vector mna) in
  (* The V-source branch current is −1 mA (current flows out of + through
     the external circuit), so the CCCS injects −2 mA of leaving current at
     node out: v(out) = +2 V. *)
  check_float "CCCS mirror" 2.0 (Mna.output_of mna x)

let test_mna_mutual_inductance () =
  (* Two coupled inductors driven differentially: the C matrix carries −M in
     the cross branch-current positions. *)
  let nl =
    Parser.parse_string
      {|
V1 a 0 1
L1 a 0 1u
L2 b 0 2u
R1 b 0 50
K1 L1 L2 0.5u
.output v(b)
|}
  in
  let mna = Mna.build nl in
  let ix = Mna.index mna in
  let m1 = Mna.aux_row ix "L1" and m2 = Mna.aux_row ix "L2" in
  let c = Mna.c mna in
  check_float "C[m1][m1] = -L1" (-1e-6) (Matrix.get c m1 m1);
  check_float "C[m2][m2] = -L2" (-2e-6) (Matrix.get c m2 m2);
  check_float "C[m1][m2] = -M" (-0.5e-6) (Matrix.get c m1 m2);
  check_float "C[m2][m1] = -M" (-0.5e-6) (Matrix.get c m2 m1)

let test_mutual_transformer_ac () =
  (* Ideal-ish transformer behaviour: with tight coupling, the secondary
     voltage approaches the turns ratio √(L2/L1) at high frequency. *)
  let l1 = 1e-6 and l2 = 4e-6 in
  let k = 0.9999 in
  let m = k *. Float.sqrt (l1 *. l2) in
  let nl =
    Parser.parse_string
      (Printf.sprintf
         {|
V1 a 0 1
R1 a p 1
L1 p 0 %g
L2 s 0 %g
R2 s 0 1meg
K1 L1 L2 %g
.output v(s)
|}
         l1 l2 m)
  in
  let mna = Mna.build nl in
  let h = Spice.Ac.at_frequency mna 100e6 in
  check_float ~tol:2e-2 "turns ratio" (Float.sqrt (l2 /. l1)) (Numeric.Cx.norm h)

let test_symbolic_system_entries () =
  let module Mpoly = Symbolic.Mpoly in
  let nl = Builders.fig1 () in
  let nl = Netlist.mark_symbolic nl "G2" (Symbolic.Symbol.intern "G2") in
  let ix, g, _, _ = Mna.symbolic_system nl in
  let n1 = Mna.node_row ix "n1" in
  let n2 = Mna.node_row ix "n2" in
  (* G[n1][n1] = 1 (from G1 numeric) + G2 symbol. *)
  let expected =
    Mpoly.add Mpoly.one (Mpoly.of_symbol (Symbolic.Symbol.intern "G2"))
  in
  Alcotest.(check bool) "symbolic diagonal entry" true
    (Mpoly.equal g.(n1).(n1) expected);
  Alcotest.(check bool) "symbolic off-diagonal" true
    (Mpoly.equal g.(n1).(n2)
       (Mpoly.neg (Mpoly.of_symbol (Symbolic.Symbol.intern "G2"))))

(* ------------------------------------------------------------------ *)
(* Export round-trip *)

let netlists_equivalent a b =
  let sig_of nl =
    Netlist.elements nl
    |> List.map (fun (e : Element.t) ->
           ( e.Element.name,
             e.Element.kind,
             e.Element.pos,
             e.Element.neg,
             e.Element.value,
             Option.map Symbolic.Symbol.name e.Element.symbol ))
  in
  sig_of a = sig_of b
  && Netlist.output_opt a = Netlist.output_opt b
  && (Netlist.input a).Element.name = (Netlist.input b).Element.name

let test_export_roundtrip_deck () =
  let nl = Parser.parse_string deck in
  let back = Parser.parse_string (Circuit.Export.to_deck nl) in
  Alcotest.(check bool) "sample deck round-trips" true
    (netlists_equivalent nl back)

let test_export_bad_name () =
  let e = Element.make ~name:"X1" ~kind:Element.Resistor ~pos:"a" ~neg:"0" ~value:1.0 () in
  match Circuit.Export.element_card e with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind/name mismatch accepted"

let prop_export_roundtrip =
  (* Random ladders with random values and random symbolic markings
     round-trip exactly. *)
  let gen =
    QCheck2.Gen.(
      let* sections = int_range 1 8 in
      let* r = float_range 0.5 1e6 in
      let* c = float_range 1e-15 1e-3 in
      let* marks = list_size (int_range 0 3) (int_range 1 sections) in
      return (sections, r, c, marks))
  in
  QCheck2.Test.make ~name:"deck export/parse round-trip" ~count:200 gen
    (fun (sections, r, c, marks) ->
      let nl = Builders.rc_ladder ~sections ~r ~c () in
      let nl =
        List.fold_left
          (fun nl k ->
            let name = Printf.sprintf "C%d" k in
            Netlist.mark_symbolic nl name (Symbolic.Symbol.intern name))
          nl
          (List.sort_uniq compare marks)
      in
      let back = Parser.parse_string (Circuit.Export.to_deck nl) in
      netlists_equivalent nl back)

(* ------------------------------------------------------------------ *)
(* Builders *)

let test_opamp_counts () =
  let total, storage = Netlist.stats (Builders.opamp741 ()) in
  Alcotest.(check int) "170 linear elements (paper's count)" 170 total;
  Alcotest.(check int) "62 storage elements (paper's count)" 62 storage

let test_opamp_symbol_elements_exist () =
  let nl = Builders.opamp741 () in
  let gname, cname = Builders.opamp_symbol_names in
  Alcotest.(check bool) "gout_q14 exists" true (Option.is_some (Netlist.find nl gname));
  Alcotest.(check bool) "ccomp exists" true (Option.is_some (Netlist.find nl cname))

let test_ladder_structure () =
  let nl = Builders.rc_ladder ~sections:5 ~r:100.0 ~c:1e-12 () in
  let total, storage = Netlist.stats nl in
  Alcotest.(check int) "10 elements" 10 total;
  Alcotest.(check int) "5 caps" 5 storage

let test_coupled_lines_structure () =
  let nl = Builders.coupled_lines ~segments:10 () in
  let total, storage = Netlist.stats nl in
  (* 2 drivers + 10·(2R + 3C) + 2 loads. *)
  Alcotest.(check int) "elements" 54 total;
  Alcotest.(check int) "storage" 32 storage

let test_rc_tree_structure () =
  let nl = Builders.rc_tree ~depth:3 ~r:10.0 ~c:1e-12 () in
  let total, storage = Netlist.stats nl in
  Alcotest.(check int) "2·(2^4−1) elements" 30 total;
  Alcotest.(check int) "15 caps" 15 storage

let test_rc_mesh_structure () =
  let nl = Builders.rc_mesh ~rows:3 ~cols:4 ~r:10.0 ~c:1e-15 () in
  let total, storage = Netlist.stats nl in
  (* 12 caps + horizontal 3·3 + vertical 2·4 resistors + driver. *)
  Alcotest.(check int) "elements" 30 total;
  Alcotest.(check int) "caps" 12 storage;
  (* Fully resistively connected: DC solve puts every node at 1 V. *)
  let mna = Mna.build nl in
  check_float ~tol:1e-9 "far corner DC" 1.0 (Spice.Dc.output mna)

let test_coupled_bus_structure () =
  let nl = Builders.coupled_bus ~lines:3 ~segments:5 () in
  let total, storage = Netlist.stats nl in
  (* Per line: driver + 5R + 5C + load = 12 → 36; coupling: 2 gaps × 5. *)
  Alcotest.(check int) "elements" 46 total;
  Alcotest.(check int) "storage" 28 storage;
  (* Victim far end floats at DC 0 (quiet driver), aggressor at 1. *)
  let mna = Mna.build nl in
  check_float ~tol:1e-9 "victim DC" 0.0 (Spice.Dc.output mna);
  check_float ~tol:1e-9 "aggressor DC" 1.0 (Spice.Dc.node_voltage mna "l0_5")

let test_coupled_bus_attenuates_with_distance () =
  (* Crosstalk onto line 2 is weaker than onto line 1.  The far line's
     transfer has m0 = m1 = 0 (it couples through line 1), so a 3-pole model
     is the minimum that resolves it. *)
  let peak victim =
    let nl = Builders.coupled_bus ~lines:3 ~segments:10 ~victim () in
    let rom = (Awe.Driver.analyze ~order:3 nl).Awe.Driver.rom in
    snd (Awe.Measures.peak_step ~horizon:5e-9 rom)
  in
  let near = Float.abs (peak 1) and far = Float.abs (peak 2) in
  Alcotest.(check bool)
    (Printf.sprintf "far (%.4f) < near (%.4f)" far near)
    true (far < near)

let test_rlc_ladder_structure () =
  let nl = Builders.rlc_ladder ~sections:4 ~r:1.0 ~l:1e-9 ~c:1e-12 () in
  let total, storage = Netlist.stats nl in
  Alcotest.(check int) "elements" 12 total;
  Alcotest.(check int) "storage (L and C)" 8 storage

let test_coupled_rlc_lines_validation () =
  (match Builders.coupled_rlc_lines ~k_couple:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k = 1 must be rejected");
  (match Builders.coupled_rlc_lines ~segments:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 segments must be rejected");
  (* k = 0 builds with no mutual elements at all. *)
  let no_mutuals =
    Builders.coupled_rlc_lines ~segments:3 ~k_couple:0.0 ()
    |> Netlist.elements
    |> List.for_all (fun (e : Element.t) ->
           match e.Element.kind with
           | Element.Mutual _ -> false
           | _ -> true)
  in
  Alcotest.(check bool) "no mutuals at k=0" true no_mutuals

let test_coupled_rlc_lines_dc () =
  (* Inductors are shorts at DC: aggressor far end sits at 1, victim at 0. *)
  let nl = Builders.coupled_rlc_lines ~segments:4 ~k_couple:0.4 () in
  let mna = Mna.build nl in
  check_float ~tol:1e-9 "victim far end DC" 0.0 (Spice.Dc.output mna);
  check_float ~tol:1e-9 "aggressor far end DC" 1.0
    (Spice.Dc.node_voltage mna "a4")

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circuit"
    [
      ( "units",
        [
          quick "engineering suffixes" test_units_parse;
          quick "malformed rejected" test_units_reject;
          quick "format/parse roundtrip" test_units_roundtrip;
        ] );
      ( "netlist",
        [
          quick "element validation" test_element_validation;
          quick "duplicate names rejected" test_netlist_duplicate;
          QCheck_alcotest.to_alcotest prop_netlist_matches_list_model;
          quick "node collection" test_netlist_nodes;
          quick "natural node order" test_natural_node_order;
          quick "stats" test_netlist_stats;
        ] );
      ( "parser",
        [
          quick "full deck roundtrip" test_parser_full_deck;
          quick "malformed decks rejected" test_parser_errors;
        ] );
      ( "mna",
        [
          quick "voltage divider" test_mna_divider;
          quick "dimensions" test_mna_dimensions;
          quick "fig1 stamps hand-checked" test_mna_fig1_matrices;
          quick "inductor auxiliary current" test_mna_inductor_aux;
          quick "VCVS" test_mna_controlled_sources;
          quick "CCCS" test_mna_cccs;
          quick "mutual inductance stamps" test_mna_mutual_inductance;
          quick "transformer turns ratio" test_mutual_transformer_ac;
          quick "symbolic stamps" test_symbolic_system_entries;
        ] );
      ( "export",
        [
          quick "sample deck round-trip" test_export_roundtrip_deck;
          quick "kind/name mismatch rejected" test_export_bad_name;
        ]
        @ props [ prop_export_roundtrip ] );
      ( "builders",
        [
          quick "op-amp matches paper element counts" test_opamp_counts;
          quick "op-amp symbol elements" test_opamp_symbol_elements_exist;
          quick "ladder" test_ladder_structure;
          quick "coupled lines" test_coupled_lines_structure;
          quick "rc tree" test_rc_tree_structure;
          quick "rc mesh" test_rc_mesh_structure;
          quick "rlc ladder" test_rlc_ladder_structure;
          quick "coupled RLC lines validation" test_coupled_rlc_lines_validation;
          quick "coupled RLC lines DC levels" test_coupled_rlc_lines_dc;
          quick "coupled bus" test_coupled_bus_structure;
          quick "bus crosstalk falls with distance" test_coupled_bus_attenuates_with_distance;
        ] );
    ]
