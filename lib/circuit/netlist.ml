type output = Node of string | Diff of string * string

module Names = Map.Make (String)

(* [by_name] is persistent, so [add] and [replace] share all but a
   logarithmic path with the netlist they extend. *)
type t = {
  rev_elements : Element.t list;
  by_name : Element.t Names.t;
  input_name : string option;
  out : output option;
}

let empty = { rev_elements = []; by_name = Names.empty; input_name = None; out = None }

let is_ground n = n = "0" || String.lowercase_ascii n = "gnd"

(* Natural comparison: split into digit and non-digit runs; digit runs
   compare numerically (then by length, so "007" ≠ "7" stays total). *)
let compare_nodes a b =
  let is_digit c = c >= '0' && c <= '9' in
  let len_a = String.length a and len_b = String.length b in
  let run s i =
    let n = String.length s in
    let digit = is_digit s.[i] in
    let j = ref i in
    while !j < n && is_digit s.[!j] = digit do
      incr j
    done;
    (digit, String.sub s i (!j - i), !j)
  in
  let rec go i j =
    if i >= len_a && j >= len_b then 0
    else if i >= len_a then -1
    else if j >= len_b then 1
    else begin
      let da, ra, i' = run a i and db, rb, j' = run b j in
      let c =
        match (da, db) with
        | true, true ->
          (* Numeric: compare by magnitude (strip leading zeros via length
             of the significant part), then lexically for totality. *)
          let strip s =
            let k = ref 0 in
            while !k < String.length s - 1 && s.[!k] = '0' do
              incr k
            done;
            String.sub s !k (String.length s - !k)
          in
          let sa = strip ra and sb = strip rb in
          let c = Int.compare (String.length sa) (String.length sb) in
          if c <> 0 then c
          else begin
            let c = String.compare sa sb in
            if c <> 0 then c else String.compare ra rb
          end
        | false, false -> String.compare ra rb
        | true, false -> -1
        | false, true -> 1
      in
      if c <> 0 then c else go i' j'
    end
  in
  if a = b then 0 else go 0 0

let add nl (e : Element.t) =
  if Names.mem e.Element.name nl.by_name then
    invalid_arg (Printf.sprintf "Netlist.add: duplicate element %s" e.Element.name);
  {
    nl with
    rev_elements = e :: nl.rev_elements;
    by_name = Names.add e.Element.name e nl.by_name;
  }

let add_all nl es = List.fold_left add nl es
let with_input nl name = { nl with input_name = Some name }
let with_output nl out = { nl with out = Some out }
let elements nl = List.rev nl.rev_elements
let find nl name = Names.find_opt name nl.by_name

let replace nl (e : Element.t) =
  if not (Names.mem e.Element.name nl.by_name) then raise Not_found;
  let by_name = Names.add e.Element.name e nl.by_name in
  {
    nl with
    rev_elements =
      List.map
        (fun (old : Element.t) ->
          if old.Element.name = e.Element.name then e else old)
        nl.rev_elements;
    by_name;
  }

let map_elements f nl =
  let rev_elements = List.map f nl.rev_elements in
  (* Newest first, so when [f] makes two names collide the oldest element
     keeps the name, as it always has. *)
  let by_name =
    List.fold_left
      (fun m (e : Element.t) -> Names.add e.Element.name e m)
      Names.empty rev_elements
  in
  { nl with rev_elements; by_name }

let input nl =
  let fail fmt = Awesym_error.errorf Invalid_request ~where:"netlist.input" fmt in
  match nl.input_name with
  | Some name -> (
    match find nl name with
    | Some e when Element.is_source e -> e
    | Some _ -> fail ".input %s is not an independent source" name
    | None -> fail ".input names %s, which is not in the circuit" name)
  | None -> (
    match List.find_opt Element.is_source (elements nl) with
    | Some e -> e
    | None -> fail "the circuit has no independent source to drive it")

let output_opt nl = nl.out

let output nl =
  match nl.out with
  | Some o -> o
  | None ->
    Awesym_error.raise_error Invalid_request ~where:"netlist.output"
      "no output designated (add a .output card)"

let nodes nl =
  let tbl = Hashtbl.create 64 in
  let note n = if not (is_ground n) then Hashtbl.replace tbl n () in
  List.iter
    (fun (e : Element.t) ->
      note e.Element.pos;
      note e.Element.neg;
      match e.Element.kind with
      | Element.Vccs (cp, cn) | Element.Vcvs (cp, cn) ->
        note cp;
        note cn
      | Element.Resistor | Element.Conductance | Element.Capacitor
      | Element.Inductor | Element.Cccs _ | Element.Ccvs _ | Element.Mutual _
      | Element.Vsource | Element.Isource ->
        ())
    (elements nl);
  Hashtbl.fold (fun n () acc -> n :: acc) tbl [] |> List.sort compare_nodes

let mark_symbolic nl name sym =
  match find nl name with
  | None -> raise Not_found
  | Some e -> replace nl (Element.with_symbol e sym)

let symbolic_elements nl =
  List.filter_map
    (fun (e : Element.t) ->
      match e.Element.symbol with Some s -> Some (e, s) | None -> None)
    (elements nl)

let stats nl =
  let es = elements nl in
  let total = List.length (List.filter (fun e -> not (Element.is_source e)) es) in
  let storage = List.length (List.filter Element.is_storage es) in
  (total, storage)

let pp ppf nl =
  Format.fprintf ppf "@[<v>";
  List.iter (fun e -> Format.fprintf ppf "%a@," Element.pp e) (elements nl);
  (match nl.out with
  | Some (Node n) -> Format.fprintf ppf ".output v(%s)@," n
  | Some (Diff (a, b)) -> Format.fprintf ppf ".output v(%s,%s)@," a b
  | None -> ());
  Format.fprintf ppf "@]"
