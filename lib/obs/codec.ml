(* Bidirectional JSON codecs: each wire or disk shape is described once,
   and the description yields both the encoder and a decoder that accepts
   only what the encoder can write.  See codec.mli for the rules. *)

type step = Json.step = Key of string | Index of int
type error = { path : step list; message : string }

(* Decoders raise [Fail] with the reversed path of the bad node; [decode]
   is the only place it is caught. *)
exception Fail of step list * string

let failf rp fmt = Printf.ksprintf (fun m -> raise (Fail (rp, m))) fmt

(* An object being decoded, with the keys its members have claimed so
   far: whatever is left over at the end is an unknown field. *)
type obj = { rp : step list; kvs : (string * Json.t) list; mutable used : string list }
type 'a members = { mwrite : 'a -> (string * Json.t) list; mread : obj -> 'a }

type 'a t = {
  write : 'a -> Json.t;
  read : step list -> Json.t -> 'a;
  members : 'a members option;  (* object codecs, which can be spliced *)
}

let encode c v = c.write v

let decode c j =
  match c.read [] j with
  | v -> Ok v
  | exception Fail (rp, message) -> Error { path = List.rev rp; message }

let error_to_string e = Json.path_to_string e.path ^ ": " ^ e.message

(* ------------------------------------------------------------------ *)
(* Primitives *)

let value what write read =
  let read rp j = match read j with Some v -> v | None -> failf rp "expected %s" what in
  { write; read; members = None }

let string =
  value "a string" (fun s -> Json.Str s) (function Json.Str s -> Some s | _ -> None)

(* Past 2^53 a JSON number no longer names one integer. *)
let int =
  value "an integer" (fun n -> Json.Num (float_of_int n)) (function
    | Json.Num v when Float.is_integer v && Float.abs v <= 0x1p53 -> Some (int_of_float v)
    | _ -> None)

let num =
  value "a number" (fun v -> Json.Num v) (function
    | Json.Num v when Float.is_finite v -> Some v
    | _ -> None)

let bool = value "a boolean" (fun b -> Json.Bool b) (function Json.Bool b -> Some b | _ -> None)

let refine f g c =
  let check rp a = match f a with Ok b -> b | Error m -> failf rp "%s" m in
  { write = (fun b -> c.write (g b));
    read = (fun rp j -> check rp (c.read rp j));
    members =
      Option.map
        (fun m ->
          { mwrite = (fun b -> m.mwrite (g b));
            mread = (fun o -> check o.rp (m.mread o)) })
        c.members }

let hex v = Printf.sprintf "%016Lx" (Int64.bits_of_float v)

(* Exactly the 16 lowercase digits [hex] writes: "_" separators, upper
   case or a short spelling would decode to some other float. *)
let hexfloat =
  let digit = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  let of_hex s =
    if String.length s = 16 && String.for_all digit s then
      Ok (Int64.float_of_bits (Int64.of_string ("0x" ^ s)))
    else Error (Printf.sprintf "bad float bits %S" s)
  in
  refine of_hex hex string

let json = { write = Fun.id; read = (fun _ j -> j); members = None }

let list c =
  { write = (fun xs -> Json.List (List.map c.write xs));
    read =
      (fun rp -> function
        | Json.List items -> List.mapi (fun i x -> c.read (Index i :: rp) x) items
        | _ -> failf rp "expected an array");
    members = None }

let array c = refine (fun l -> Ok (Array.of_list l)) Array.to_list (list c)

let dict c =
  { write = (fun kvs -> Json.Obj (List.map (fun (k, v) -> (k, c.write v)) kvs));
    read =
      (fun rp -> function
        | Json.Obj kvs -> List.map (fun (k, v) -> (k, c.read (Key k :: rp) v)) kvs
        | _ -> failf rp "expected an object");
    members = None }

let enum cases =
  let name v =
    match List.find_opt (fun (_, v') -> v' = v) cases with
    | Some (name, _) -> name
    | None -> invalid_arg "Codec.enum: value has no name"
  in
  let value s =
    Option.to_result ~none:(Printf.sprintf "unknown value %S" s) (List.assoc_opt s cases)
  in
  refine value name string

(* ------------------------------------------------------------------ *)
(* Object members *)

type ('r, 'f, 'g) field =
  | Member : ('r -> 'a) * 'a members -> ('r, 'a -> 'g, 'g) field
  | Const : string * Json.t -> ('r, 'g, 'g) field

let lookup o name =
  let v = List.assoc_opt name o.kvs in
  if Option.is_some v then o.used <- name :: o.used;
  v

let required o name =
  match lookup o name with Some j -> j | None -> failf o.rp "missing field %S" name

let req name c get =
  Member (get, { mwrite = (fun v -> [ (name, c.write v) ]);
                 mread = (fun o -> c.read (Key name :: o.rp) (required o name)) })

let opt name c get =
  let mwrite = function None -> [] | Some v -> [ (name, c.write v) ] in
  let mread o = Option.map (c.read (Key name :: o.rp)) (lookup o name) in
  Member (get, { mwrite; mread })

let const name v = Const (name, v)

let inline c get =
  match c.members with
  | Some m -> Member (get, m)
  | None -> invalid_arg "Codec.inline: not an object codec"

let float_pair name get =
  let hex_name = name ^ "_hex" in
  let mread o =
    let readable = required o name in
    let v = hexfloat.read (Key hex_name :: o.rp) (required o hex_name) in
    (* The decimal must be what [Json] writes for [v]. *)
    if Json.to_string readable <> Json.to_string (Json.Num v) then
      failf (Key name :: o.rp) "disagrees with %s" hex_name;
    v
  in
  let mwrite v = [ (name, Json.Num v); (hex_name, Json.Str (hex v)) ] in
  Member (get, { mwrite; mread })

let of_members m =
  { write = (fun v -> Json.Obj (m.mwrite v));
    read =
      (fun rp -> function
        | Json.Obj kvs ->
          let o = { rp; kvs; used = [] } in
          let v = m.mread o in
          (match List.find_opt (fun (k, _) -> not (List.mem k o.used)) kvs with
          | Some (k, _) -> failf rp "unknown field %S" k
          | None -> v)
        | _ -> failf rp "expected an object");
    members = Some m }

(* ------------------------------------------------------------------ *)
(* Variants *)

type 'a case = Case : string * 'b members * ('b -> 'a) * ('a -> 'b option) -> 'a case

let case name c inj proj =
  match c.members with
  | Some m -> Case (name, m, inj, proj)
  | None -> invalid_arg "Codec.case: not an object codec"

let case_name (Case (name, _, _, _)) = name
let read_case (Case (_, m, inj, _)) o = inj (m.mread o)

let write_case cases v =
  match
    List.find_map
      (fun (Case (name, m, _, proj)) -> Option.map (fun b -> (name, m.mwrite b)) (proj v))
      cases
  with
  | Some w -> w
  | None -> invalid_arg "Codec: value matches no case"

let tagged tag cases =
  of_members
    { mwrite =
        (fun v ->
          let name, fields = write_case cases v in
          (tag, Json.Str name) :: fields);
      mread =
        (fun o ->
          let rp = Key tag :: o.rp in
          let name = string.read rp (required o tag) in
          match List.find_opt (fun c -> case_name c = name) cases with
          | Some c -> read_case c o
          | None -> failf rp "unknown %s %S" tag name) }

let marked cases =
  of_members
    { mwrite = (fun v -> snd (write_case cases v));
      mread =
        (fun o ->
          match List.find_opt (fun c -> List.mem_assoc (case_name c) o.kvs) cases with
          | Some c -> read_case c o
          | None ->
            failf o.rp "no marker field (want one of %s)"
              (String.concat ", " (List.map case_name cases))) }

(* ------------------------------------------------------------------ *)
(* Records.  Last: the field list's [[]] and [::] shadow the list
   constructors. *)

type ('r, 'f) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'f, 'g) field * ('r, 'g) fields -> ('r, 'f) fields

let rec write_fields : type r f. (r, f) fields -> r -> (string * Json.t) list =
 fun fs r ->
  match fs with
  | [] -> []
  | Member (get, m) :: rest -> m.mwrite (get r) @ write_fields rest r
  | Const (name, v) :: rest -> (name, v) :: write_fields rest r

let rec read_fields : type r f. (r, f) fields -> f -> obj -> r =
 fun fs k o ->
  match fs with
  | [] -> k
  | Member (_, m) :: rest -> read_fields rest (k (m.mread o)) o
  | Const (name, v) :: rest ->
    let j = required o name in
    if j <> v then
      failf (Key name :: o.rp) "expected %s, got %s" (Json.to_string v)
        (Json.to_string j);
    read_fields rest k o

let record k fs = of_members { mwrite = write_fields fs; mread = read_fields fs k }
