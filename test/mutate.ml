(* One-node mutations of an encoded document, for the property that a
   codec decodes canonical input only: every mutation either decodes to a
   value whose encoding is the mutated document itself (the mutation
   produced another canonical document, e.g. a dropped optional field),
   or fails naming the path of the mutated node.

   The mutations: add an unknown key, drop a key, turn an integer n into
   n + 0.5, upper-case a hex cell, swap a string for a number.  Subtrees
   under [opaque] keys hold documents the codec carries without
   decoding, so nothing there is mutated; keys in [defaults] are
   documented to default when absent, so they are never dropped. *)

module Json = Obs.Json

type kind = Add_key | Drop_key | Half_int | Upcase_hex | Swap_type

type t = {
  kind : kind;
  path : Json.step list;  (* the mutated node *)
  doc : Json.t;
}

let is_hex s =
  String.length s = 16
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let rec replace path f j =
  match (path, j) with
  | [], _ -> f j
  | Json.Key k :: rest, Json.Obj kvs ->
    Json.Obj
      (List.map (fun (k', v) -> if k' = k then (k', replace rest f v) else (k', v)) kvs)
  | Json.Index i :: rest, Json.List xs ->
    Json.List (List.mapi (fun i' x -> if i' = i then replace rest f x else x) xs)
  | _ -> j

(* Every node with its root-first path, skipping opaque subtrees. *)
let nodes ~opaque j =
  let rec go rp j acc =
    let acc = (List.rev rp, j) :: acc in
    match j with
    | Json.Obj kvs ->
      List.fold_left
        (fun acc (k, v) -> if List.mem k opaque then acc else go (Json.Key k :: rp) v acc)
        acc kvs
    | Json.List xs ->
      List.fold_left (fun (i, acc) x -> (i + 1, go (Json.Index i :: rp) x acc)) (0, acc) xs
      |> snd
    | _ -> acc
  in
  List.rev (go [] j [])

let all ?(opaque = []) ?(defaults = []) doc =
  List.concat_map
    (fun (path, node) ->
      let at kind f = { kind; path; doc = replace path f doc } in
      match node with
      | Json.Obj kvs ->
        at Add_key (fun _ -> Json.Obj (kvs @ [ ("zz_unknown", Json.Num 1.0) ]))
        :: List.filter_map
             (fun (k, _) ->
               if List.mem k defaults then None
               else Some (at Drop_key (fun _ -> Json.Obj (List.remove_assoc k kvs))))
             kvs
      | Json.Num v when Float.is_integer v -> [ at Half_int (fun _ -> Json.Num (v +. 0.5)) ]
      | Json.Str s when is_hex s && String.uppercase_ascii s <> s ->
        [ at Upcase_hex (fun _ -> Json.Str (String.uppercase_ascii s));
          at Swap_type (fun _ -> Json.Num 1.0) ]
      | Json.Str _ -> [ at Swap_type (fun _ -> Json.Num 1.0) ]
      | _ -> [])
    (nodes ~opaque doc)

(* Offset of the first [needle] in [hay], or -1. *)
let find hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    if i + n > h then -1 else if String.sub hay i n = needle then i else go (i + 1)
  in
  go 0

let contains hay needle = find hay needle >= 0

(* [Ok ()] when [decode m.doc] behaves: [Ok doc'] with [doc' = m.doc], or
   an error message naming the mutated node.  A smart constructor that
   refuses a changed number reports the object it builds, the node's
   parent. *)
let check m decode =
  match decode m.doc with
  | Ok reencoded when Json.to_string reencoded = Json.to_string m.doc -> Ok ()
  | Ok reencoded ->
    Error
      (Printf.sprintf "mutated %s decoded to a different document: %s"
         (Json.to_string m.doc) (Json.to_string reencoded))
  | Error msg ->
    let named p = contains msg (Json.path_to_string p) in
    let parent = List.filteri (fun i _ -> i < List.length m.path - 1) m.path in
    if named m.path || (m.kind = Half_int && named parent) then Ok ()
    else
      Error
        (Printf.sprintf "error for %s does not name %s: %s" (Json.to_string m.doc)
           (Json.path_to_string m.path) msg)

(* A qcheck property over values of [gen]: one mutation of the encoding
   of each, chosen by a drawn index. *)
let prop ~name ?count ?opaque ?defaults gen encode decode =
  QCheck2.Test.make ~name ?count
    QCheck2.Gen.(pair gen nat)
    (fun (v, k) ->
      let ms = all ?opaque ?defaults (encode v) in
      ms = []
      ||
      match check (List.nth ms (k mod List.length ms)) decode with
      | Ok () -> true
      | Error m -> QCheck2.Test.fail_report m)
