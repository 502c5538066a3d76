let suffixes =
  (* Longest match first so "meg" wins over "m". *)
  [ ("meg", 1e6); ("f", 1e-15); ("p", 1e-12); ("n", 1e-9); ("u", 1e-6);
    ("m", 1e-3); ("k", 1e3); ("g", 1e9); ("t", 1e12) ]

let is_digit c = c >= '0' && c <= '9'

(* [Some nonzero] when [s] is a decimal literal: an optional sign, digits
   with at most one point (one digit at least), then an optional exponent
   [e[+-]digits]; [nonzero] says whether the mantissa has a nonzero digit.
   [None] for anything else, such as the hex, underscore, [inf] and [nan]
   spellings that [float_of_string] also takes. *)
let decimal s =
  let n = String.length s in
  let rec digits i = if i < n && is_digit s.[i] then digits (i + 1) else i in
  let sign i = if i < n && (s.[i] = '+' || s.[i] = '-') then i + 1 else i in
  let m0 = sign 0 in
  let m1 =
    let i = digits m0 in
    if i < n && s.[i] = '.' then digits (i + 1) else i
  in
  let mantissa = String.sub s m0 (m1 - m0) in
  let stop =
    if m1 < n && s.[m1] = 'e' then
      let e0 = sign (m1 + 1) in
      let e1 = digits e0 in
      if e1 > e0 then e1 else -1
    else m1
  in
  if stop = n && String.exists is_digit mantissa then
    Some (String.exists (fun c -> c >= '1' && c <= '9') mantissa)
  else None

let parse s =
  let s = String.trim (String.lowercase_ascii s) in
  let body, mult =
    match
      List.find_opt
        (fun (suf, _) ->
          String.length s > String.length suf && String.ends_with ~suffix:suf s)
        suffixes
    with
    | Some (suf, mult) -> (String.sub s 0 (String.length s - String.length suf), mult)
    | None -> (s, 1.0)
  in
  match decimal body with
  | None -> None
  | Some nonzero ->
    (* Multiplying by 1.0 is exact, so an unsuffixed value keeps the bits
       [float_of_string] gives it.  A value that overflows, or a nonzero
       literal that underflows to zero, is not the number it spells. *)
    let v = float_of_string body *. mult in
    if Float.is_finite v && (v <> 0.0 || not nonzero) then Some v else None

let parse_exn s =
  match parse s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Units.parse_exn: malformed value %S" s)

let format v =
  if v = 0.0 then "0"
  else begin
    let mag = Float.abs v in
    let pick =
      [ (1e12, "t"); (1e9, "g"); (1e6, "meg"); (1e3, "k"); (1.0, "");
        (1e-3, "m"); (1e-6, "u"); (1e-9, "n"); (1e-12, "p"); (1e-15, "f") ]
      |> List.find_opt (fun (scale, _) -> mag >= scale)
    in
    match pick with
    | Some (scale, suf) -> Printf.sprintf "%g%s" (v /. scale) suf
    | None -> Printf.sprintf "%g" v
  end
