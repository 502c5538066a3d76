(* Minimal JSON document type: enough to emit Chrome traces and bench
   reports, and to parse them back in tests — the toolchain has no JSON
   package baked in, and the subset below is all the subsystem needs. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Shortest decimal representation that round-trips; JSON has no syntax for
   non-finite numbers, so those degrade to null at the value level. *)
let float_repr v =
  let s = Printf.sprintf "%.12g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v ->
    if Float.is_finite v then Buffer.add_string buf (float_repr v)
    else Buffer.add_string buf "null"
  | Str s -> escape buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun k x ->
        if k > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun k (name, x) ->
        if k > 0 then Buffer.add_char buf ',';
        escape buf name;
        Buffer.add_char buf ':';
        write buf x)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* Indented variant for committed artifacts, so diffs stay reviewable. *)
let rec write_pretty buf indent = function
  | List (_ :: _ as xs) ->
    let pad = String.make indent ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun k x ->
        if k > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        Buffer.add_string buf "  ";
        write_pretty buf (indent + 2) x)
      xs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf ']'
  | Obj (_ :: _ as fields) ->
    let pad = String.make indent ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun k (name, x) ->
        if k > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        Buffer.add_string buf "  ";
        escape buf name;
        Buffer.add_string buf ": ";
        write_pretty buf (indent + 2) x)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf '}'
  | v -> write buf v

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  write_pretty buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let to_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string_pretty v))

(* ------------------------------------------------------------------ *)
(* Paths name a node inside a document, "$.points[0][1]" style. *)

type step = Key of string | Index of int

let path_to_string path =
  let step = function Key k -> "." ^ k | Index i -> Printf.sprintf "[%d]" i in
  String.concat "" ("$" :: List.map step path)

(* ------------------------------------------------------------------ *)
(* Recursive-descent parser for RFC 8259 documents, and only those:
   numbers in the RFC's grammar and finite, strings free of raw control
   characters with exactly-four-digit escapes and paired surrogates, no
   duplicate object keys.  Errors name the path of the node being read
   and the byte offset.  Nesting is capped so no input exhausts the
   stack: [of_string] returns on every input. *)

exception Malformed of step list * string * int

let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail rp msg = raise (Malformed (rp, msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect rp c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail rp (Printf.sprintf "expected %C" c)
  in
  let literal rp word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail rp (Printf.sprintf "expected %s" word)
  in
  let hex4 rp =
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if !pos + 4 > n then fail rp "truncated \\u escape";
    let h = String.sub s !pos 4 in
    if not (String.for_all hex h) then fail rp "bad \\u escape (want four hex digits)";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let parse_string rp =
    expect rp '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail rp "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail rp "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = hex4 rp in
          let cp =
            if cp >= 0xDC00 && cp <= 0xDFFF then fail rp "unpaired low surrogate"
            else if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* A high surrogate is only valid as the first half of a pair. *)
              if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
                fail rp "unpaired high surrogate";
              pos := !pos + 2;
              let lo = hex4 rp in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00))
              else fail rp "invalid low surrogate"
            end
            else cp
          in
          Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
        | _ -> fail rp "bad escape");
        go ())
      | c when Char.code c < 0x20 -> fail rp "raw control character in string"
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  (* RFC 8259: optional minus, then 0 or a digit run not starting with
     0, an optional fraction and exponent each with at least one digit;
     and the value must be finite. *)
  let parse_number rp =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do advance () done;
      if !pos = d0 then fail rp "bad number"
    in
    let skip cs =
      match peek () with
      | Some c when String.contains cs c -> advance (); true
      | _ -> false
    in
    ignore (skip "-");
    if not (skip "0") then digits ();
    if skip "." then digits ();
    if skip "eE" then (ignore (skip "+-"); digits ());
    let chunk = String.sub s start (!pos - start) in
    match float_of_string_opt chunk with
    | Some v when Float.is_finite v -> Num v
    | _ -> fail rp (Printf.sprintf "number %s out of range" chunk)
  in
  let rec parse_value rp depth =
    skip_ws ();
    if depth > max_depth then fail rp "nesting too deep";
    match peek () with
    | None -> fail rp "unexpected end of input"
    | Some '"' -> Str (parse_string rp)
    | Some 't' -> literal rp "true" (Bool true)
    | Some 'f' -> literal rp "false" (Bool false)
    | Some 'n' -> literal rp "null" Null
    | Some ('-' | '0' .. '9') -> parse_number rp
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (Index 0 :: rp) (depth + 1) ] in
        let rec more i =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items := parse_value (Index i :: rp) (depth + 1) :: !items;
            more (i + 1)
          | Some ']' -> advance ()
          | _ -> fail rp "expected ',' or ']'"
        in
        more 1;
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let seen = Hashtbl.create 8 in
        let field () =
          skip_ws ();
          let name = parse_string rp in
          if Hashtbl.mem seen name then
            fail rp (Printf.sprintf "duplicate key %S" name);
          Hashtbl.add seen name ();
          skip_ws ();
          expect rp ':';
          (name, parse_value (Key name :: rp) (depth + 1))
        in
        let fields = ref [ field () ] in
        let rec more () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields := field () :: !fields;
            more ()
          | Some '}' -> advance ()
          | _ -> fail rp "expected ',' or '}'"
        in
        more ();
        Obj (List.rev !fields)
      end
    | Some c -> fail rp (Printf.sprintf "unexpected character %C" c)
  in
  match parse_value [] 0 with
  | v ->
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  | exception Malformed (rp, msg, at) ->
    Error
      (Printf.sprintf "%s: %s at offset %d" (path_to_string (List.rev rp)) msg at)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None
