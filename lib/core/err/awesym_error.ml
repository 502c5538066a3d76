(* Structured error taxonomy.  See awesym_error.mli for the contract. *)

type kind =
  | Parse
  | Singular_system
  | Unstable_pade
  | Nonfinite_result
  | Artifact_corrupt
  | Worker_crash
  | Injected_fault
  | Invalid_request
  | Timeout
  | Overloaded
  | Unavailable
  | No_descent
  | Max_iters
  | Internal

type t = {
  kind : kind;
  where : string;
  message : string;
  file : string option;
  line : int option;
  condition : float option;
  context : (string * string) list;
}

exception Error of t

let all_kinds =
  [
    Parse;
    Singular_system;
    Unstable_pade;
    Nonfinite_result;
    Artifact_corrupt;
    Worker_crash;
    Injected_fault;
    Invalid_request;
    Timeout;
    Overloaded;
    Unavailable;
    No_descent;
    Max_iters;
    Internal;
  ]

let kind_name = function
  | Parse -> "parse"
  | Singular_system -> "singular_system"
  | Unstable_pade -> "unstable_pade"
  | Nonfinite_result -> "nonfinite_result"
  | Artifact_corrupt -> "artifact_corrupt"
  | Worker_crash -> "worker_crash"
  | Injected_fault -> "injected_fault"
  | Invalid_request -> "invalid_request"
  | Timeout -> "timeout"
  | Overloaded -> "overloaded"
  | Unavailable -> "unavailable"
  | No_descent -> "no_descent"
  | Max_iters -> "max_iters"
  | Internal -> "internal"

let kind_of_name s =
  List.find_opt (fun k -> kind_name k = s) all_kinds

let make ?file ?line ?condition ?(context = []) kind ~where message =
  { kind; where; message; file; line; condition; context }

let raise_error ?file ?line ?condition ?context kind ~where message =
  raise (Error (make ?file ?line ?condition ?context kind ~where message))

let errorf ?file ?line ?condition ?context kind ~where fmt =
  Format.kasprintf
    (fun message ->
      raise_error ?file ?line ?condition ?context kind ~where message)
    fmt

let writing ~where file f =
  try f ()
  with Sys_error msg ->
    (* The message leads with whatever path failed (a temp file, say);
       keep the reason and name the file the caller was asked for. *)
    let reason =
      match String.rindex_opt msg ':' with
      | Some i -> String.trim (String.sub msg (i + 1) (String.length msg - i - 1))
      | None -> msg
    in
    raise_error Invalid_request ~where ~file ("cannot write: " ^ reason)

let to_string e =
  let b = Buffer.create 96 in
  Buffer.add_string b (kind_name e.kind);
  Buffer.add_string b " at ";
  Buffer.add_string b e.where;
  Buffer.add_string b ": ";
  Buffer.add_string b e.message;
  (match (e.file, e.line) with
  | Some f, Some l -> Buffer.add_string b (Printf.sprintf " (%s:%d)" f l)
  | Some f, None -> Buffer.add_string b (Printf.sprintf " (%s)" f)
  | None, Some l -> Buffer.add_string b (Printf.sprintf " (line %d)" l)
  | None, None -> ());
  (match e.condition with
  | Some c -> Buffer.add_string b (Printf.sprintf " [cond~%.3g]" c)
  | None -> ());
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf " [%s=%s]" k v))
    e.context;
  Buffer.contents b

(* The one wire/disk shape of an error, shared by serve replies, chunk
   records and sweep reports.  [context] is omitted when empty. *)
let codec =
  let module C = Obs.Codec in
  let kind = C.enum (List.map (fun k -> (kind_name k, k)) all_kinds) in
  let context =
    C.refine
      (function [] -> Error "empty context is omitted" | kvs -> Ok kvs)
      Fun.id (C.dict C.string)
  in
  C.record
    (fun kind where message file line condition context ->
      let context = Option.value context ~default:[] in
      { kind; where; message; file; line; condition; context })
    [ C.req "kind" kind (fun e -> e.kind);
      C.req "where" C.string (fun e -> e.where);
      C.req "message" C.string (fun e -> e.message);
      C.opt "file" C.string (fun e -> e.file);
      C.opt "line" C.int (fun e -> e.line);
      C.opt "condition" C.num (fun e -> e.condition);
      C.opt "context" context (fun e -> match e.context with [] -> None | c -> Some c) ]

let to_json = Obs.Codec.encode codec

let decode ?file ~kind ~where c j =
  Result.map_error
    (fun e -> make ?file kind ~where (Obs.Codec.error_to_string e))
    (Obs.Codec.decode c j)

(* Classifier chain: libraries that keep typed exceptions (Lu.Singular,
   Pade.Degenerate, Parser.Parse_error, ...) register a mapping here at
   module-init time.  LIFO, first Some wins. *)

let classifiers : (exn -> t option) list ref = ref []
let register f = classifiers := f :: !classifiers

let classify = function
  | Error t -> t
  | exn ->
      let rec try_all = function
        | [] ->
            make Internal ~where:"unclassified" (Printexc.to_string exn)
        | f :: rest -> (
            match f exn with
            | Some t -> t
            | None -> try_all rest
            | exception _ -> try_all rest)
      in
      try_all !classifiers

(* Printexc integration: uncaught Error values print the structured
   one-liner instead of the bare constructor dump. *)
let () =
  Printexc.register_printer (function
    | Error t -> Some ("Awesym_error.Error: " ^ to_string t)
    | _ -> None)
