(* The codec corpus: every wire and disk shape, encoded by the encoders
   that wrote test/golden/codec_corpus.txt before the codecs moved onto
   Obs.Codec (the optimize reports and the bench document: before they
   left their hand-built encoders).  Each entry must still encode to the
   same bytes, and decode back through its boundary to a value that
   re-encodes to them. *)

module Json = Obs.Json
module Protocol = Serve.Protocol
module Engine = Sweep.Engine
module Request = Opt.Request

let golden () =
  In_channel.with_open_bin (Filename.concat "golden" Corpus.file) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         let i = String.index line ' ' in
         (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)))

(* On a mismatch the fresh corpus is written next to the test binary
   (see test/golden/README.md). *)
let test_corpus_bytes () =
  let golden = golden () in
  let fresh = Corpus.entries () in
  let rendered = List.map (fun (name, j) -> (name, Json.to_string j)) fresh in
  if rendered <> golden then begin
    Out_channel.with_open_bin "codec_corpus.actual.txt" (fun oc ->
        output_string oc (Corpus.render fresh));
    Alcotest.(check (list (pair string string))) "corpus bytes" golden rendered
  end

let ok name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" name (Awesym_error.to_string e)

(* Decode [bytes] through the boundary that owns [name] and re-encode. *)
let round_trip name bytes =
  let j =
    match Json.of_string bytes with Ok j -> j | Error m -> Alcotest.failf "%s: %s" name m
  in
  let prefix p = String.starts_with ~prefix:p name in
  let codec c = match Obs.Codec.decode c j with
    | Ok v -> Obs.Codec.encode c v
    | Error e -> Alcotest.failf "%s: %s" name (Obs.Codec.error_to_string e)
  in
  if prefix "req." then
    let id, trace, req = ok name (Protocol.request_of_json j) in
    Protocol.request_to_json ?id ?trace req
  else if prefix "resp." then
    let id, resp = ok name (Protocol.response_of_json j) in
    Protocol.response_to_json ?id resp
  else if prefix "sweep.plan." then
    Sweep.Plan.to_json
      (match Sweep.Plan.of_json j with
      | Ok p -> p
      | Error m -> Alcotest.failf "%s: %s" name m)
  else if prefix "opt.request." then Request.to_json (Request.of_json j)
  else if prefix "opt.report." then Request.report_to_json (Request.report_of_json j)
  else
    match name with
    | "sweep.chunk_record" ->
      Engine.chunk_result_to_json (Engine.chunk_result_of_json (Lazy.force Corpus.prep) j)
    | "sweep.checkpoint" ->
      (* Load the golden document, then write the loaded chunks back. *)
      let p = Lazy.force Corpus.prep in
      Corpus.with_temp ".ckpt" @@ fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      let chunks = Engine.Checkpoint.load p ~path in
      let w = Engine.Checkpoint.writer p ~path in
      List.iter (Engine.Checkpoint.add ~written:false w) chunks;
      Engine.Checkpoint.flush w;
      (match Json.of_string (Corpus.read_file path) with Ok j -> j | Error m -> failwith m)
    | "opt.unit.restart" -> codec Request.restart_codec
    | "opt.unit.iteration" -> codec Request.iteration_codec
    | "bench.doc" -> codec Obs.bench_codec
    | _ -> Alcotest.failf "no decoder for corpus entry %s" name

let test_corpus_decodes () =
  List.iter
    (fun (name, bytes) ->
      Alcotest.(check string) (name ^ " decodes back") bytes
        (Json.to_string (round_trip name bytes)))
    (golden ())

(* Every one-node mutation of a corpus report or bench document decodes to
   itself or fails with an error of the boundary's kind naming the node:
   nothing half-read reaches the renderer or [bench check]. *)
let test_mutated_documents () =
  let module Err = Awesym_error in
  let classified kind f j =
    match f j with
    | v -> Ok v
    | exception Err.Error e when e.Err.kind = kind -> Error (Err.to_string e)
  in
  let decoders =
    [
      ( "opt.report.",
        classified Err.Parse (fun j -> Request.report_to_json (Request.report_of_json j)) );
      ( "bench.doc",
        classified Err.Artifact_corrupt (fun j ->
            match
              Err.decode ~kind:Artifact_corrupt ~where:"bench.check" Obs.bench_codec j
            with
            | Ok b -> Obs.Codec.encode Obs.bench_codec b
            | Error e -> raise (Err.Error e)) );
    ]
  in
  let checked = ref 0 in
  List.iter
    (fun (name, bytes) ->
      match List.find_opt (fun (p, _) -> String.starts_with ~prefix:p name) decoders with
      | None -> ()
      | Some (_, decode) ->
        let doc = match Json.of_string bytes with Ok j -> j | Error m -> failwith m in
        incr checked;
        match Mutate.failures ~opaque:[ "machine" ] doc decode with
        | [] -> ()
        | e :: _ -> Alcotest.failf "%s: %s" name e)
    (golden ());
  Alcotest.(check int) "documents mutated" 4 !checked

let () =
  Alcotest.run "codec"
    [
      ( "corpus",
        [
          Alcotest.test_case "encoders write the golden bytes" `Quick test_corpus_bytes;
          Alcotest.test_case "golden bytes decode back" `Quick test_corpus_decodes;
          Alcotest.test_case "mutated reports and bench documents name their path" `Quick
            test_mutated_documents;
        ] );
    ]
