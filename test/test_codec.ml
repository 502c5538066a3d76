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
      (* Resume from the golden header and chunk record, append chunk 1,
         and read the header back. *)
      let p = Lazy.force Corpus.prep in
      let chunk0 =
        Json.to_string (Engine.chunk_result_to_json (Lazy.force Corpus.chunk0))
      in
      Corpus.with_temp ".ckpt" @@ fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (bytes ^ "\n" ^ chunk0 ^ "\n"));
      let results, record = Engine.restore ~checkpoint:path ~resume:true p in
      (match results with
      | [| Some r; None |] when Json.to_string (Engine.chunk_result_to_json r) = chunk0 -> ()
      | _ -> Alcotest.fail "sweep.checkpoint: chunk 0 not restored");
      record (Engine.eval_chunk p 1);
      (match Corpus.checkpoint_lines path with
      | [ header; _; _ ] -> header
      | _ -> Alcotest.fail "sweep.checkpoint: expected three lines")
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

(* Non-finite metric values: ±∞ gauges and a NaN histogram sample (which
   turns the summary's sum, extrema, mean and quantiles non-finite) encode
   to a bench document that decodes back to the same bytes, and every
   one-node mutation of it still decodes to itself or names its path. *)
let test_nonfinite_snapshot () =
  let module Err = Awesym_error in
  let snapshot =
    Obs.enabled := true;
    Fun.protect
      ~finally:(fun () ->
        Obs.reset ();
        Obs.enabled := false)
      (fun () ->
        Obs.reset ();
        Obs.Metrics.set_gauge "opt.size.objective" Float.infinity;
        Obs.Metrics.set_gauge "serve.queue_depth" Float.neg_infinity;
        List.iter (Obs.Metrics.observe "lu.factor.dim") [ 1.0; Float.nan ];
        Obs.Metrics.snapshot ())
  in
  let doc =
    Obs.Codec.encode Obs.bench_codec
      {
        Obs.machine = Json.Obj [];
        experiments = [ { Obs.id = "x"; wall_s = 0.5; metrics = snapshot } ];
      }
  in
  let decode j =
    match Err.decode ~kind:Artifact_corrupt ~where:"bench.check" Obs.bench_codec j with
    | Ok b -> Ok b
    | Error e -> Error (Err.to_string e)
  in
  let bytes = Json.to_string doc in
  let back =
    match Json.of_string bytes with
    | Error m -> Alcotest.fail m
    | Ok j -> (
      match decode j with Ok b -> b | Error m -> Alcotest.failf "decode: %s" m)
  in
  Alcotest.(check string) "re-encodes to the same bytes" bytes
    (Json.to_string (Obs.Codec.encode Obs.bench_codec back));
  let m = (List.hd back.Obs.experiments).Obs.metrics in
  Alcotest.(check (list (pair string (float 0.0)))) "gauges"
    [ ("opt.size.objective", Float.infinity);
      ("serve.queue_depth", Float.neg_infinity) ]
    m.Obs.Metrics.gauges;
  (match List.assoc_opt "lu.factor.dim" m.Obs.Metrics.histograms with
  | Some s ->
    Alcotest.(check int) "count" 2 s.Obs.Metrics.count;
    List.iter
      (fun (name, v) ->
        if not (Float.is_nan v) then Alcotest.failf "%s is %h, not NaN" name v)
      [ ("sum", s.Obs.Metrics.sum); ("mean", s.Obs.Metrics.mean);
        ("p99", s.Obs.Metrics.p99) ]
  | None -> Alcotest.fail "histogram lost");
  let reencode j = Result.map (Obs.Codec.encode Obs.bench_codec) (decode j) in
  match Mutate.failures ~opaque:[ "machine" ] doc reencode with
  | [] -> ()
  | e :: _ -> Alcotest.fail e

let () =
  Alcotest.run "codec"
    [
      ( "corpus",
        [
          Alcotest.test_case "encoders write the golden bytes" `Quick test_corpus_bytes;
          Alcotest.test_case "golden bytes decode back" `Quick test_corpus_decodes;
          Alcotest.test_case "mutated reports and bench documents name their path" `Quick
            test_mutated_documents;
          Alcotest.test_case "non-finite metric values round-trip" `Quick
            test_nonfinite_snapshot;
        ] );
    ]
