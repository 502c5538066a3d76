(* Obs telemetry: spans, metrics, JSON round-trips and pipeline wiring. *)

let with_enabled f =
  Obs.enabled := true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_span_nesting () =
  with_enabled @@ fun () ->
  Obs.Span.with_ ~name:"outer" (fun () ->
      Obs.Span.with_ ~name:"inner_a" (fun () -> ());
      Obs.Span.with_ ~name:"inner_b" (fun () -> ()));
  let spans = Obs.Span.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find name = List.find (fun s -> s.Obs.Span.name = name) spans in
  let outer = find "outer" in
  Alcotest.(check int) "outer is a root" (-1) outer.Obs.Span.parent;
  List.iter
    (fun n ->
      Alcotest.(check int)
        (n ^ " nested under outer")
        outer.Obs.Span.id (find n).Obs.Span.parent)
    [ "inner_a"; "inner_b" ];
  (* Children complete before their parent. *)
  let names = List.map (fun s -> s.Obs.Span.name) spans in
  Alcotest.(check (list string))
    "completion order" [ "inner_a"; "inner_b"; "outer" ] names

let test_span_raise () =
  with_enabled @@ fun () ->
  (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded on raise" 1
    (List.length (Obs.Span.spans ()))

let test_span_disabled () =
  Obs.enabled := false;
  Obs.reset ();
  let r = Obs.Span.with_ ~name:"ghost" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Span.spans ()))

let test_timed () =
  Obs.enabled := false;
  Obs.reset ();
  let r, dt = Obs.Span.timed (fun () -> 7) in
  Alcotest.(check int) "timed result" 7 r;
  Alcotest.(check bool) "non-negative duration" true (dt >= 0.0);
  Alcotest.(check int) "timed alone records nothing" 0
    (List.length (Obs.Span.spans ()))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counters () =
  with_enabled @@ fun () ->
  Obs.Metrics.incr "a";
  Obs.Metrics.incr ~by:4 "a";
  Obs.Metrics.incr "b";
  Alcotest.(check int) "a" 5 (Obs.Metrics.counter "a");
  Alcotest.(check int) "b" 1 (Obs.Metrics.counter "b");
  Alcotest.(check int) "absent" 0 (Obs.Metrics.counter "zzz");
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("a", 5); ("b", 1) ]
    (Obs.Metrics.counters_list ())

let test_histograms () =
  with_enabled @@ fun () ->
  List.iter (Obs.Metrics.observe "h") [ 1.0; 2.0; 4.0 ];
  match Obs.Metrics.histogram "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some st ->
    Alcotest.(check int) "count" 3 st.Obs.Metrics.count;
    Alcotest.(check (float 1e-12)) "sum" 7.0 st.Obs.Metrics.sum;
    Alcotest.(check (float 1e-12)) "min" 1.0 st.Obs.Metrics.min;
    Alcotest.(check (float 1e-12)) "max" 4.0 st.Obs.Metrics.max;
    Alcotest.(check (float 1e-12)) "mean" (7.0 /. 3.0) (Obs.Metrics.mean st);
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 st.Obs.Metrics.buckets in
    Alcotest.(check int) "bucket mass equals count" 3 total

let test_metrics_disabled () =
  Obs.enabled := false;
  Obs.reset ();
  Obs.Metrics.incr "silent";
  Obs.Metrics.observe "silent.h" 3.0;
  Obs.Metrics.set_gauge "silent.g" 1.0;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter "silent");
  Alcotest.(check bool) "histogram untouched" true
    (Obs.Metrics.histogram "silent.h" = None);
  Alcotest.(check bool) "gauge untouched" true
    (Obs.Metrics.gauge "silent.g" = None)

let test_gauges () =
  with_enabled @@ fun () ->
  Obs.Metrics.set_gauge "z.depth" 4.0;
  Obs.Metrics.set_gauge "a.inflight" 1.0;
  Obs.Metrics.set_gauge "z.depth" 2.5;
  Alcotest.(check (option (float 0.0)))
    "last write wins" (Some 2.5)
    (Obs.Metrics.gauge "z.depth");
  Alcotest.(check (option (float 0.0))) "absent" None (Obs.Metrics.gauge "nope");
  (* Listings are name-sorted so stats output and goldens are stable. *)
  Alcotest.(check (list (pair string (float 0.0))))
    "sorted listing"
    [ ("a.inflight", 1.0); ("z.depth", 2.5) ]
    (Obs.Metrics.gauges_list ())

let test_quantiles () =
  with_enabled @@ fun () ->
  List.iter (Obs.Metrics.observe "q") [ 1.0; 2.0; 4.0 ];
  match Obs.Metrics.histogram "q" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
    let q p = Obs.Metrics.quantile s p in
    Alcotest.(check (float 1e-12)) "q=0 is the observed min" 1.0 (q 0.0);
    Alcotest.(check (float 1e-12)) "q=1 is the observed max" 4.0 (q 1.0);
    Alcotest.(check bool) "monotone" true (q 0.5 <= q 0.9 && q 0.9 <= q 0.99);
    List.iter
      (fun p ->
        let v = q p in
        Alcotest.(check bool)
          (Printf.sprintf "q=%g within observed range" p)
          true
          (v >= 1.0 && v <= 4.0))
      [ 0.25; 0.5; 0.75; 0.9; 0.99 ];
    let empty =
      { s with Obs.Metrics.count = 0; buckets = [] }
    in
    Alcotest.(check bool) "empty series has no quantile" true
      (Float.is_nan (Obs.Metrics.quantile empty 0.5))

(* Merging per-domain shards must be exact: recording a stream split
   across shards yields the same histogram as recording it in one go.
   Integer-valued observations keep the sums exact, so equality is
   structural, not approximate. *)
let prop_shard_merge_exact =
  QCheck2.Test.make ~name:"shard merge equals single recording" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 40) (int_range 1 1000))
        (int_range 0 40))
    (fun (raw, cut) ->
      let values = List.map float_of_int raw in
      let cut = Stdlib.min cut (List.length values) in
      let fst_half = List.filteri (fun i _ -> i < cut) values in
      let snd_half = List.filteri (fun i _ -> i >= cut) values in
      with_enabled @@ fun () ->
      List.iter (Obs.Metrics.observe "direct") values;
      Obs.Metrics.with_shard (fun () ->
          List.iter (Obs.Metrics.observe "sharded") fst_half);
      Obs.Metrics.with_shard (fun () ->
          List.iter (Obs.Metrics.observe "sharded") snd_half);
      match (Obs.Metrics.histogram "direct", Obs.Metrics.histogram "sharded") with
      | Some d, Some s -> d = s
      | _ -> false)

let test_prometheus_golden () =
  with_enabled @@ fun () ->
  Obs.Metrics.incr ~by:3 "req.count";
  Obs.Metrics.set_gauge "g.depth" 2.5;
  List.iter (Obs.Metrics.observe "lat.us") [ 1.0; 2.0; 4.0 ];
  let expected =
    String.concat "\n"
      [
        "# TYPE awesym_req_count counter";
        "awesym_req_count 3";
        "# TYPE awesym_g_depth gauge";
        "awesym_g_depth 2.5";
        "# TYPE awesym_lat_us summary";
        "awesym_lat_us{quantile=\"0.5\"} 3";
        "awesym_lat_us{quantile=\"0.9\"} 4";
        "awesym_lat_us{quantile=\"0.99\"} 4";
        "awesym_lat_us_sum 7";
        "awesym_lat_us_count 3";
        "";
      ]
  in
  Alcotest.(check string) "exposition text" expected
    (Obs.Metrics.to_prometheus ())

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let module J = Obs.Json in
  let doc =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\n\t");
        ("n", J.Num 1.25e-3);
        ("neg", J.Num (-17.0));
        ("flag", J.Bool true);
        ("nothing", J.Null);
        ("xs", J.List [ J.Num 1.0; J.Num 2.0; J.Num 3.0 ]);
      ]
  in
  match J.of_string (J.to_string doc) with
  | Error msg -> Alcotest.fail msg
  | Ok doc' -> Alcotest.(check bool) "round trip" true (doc = doc')

let test_json_parse_errors () =
  let module J = Obs.Json in
  List.iter
    (fun src ->
      match J.of_string src with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" src)
      | Error _ -> ())
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{\"a\":1} trailing"; "";
      (* \u escapes take exactly four hex digits, surrogates come paired *)
      {|"\u+041"|}; {|"\u_041"|}; {|"\u0x41"|}; {|"\u12"|}; {|"\ud800"|};
      {|"\udc00"|}; {|"\ud800\u0041"|};
      (* RFC 8259 numbers only, and finite ones *)
      "+1"; ".5"; "01"; "1."; "1e"; "-"; "1e999"; "-1e999";
      (* no duplicate keys, no raw control characters *)
      {|{"op":"ping","op":"shutdown"}|}; "\"a\tb\""; "\"a\nb\"";
      String.make 600 '[' ^ String.make 600 ']' ]

(* What the strict parser still accepts, and the paths its errors name. *)
let test_json_parse_accepts () =
  let module J = Obs.Json in
  let parses src v =
    Alcotest.(check bool) src true (J.of_string src = Ok v)
  in
  parses "-0" (J.Num (-0.0));
  parses "0.5e-3" (J.Num 0.5e-3);
  parses "1E+2" (J.Num 100.0);
  parses {|"\ud83d\ude00\u00e9\/"|} (J.Str "\xf0\x9f\x98\x80\xc3\xa9/");
  parses {|{"a":{"a":1}}|} (J.Obj [ ("a", J.Obj [ ("a", J.Num 1.0) ]) ]);
  List.iter
    (fun (src, prefix) ->
      match J.of_string src with
      | Error m when String.starts_with ~prefix m -> ()
      | Error m -> Alcotest.failf "%s: error %S does not start with %S" src m prefix
      | Ok _ -> Alcotest.failf "accepted %s" src)
    [ ({|{"a":[1,{"b":"\u12"}]}|}, "$.a[1].b: ");
      ({|{"op":"ping","op":"x"}|}, "$: duplicate key \"op\"");
      ({|[0,01]|}, "$: expected ',' or ']'") ]

(* [Json.of_string] returns on every input: random strings, and every
   one-byte change to the frames of the codec corpus. *)
let prop_json_total =
  let frames =
    lazy
      (In_channel.with_open_bin "golden/codec_corpus.txt" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun line ->
             Option.map (fun i -> String.sub line (i + 1) (String.length line - i - 1))
               (String.index_opt line ' ')))
  in
  QCheck2.Test.make ~name:"of_string never raises" ~count:2000
    QCheck2.Gen.(
      oneof
        [ string;
          string_printable;
          (let* k = nat in
           let frames = Lazy.force frames in
           let f = List.nth frames (k mod List.length frames) in
           let* i = int_bound (String.length f - 1) in
           let* c = char in
           return (String.mapi (fun k x -> if k = i then c else x) f)) ])
    (fun src ->
      match Obs.Json.of_string src with Ok _ | Error _ -> true)

(* The codec's canonical rules on its primitives and records. *)
let test_codec_canonical () =
  let module C = Obs.Codec in
  let module J = Obs.Json in
  let rejects c j path =
    match C.decode c j with
    | Ok _ -> Alcotest.failf "accepted %s" (J.to_string j)
    | Error e ->
      Alcotest.(check string) (J.to_string j) path (J.path_to_string e.C.path)
  in
  rejects C.int (J.Num 1.5) "$";
  rejects C.int (J.Num 0x1p60) "$";
  rejects C.num J.Null "$";
  rejects C.hexfloat (J.Str "3FF0000000000000") "$";
  rejects C.hexfloat (J.Str "3ff000000000000") "$";
  rejects (C.list C.int) (J.List [ J.Num 1.0; J.Str "2" ]) "$[1]";
  let pt =
    C.record (fun x y -> (x, y)) [ C.req "x" C.int fst; C.opt "y" C.hexfloat snd ]
  in
  let obj kvs = J.Obj kvs in
  rejects pt (obj [ ("x", J.Num 1.0); ("z", J.Null) ]) "$";
  rejects pt (obj [ ("y", J.Str (C.hex 1.0)) ]) "$";
  rejects pt (obj [ ("x", J.Num 1.0); ("y", J.Null) ]) "$.y";
  Alcotest.(check string) "omitted when None" {|{"x":3}|}
    (J.to_string (C.encode pt (3, None)));
  (match C.decode pt (obj [ ("y", J.Str (C.hex Float.nan)); ("x", J.Num (-2.0)) ]) with
  | Ok (-2, Some v) when Float.is_nan v -> ()
  | _ -> Alcotest.fail "member order is not checked");
  let shape =
    C.tagged "kind"
      [ C.case "pt" pt (fun p -> `Pt p) (function `Pt p -> Some p | `Unit -> None);
        C.case "unit" (C.record () [ C.const "ok" (J.Bool true) ]) (fun () -> `Unit)
          (function `Unit -> Some () | `Pt _ -> None) ]
  in
  Alcotest.(check string) "tag first" {|{"kind":"unit","ok":true}|}
    (J.to_string (C.encode shape `Unit));
  rejects shape (obj [ ("kind", J.Str "circle") ]) "$.kind";
  rejects shape (obj [ ("kind", J.Str "unit"); ("ok", J.Bool false) ]) "$.ok";
  rejects shape (obj [ ("kind", J.Str "unit"); ("ok", J.Bool true); ("x", J.Num 1.0) ]) "$"

let test_chrome_trace () =
  let module J = Obs.Json in
  with_enabled @@ fun () ->
  Obs.Span.with_ ~name:"phase" (fun () ->
      Obs.Span.with_ ~name:"step" (fun () -> ()));
  let doc = Obs.Span.to_chrome () in
  (* The emitted document must parse back and carry one complete event per
     span, timestamps in microseconds. *)
  match J.of_string (J.to_string doc) with
  | Error msg -> Alcotest.fail msg
  | Ok doc' -> (
    match J.member "traceEvents" doc' with
    | Some (J.List events) ->
      Alcotest.(check int) "one event per span" 2 (List.length events);
      List.iter
        (fun ev ->
          (match J.member "ph" ev with
          | Some (J.Str "X") -> ()
          | _ -> Alcotest.fail "expected complete (ph=X) events");
          match J.member "dur" ev with
          | Some (J.Num d) ->
            Alcotest.(check bool) "duration in range" true (d >= 0.0 && d < 1e6)
          | _ -> Alcotest.fail "missing dur")
        events
    | _ -> Alcotest.fail "missing traceEvents")

(* A trace written mid-phase must still be well-formed: spans that are
   open at write time appear as complete events flagged truncated. *)
let test_chrome_trace_truncated () =
  let module J = Obs.Json in
  with_enabled @@ fun () ->
  Obs.Span.with_ ~name:"outer" (fun () ->
      Obs.Span.with_ ~name:"done" (fun () -> ());
      (match Obs.Span.open_spans () with
      | [ s ] ->
        Alcotest.(check string) "open span is outer" "outer" s.Obs.Span.name;
        Alcotest.(check bool) "duration measured so far" true
          (s.Obs.Span.dur >= 0.0)
      | l -> Alcotest.failf "expected one open span, got %d" (List.length l));
      let doc = Obs.Span.to_chrome () in
      match J.member "traceEvents" doc with
      | Some (J.List events) ->
        Alcotest.(check int) "completed + truncated" 2 (List.length events);
        let truncated =
          List.filter
            (fun ev ->
              match J.member "args" ev with
              | Some args -> J.member "truncated" args = Some (J.Bool true)
              | None -> false)
            events
        in
        (match truncated with
        | [ ev ] -> (
          (match J.member "name" ev with
          | Some (J.Str "outer") -> ()
          | _ -> Alcotest.fail "the open span is the truncated one");
          match J.member "ph" ev with
          | Some (J.Str "X") -> ()
          | _ -> Alcotest.fail "truncated events still complete (ph=X)")
        | l -> Alcotest.failf "expected one truncated event, got %d"
                 (List.length l));
        Alcotest.(check bool) "completed child is not truncated" true
          (List.exists
             (fun ev ->
               J.member "name" ev = Some (J.Str "done")
               && J.member "args" ev = None)
             events)
      | _ -> Alcotest.fail "missing traceEvents");
  Alcotest.(check int) "no open spans after close" 0
    (List.length (Obs.Span.open_spans ()))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng () =
  let r1 = Obs.Rng.create 42 and r2 = Obs.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "deterministic" (Obs.Rng.float r1)
      (Obs.Rng.float r2)
  done;
  let r = Obs.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Obs.Rng.float r in
    Alcotest.(check bool) "unit interval" true (v >= 0.0 && v <= 1.0);
    let u = Obs.Rng.uniform ~lo:2.0 ~hi:5.0 r in
    Alcotest.(check bool) "uniform in range" true (u >= 2.0 && u <= 5.0);
    let lg = Obs.Rng.log_uniform ~lo:1e-12 ~hi:1e-6 r in
    Alcotest.(check bool) "log_uniform in range" true (lg >= 1e-12 && lg <= 1e-6)
  done

(* ------------------------------------------------------------------ *)
(* Pipeline wiring *)

let rc_deck () =
  Circuit.Builders.rc_ladder ~sections:4 ~r:100.0 ~c:1e-12 ()

let test_driver_phases () =
  with_enabled @@ fun () ->
  let result = Awe.Driver.analyze ~order:2 (rc_deck ()) in
  Alcotest.(check bool) "healthy factorization" false
    result.Awe.Driver.health.Awe.Driver.near_singular;
  Alcotest.(check bool) "positive pivots" true
    (result.Awe.Driver.health.Awe.Driver.pivot_min > 0.0);
  let names =
    Obs.Span.spans () |> List.map (fun s -> s.Obs.Span.name)
    |> List.sort_uniq compare
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s recorded" expected)
        true (List.mem expected names))
    [ "mna.build"; "awe.analyze"; "awe.moments"; "awe.pade.fit" ];
  Alcotest.(check bool) "lu counter tripped" true
    (Obs.Metrics.counter "lu.factor.count" > 0);
  Alcotest.(check bool) "moment recursion counted" true
    (Obs.Metrics.counter "moments.recursion.steps" > 0)

let test_disabled_is_quiet () =
  Obs.enabled := false;
  Obs.reset ();
  let _ = Awe.Driver.analyze ~order:2 (rc_deck ()) in
  Alcotest.(check int) "no spans" 0 (List.length (Obs.Span.spans ()));
  Alcotest.(check (list (pair string int)))
    "no counters" []
    (Obs.Metrics.counters_list ())

let () =
  Alcotest.run "obs"
    [
      ( "span",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting;
          Alcotest.test_case "recorded on raise" `Quick test_span_raise;
          Alcotest.test_case "disabled no-op" `Quick test_span_disabled;
          Alcotest.test_case "timed" `Quick test_timed;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "disabled no-op" `Quick test_metrics_disabled;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          QCheck_alcotest.to_alcotest prop_shard_merge_exact;
          Alcotest.test_case "prometheus exposition golden" `Quick
            test_prometheus_golden;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "parse accepts RFC 8259, errors name paths" `Quick
            test_json_parse_accepts;
          QCheck_alcotest.to_alcotest prop_json_total;
          Alcotest.test_case "codec canonical rules" `Quick test_codec_canonical;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
          Alcotest.test_case "chrome trace mid-phase truncation" `Quick
            test_chrome_trace_truncated;
        ] );
      ("rng", [ Alcotest.test_case "determinism and ranges" `Quick test_rng ]);
      ( "pipeline",
        [
          Alcotest.test_case "driver phases" `Quick test_driver_phases;
          Alcotest.test_case "disabled stays quiet" `Quick test_disabled_is_quiet;
        ] );
    ]
