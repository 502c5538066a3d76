(* Tests for the robustness layer: the Awesym_error taxonomy, the seeded
   fault-injection harness, per-point fault isolation in the sweep engine,
   and chunk-granular checkpoint/resume.

   The load-bearing properties, each exercised at jobs = 1 and 4:
   - transient faults under the retry policy leave the report
     byte-identical to a fault-free run;
   - an aborted checkpointed sweep, resumed, is byte-identical to an
     uninterrupted one;
   - skip-policy statistics equal statistics over the survivor subset
     recomputed by hand. *)

module Err = Awesym_error
module Fault = Runtime.Fault
module Netlist = Circuit.Netlist
module Builders = Circuit.Builders
module Parser = Circuit.Parser
module Sym = Symbolic.Symbol
module Model = Awesymbolic.Model
module Artifact = Awesymbolic.Artifact
module Dist = Sweep.Dist
module Plan = Sweep.Plan
module Stats = Sweep.Stats
module Engine = Sweep.Engine

(* Every armed test must disarm even on failure: fault state is global. *)
let with_faults ?seed spec f =
  Fault.arm ?seed spec;
  Fun.protect ~finally:Fault.disarm f

let fig1_c1_g2 () =
  let nl = Builders.fig1 () in
  let nl = Netlist.mark_symbolic nl "C1" (Sym.intern "C1") in
  Netlist.mark_symbolic nl "G2" (Sym.intern "G2")

let fig1_model = lazy (Model.build ~order:2 (fig1_c1_g2 ()))

let plan_c1_g2 kind =
  Plan.make kind
    [
      { Plan.name = "C1"; dist = Dist.uniform ~lo:0.5e-12 ~hi:2.0e-12 };
      { Plan.name = "G2"; dist = Dist.uniform ~lo:0.5e-3 ~hi:2.0e-3 };
    ]

let json_of r = Obs.Json.to_string (Engine.to_json r)

(* Substring check (no Astring dependency in the test tree). *)
let contains ~frag s =
  let n = String.length frag and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = frag || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Taxonomy *)

let test_kind_names_roundtrip () =
  List.iter
    (fun k ->
      match Err.kind_of_name (Err.kind_name k) with
      | Some k' when k' = k -> ()
      | _ -> Alcotest.failf "kind %s does not round-trip" (Err.kind_name k))
    Err.all_kinds;
  Alcotest.(check bool) "unknown name" true (Err.kind_of_name "bogus" = None);
  Alcotest.(check int) "fourteen buckets" 14 (List.length Err.all_kinds)

let test_to_string_and_json () =
  let e =
    Err.make Err.Singular_system ~where:"lu.factor" ~file:"deck.cir" ~line:12
      ~condition:3.2e15
      ~context:[ ("column", "3") ]
      "zero pivot"
  in
  let s = Err.to_string e in
  List.iter
    (fun frag ->
      if not (contains ~frag s) then
        Alcotest.failf "to_string %S lacks %S" s frag)
    [ "singular_system"; "lu.factor"; "zero pivot"; "deck.cir"; "12" ];
  let j = Err.to_json e in
  let str k =
    match Obs.Json.member k j with
    | Some (Obs.Json.Str s) -> s
    | _ -> Alcotest.failf "json lacks %s" k
  in
  Alcotest.(check string) "kind" "singular_system" (str "kind");
  Alcotest.(check string) "where" "lu.factor" (str "where");
  Alcotest.(check string) "file" "deck.cir" (str "file");
  (match Obs.Json.member "line" j with
  | Some (Obs.Json.Num 12.0) -> ()
  | _ -> Alcotest.fail "line missing");
  match Obs.Json.member "context" j with
  | Some (Obs.Json.Obj [ ("column", Obs.Json.Str "3") ]) -> ()
  | _ -> Alcotest.fail "context missing"

(* Every taxonomy bucket is reachable through [classify], either from the
   owning library's typed exception or from a direct [Error]. *)
let test_classify_every_kind () =
  let kind_of exn = (Err.classify exn).Err.kind in
  (* Parse: the parser's located exception. *)
  let e = Err.classify (Parser.Parse_error (7, "boom")) in
  Alcotest.(check bool) "parse kind" true (e.Err.kind = Err.Parse);
  Alcotest.(check bool) "parse line" true (e.Err.line = Some 7);
  (* Singular_system: a genuinely singular factorization. *)
  (match Numeric.Lu.factor (Numeric.Matrix.of_arrays [| [| 0.0 |] |]) with
  | _ -> Alcotest.fail "singular matrix factored"
  | exception exn ->
    Alcotest.(check bool) "singular kind" true
      (kind_of exn = Err.Singular_system));
  (* Unstable_pade: the fitter's typed exception. *)
  Alcotest.(check bool) "pade kind" true
    (kind_of (Awe.Pade.Degenerate "all poles unstable") = Err.Unstable_pade);
  (* Artifact_corrupt: the artifact layer's typed exception. *)
  Alcotest.(check bool) "artifact kind" true
    (kind_of (Artifact.Format_error "bad magic") = Err.Artifact_corrupt);
  (* Injected_fault: an armed cut. *)
  with_faults "unit.site:1:sticky" (fun () ->
      match Fault.cut "unit.site" with
      | () -> Alcotest.fail "armed cut did not fire"
      | exception exn ->
        Alcotest.(check bool) "injected kind" true
          (kind_of exn = Err.Injected_fault));
  (* Direct raises for the kinds owned by the taxonomy itself. *)
  List.iter
    (fun k ->
      let exn = Err.Error (Err.make k ~where:"unit" "synthetic") in
      Alcotest.(check bool) (Err.kind_name k) true (kind_of exn = k))
    [ Err.Nonfinite_result; Err.Worker_crash; Err.Invalid_request ];
  (* Internal: the fallback for unclassified exceptions. *)
  Alcotest.(check bool) "fallback" true (kind_of Not_found = Err.Internal);
  (* classify is the identity on already-classified errors. *)
  let t = Err.make Err.Worker_crash ~where:"pool" "died" in
  Alcotest.(check bool) "identity" true (Err.classify (Err.Error t) == t)

let test_registered_printer () =
  let s =
    Printexc.to_string
      (Err.Error (Err.make Err.Unstable_pade ~where:"pade.fit" "degenerate"))
  in
  Alcotest.(check bool) "printer used" true
    (contains ~frag:"unstable_pade" s)

(* ------------------------------------------------------------------ *)
(* Fault harness *)

let test_fault_spec_parsing () =
  List.iter
    (fun bad ->
      match Fault.arm bad with
      | () ->
        Fault.disarm ();
        Alcotest.failf "bad spec %S accepted" bad
      | exception Invalid_argument _ -> ())
    [ "site"; "site:2.0"; "site:abc"; "site:0.5:bogus"; ":0.5" ];
  with_faults "a:0,b.*:1,*:0.5:sticky" (fun () ->
      Alcotest.(check bool) "armed" true (Fault.armed ()));
  Alcotest.(check bool) "disarmed" false (Fault.armed ())

let test_fault_determinism () =
  let fired seed =
    with_faults ~seed "unit.det:0.3" (fun () ->
        List.filter
          (fun k -> Fault.would_fire ~key:k "unit.det")
          (List.init 500 Fun.id))
  in
  let a = fired 3 and b = fired 3 and c = fired 4 in
  Alcotest.(check bool) "same seed, same set" true (a = b);
  Alcotest.(check bool) "nonempty at p=0.3" true (a <> []);
  Alcotest.(check bool) "not universal at p=0.3" true (List.length a < 500);
  Alcotest.(check bool) "different seed, different set" true (a <> c);
  with_faults "unit.det:0" (fun () ->
      Alcotest.(check bool) "p=0 never fires" false
        (List.exists (fun k -> Fault.would_fire ~key:k "unit.det")
           (List.init 200 Fun.id)));
  with_faults "unit.det:1" (fun () ->
      Alcotest.(check bool) "p=1 always fires" true
        (List.for_all (fun k -> Fault.would_fire ~key:k "unit.det")
           (List.init 200 Fun.id)))

let test_fault_transient_vs_sticky () =
  with_faults "t:1,s:1:sticky" (fun () ->
      Alcotest.(check bool) "transient attempt 0" true
        (Fault.would_fire ~attempt:0 "t");
      Alcotest.(check bool) "transient attempt 1" false
        (Fault.would_fire ~attempt:1 "t");
      Alcotest.(check bool) "sticky attempt 0" true
        (Fault.would_fire ~attempt:0 "s");
      Alcotest.(check bool) "sticky attempt 3" true
        (Fault.would_fire ~attempt:3 "s"))

let test_fault_site_matching () =
  with_faults "cache.read:0,cache.*:1:sticky" (fun () ->
      (* First match wins: the exact rule masks the prefix rule. *)
      Alcotest.(check bool) "exact rule shadows prefix" false
        (Fault.would_fire "cache.read");
      Alcotest.(check bool) "prefix matches sibling" true
        (Fault.would_fire "cache.write");
      Alcotest.(check bool) "unrelated site silent" false
        (Fault.would_fire "artifact.read"));
  with_faults "*:1:sticky" (fun () ->
      Alcotest.(check bool) "wildcard matches all" true
        (Fault.would_fire "anything.at.all"))

let test_fault_cut_payload () =
  with_faults "unit.cut:1:sticky" (fun () ->
      match Fault.cut ~key:17 ~attempt:2 "unit.cut" with
      | () -> Alcotest.fail "cut did not fire"
      | exception Err.Error e ->
        Alcotest.(check bool) "kind" true (e.Err.kind = Err.Injected_fault);
        Alcotest.(check string) "where" "unit.cut" e.Err.where;
        Alcotest.(check bool) "key recorded" true
          (List.assoc_opt "key" e.Err.context = Some "17"))

(* ------------------------------------------------------------------ *)
(* Parser located errors *)

let expect_parse_error deck ~line ~frags =
  match Parser.parse_string deck with
  | _ -> Alcotest.failf "bad deck accepted: %S" deck
  | exception Parser.Parse_error (l, msg) ->
    Alcotest.(check int) "error line" line l;
    List.iter
      (fun frag ->
        if not (contains ~frag msg) then
          Alcotest.failf "message %S lacks %S" msg frag)
      frags

let test_parser_located_errors () =
  expect_parse_error "R1 1\n" ~line:1 ~frags:[ "R1"; "operand" ];
  expect_parse_error "R1 1 0 1k\nQ7 1 2 3\n" ~line:2 ~frags:[ "Q7" ];
  expect_parse_error "R1 1 0 bogus\n" ~line:1 ~frags:[ "bogus" ];
  expect_parse_error "R1 1 0 1k\nC1 2\n" ~line:2 ~frags:[ "C1" ];
  (* The classifier carries the location into the taxonomy. *)
  match Parser.parse_string "R1 1 0 1k\n\nE9 1 2\n" with
  | _ -> Alcotest.fail "bad deck accepted"
  | exception exn ->
    let e = Err.classify exn in
    Alcotest.(check bool) "kind" true (e.Err.kind = Err.Parse);
    Alcotest.(check bool) "line" true (e.Err.line = Some 3)

(* ------------------------------------------------------------------ *)
(* Fault containment at artifact/cache reads *)

let test_artifact_read_fault () =
  let model = Lazy.force fig1_model in
  let path = Filename.temp_file "awesym_test" ".awm" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Model.save model path;
      with_faults "artifact.read:1:sticky" (fun () ->
          match Model.load path with
          | _ -> Alcotest.fail "armed artifact read succeeded"
          | exception Err.Error e ->
            Alcotest.(check bool) "kind" true
              (e.Err.kind = Err.Injected_fault));
      let reloaded = Model.load path in
      Alcotest.(check int) "reload intact" (Model.order model)
        (Model.order reloaded))

let test_cache_read_fault_contained () =
  let dir = Filename.temp_file "awesym_cache" "" in
  Sys.remove dir;
  let nl = fig1_c1_g2 () in
  let m1 = Model.build_cached ~cache_dir:dir ~order:2 nl in
  (* A poisoned cache read must fall back to rebuilding, not crash. *)
  let m2 =
    with_faults "cache.read:1:sticky" (fun () ->
        Model.build_cached ~cache_dir:dir ~order:2 (fig1_c1_g2 ()))
  in
  let v = Model.nominal_values m1 in
  Alcotest.(check bool) "rebuilt model agrees" true
    (Model.eval_moments m1 v = Model.eval_moments m2 v)

(* ------------------------------------------------------------------ *)
(* Engine policies *)

let test_policy_of_string () =
  let ok s p =
    match Engine.policy_of_string s with
    | Ok p' when p' = p -> ()
    | _ -> Alcotest.failf "policy %S misparsed" s
  in
  ok "fail_fast" Engine.Fail_fast;
  ok "fail-fast" Engine.Fail_fast;
  ok "skip" Engine.Skip;
  ok "retry" (Engine.Retry 2);
  ok "retry:5" (Engine.Retry 5);
  List.iter
    (fun bad ->
      match Engine.policy_of_string bad with
      | Ok _ -> Alcotest.failf "bad policy %S accepted" bad
      | Error _ -> ())
    [ "retry:0"; "retry:x"; "never" ];
  Alcotest.(check string) "retry name" "retry:3"
    (Engine.policy_name (Engine.Retry 3))

let test_fail_fast_aborts () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 64) in
  with_faults "sweep.point:1:sticky" (fun () ->
      match Engine.run ~seed:5 ~policy:Engine.Fail_fast model plan with
      | _ -> Alcotest.fail "fail_fast swallowed a fault"
      | exception Err.Error e ->
        Alcotest.(check bool) "kind" true (e.Err.kind = Err.Injected_fault))

let test_skip_quarantines_predicted_points () =
  let model = Lazy.force fig1_model in
  let n = 400 in
  let plan = plan_c1_g2 (Plan.Monte_carlo n) in
  with_faults ~seed:9 "sweep.point:0.05:sticky" (fun () ->
      let predicted =
        List.filter
          (fun i -> Fault.would_fire ~key:i "sweep.point")
          (List.init n Fun.id)
      in
      Alcotest.(check bool) "test is non-trivial" true (predicted <> []);
      let r = Engine.run ~seed:5 ~policy:Engine.Skip model plan in
      Alcotest.(check (list int)) "exact failure set" predicted
        (List.map (fun fp -> fp.Engine.point) r.Engine.failed);
      Alcotest.(check int) "survivors" (n - List.length predicted)
        (Engine.survivors r);
      List.iter
        (fun fp ->
          Alcotest.(check int) "one attempt under skip" 1 fp.Engine.attempts;
          Alcotest.(check bool) "kind" true
            (fp.Engine.error.Err.kind = Err.Injected_fault))
        r.Engine.failed;
      (* Quarantine decisions are schedule-independent. *)
      let j1 = json_of (Engine.run ~seed:5 ~jobs:1 ~policy:Engine.Skip model plan) in
      let j4 = json_of (Engine.run ~seed:5 ~jobs:4 ~policy:Engine.Skip model plan) in
      Alcotest.(check string) "jobs-invariant under faults" j1 j4)

let test_all_points_failed_raises () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 16) in
  with_faults "sweep.point:1:sticky" (fun () ->
      match Engine.run ~seed:5 ~policy:Engine.Skip model plan with
      | _ -> Alcotest.fail "fully-failed sweep returned a result"
      | exception Err.Error e ->
        Alcotest.(check bool) "mentions totality" true
          (contains ~frag:"every point" e.Err.message))

(* Property (a): transient faults + retry ≡ fault-free, byte-identical. *)
let prop_retry_heals_transients =
  QCheck2.Test.make ~name:"transient faults + retry ≡ fault-free" ~count:8
    QCheck2.Gen.(
      triple (int_range 0 1000) (int_range 5 45) (int_range 1 4))
    (fun (fseed, pct, jobs) ->
      let model = Lazy.force fig1_model in
      let plan = plan_c1_g2 (Plan.Monte_carlo 120) in
      let policy = Engine.Retry 1 in
      let clean = json_of (Engine.run ~seed:7 ~jobs ~policy model plan) in
      let spec =
        Printf.sprintf "sweep.point:0.%02d,pool.worker:0.%02d" pct pct
      in
      let faulted =
        with_faults ~seed:fseed spec (fun () ->
            json_of (Engine.run ~seed:7 ~jobs ~policy model plan))
      in
      clean = faulted)

(* Property (c): skip statistics ≡ statistics over the survivor subset,
   recomputed point-by-point outside the engine. *)
let test_skip_stats_match_survivor_subset () =
  let model = Lazy.force fig1_model in
  let n = 300 in
  let seed = 5 in
  let block = 256 in
  let plan = plan_c1_g2 (Plan.Monte_carlo n) in
  let measures = [ Engine.Moment 0; Engine.Dc_gain ] in
  with_faults ~seed:11 "sweep.point:0.1:sticky" (fun () ->
      let r = Engine.run ~seed ~block ~measures ~policy:Engine.Skip model plan in
      Alcotest.(check bool) "some failures" true (r.Engine.failed <> []);
      let failed =
        List.fold_left
          (fun acc fp -> fp.Engine.point :: acc)
          [] r.Engine.failed
      in
      (* Recompute the survivors' values with the scalar evaluator. *)
      let symbols = Array.map Sym.name (Model.symbols model) in
      let nominals = Model.nominal_values model in
      let rng = Obs.Rng.create seed in
      let cols = Plan.columns ~symbols ~nominals ~rng ~jobs:1 ~block plan in
      let m0s = ref [] and gains = ref [] in
      for i = n - 1 downto 0 do
        if not (List.mem i failed) then begin
          let v = Array.map (fun col -> col.(i)) cols in
          let m = Model.eval_moments model v in
          let rom = Awe.Pade.fit ~order:(Model.order model) m in
          m0s := m.(0) :: !m0s;
          gains := Awe.Measures.dc_gain rom :: !gains
        end
      done;
      let check name expect (s : Stats.summary) =
        let e = Stats.summarize (Array.of_list expect) in
        Alcotest.(check (float 0.0)) (name ^ " mean") e.Stats.mean s.Stats.mean;
        Alcotest.(check (float 0.0)) (name ^ " std") e.Stats.std s.Stats.std;
        Alcotest.(check (float 0.0)) (name ^ " min") e.Stats.min s.Stats.min;
        Alcotest.(check (float 0.0)) (name ^ " max") e.Stats.max s.Stats.max
      in
      check "m0" !m0s (List.assoc (Engine.Moment 0) r.Engine.summaries);
      check "dc_gain" !gains (List.assoc Engine.Dc_gain r.Engine.summaries))

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume *)

let with_temp_path f =
  let path = Filename.temp_file "awesym_ckpt" ".json" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Pick a fault seed whose first firing point is late enough that the
   aborted run completes (and checkpoints) at least two chunks first. *)
let find_abort_seed ~n ~spec ~site ~min_key =
  let rec go seed =
    if seed > 10_000 then Alcotest.fail "no suitable fault seed found"
    else
      let keys =
        with_faults ~seed spec (fun () ->
            List.filter
              (fun k -> Fault.would_fire ~key:k site)
              (List.init n Fun.id))
      in
      match keys with
      | k :: _ when k >= min_key -> seed
      | _ -> go (seed + 1)
  in
  go 0

(* Property (b): abort a checkpointed sweep mid-run, resume, and compare
   byte-for-byte with an uninterrupted run — at jobs 1 and 4. *)
let test_checkpoint_resume_identical () =
  let model = Lazy.force fig1_model in
  let n = 1500 in
  let plan = plan_c1_g2 (Plan.Monte_carlo n) in
  let policy = Engine.Fail_fast in
  let spec = "sweep.point:0.002:sticky" in
  let fseed = find_abort_seed ~n ~spec ~site:"sweep.point" ~min_key:600 in
  List.iter
    (fun jobs ->
      let reference =
        json_of (Engine.run ~seed:7 ~jobs ~policy model plan)
      in
      with_temp_path (fun path ->
          (match
             with_faults ~seed:fseed spec (fun () ->
                 Engine.run ~seed:7 ~jobs ~policy ~checkpoint:path model plan)
           with
          | _ -> Alcotest.fail "armed fail_fast run completed"
          | exception Err.Error _ -> ());
          Alcotest.(check bool) "checkpoint written" true
            (Sys.file_exists path);
          let resumed =
            Engine.run ~seed:7 ~jobs ~policy ~checkpoint:path ~resume:true
              model plan
          in
          Alcotest.(check string)
            (Printf.sprintf "resume ≡ uninterrupted at jobs %d" jobs)
            reference (json_of resumed)))
    [ 1; 4 ]

let test_checkpoint_rejects_mismatch () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 300) in
  with_temp_path (fun path ->
      ignore (Engine.run ~seed:7 ~checkpoint:path model plan);
      (* Different seed → different sweep → the key must not match. *)
      (match
         Engine.run ~seed:8 ~checkpoint:path ~resume:true model plan
       with
      | _ -> Alcotest.fail "foreign checkpoint accepted"
      | exception Err.Error e ->
        Alcotest.(check bool) "invalid_request" true
          (e.Err.kind = Err.Invalid_request));
      (* Corrupt bytes → artifact_corrupt. *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "not json at all");
      match Engine.run ~seed:7 ~checkpoint:path ~resume:true model plan with
      | _ -> Alcotest.fail "corrupt checkpoint accepted"
      | exception Err.Error e ->
        Alcotest.(check bool) "artifact_corrupt" true
          (e.Err.kind = Err.Artifact_corrupt))

let test_resume_missing_is_fresh () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 200) in
  let reference = json_of (Engine.run ~seed:7 model plan) in
  with_temp_path (fun path ->
      let r = Engine.run ~seed:7 ~checkpoint:path ~resume:true model plan in
      Alcotest.(check string) "fresh start" reference (json_of r);
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path);
      (* A full checkpoint resumes to the same bytes without evaluating. *)
      let again =
        Engine.run ~seed:7 ~checkpoint:path ~resume:true model plan
      in
      Alcotest.(check string) "full resume" reference (json_of again))

(* Failed points round-trip through the checkpoint: abort a Skip-policy
   sweep after it has quarantined points, resume, and the report still
   matches an uninterrupted faulty run with the same quarantine set. *)
let test_checkpoint_preserves_failed_points () =
  let model = Lazy.force fig1_model in
  let n = 1500 in
  let plan = plan_c1_g2 (Plan.Monte_carlo n) in
  (* Sticky point faults quarantine; a late sticky worker fault aborts. *)
  let spec = "sweep.point:0.01:sticky" in
  let reference =
    with_faults ~seed:3 spec (fun () ->
        json_of (Engine.run ~seed:7 ~jobs:1 model plan))
  in
  with_temp_path (fun path ->
      (match
         with_faults ~seed:3 (spec ^ ",pool.worker:0.4:sticky") (fun () ->
             Engine.run ~seed:7 ~jobs:1 ~policy:Engine.Fail_fast
               ~checkpoint:path model plan)
       with
      | _ -> ( (* the worker fault may land on chunk 0 of a clean seed *) )
      | exception Err.Error _ -> ());
      let resumed =
        with_faults ~seed:3 spec (fun () ->
            Engine.run ~seed:7 ~jobs:1 ~checkpoint:path ~resume:true model
              plan)
      in
      Alcotest.(check string) "quarantine survives resume" reference
        (json_of resumed))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_size path = (Unix.stat path).Unix.st_size

(* Run [f] with counters on; return its value and how far each of
   [names] moved. *)
let counting names f =
  let was = !Obs.enabled in
  Obs.enabled := true;
  let before = List.map Obs.Metrics.counter names in
  Fun.protect
    ~finally:(fun () -> Obs.enabled := was)
    (fun () ->
      let v = f () in
      (v, List.map2 (fun n b -> Obs.Metrics.counter n - b) names before))

(* A kill mid-append leaves a last line without its newline: resume
   drops it, appends from the line before, and lands on the clean report
   at jobs 1 and 4.  A fresh run writes exactly its file; a resume
   writes exactly what it adds. *)
let test_checkpoint_torn_line () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 1500) in
  let reference = json_of (Engine.run ~seed:7 model plan) in
  let counters = [ "checkpoint.bytes_written"; "checkpoint.lines_dropped" ] in
  List.iter
    (fun jobs ->
      with_temp_path (fun path ->
          let r, written =
            counting counters (fun () ->
                Engine.run ~seed:7 ~jobs ~checkpoint:path model plan)
          in
          Alcotest.(check string) "checkpointed ≡ plain" reference (json_of r);
          Alcotest.(check (list int)) "a fresh run writes its file once"
            [ file_size path; 0 ] written;
          let data = read_file path in
          let cut = String.length data - 100 in
          if String.rindex_from data (String.length data - 2) '\n' >= cut then
            Alcotest.fail "the last line is shorter than the cut";
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (String.sub data 0 cut));
          let kept = String.rindex_from data (cut - 1) '\n' + 1 in
          let r, counts =
            counting counters (fun () ->
                Engine.run ~seed:7 ~jobs ~checkpoint:path ~resume:true model plan)
          in
          Alcotest.(check string)
            (Printf.sprintf "torn resume ≡ uninterrupted at jobs %d" jobs)
            reference (json_of r);
          Alcotest.(check (list int)) "one line dropped, the rest appended"
            [ file_size path - kept; 1 ] counts))
    [ 1; 4 ]

(* The writer records each chunk once; a file that holds a chunk twice
   is corrupt at the second record's line, not resumed. *)
let test_checkpoint_repeated_chunk () =
  let model = Lazy.force fig1_model in
  let plan = plan_c1_g2 (Plan.Monte_carlo 600) in
  with_temp_path (fun path ->
      ignore (Engine.run ~seed:7 ~jobs:1 ~checkpoint:path model plan);
      let data = read_file path in
      let lines = String.split_on_char '\n' data in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (data ^ List.nth lines 1 ^ "\n"));
      match Engine.run ~seed:7 ~checkpoint:path ~resume:true model plan with
      | _ -> Alcotest.fail "a repeated chunk record was resumed"
      | exception Err.Error e ->
        Alcotest.(check string) "kind" "artifact_corrupt" (Err.kind_name e.Err.kind);
        Alcotest.(check (option int)) "names the repeat's line"
          (Some (List.length lines)) e.Err.line)

(* ------------------------------------------------------------------ *)
(* The CLI's error path, run on the built binary: a deck that asks for
   something impossible, or whose matrix is singular, ends in one
   classified [awesym: error:] line and exit 1, never in an uncaught
   exception. *)

(* Tests run in _build/default/test; test/dune depends on the binary. *)
let awesym = "../bin/awesym.exe"

let run_cli args =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let out = Filename.temp_file "awesym_cli" ".out" in
  let err = Filename.temp_file "awesym_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let cmd = Filename.quote_command awesym ~stdout:out ~stderr:err args in
      let status = Sys.command cmd in
      (status, String.split_on_char '\n' (String.trim (read err))))

(* [file], when given, is the file the error line must name. *)
let check_cli_error ?file ~kind args =
  let status, lines = run_cli args in
  Alcotest.(check int) "exit status" 1 status;
  match lines with
  | [ line ] ->
    let want = "awesym: error: " ^ kind ^ " " in
    if not (String.starts_with ~prefix:want line) then
      Alcotest.failf "expected a %s error, got %S" kind line;
    Option.iter
      (fun f ->
        if not (String.ends_with ~suffix:("(" ^ f ^ ")") line) then
          Alcotest.failf "expected an error naming %s, got %S" f line)
      file
  | _ -> Alcotest.failf "expected one error line, got %S" (String.concat "\n" lines)

let test_cli_deck_without_symbols () =
  with_temp_path (fun out ->
      check_cli_error ~kind:"invalid_request"
        [ "compile"; "../decks/rc_lowpass.cir"; "-o"; out ];
      Alcotest.(check bool) "no artifact written" false (Sys.file_exists out))

(* [awesym awe] (or [cmd]) on a deck given as text. *)
let check_deck_error ?(cmd = [ "awe" ]) ~kind deck_text =
  with_temp_path (fun deck ->
      Out_channel.with_open_bin deck (fun oc -> output_string oc deck_text);
      check_cli_error ~kind (cmd @ [ deck ]))

(* Node b reaches ground only through capacitors: G is singular. *)
let singular_deck = "V1 in 0 1\nR1 in a 1k\nC1 a b 1p\nC2 b 0 1p\n.output v(b)\n"

let test_cli_singular_matrix () =
  (* Numeric AWE's dense factorization raises [Lu.Singular]. *)
  check_deck_error ~kind:"singular_system" singular_deck;
  (* The symbolic build pivots the same matrix at the nominal point. *)
  with_temp_path (fun out ->
      check_deck_error ~cmd:[ "compile"; "-o"; out ] ~kind:"singular_system"
        (singular_deck ^ ".symbolic C2\n"))

(* A deck that lacks what a card or the analysis needs. *)
let test_cli_missing_references () =
  List.iter
    (check_deck_error ~kind:"invalid_request")
    [
      (* no .output card *)
      "V1 in 0 1\nR1 in out 1k\nC1 out 0 1p\n";
      (* no independent source *)
      "R1 in out 1k\nC1 out 0 1p\n.output v(out)\n";
      (* .input names a resistor *)
      "V1 in 0 1\nR1 in out 1k\nC1 out 0 1p\n.input R1\n.output v(out)\n";
      (* couplings of a non-inductor and of a missing inductor *)
      "V1 in 0 1\nR1 in out 1k\nC1 out 0 1p\nK1 R1 C1 0.5\n.output v(out)\n";
      "V1 in 0 1\nR1 in out 1k\nL1 out 0 1u\nK1 L1 L9 0.5\n.output v(out)\n";
      (* controlled sources sensing a missing V-source *)
      "V1 in 0 1\nR1 in n2 1k\nH1 n2 0 VX 2\nC1 n2 0 1p\n.output v(n2)\n";
      "V1 in 0 1\nR1 in n3 1k\nF1 n3 0 VX 2\nC1 n3 0 1p\n.output v(n3)\n";
      (* elements of the wrong kind that still have a branch-current row:
         a coupling naming a V-source, a CCCS sensing an inductor *)
      "V1 in 0 1\nR1 in out 1k\nL1 out 0 1u\nK1 L1 V1 0.5\n.output v(out)\n";
      "V1 in 0 1\nR1 in out 1k\nL1 out 0 1u\nF1 out 0 L1 2\n.output v(out)\n";
    ]

(* Decks the exact solver cannot solve or the linearizer cannot drive:
   one classified line each, as [awe] gives for the same decks. *)
let test_cli_exact_and_linearize () =
  List.iter
    (fun (cmd, kind, deck) -> check_deck_error ~cmd:[ cmd ] ~kind deck)
    [
      (* a floating capacitor pair; parallel voltage sources *)
      ( "exact", "singular_system",
        "V1 in 0 1\nR1 in out 1k\nC1 out 0 1p\nC2 x y 1p\n.output v(out)\n" );
      ( "exact", "singular_system",
        "V1 in 0 1\nV2 in 0 2\nR1 in out 1k\nC1 out 0 1p\n.output v(out)\n" );
      (* no independent source; no .output card *)
      ("linearize", "invalid_request", "R1 in out 1k\nC1 out 0 1p\n.output v(out)\n");
      ("linearize", "invalid_request", "V1 in 0 1\nR1 in out 1k\nC1 out 0 1p\n");
    ]

(* An output path under a regular file cannot be created: each output a
   command writes fails as one classified line naming the file. *)
let test_cli_unwritable_output () =
  with_temp_path (fun afile ->
      Out_channel.with_open_bin afile (fun oc -> output_string oc "not a directory");
      List.iter
        (fun (args, name) ->
          let file = Filename.concat afile name in
          check_cli_error ~file ~kind:"invalid_request" (args @ [ file ]))
        [
          ([ "sweep"; "../decks/fig1.cir"; "--mc"; "20"; "--checkpoint" ], "x.ckpt");
          ([ "compile"; "../decks/fig1.cir"; "-o" ], "x.awm");
          ([ "sweep"; "../decks/fig1.cir"; "--mc"; "20"; "--json" ], "x.json");
        ])

let test_cli_unknown_output_node () =
  check_deck_error ~kind:"invalid_request"
    "V1 in 0 1\nR1 in out 1k\n.output v(nowhere)\n"

let test_cli_nonfinite_moment () =
  (* m1 = -1e-296 is finite, m2 overflows: the fit must not run. *)
  check_deck_error ~kind:"nonfinite_result"
    "V1 in 0 1\nR1 in out 1e308\nC1 out 0 1p\n.output v(out)\n"

(* ------------------------------------------------------------------ *)

let () =
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "resilience"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "kind names round-trip" `Quick
            test_kind_names_roundtrip;
          Alcotest.test_case "to_string / to_json" `Quick
            test_to_string_and_json;
          Alcotest.test_case "classify reaches every kind" `Quick
            test_classify_every_kind;
          Alcotest.test_case "registered printer" `Quick
            test_registered_printer;
        ] );
      ( "fault",
        [
          Alcotest.test_case "spec parsing" `Quick test_fault_spec_parsing;
          Alcotest.test_case "seeded determinism" `Quick
            test_fault_determinism;
          Alcotest.test_case "transient vs sticky" `Quick
            test_fault_transient_vs_sticky;
          Alcotest.test_case "site matching" `Quick test_fault_site_matching;
          Alcotest.test_case "cut payload" `Quick test_fault_cut_payload;
        ] );
      ( "parser",
        [
          Alcotest.test_case "located errors" `Quick
            test_parser_located_errors;
        ] );
      ( "cli",
        [
          Alcotest.test_case "deck without symbols is one error line" `Quick
            test_cli_deck_without_symbols;
          Alcotest.test_case "singular matrix is one error line" `Quick
            test_cli_singular_matrix;
          Alcotest.test_case "unknown output node is one error line" `Quick
            test_cli_unknown_output_node;
          Alcotest.test_case "non-finite moment is one error line" `Quick
            test_cli_nonfinite_moment;
          Alcotest.test_case "missing deck references are one error line each" `Quick
            test_cli_missing_references;
          Alcotest.test_case "unwritable output path is one error line" `Quick
            test_cli_unwritable_output;
          Alcotest.test_case "exact and linearize failures are one error line each"
            `Quick test_cli_exact_and_linearize;
        ] );
      ( "containment",
        [
          Alcotest.test_case "artifact read fault" `Quick
            test_artifact_read_fault;
          Alcotest.test_case "cache read fault contained" `Quick
            test_cache_read_fault_contained;
        ] );
      ( "policy",
        props [ prop_retry_heals_transients ]
        @ [
            Alcotest.test_case "policy_of_string" `Quick
              test_policy_of_string;
            Alcotest.test_case "fail_fast aborts" `Quick
              test_fail_fast_aborts;
            Alcotest.test_case "skip quarantines predicted points" `Quick
              test_skip_quarantines_predicted_points;
            Alcotest.test_case "all points failed raises" `Quick
              test_all_points_failed_raises;
            Alcotest.test_case "skip stats ≡ survivor subset" `Quick
              test_skip_stats_match_survivor_subset;
          ] );
      ( "checkpoint",
        [
          Alcotest.test_case "abort + resume ≡ uninterrupted" `Quick
            test_checkpoint_resume_identical;
          Alcotest.test_case "mismatch and corruption rejected" `Quick
            test_checkpoint_rejects_mismatch;
          Alcotest.test_case "missing checkpoint is a fresh start" `Quick
            test_resume_missing_is_fresh;
          Alcotest.test_case "failed points survive resume" `Quick
            test_checkpoint_preserves_failed_points;
          Alcotest.test_case "torn last line resumes, writes stay linear" `Quick
            test_checkpoint_torn_line;
          Alcotest.test_case "repeated chunk record is corrupt" `Quick
            test_checkpoint_repeated_chunk;
        ] );
    ]
