(* Workload [build]: the paper's one-time compile.  Set-up exports the two
   decks; each timed sequence runs in a fresh process, parses them,
   builds, saves and reloads the models, and native-compiles the lines
   program into a cold cache, as [awesym compile] does by default. *)

module Model = Awesymbolic.Model
module Partition = Awesymbolic.Partition
module Port_reduction = Awesymbolic.Port_reduction
module Global_system = Awesymbolic.Global_system
module Closed_form = Awesymbolic.Closed_form
module Slp = Symbolic.Slp

type decks = { lines_deck : string; rlc_deck : string }

let export () =
  {
    lines_deck = Circuit.Export.to_deck (Circuits.lines ());
    rlc_deck = Circuit.Export.to_deck (Circuits.rlc ());
  }

(* ------------------------------------------------------------------ *)
(* Native compile, in a child process so every compile starts cold: the
   codegen provider memoizes kernels per program for the life of a
   process. *)

let child args =
  match args with
  | [ artifact; cache; mode ] ->
    Unix.putenv "AWESYM_CACHE_DIR" cache;
    let p = Model.program (Model.load artifact) in
    let ok, t = Util.timed (fun () -> Codegen.available p) in
    Printf.printf "%b %.17g\n" ok t;
    if ok && mode = "speedup" then begin
      (* Batched native against batched interpreter on fixed columns. *)
      Codegen.install ();
      let rng = Obs.Rng.create 12 in
      let n = 16_384 in
      let cols =
        Array.map
          (fun _ -> Array.init n (fun _ -> 1e-3 *. (0.5 +. Obs.Rng.float rng)))
          (Slp.inputs p)
      in
      let run backend =
        Slp.set_backend backend;
        let out = Slp.eval_batch ~jobs:1 p cols in
        let ts = Array.init 9 (fun _ -> snd (Util.timed (fun () -> Slp.eval_batch ~jobs:1 p cols))) in
        (out, Util.median ts)
      in
      let native, tn = run Slp.Native in
      let interp, ti = run Slp.Interp in
      let same =
        Array.for_all2
          (Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b))
          native interp
      in
      Printf.printf "%b %.17g\n" same (ti /. tn)
    end;
    exit 0
  | _ ->
    prerr_endline "usage: main.exe codegen ARTIFACT CACHE_DIR compile|speedup";
    exit 2

(* Returns whether native kernels came up, and the kernel speed-up when
   asked for.  Every call compiles into a fresh cache, removed after. *)
let codegen (env : Util.env) ~artifact ~mode =
  let cache = Filename.concat env.dir "codegen-cache" in
  let out = Filename.concat env.dir "codegen.out" in
  Util.rm_rf cache;
  let cmd =
    Filename.quote_command env.self_exe ~stdout:out [ "codegen"; artifact; cache; mode ]
  in
  let status = Sys.command cmd in
  let lines = String.split_on_char '\n' (String.trim (Util.read_file out)) in
  Util.rm_rf out;
  Util.rm_rf cache;
  let parse l = Scanf.sscanf l "%B %f" (fun b f -> (b, f)) in
  match (status, lines) with
  | 0, [ first ] -> (fst (parse first), None)
  | 0, [ first; second ] ->
    let same, speedup = parse second in
    Util.check same "native kernels differ from the interpreter";
    (fst (parse first), Some speedup)
  | _ -> (false, None)

(* ------------------------------------------------------------------ *)
(* The timed sequence.  [span] brackets each layer call; [build] is
   [Model.build] in timed runs and a stage-by-stage replay in the traced
   run. *)

type built = { sparse : Model.t; dense : Model.t; rlc : Model.t; lines_nl : Circuit.Netlist.t }

(* Polymorphic, so one sequence serves the timed and traced passes. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let plain_build ~order ~sparse ~name:_ nl = Model.build ~order ~sparse nl

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

(* Save, reload and check the reload is bit-exact. *)
let round_trip { span } (env : Util.env) name m =
  let path = Filename.concat env.dir (name ^ ".awm") in
  span "build.artifact_save" (fun () -> Model.save m path);
  let m' = span "build.artifact_load" (fun () -> Model.load path) in
  Util.check
    (Slp.digest (Model.program m') = Slp.digest (Model.program m))
    "%s: reloaded program digest differs" name;
  let v = Model.nominal_values m in
  Util.check
    (bits_equal (Model.eval_moments m v) (Model.eval_moments m' v))
    "%s: reloaded model evaluates differently" name;
  path

let sequence sp ~build (env : Util.env) decks =
  let span = sp.span in
  let lines = span "build.parse" (fun () -> Circuit.Parser.parse_string decks.lines_deck) in
  let sparse = build ~order:2 ~sparse:true ~name:"lines_sparse" lines in
  let dense = build ~order:2 ~sparse:false ~name:"lines_dense" lines in
  let rlc_nl = span "build.parse" (fun () -> Circuit.Parser.parse_string decks.rlc_deck) in
  let rlc = build ~order:Circuits.rlc_order ~sparse:false ~name:"rlc" rlc_nl in
  let artifact = round_trip sp env "lines_sparse" sparse in
  ignore (round_trip sp env "lines_dense" dense);
  ignore (round_trip sp env "rlc" rlc);
  let native, _ = span "build.codegen" (fun () -> codegen env ~artifact ~mode:"compile") in
  ({ sparse; dense; rlc; lines_nl = lines }, native)

let no_span = { span = (fun _ f -> f ()) }

let digests b = List.map (fun m -> Slp.digest (Model.program m)) [ b.sparse; b.dense; b.rlc ]

(* One timed sequence in a fresh process, the way [awesym compile] pays
   for a build: no heap or hash-consing state carries over from the
   previous sequence.  Prints whether native kernels came up, the peak
   RSS, the program digests and the input sizes. *)
let sequence_child args =
  match args with
  | [ lines; rlc; dir ] -> (
    let decks = { lines_deck = Util.read_file lines; rlc_deck = Util.read_file rlc } in
    let env = { Util.dir; awesym = ""; self_exe = Sys.executable_name; cores = 1 } in
    match sequence no_span ~build:plain_build env decks with
    | b, native ->
      let ports =
        match Model.partition_opt b.sparse with Some p -> Partition.num_ports p | None -> 0
      in
      Printf.printf "%b %.17g %s %d %d %d %d\n" native (Util.vm_hwm_mb "self")
        (String.concat "," (digests b))
        (List.length (Circuit.Netlist.elements b.lines_nl))
        ports (Model.num_operations b.sparse) (Model.num_operations b.rlc);
      exit 0
    | exception Util.Check_failed msg ->
      prerr_endline msg;
      exit 3)
  | _ ->
    prerr_endline "usage: main.exe build-sequence LINES_DECK RLC_DECK DIR";
    exit 2

type child_result = {
  native : bool;
  rss_mb : float;
  digest_list : string;
  sizes : int * int * int * int;  (* elements, ports, lines ops, rlc ops *)
}

(* [Some result], or [None] for a sequence whose build raised. *)
let run_sequence (env : Util.env) ~lines ~rlc =
  let out = Filename.concat env.dir "sequence.out" and err = Filename.concat env.dir "sequence.err" in
  let status =
    Sys.command
      (Filename.quote_command env.self_exe ~stdout:out ~stderr:err
         [ "build-sequence"; lines; rlc; env.dir ])
  in
  let text = String.trim (Util.read_file out) and msg = String.trim (Util.read_file err) in
  List.iter Util.rm_rf [ out; err ];
  match status with
  | 0 ->
    Some
      (Scanf.sscanf text "%B %f %s %d %d %d %d" (fun native rss_mb digest_list e p lo ro ->
           { native; rss_mb; digest_list; sizes = (e, p, lo, ro) }))
  | 3 -> raise (Util.Check_failed msg)
  | _ ->
    prerr_endline ("build failed: " ^ msg);
    None

let run (env : Util.env) ~seed:_ ~seconds =
  let lines = Filename.concat env.dir "lines.cir" and rlc = Filename.concat env.dir "rlc.cir" in
  let decks, setup_s =
    Util.setup_median ~scale:true (fun () ->
        let d = export () in
        Out_channel.with_open_bin lines (fun oc -> output_string oc d.lines_deck);
        Out_channel.with_open_bin rlc (fun oc -> output_string oc d.rlc_deck);
        d)
  in
  (* Only whole sequences count as operations, so a build that raises or
     a compile that declines cannot raise the throughput. *)
  let ok = ref 0 and attempted = ref 0 and failed = ref 0 in
  let first = ref None and rss = ref 0.0 in
  let lat, window =
    Util.repeat_for ~scale:true seconds (fun _ ->
        attempted := !attempted + 4;
        match run_sequence env ~lines ~rlc with
        | None -> incr failed
        | Some r -> (
          if r.native then incr ok else incr failed;
          rss := Float.max !rss r.rss_mb;
          match !first with
          | None -> first := Some r
          | Some r0 ->
            Util.check (r.digest_list = r0.digest_list) "rebuilt programs differ between repetitions"))
  in
  let info =
    match !first with
    | Some { sizes = e, p, lo, ro; _ } ->
      [
        ("lines elements", string_of_int e);
        ("lines ports", string_of_int p);
        ("lines slp ops", string_of_int lo);
        ("rlc slp ops", string_of_int ro);
      ]
    | None -> []
  in
  {
    Util.setup_s;
    ops = !ok;
    window_s = window;
    latencies = lat;
    attempted = !attempted;
    failed = !failed;
    children_rss_mb = !rss;
    named = [ ("build_s", window /. float_of_int !ok, "s") ];
    info =
      info
      @ [
          ("lines deck bytes", string_of_int (String.length decks.lines_deck));
          ("rlc deck bytes", string_of_int (String.length decks.rlc_deck));
          ("jobs", "1");
          ("process per sequence", "true");
        ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run *)

(* [Model.build], one stage at a time through the stages' public
   interfaces, so each stage gets its own span. *)
let replay ~order ~sparse nl =
  let sp = Tracer.with_ in
  let p = sp "build.partition" (fun () -> Partition.make nl) in
  let count = 2 * order in
  let reduction =
    sp
      (if sparse then "build.port_reduction_sparse" else "build.port_reduction_dense")
      (fun () -> Port_reduction.compute ~sparse ~count p)
  in
  let system = sp "build.global_system" (fun () -> Global_system.build p reduction) in
  let moments =
    sp "build.elimination" (fun () ->
        Global_system.moments_expr_by_elimination system ~nominal:(Partition.nominal p) ~count)
  in
  let closed =
    sp "build.closed_form" (fun () ->
        if order = 2 then
          try
            let cf = Closed_form.order2 moments in
            Some
              Closed_form.[| cf.pole1; cf.pole2; cf.residue1; cf.residue2 |]
          with Division_by_zero -> None
        else None)
  in
  let program =
    sp "build.slp_compile" (fun () ->
        let inputs = p.Partition.symbols in
        Option.iter (fun es -> ignore (Slp.compile ~inputs es)) closed;
        Slp.compile ~inputs moments)
  in
  (Slp.digest program, Partition.num_ports p, Global_system.size system)

let stages =
  [
    "build.partition"; "build.port_reduction_sparse"; "build.port_reduction_dense";
    "build.global_system"; "build.elimination"; "build.closed_form"; "build.slp_compile";
  ]

let layers = [ "build.parse"; "build.artifact_save"; "build.artifact_load"; "build.codegen" ] @ stages

let traced (env : Util.env) ~seed:_ ~seconds:_ =
  let decks = export () in
  (* Reference pass, tracing off: the plain builds' times feed the replay
     ratio, and their programs are what the replay must reproduce. *)
  let plain_times = Hashtbl.create 4 in
  let timed_build ~order ~sparse ~name nl =
    let m, t = Util.timed (fun () -> Model.build ~order ~sparse nl) in
    Hashtbl.replace plain_times name t;
    m
  in
  let (reference, native), ref_wall =
    Util.timed (fun () ->
        sequence no_span ~build:timed_build env decks)
  in
  let model_of = function
    | "lines_sparse" -> reference.sparse
    | "lines_dense" -> reference.dense
    | _ -> reference.rlc
  in
  let ports = ref 0 and rlc_size = ref 0 in
  let replay_build ~order ~sparse ~name nl =
    let digest, np, size = replay ~order ~sparse nl in
    let m = model_of name in
    Util.check (digest = Slp.digest (Model.program m)) "%s: replayed program differs from Model.build" name;
    if name = "lines_sparse" then ports := np;
    if name = "rlc" then rlc_size := size;
    m
  in
  Tracer.on := true;
  let _, native2 =
    Tracer.with_ "build" (fun () ->
        sequence { span = Tracer.with_ } ~build:replay_build env decks)
  in
  Tracer.on := false;
  let artifact = Filename.concat env.dir "lines_sparse.awm" in
  let _, speedup = codegen env ~artifact ~mode:"speedup" in
  let traced_wall = Tracer.total "build" in
  let plain = Hashtbl.fold (fun _ t acc -> acc +. t) plain_times 0.0 in
  let replayed = List.fold_left (fun acc s -> acc +. Tracer.total s) 0.0 stages in
  let dom, share = Tracer.dominant ~root:"build" ~layers in
  let failed = (if native then 0 else 1) + if native2 then 0 else 1 in
  {
    Util.metrics =
      List.map (fun l -> (l ^ "_s", Tracer.self l, "s")) layers
      @ [
          ("kernel.native_speedup", Option.value speedup ~default:0.0, "x");
          ( "build.lines.elements",
            float_of_int (List.length (Circuit.Netlist.elements reference.lines_nl)),
            "count" );
          ("build.lines.ports", float_of_int !ports, "count");
          ("build.lines.slp_ops", float_of_int (Model.num_operations reference.sparse), "count");
          ("build.rlc.global_size", float_of_int !rlc_size, "count");
          ("build.rlc.slp_ops", float_of_int (Model.num_operations reference.rlc), "count");
          ("build.replay_ratio", replayed /. plain, "x");
          ("build.coverage", Tracer.coverage ~root:"build" ~layers, "ratio");
          ("build.trace_overhead", traced_wall /. ref_wall, "x");
        ];
    (* Two sequences of three builds and a native compile each. *)
    l_attempted = 8;
    l_failed = failed;
    notes =
      [
        Printf.sprintf "build: dominant layer %s (%.1f%% of the traced sequence)" dom (100.0 *. share);
        Printf.sprintf "build: plain Model.build times: %s"
          (String.concat ", "
             (List.map
                (fun n -> Printf.sprintf "%s %.3f s" n (Hashtbl.find plain_times n))
                [ "lines_sparse"; "lines_dense"; "rlc" ]));
      ];
  }
