(* The benchmark's entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it runs workload W untraced for S seconds and prints its
   end-to-end metrics; with --trace 1 it runs the layer-by-layer traced
   profile of every workload.  The last line of standard output is one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  See
   README.md for what each workload and metric means. *)

type workload = {
  name : string;
  run : Util.env -> seed:int -> seconds:float -> Util.outcome;
  traced : Util.env -> seed:int -> seconds:float -> Util.layers;
}

let workloads =
  [
    { name = "build"; run = Wbuild.run; traced = Wbuild.traced };
    { name = "sweep-rom"; run = Wsweep.run Wsweep.rom; traced = Wsweep.traced Wsweep.rom };
    {
      name = "sweep-moments";
      run = Wsweep.run Wsweep.moments;
      traced = Wsweep.traced Wsweep.moments;
    };
    { name = "serve"; run = Wserve.run; traced = Wserve.traced };
    { name = "dsweep"; run = Wdsweep.run; traced = Wdsweep.traced };
  ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map (fun w -> w.name) workloads)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse_args argv =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] argv in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload =
    match List.find_opt (fun w -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  (workload, int "seed", float_of_int (int "seconds"), int "trace" <> 0)

(* All digits, and never a non-number: JSON has no nan or infinity. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let provenance (env : Util.env) ~workload ~seed ~seconds ~trace =
  [
    ("workload", workload);
    ("seed", string_of_int seed);
    ("seconds", Printf.sprintf "%g" seconds);
    ("trace", string_of_bool trace);
    ("nproc", string_of_int (Util.nproc ()));
    ("recommended domains", string_of_int (Domain.recommended_domain_count ()));
    ("cores used", string_of_int env.cores);
    ("ocaml", Sys.ocaml_version);
    ("slp backend (in process)", Symbolic.Slp.backend_name (Symbolic.Slp.current_backend ()));
  ]

let print_info pairs = List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) pairs

let untraced env w ~seed ~seconds =
  let o = w.run env ~seed ~seconds in
  print_info o.Util.info;
  List.iter (fun (n, v, u) -> Printf.printf "%s = %.6g %s\n" n v u) o.named;
  Printf.printf "# operations: %d, median operation time %.6g ms\n" o.ops
    (1e3 *. Util.median o.latencies);
  if Util.reference_times.len > 0 then
    Printf.printf "# reference loop: median %.6g ms over %d timings (times scaled to %g ms)\n"
      (1e3 *. Util.median (Util.Samples.to_array Util.reference_times))
      Util.reference_times.len (1e3 *. Util.reference_s);
  (* No median-latency metric is bounded: on a host whose speed switches
     between phases, a run's median jumps between the phases' modes while
     the throughput (a mean) moves smoothly. *)
  let metrics =
    [
      ("setup_s", o.setup_s, "s");
      ("throughput", float_of_int o.ops /. o.window_s, "1/s");
      ("rss_peak_mb", Float.max (Util.vm_hwm_mb "self") o.children_rss_mb, "MB");
    ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "%s = %.6g %s\n" n v u) metrics;
  emit ~correct:true ~attempted:o.attempted ~failed:o.failed metrics

let traced env ~seed ~seconds =
  (* Each workload's traced part gets a share of the run length. *)
  let share = Float.max 1.0 (seconds /. 6.0) in
  let parts =
    List.map
      (fun w ->
        Tracer.reset ();
        let l, t = Util.timed (fun () -> w.traced env ~seed ~seconds:share) in
        List.iter print_endline l.Util.notes;
        Printf.printf "# %s traced part took %.1f s\n" w.name t;
        l)
      workloads
  in
  let metrics = List.concat_map (fun l -> l.Util.metrics) parts in
  List.iter (fun (n, v, u) -> Printf.printf "%s = %.6g %s\n" n v u) metrics;
  emit ~correct:true
    ~attempted:(List.fold_left (fun a l -> a + l.Util.l_attempted) 0 parts)
    ~failed:(List.fold_left (fun a l -> a + l.Util.l_failed) 0 parts)
    metrics

let main () =
  match Array.to_list Sys.argv with
  | _ :: "codegen" :: rest -> Wbuild.child rest
  | _ :: "build-sequence" :: rest -> Wbuild.sequence_child rest
  | _ :: argv ->
    let w, seed, seconds, trace = parse_args argv in
    (* Native compile time grows superlinearly with program size, so the
       timed paths interpret; [build] measures codegen in a child. *)
    Symbolic.Slp.set_backend Symbolic.Slp.Interp;
    let dir = Filename.concat ".perfbench-run" (string_of_int (Unix.getpid ())) in
    Util.mkdir_p dir;
    let exe = Sys.executable_name in
    let env =
      {
        Util.dir;
        awesym = Filename.concat (Filename.dirname (Filename.dirname exe)) "bin/awesym.exe";
        self_exe = exe;
        cores = Util.cores ();
      }
    in
    let cleanup () =
      Daemon.kill_all ();
      Util.rm_rf dir
    in
    let code =
      match
        print_info (provenance env ~workload:w.name ~seed ~seconds ~trace);
        if trace then traced env ~seed ~seconds else untraced env w ~seed ~seconds
      with
      | () -> 0
      | exception Util.Check_failed msg ->
        Printf.printf "# output check failed: %s\n" msg;
        emit ~correct:false ~attempted:1 ~failed:1 [];
        1
      | exception e ->
        Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
        2
    in
    cleanup ();
    exit code
  | [] -> usage ()

let () = main ()
