(* Compile SLPs to native code at runtime: emit OCaml (Emit), shell out
   to ocamlopt for a .cmxs, Dynlink it, and hand the kernels to Slp's
   backend dispatch.  Objects are content-addressed in the model cache
   so compilation is paid once per (program, compiler, schema) across
   eval/sweep/serve/bench processes. *)

module Err = Awesym_error
module Cache = Awesymbolic.Cache
module Slp = Symbolic.Slp

let schema = "awesymbolic-kernel/2"
let abi_version = 1
let max_ops = 50_000

external named_value : string -> Obj.t option = "awesym_codegen_named_value"

(* Generated plugins import stdlib units the host might not otherwise
   reference; touching them here forces them into the link so Dynlink
   can resolve the plugins' imports. *)
let _force_callback = Callback.register
let _force_int64 = Int64.float_of_bits

let strict = ref false
let set_strict b = strict := b

let last_error_ref : Err.t option ref = ref None
let last_error () = !last_error_ref

let warn e = Printf.eprintf "awesym: codegen: %s\n%!" (Err.to_string e)

(* ------------------------------------------------------------------ *)
(* Toolchain discovery.  The compiler must match the host runtime: a
   .cmxs built by a different ocamlopt would fail Dynlink's stdlib CRC
   check anyway, so refuse early with a readable classification.  The
   PATH scan runs per compile (it is cheap and lets a fallback test
   mask the toolchain mid-process); version probes are memoized per
   resolved path. *)

let find_in_path name =
  match Sys.getenv_opt "PATH" with
  | None -> None
  | Some path ->
    List.find_map
      (fun d ->
        if d = "" then None
        else
          let p = Filename.concat d name in
          if Sys.file_exists p && not (Sys.is_directory p) then Some p
          else None)
      (String.split_on_char ':' path)

let version_memo : (string, string option) Hashtbl.t = Hashtbl.create 4

let compiler_version path =
  match Hashtbl.find_opt version_memo path with
  | Some v -> v
  | None ->
    let v =
      match
        Unix.open_process_in (Filename.quote path ^ " -version 2>/dev/null")
      with
      | ic ->
        let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
        let status = Unix.close_process_in ic in
        if status = Unix.WEXITED 0 then line else None
      | exception Unix.Unix_error _ -> None
    in
    Hashtbl.replace version_memo path v;
    v

let find_compiler () =
  match find_in_path "ocamlopt" with
  | None ->
    Err.raise_error Invalid_request ~where:"codegen.toolchain"
      "ocamlopt not found in PATH; native kernels need the OCaml toolchain"
  | Some path -> (
    match compiler_version path with
    | Some v when v = Sys.ocaml_version -> path
    | Some v ->
      Err.raise_error Invalid_request ~where:"codegen.toolchain"
        (Printf.sprintf "ocamlopt %s does not match the host runtime %s" v
           Sys.ocaml_version)
    | None ->
      Err.raise_error Invalid_request ~where:"codegen.toolchain"
        (Printf.sprintf "%s did not answer -version" path))

(* ------------------------------------------------------------------ *)
(* Small file helpers (no recursion: the work dir is flat). *)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

let copy_file src dst =
  let ic = open_in_bin src in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let oc = open_out_bin dst in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let buf = Bytes.create 65536 in
          let rec loop () =
            match input ic buf 0 (Bytes.length buf) with
            | 0 -> ()
            | k ->
              output oc buf 0 k;
              loop ()
          in
          loop ()))

let first_line path =
  match open_in path with
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in_noerr ic;
    line
  | exception Sys_error _ -> ""

let rm_rf dir =
  match Sys.readdir dir with
  | names ->
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      names;
    (try Sys.rmdir dir with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Load + validate a compiled object.  Every failure is
   [Artifact_corrupt]: the caller decides whether that means quarantine
   (cached object) or cleanup (fresh build). *)

let callback_name key = "awesym.kernel.v" ^ string_of_int abi_version ^ "." ^ key

let kernels_of_value ~nin ~nout o =
  let bad msg =
    Err.raise_error Artifact_corrupt ~where:"codegen.load" msg
  in
  if
    not
      (Obj.is_block o && Obj.size o = 5
      && Obj.tag o = 0
      && Obj.is_int (Obj.field o 0)
      && Obj.is_int (Obj.field o 1)
      && Obj.is_int (Obj.field o 2)
      && Obj.tag (Obj.field o 3) = Obj.closure_tag
      && Obj.tag (Obj.field o 4) = Obj.closure_tag)
  then bad "registered kernel value has an unexpected shape (ABI drift)";
  let abi : int = Obj.obj (Obj.field o 0) in
  if abi <> abi_version then
    bad (Printf.sprintf "kernel ABI %d, host expects %d" abi abi_version);
  let knin : int = Obj.obj (Obj.field o 1) in
  let knout : int = Obj.obj (Obj.field o 2) in
  if knin <> nin || knout <> nout then
    bad
      (Printf.sprintf "kernel arity %d->%d, program is %d->%d" knin knout nin
         nout);
  {
    Slp.native_eval = Obj.obj (Obj.field o 3);
    native_batch = Obj.obj (Obj.field o 4);
  }

let load ~key ~nin ~nout path =
  (match Dynlink.loadfile_private path with
  | () -> ()
  | exception Dynlink.Error e ->
    Err.raise_error Artifact_corrupt ~where:"codegen.dynlink"
      (Dynlink.error_message e)
  | exception e ->
    Err.raise_error Artifact_corrupt ~where:"codegen.dynlink"
      (Printexc.to_string e));
  match named_value (callback_name key) with
  | None ->
    Err.raise_error Artifact_corrupt ~where:"codegen.load"
      "loaded object registered no kernel under this digest (stale or \
       foreign .cmxs)"
  | Some o -> kernels_of_value ~nin ~nout o

(* Move a failed cached object aside (".cmxs.bad", swept by Cache.gc)
   so the recompile below can publish a fresh one and the next process
   never trips over it again. *)
let quarantine path =
  let bad = path ^ ".bad" in
  (try Sys.remove bad with Sys_error _ -> ());
  try Sys.rename path bad
  with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Compile one program into the cache and load it. *)

let compile_and_load ~key ~nin ~nout ~dir dest p =
  let ocamlopt = find_compiler () in
  let t0 = Unix.gettimeofday () in
  let work =
    Filename.concat dir
      (Printf.sprintf ".codegen-%d-%s" (Unix.getpid ()) (String.sub key 0 8))
  in
  Cache.ensure_dir work;
  Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
  let src = Filename.concat work ("kernel_" ^ key ^ ".ml") in
  let obj = Filename.concat work ("kernel_" ^ key ^ ".cmxs") in
  let log = Filename.concat work "compile.log" in
  write_file src (Emit.source ~callback_name:(callback_name key) ~abi:abi_version p);
  let cmd =
    Filename.quote_command ocamlopt ~stdout:log ~stderr:log
      [ "-shared"; "-w"; "-a"; "-o"; obj; src ]
  in
  if Sys.command cmd <> 0 then
    Err.raise_error Internal ~where:"codegen.compile"
      (match first_line log with
      | "" -> "ocamlopt -shared failed"
      | line -> "ocamlopt -shared failed: " ^ line);
  Cache.atomic_write dest (fun tmp -> copy_file obj tmp);
  Obs.Metrics.observe "codegen.compile_ms"
    ((Unix.gettimeofday () -. t0) *. 1e3);
  (* A fresh build that fails to load is junk, not cache: remove it so
     later processes miss cleanly instead of quarantine-cycling. *)
  match load ~key ~nin ~nout dest with
  | k -> k
  | exception e ->
    (try Sys.remove dest with Sys_error _ -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* The provider: one memoized verdict per cache key.  Serialized by a
   mutex — Dynlink is not re-entrant, and concurrent first-calls from
   worker domains would otherwise race to compile the same digest. *)

let table : (string, Slp.native_kernels option) Hashtbl.t = Hashtbl.create 16
let lock = Mutex.create ()

let cache_key p =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ schema; string_of_int abi_version; Sys.ocaml_version; Slp.digest p ]))

let cache_path p = Filename.concat (Cache.default_dir ()) (cache_key p ^ ".cmxs")

let acquire ~key ~nin ~nout p =
  let dir = Cache.default_dir () in
  Cache.ensure_dir dir;
  let dest = Filename.concat dir (key ^ ".cmxs") in
  if Sys.file_exists dest then (
    match load ~key ~nin ~nout dest with
    | k ->
      Obs.Metrics.incr "codegen.cache_hit";
      k
    | exception Err.Error e ->
      (* Satellite contract: a cached object failing digest/ABI
         validation warns (one classified line), is quarantined, and
         the digest recompiles in place — never a crash. *)
      quarantine dest;
      warn
        (Err.make e.Err.kind ~where:e.Err.where
           (e.Err.message ^ " — quarantined " ^ Filename.basename dest
          ^ ".bad, recompiling"));
      Obs.Metrics.incr "codegen.quarantined";
      compile_and_load ~key ~nin ~nout ~dir dest p)
  else begin
    Obs.Metrics.incr "codegen.cache_miss";
    compile_and_load ~key ~nin ~nout ~dir dest p
  end

let provider p =
  if Slp.num_instructions p > max_ops then None
  else begin
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) @@ fun () ->
    let key = cache_key p in
    match Hashtbl.find_opt table key with
    | Some r -> r
    | None ->
      let nin = Array.length (Slp.inputs p) in
      let nout = Slp.num_outputs p in
      let r =
        match acquire ~key ~nin ~nout p with
        | k ->
          last_error_ref := None;
          Some k
        | exception e ->
          let err = Err.classify e in
          last_error_ref := Some err;
          Obs.Metrics.incr "codegen.fallback";
          if !strict then warn err;
          None
      in
      Hashtbl.replace table key r;
      r
  end

let install () = Slp.set_native_provider (Some provider)
let uninstall () = Slp.set_native_provider None
let available p = Option.is_some (provider p)
