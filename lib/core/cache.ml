(* Content-addressed store for compiled-model artifacts.

   The key hashes the canonical deck text (Circuit.Export.to_deck
   round-trips elements, values, symbols, input and output), the order
   (the only build option that changes the compiled program) and the
   artifact format version, so a format bump or a netlist edit misses
   cleanly instead of loading a stale model. *)

let key ?(order = 2) nl =
  let canonical =
    String.concat "\x00"
      [
        "awesymbolic-model";
        string_of_int Artifact.version;
        string_of_int order;
        Circuit.Export.to_deck nl;
      ]
  in
  Digest.to_hex (Digest.string canonical)

let default_dir () =
  match Sys.getenv_opt "AWESYM_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> ".awesym-cache"

let path ~dir k = Filename.concat dir (k ^ ".awm")

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    ensure_dir (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

(* Crash/race safety: write into a unique dot-temp IN the destination
   directory (rename is only atomic within a filesystem), then rename
   into place.  Readers either see the old complete entry or the new
   complete entry — never a half-written file — and concurrent builders
   racing on one key just overwrite each other with identical content.
   The ".tmp" suffix keeps temps from ever matching [path]'s ".awm". *)
let atomic_write dest write =
  let dir = Filename.dirname dest in
  let tmp = Filename.temp_file ~temp_dir:dir ".awesym-" ".tmp" in
  match write tmp with
  | () -> Sys.rename tmp dest
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* Garbage collection: the cache otherwise grows one artifact per
   (deck, options, format) — plus one compiled kernel per program
   digest (codegen's ".cmxs" objects live here too) — forever.
   Eviction is oldest-access-first — [Unix.stat] atime where the
   filesystem tracks it, mtime as the floor — and each removal is a
   single unlink, so a concurrent reader either opened the entry before
   the unlink (and keeps reading the still-open file) or misses and
   rebuilds; no entry is ever observed half-deleted.  Stale ".tmp"
   leftovers from crashed [atomic_write] runs and ".bad" objects
   quarantined by codegen's load validation are swept
   unconditionally. *)

(* ".ckpt" covers sweep checkpoints parked in the cache directory, and
   ".opt" optimizer trajectory/checkpoint files: a finished or abandoned
   run's checkpoint is just another rebuildable artifact, so it ages out
   under the same budget. *)
let entry_extensions = [ ".awm"; ".cmxs"; ".ckpt"; ".opt" ]
let sweep_suffixes = [ ".tmp"; ".bad" ]

type gc_stats = {
  scanned : int;
  deleted : int;
  bytes_before : int;
  bytes_after : int;
}

let gc ?dir ~max_bytes () =
  if max_bytes < 0 then invalid_arg "Cache.gc: max_bytes must be >= 0";
  let dir = match dir with Some d -> d | None -> default_dir () in
  let names =
    match Sys.readdir dir with
    | names -> Array.to_list names
    | exception Sys_error _ -> []
  in
  (* Crash leftovers and quarantined objects first: neither is ever a
     readable entry. *)
  List.iter
    (fun name ->
      if List.exists (fun s -> Filename.check_suffix name s) sweep_suffixes
      then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    names;
  let entries =
    List.filter_map
      (fun name ->
        if
          not
            (List.exists
               (fun e -> Filename.check_suffix name e)
               entry_extensions)
        then None
        else
          let p = Filename.concat dir name in
          match Unix.stat p with
          | st when st.Unix.st_kind = Unix.S_REG ->
            let atime = Float.max st.Unix.st_atime st.Unix.st_mtime in
            Some (p, st.Unix.st_size, atime)
          | _ | (exception Unix.Unix_error _) -> None)
      names
  in
  let bytes_before = List.fold_left (fun a (_, sz, _) -> a + sz) 0 entries in
  let by_age =
    List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b) entries
  in
  let total = ref bytes_before and deleted = ref 0 in
  List.iter
    (fun (p, sz, _) ->
      if !total > max_bytes then
        match Sys.remove p with
        | () ->
          total := !total - sz;
          incr deleted;
          Obs.Metrics.incr "cache.gc.deleted"
        | exception Sys_error _ -> ())
    by_age;
  {
    scanned = List.length entries;
    deleted = !deleted;
    bytes_before;
    bytes_after = !total;
  }
