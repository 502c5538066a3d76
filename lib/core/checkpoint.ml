(* Append-only checkpoint files: a header line binding the run's key,
   then one compact JSON line per completed unit.  Appending a unit costs
   its own bytes, where rewriting the whole file per unit cost bytes
   quadratic in the unit count. *)

module Err = Awesym_error
module C = Obs.Codec
module J = Obs.Json

let schema = "awesymbolic-ckpt/2"

let header =
  C.record Fun.id [ C.const "schema" (J.Str schema); C.req "key" C.string Fun.id ]

type t = {
  path : string;
  key : string;
  mutex : Mutex.t;
  mutable started : bool;  (* the header is on disk *)
}

let line j = J.to_string j ^ "\n"

let record t unit =
  let bytes = line unit in
  Mutex.protect t.mutex @@ fun () ->
  Err.writing ~where:"checkpoint.write" t.path @@ fun () ->
  let bytes =
    if t.started then begin
      Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 t.path
        (fun oc -> Out_channel.output_string oc bytes);
      bytes
    end
    else begin
      (* The file appears whole: a kill leaves the old file or this one. *)
      let bytes = line (C.encode header t.key) ^ bytes in
      Cache.ensure_dir (Filename.dirname t.path);
      Cache.atomic_write t.path (fun tmp ->
          Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc bytes));
      t.started <- true;
      bytes
    end
  in
  Obs.Metrics.incr "checkpoint.units_written";
  Obs.Metrics.add "checkpoint.bytes_written" (String.length bytes)

let open_ ~where ~key ~resume path restore =
  let t = { path; key; mutex = Mutex.create (); started = false } in
  if resume && Sys.file_exists path then begin
    let data =
      try In_channel.with_open_bin path In_channel.input_all
      with Sys_error m -> Err.raise_error Artifact_corrupt ~where ~file:path m
    in
    let corrupt n fmt = Err.errorf Artifact_corrupt ~where ~file:path ~line:n fmt in
    (* Line [n] starts at [pos]; returns the end of the last complete line. *)
    let rec lines n pos =
      match String.index_from_opt data pos '\n' with
      | None -> pos
      | Some e ->
        let text = String.sub data pos (e - pos) in
        let j =
          match J.of_string text with
          | Ok j when J.to_string j = text -> j
          | Ok _ -> corrupt n "not compact JSON"
          | Error m -> corrupt n "%s" m
        in
        (if n = 1 then
           match C.decode header j with
           | Ok k when k = key -> ()
           | Ok _ ->
             Err.errorf Invalid_request ~where ~file:path ~line:1
               "checkpoint was written by a different run (key mismatch); delete \
                it or drop --resume"
           | Error e -> corrupt 1 "not a %s header: %s" schema (C.error_to_string e)
         else
           match restore (n - 2) j with
           | () -> Obs.Metrics.incr "checkpoint.units_restored"
           | exception Err.Error e ->
             raise (Err.Error { e with Err.file = Some path; line = Some n }));
        lines (n + 1) (e + 1)
    in
    let complete = lines 1 0 in
    if complete = 0 then
      corrupt 1 "no complete header line: not a checkpoint of schema %s" schema;
    (* A last line without its newline is an append a kill cut short. *)
    if complete < String.length data then begin
      Obs.Metrics.incr "checkpoint.lines_dropped";
      Unix.truncate path complete
    end;
    t.started <- true
  end;
  t
