(* Clocks, order statistics, host facts and file helpers shared by the
   workloads. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A failed output check: the run reports [correct = false]. *)
exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* Quantile by linear interpolation between order statistics, the
   convention of Python's [statistics.quantiles(method="inclusive")]. *)
let quantile a q =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

(* A growable float buffer, for per-request samples of unknown count. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Peak resident set (VmHWM) of a process, in MB; [pid] "self" for ours. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb ->
              kb /. 1024.0)
        else scan ()
    in
    scan ()

let nproc () =
  match Unix.open_process_in "nproc 2>/dev/null" with
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()
  | ic ->
    let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
    ignore (Unix.close_process_in ic);
    if n > 0 then n else Domain.recommended_domain_count ()

(* Cores the benchmark may use: never more than either count reports. *)
let cores () = Int.max 1 (Int.min (nproc ()) (Domain.recommended_domain_count ()))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* What every workload gets: a private working directory inside the
   checkout, the built [awesym] binary, this executable (for child
   processes) and the usable core count. *)
type env = { dir : string; awesym : string; self_exe : string; cores : int }

(* One untraced run.  [latencies] holds one wall time per operation
   (a build sequence, a sweep, a request); [children_rss_mb] is the peak
   RSS of child processes doing the workload's work (0 when none);
   [named] carries the metric under the name README.md gives it, [info]
   the provenance lines. *)
type outcome = {
  setup_s : float;
  ops : int;
  window_s : float;
  latencies : float array;
  attempted : int;
  failed : int;
  children_rss_mb : float;
  named : (string * float * string) list;
  info : (string * string) list;
}

(* One workload's part of the traced run. *)
type layers = {
  metrics : (string * float * string) list;
  l_attempted : int;
  l_failed : int;
  notes : string list;
}

(* Host speed.  On a shared host the same code runs up to 1.5x slower
   for seconds to minutes at a time, as other tenants load the machine.
   [reference ()] times a fixed loop over 8 MB of floats that shares no
   code with the program (the median of three passes).  A reference time
   is the time the same work takes on a host where that loop takes
   [reference_s]: the host's drift cancels, the program's own speed
   shows in full. *)
let reference_s = 0.005

(* Outside the OCaml heap, so they leave the program's GC pacing alone. *)
let reference_arrays =
  lazy
    (let make v =
       let a = Bigarray.(Array1.create float64 c_layout (1 lsl 19)) in
       Bigarray.Array1.fill a v;
       a
     in
     (make 1.0, make 0.5))

(* Every reference timing of the run, for the provenance lines. *)
let reference_times = Samples.create ()

let reference () =
  let a, b = Lazy.force reference_arrays in
  let pass () =
    let t0 = now () in
    for _ = 1 to 4 do
      for i = 0 to Bigarray.Array1.dim a - 1 do
        Bigarray.Array1.unsafe_set a i
          ((Bigarray.Array1.unsafe_get a i *. 0.999999) +. Bigarray.Array1.unsafe_get b i)
      done
    done;
    now () -. t0
  in
  let t = median [| pass (); pass (); pass () |] in
  Samples.add reference_times t;
  t

(* Turns the wall time of the work done since its previous call (or
   since it was made) into reference time, by the mean of the reference
   timings just before and just after that work. *)
let scaler () =
  let before = ref (reference ()) in
  fun t ->
    let after = reference () in
    let r = (!before +. after) /. 2.0 in
    before := after;
    t *. reference_s /. r

let setup_reps = 5

(* Run [setup] [setup_reps] times and keep the last result; earlier
   results go to [discard].  The reported figure is the median set-up
   time, in reference time when [scale] is set. *)
let setup_median ?(scale = false) ?(discard = ignore) setup =
  let to_ref = if scale then scaler () else Fun.id in
  let rec go k acc =
    let r, t = timed setup in
    let t = to_ref t in
    if k = setup_reps then (r, median (Array.of_list (t :: acc)))
    else begin
      discard r;
      go (k + 1) (t :: acc)
    end
  in
  go 1 []

(* Repeat [op] until [seconds] have passed (at least [min_reps] times),
   returning per-operation wall times and the window.  With [scale], the
   window is the sum of the operations' reference times instead of the
   wall time. *)
let repeat_for ?(min_reps = 1) ?(scale = false) seconds op =
  let lat = Samples.create () and busy = ref 0.0 in
  let to_ref = if scale then scaler () else Fun.id in
  let t0 = now () in
  let rec go i =
    let elapsed = now () -. t0 in
    if i < min_reps || elapsed < seconds then begin
      let (), t = timed (fun () -> op i) in
      Samples.add lat t;
      busy := !busy +. to_ref t;
      go (i + 1)
    end
  in
  go 0;
  (Samples.to_array lat, if scale then !busy else now () -. t0)

(* Per-run input seeds: a pure function of the workload seed, the stream
   and the repetition, so the same [--seed] replays the same inputs. *)
let derive seed stream rep = Hashtbl.hash (seed, stream, rep) land 0x3FFFFFFF

let hex_digest_floats (rows : float array list) =
  let b = Buffer.create 4096 in
  List.iter
    (Array.iter (fun v -> Buffer.add_string b (Printf.sprintf "%016Lx" (Int64.bits_of_float v))))
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))
