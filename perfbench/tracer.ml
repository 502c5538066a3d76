(* Spans recorded by the benchmark itself, around its calls into each
   layer's public interface.  The library's own Obs recording stays off
   (the dsweep part turns it on for one run, to read the coordinator's
   counters), so the traced run measures the boundaries named in
   README.md.

   Spans live in memory until the traced run ends.  Each domain keeps its
   own stack of open spans, so a span opened inside a pool task is a root
   of that domain rather than a child of whatever the caller had open. *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let on = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 0
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let reset () =
  Mutex.lock lock;
  recorded := [];
  Mutex.unlock lock

let with_ name f =
  if not !on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let open_ids = Domain.DLS.get stack in
    let parent = match open_ids with p :: _ -> p | [] -> -1 in
    Domain.DLS.set stack (id :: open_ids);
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        Domain.DLS.set stack open_ids;
        Mutex.lock lock;
        recorded := { id; parent; name; start; stop } :: !recorded;
        Mutex.unlock lock)
  end

let spans () =
  Mutex.lock lock;
  let s = List.rev !recorded in
  Mutex.unlock lock;
  s

let dur s = s.stop -. s.start

(* Self time: a span's duration minus the part its children cover. *)
let self_times () =
  let all = spans () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    all;
  List.map
    (fun s ->
      (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    all

let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. dur s else acc)
    0.0 (spans ())

let self name =
  List.fold_left
    (fun acc (s, t) -> if s.name = name then acc +. t else acc)
    0.0 (self_times ())

let durations name =
  Array.of_list (List.filter_map (fun s -> if s.name = name then Some (dur s) else None) (spans ()))

(* Share of the [root] spans' wall time that the named layer spans under
   them account for by self time. *)
let coverage ~root ~layers =
  let wall = total root in
  let covered = List.fold_left (fun acc l -> acc +. self l) 0.0 layers in
  if wall > 0.0 then covered /. wall else nan

(* The layer with the largest self time, with its share of [root]. *)
let dominant ~root ~layers =
  let wall = total root in
  List.fold_left
    (fun (bn, bt) l ->
      let t = self l in
      if t > bt then (l, t) else (bn, bt))
    ("none", 0.0) layers
  |> fun (n, t) -> (n, if wall > 0.0 then t /. wall else nan)
