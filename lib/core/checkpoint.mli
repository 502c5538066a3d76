(** Append-only checkpoint files (schema {!schema}), the one format of
    every resumable run: sweeps and distributed sweeps store one chunk
    record per line, optimize runs one sizing restart or yield iteration.

    Line 1 is the header [{"schema":"awesymbolic-ckpt/2","key":KEY}],
    where [KEY] is the run's own key (the sweep's prep key, the optimize
    request's key).  Each completed unit then appends one compact JSON
    line, in completion order, so a run writes each unit's bytes once.
    The file appears whole with its header and first unit (through
    [Cache.atomic_write]); after that a kill can tear only the last
    line. *)

val schema : string
(** ["awesymbolic-ckpt/2"]. *)

type t
(** An open checkpoint: its path, key, and whether its header is on
    disk. *)

val open_ :
  where:string ->
  key:string ->
  resume:bool ->
  string ->
  (int -> Obs.Json.t -> unit) ->
  t
(** [open_ ~where ~key ~resume path restore] opens the checkpoint at
    [path].  With [resume] and an existing file, it reads every complete
    line: the header must carry [key], and [restore i unit] receives the
    [i]-th unit line (from 0) in file order (counter
    [checkpoint.units_restored]).  A torn last line is dropped and cut
    off the file (counter [checkpoint.lines_dropped]).  Without
    [resume], or with no file, the run starts fresh and its first
    {!record} replaces the file.

    Raises [Awesym_error.Error] naming [path] and, for a bad line, the
    line: kind [Invalid_request] when the header holds another run's
    key, and kind [Artifact_corrupt] (site [where]) when the file cannot
    be read, has no complete header, or holds a line that is not compact
    JSON of the right shape.  An [Awesym_error.Error] raised by
    [restore] (a unit the writer cannot produce, say) is re-raised
    naming the line. *)

val record : t -> Obs.Json.t -> unit
(** Append one unit line and flush it (thread-safe).  The first record
    of a fresh run writes the header too.  Counters
    [checkpoint.units_written] and [checkpoint.bytes_written]; the
    latter equals the file size after a fresh run, and the bytes added
    after a resumed one.  Raises [Awesym_error.Error] (kind
    [Invalid_request], site [checkpoint.write]) naming the file when it
    cannot be written. *)
