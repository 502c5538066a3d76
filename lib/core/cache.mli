(** Content-addressed on-disk cache for compiled models.

    Keys hash the canonical deck text together with the order and the
    {!Artifact.version}, so cache entries can never be confused across
    netlist edits, different expansion orders, or format bumps.
    {!Model.build_cached} is the high-level entry point; this module only
    computes keys and paths. *)

val key : ?order:int -> Circuit.Netlist.t -> string
(** Hex digest identifying the compiled form of [nl] at the given order
    (default 2, as for {!Model.build}). *)

val default_dir : unit -> string
(** [$AWESYM_CACHE_DIR] if set and non-empty, else [".awesym-cache"]. *)

val path : dir:string -> string -> string
(** [path ~dir key] is the artifact file path for [key] under [dir]. *)

val ensure_dir : string -> unit
(** Create the cache directory (and parents) if missing. *)

val atomic_write : string -> (string -> unit) -> unit
(** [atomic_write dest write] calls [write tmp] on a fresh temp file in
    [dest]'s directory, then atomically renames it over [dest] — readers
    never observe a partially written entry, and concurrent writers of
    the same key are last-wins instead of corrupting.  If [write] raises,
    the temp file is removed and the exception re-raised; [dest] is
    untouched. *)

type gc_stats = {
  scanned : int;  (** cache entries found (post-sweep, pre-eviction) *)
  deleted : int;  (** entries evicted this run *)
  bytes_before : int;  (** total entry bytes before eviction *)
  bytes_after : int;  (** total entry bytes after eviction *)
}

val gc : ?dir:string -> max_bytes:int -> unit -> gc_stats
(** Bound the cache directory (default {!default_dir}) to [max_bytes] of
    entries — model artifacts ([.awm]), compiled native kernels
    ([.cmxs], see docs/CODEGEN.md), orphaned sweep checkpoints
    ([.ckpt]), and orphaned optimizer trajectories ([.opt], see
    docs/OPTIMIZE.md) share one budget — by deleting
    oldest-access-first (atime when the filesystem tracks it, else
    mtime) until the total fits.  Each eviction is one atomic unlink —
    concurrent readers either opened the entry first and keep their
    handle, or miss and rebuild/recompile; nothing is observed
    half-deleted.  Also sweeps stale [.tmp] files left by crashed
    {!atomic_write} runs and [.bad] objects quarantined by codegen's
    load validation.  A missing directory is an empty cache, not an
    error.  Obs counter: [cache.gc.deleted].  [Serve.Server.create] runs
    this once at daemon startup when configured with a GC budget; the
    CLI exposes it as [awesym cache gc].  Raises
    [Invalid_argument] when [max_bytes < 0]. *)
