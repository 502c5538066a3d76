(** Native SLP kernels: emit OCaml, build a [.cmxs], Dynlink, cache by
    digest.

    This is the provider side of {!Symbolic.Slp}'s backend abstraction
    (see docs/CODEGEN.md).  {!install} registers a provider that, for
    each program, either delivers {!Symbolic.Slp.native_kernels} that
    are bit-identical to the interpreter or declines — in which case
    evaluation silently continues on the interpreter.  The pipeline per
    program digest:

    - cache probe: [<key>.cmxs] under {!Awesymbolic.Cache.default_dir},
      where [key] hashes the program digest, the codegen {!schema}, the
      {!abi_version} and the host's [Sys.ocaml_version];
    - on miss: emit source ({!Emit.source}), compile it with the
      [ocamlopt] found on [$PATH] (refused unless its version matches
      the host runtime), publish through
      {!Awesymbolic.Cache.atomic_write};
    - Dynlink the object privately and read the registered kernel
      quintuple back through the named-value stub, shape- and
      ABI-checking it before trusting the closures.

    Failure policy: a missing/mismatched toolchain or a compile/link
    error is classified into the {!Awesym_error} taxonomy, memoized,
    and the provider declines — silently under [Auto], with a one-line
    classified warning on [stderr] under {!set_strict}[ true] (the
    CLI's explicit [--backend native]).  A {e cached} object that fails
    digest/ABI validation always warns, is quarantined by renaming to
    [.cmxs.bad] (swept by {!Awesymbolic.Cache.gc}), and is recompiled
    in place.

    Obs metrics: [codegen.compile_ms] (histogram),
    [codegen.cache_hit]/[codegen.cache_miss]/[codegen.quarantined]/
    [codegen.fallback] (counters); [Slp] adds
    [kernel.backend.native]/[kernel.backend.interp] per resolved
    program. *)

val schema : string
(** ["awesymbolic-kernel/2"] — bumped when the emitted code or the
    registered value's layout changes; part of the cache key, so a bump
    misses cleanly instead of loading stale objects. *)

val abi_version : int
(** Version tag carried inside the registered kernel value and checked
    on load. *)

val max_ops : int
(** Programs above this instruction count are never compiled (bounds
    [ocamlopt] time on pathological inputs); they run interpreted. *)

val install : unit -> unit
(** Register this module as [Slp]'s native provider.  Idempotent.  The
    CLI calls it when resolving [--backend]; tests and benches call it
    directly. *)

val uninstall : unit -> unit
(** Remove the provider (programs resolved earlier keep their memoized
    kernels). *)

val set_strict : bool -> unit
(** When [true], provider failures (other than quarantines, which always
    warn) emit a one-line classified warning on [stderr].  The CLI sets
    it for [--backend native]; default [false] ([auto] stays silent). *)

val available : Symbolic.Slp.t -> bool
(** Force resolution for [p] (compiling and caching if needed) and
    report whether native kernels are ready.  [awesym compile] uses this
    to prewarm the kernel cache and print the backend status. *)

val cache_path : Symbolic.Slp.t -> string
(** Where the compiled object for this program lives (or would live)
    under the current {!Awesymbolic.Cache.default_dir}:
    [<dir>/<key>.cmxs] with [key] as described above.  For status lines
    and tests; resolving the path does not compile anything. *)

val last_error : unit -> Awesym_error.t option
(** The classified error behind the most recent provider decline, for
    status lines; [None] after a successful resolution. *)
