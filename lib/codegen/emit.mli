(** OCaml source emission for native SLP kernels.

    [source ~callback_name ~abi p] renders a straight-line program as a
    self-contained OCaml compilation unit defining a scalar kernel and a
    blocked SoA batch kernel, and registering
    [(abi, ninputs, noutputs, eval, batch)] under [callback_name] in the
    runtime's named-value table (the host reads it back through the
    [kernel_stubs.c] stub after Dynlink).

    The emitted unit references {e only} the stdlib — [Array], [Int64],
    [Callback] — so it compiles hermetically with [ocamlopt -shared] and
    never couples to a host [.cmi].

    Bit-identity by construction: every instruction lowers to the very
    float primitive the interpreter executes ([+.], [*.], [~-.],
    [1.0 /.], [Float.sqrt], [Float.exp] — strict IEEE-754 doubles, no
    fused or reassociated forms in ocamlopt), constants are materialized
    from their exact bit patterns via [Int64.float_of_bits], and the
    register file is renamed into SSA let-bindings whose data
    dependencies reproduce the interpreter's read-sources-before-write
    order.  The batch kernel runs the same scalar chain per lane over
    [\[lo, lo+len)], indexing the same columns the interpreter blits.
    Both kernels fold a NaN output to the host's [Float.nan], as the
    interpreter does: the sign and payload of a two-NaN operation depend
    on operand order, which ocamlopt may commute. *)

val source : callback_name:string -> abi:int -> Symbolic.Slp.t -> string
