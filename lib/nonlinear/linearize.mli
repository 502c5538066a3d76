(** Small-signal linearization at a DC operating point.

    Produces the linear(ized) netlist AWE and AWEsymbolic consume: every
    device is replaced by its small-signal equivalent evaluated at the
    operating point (conductances, transconductances, junction/overlap
    capacitances); DC supplies become AC shorts; the designated AC input
    source keeps unit amplitude.  This is exactly the front end that turned
    the paper's 741 into "170 linear elements, 62 of which are energy
    storage elements".

    Generated element names carry deck-compatible prefixes derived from the
    device name: device [m1] yields [gm1_m] (transconductance), [gm1_ds],
    [cm1_gs], [cm1_gd]; a diode [d1] yields [gd1_d], [cd1_j]; a BJT [q1]
    yields [gq1_m], [gq1_pi], [gq1_o], [cq1_pi], [cq1_mu] — so the
    linearized netlist round-trips through {!Circuit.Export}. *)

val netlist : Netlist.t -> Newton.solution -> Circuit.Netlist.t
(** Raises [Awesym_error.Error] (kind [Invalid_request]) at
    [netlist.input] when the nonlinear netlist has no [ac_input], and at
    [netlist.output] when it has no designated output — the errors the
    linear path raises. *)

val operating_report : Netlist.t -> Newton.solution -> string
(** Human-readable table of the operating point: node voltages plus each
    device's bias currents and small-signal parameters. *)
