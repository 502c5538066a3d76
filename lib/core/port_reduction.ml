module Mna = Circuit.Mna
module Matrix = Numeric.Matrix
module Sparse = Numeric.Sparse

type t = { ports : string array; series : Matrix.t array }

(* Shared core: [probed] must already carry one 0-V probe source per
   port.  Its only sources are those probes, so the standard MNA build
   applies (its notion of "input" is irrelevant here — each port is
   excited through a hand-built RHS), assembled from the stamps with no
   dense detour.  The per-port chained solves are independent — port k
   writes only column k of every series matrix, and the factored system
   plus the C product are pure readers allocating fresh vectors — so the
   ports fan out across the domain pool. *)
let run ~jobs ~count ports probed =
  let mna = Mna.build probed in
  let ix = Mna.index mna in
  let aux_rows =
    Array.map (fun node -> Mna.aux_row ix (Partition.port_source_name node)) ports
  in
  let p = Array.length ports in
  let n = Mna.size ix in
  let lu = Sparse.factor (Mna.g_sparse mna) in
  let c = Mna.c_sparse mna in
  let series = Array.init count (fun _ -> Matrix.create p p) in
  Runtime.parallel_iter ?jobs p (fun ~worker:_ k ->
      (* Unit voltage at port k: RHS 1 at the port source's branch row. *)
      let b = Array.make n 0.0 in
      b.(aux_rows.(k)) <- 1.0;
      let x = ref (Sparse.solve lu b) in
      for m = 0 to count - 1 do
        if m > 0 then begin
          let rhs = Sparse.mul_vec c !x in
          Array.iteri (fun i v -> rhs.(i) <- -.v) rhs;
          x := Sparse.solve lu rhs
        end;
        (* The branch current of port j's probe source leaves the network;
           the admittance entry is the current flowing in. *)
        Array.iteri
          (fun j row -> Matrix.set series.(m) j k (-. !x.(row)))
          aux_rows
      done);
  { ports; series }

let compute ?sparse:_ ?jobs ~count partition =
  if count < 1 then invalid_arg "Port_reduction.compute: count must be >= 1";
  Obs.Span.with_ ~name:"model.port_reduction" @@ fun () ->
  if !Obs.enabled then Obs.Metrics.incr "port_reduction.compute.count";
  run ~jobs ~count partition.Partition.ports partition.Partition.numeric

let of_netlist ?jobs ~count ~ports nl =
  if count < 1 then invalid_arg "Port_reduction.of_netlist: count must be >= 1";
  Array.iter
    (fun node ->
      if Circuit.Netlist.is_ground node then
        failwith "Port_reduction.of_netlist: ground cannot be a port")
    ports;
  let with_probes =
    Array.fold_left
      (fun acc node ->
        Circuit.Netlist.add acc
          (Circuit.Element.make
             ~name:(Partition.port_source_name node)
             ~kind:Circuit.Element.Vsource ~pos:node ~neg:"0" ~value:0.0 ()))
      nl ports
  in
  run ~jobs ~count ports with_probes

let admittance_at t s =
  let p = Array.length t.ports in
  let acc = Numeric.Cmatrix.create p p in
  let power = ref Numeric.Cx.one in
  Array.iter
    (fun ym ->
      for i = 0 to p - 1 do
        for j = 0 to p - 1 do
          Numeric.Cmatrix.add_entry acc i j
            (Numeric.Cx.mul !power (Numeric.Cx.of_float (Matrix.get ym i j)))
        done
      done;
      power := Numeric.Cx.mul !power s)
    t.series;
  acc
