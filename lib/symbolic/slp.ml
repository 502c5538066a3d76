(* Instructions operate on a flat float register file.  [compile] first emits
   SSA-style code (every distinct DAG node gets one register; constants are
   preloaded once at compile time), then runs the optimization passes below —
   constant folding, dead-code elimination and linear-scan register reuse —
   so the program that ships is the compact form sweeps iterate over. *)
type instr =
  | Load_input of int * int (* reg <- inputs.(slot) *)
  | Add of int * int * int (* reg <- reg + reg *)
  | Mul of int * int * int
  | Neg of int * int
  | Inv of int * int
  | Sqrt of int * int
  | Exp of int * int

(* Native kernels, when a code generator (lib/codegen) is installed: the
   scalar form fills a caller-provided output array, the batch form fills
   output columns over the half-open lane range [lo, lo+len).  Both are
   bit-identical to the interpreter by construction — the generator emits
   the very same float primitives the interpreter executes. *)
type native_kernels = {
  native_eval : float array -> float array -> unit; (* values out *)
  native_batch : float array array -> float array array -> int -> int -> unit;
      (* inputs outs lo len *)
}

(* The batch interpreter's execution form, lowered from the bytecode once
   per program (see [lower]).  A [k] operand indexes [consts]; [X_nsub] is
   [(-a) - b].  The last four kinds are fused (see [lower]). *)
type xop =
  | X_load of int * int
  | X_add of int * int * int
  | X_sub of int * int * int
  | X_nsub of int * int * int
  | X_mul of int * int * int
  | X_addk of int * int * int (* r <- a + k *)
  | X_mulk of int * int * int (* r <- a * k *)
  | X_ksub of int * int * int (* r <- k - b *)
  | X_neg of int * int
  | X_inv of int * int
  | X_sqrt of int * int
  | X_exp of int * int
  | X_mkadd of int * int * int * int (* r <- a * k + b *)
  | X_mksub of int * int * int * int (* r <- a * k - b *)
  | X_mk2add of int * int * int * int * int * int
      (* r <- a2 * k2 + (a1 * k1 + b) *)
  | X_addmk of int * int * int * int (* r <- (a + b) * k *)

type lowered = {
  code : xop array;
  consts : float array;
  preload : int array; (* registers the code reads as vectors before writing *)
}

type t = {
  inputs : Symbol.t array;
  instrs : instr array;
  init : float array; (* initial register file: constants preloaded *)
  outputs : int array; (* registers holding the outputs *)
  mutable digest_memo : string option;
      (* canonical program digest, computed on first use *)
  mutable lowered_memo : lowered option;
      (* batch execution form, computed on the first batch evaluation *)
  mutable select_memo : (int array * t) option;
      (* the latest [select] result and the outputs it kept *)
  mutable native_memo : native_kernels option option;
      (* None: provider not yet consulted; Some r: the provider's verdict.
         Racy writes are benign — both racers store equivalent immutable
         values, and a lost update just re-asks the (memoized) provider. *)
}

let make ~inputs ~instrs ~init ~outputs =
  {
    inputs;
    instrs;
    init;
    outputs;
    digest_memo = None;
    lowered_memo = None;
    select_memo = None;
    native_memo = None;
  }

let inputs p = p.inputs
let num_outputs p = Array.length p.outputs
let num_instructions p = Array.length p.instrs
let num_registers p = Array.length p.init
let instructions p = Array.copy p.instrs
let init_registers p = Array.copy p.init
let output_registers p = Array.copy p.outputs

let dest = function
  | Load_input (r, _)
  | Add (r, _, _)
  | Mul (r, _, _)
  | Neg (r, _)
  | Inv (r, _)
  | Sqrt (r, _)
  | Exp (r, _) -> r

let sources = function
  | Load_input _ -> []
  | Add (_, a, b) | Mul (_, a, b) -> [ a; b ]
  | Neg (_, a) | Inv (_, a) | Sqrt (_, a) | Exp (_, a) -> [ a ]

let of_parts ~inputs ~instrs ~init ~outputs =
  let nregs = Array.length init in
  let nin = Array.length inputs in
  let check_reg what r =
    if r < 0 || r >= nregs then
      invalid_arg
        (Printf.sprintf "Slp.of_parts: %s register %d out of range [0, %d)"
           what r nregs)
  in
  Array.iter
    (fun i ->
      check_reg "destination" (dest i);
      List.iter (check_reg "source") (sources i);
      match i with
      | Load_input (_, slot) ->
        if slot < 0 || slot >= nin then
          invalid_arg
            (Printf.sprintf "Slp.of_parts: input slot %d out of range [0, %d)"
               slot nin)
      | _ -> ())
    instrs;
  Array.iter (check_reg "output") outputs;
  make ~inputs ~instrs ~init ~outputs

(* ------------------------------------------------------------------ *)
(* Optimization passes.

   The pipeline renames to SSA while folding constants, removes dead code,
   then allocates registers by linear scan so a register is reused as soon
   as its last consumer has run.  Folding performs the very float operation
   the interpreter would, so optimized programs are bit-identical to their
   unoptimized forms.  Register reuse is safe because the interpreters read
   every source before writing the destination. *)

type operand = Cst of float | Ssa of int

type sop =
  | S_load of int
  | S_add of operand * operand
  | S_mul of operand * operand
  | S_neg of operand
  | S_inv of operand
  | S_sqrt of operand
  | S_exp of operand

let sop_operands = function
  | S_load _ -> []
  | S_add (a, b) | S_mul (a, b) -> [ a; b ]
  | S_neg a | S_inv a | S_sqrt a | S_exp a -> [ a ]

(* [optimize] without its counters: [select] runs the same passes and
   counts what it drops under its own name. *)
let rewrite p =
  (* Pass 1: rename to SSA, folding every instruction whose operands are all
     compile-time constants (with the interpreter's own float ops). *)
  let cur = Array.map (fun c -> Cst c) p.init in
  let emitted = ref [] in
  let count = ref 0 in
  let emit sop =
    let id = !count in
    incr count;
    emitted := sop :: !emitted;
    Ssa id
  in
  Array.iter
    (fun instr ->
      let v =
        match instr with
        | Load_input (_, slot) -> emit (S_load slot)
        | Add (_, a, b) -> (
          match (cur.(a), cur.(b)) with
          | Cst x, Cst y -> Cst (x +. y)
          | a, b -> emit (S_add (a, b)))
        | Mul (_, a, b) -> (
          match (cur.(a), cur.(b)) with
          | Cst x, Cst y -> Cst (x *. y)
          | a, b -> emit (S_mul (a, b)))
        | Neg (_, a) -> (
          match cur.(a) with
          | Cst x -> Cst (-.x)
          | a -> emit (S_neg a))
        | Inv (_, a) -> (
          match cur.(a) with
          | Cst x -> Cst (1.0 /. x)
          | a -> emit (S_inv a))
        | Sqrt (_, a) -> (
          match cur.(a) with
          | Cst x -> Cst (Float.sqrt x)
          | a -> emit (S_sqrt a))
        | Exp (_, a) -> (
          match cur.(a) with
          | Cst x -> Cst (Float.exp x)
          | a -> emit (S_exp a))
      in
      cur.(dest instr) <- v)
    p.instrs;
  let body = Array.of_list (List.rev !emitted) in
  let out_vals = Array.map (fun r -> cur.(r)) p.outputs in
  (* Pass 2: dead-code elimination — keep only SSA values reachable from the
     outputs (walking backwards keeps transitive uses). *)
  let live = Array.make (Array.length body) false in
  Array.iter
    (function Ssa i -> live.(i) <- true | Cst _ -> ())
    out_vals;
  for i = Array.length body - 1 downto 0 do
    if live.(i) then
      List.iter
        (function Ssa j -> live.(j) <- true | Cst _ -> ())
        (sop_operands body.(i))
  done;
  let renum = Array.make (Array.length body) (-1) in
  let kept = ref [] in
  let nkept = ref 0 in
  Array.iteri
    (fun i sop ->
      if live.(i) then begin
        renum.(i) <- !nkept;
        incr nkept;
        kept := sop :: !kept
      end)
    body;
  let rename = function
    | Cst c -> Cst c
    | Ssa i -> Ssa renum.(i)
  in
  let body =
    Array.of_list (List.rev !kept)
    |> Array.map (function
         | S_load s -> S_load s
         | S_add (a, b) -> S_add (rename a, rename b)
         | S_mul (a, b) -> S_mul (rename a, rename b)
         | S_neg a -> S_neg (rename a)
         | S_inv a -> S_inv (rename a)
         | S_sqrt a -> S_sqrt (rename a)
         | S_exp a -> S_exp (rename a))
  in
  let out_vals = Array.map rename out_vals in
  let m = Array.length body in
  (* Pass 3: linear-scan register allocation.  Distinct constants (by bit
     pattern, so 0.0 / -0.0 / NaN payloads survive) live from program entry;
     an SSA value lives from its defining instruction; both end at their
     last use — position [m] meaning "read by the outputs". *)
  let const_ids = Hashtbl.create 16 in
  let const_vals = ref [] in
  let nconsts = ref 0 in
  let const_id c =
    let key = Int64.bits_of_float c in
    match Hashtbl.find_opt const_ids key with
    | Some id -> id
    | None ->
      let id = !nconsts in
      incr nconsts;
      Hashtbl.add const_ids key id;
      const_vals := c :: !const_vals;
      id
  in
  (* Virtual ids: constants first, then SSA values offset by the constant
     count (assigned after the scan below fixes !nconsts). *)
  let last_use_ssa = Array.make m (-1) in
  let last_use_const = Hashtbl.create 16 in
  let touch pos = function
    | Cst c ->
      let id = const_id c in
      Hashtbl.replace last_use_const id pos
    | Ssa i -> last_use_ssa.(i) <- pos
  in
  Array.iteri
    (fun pos sop -> List.iter (touch pos) (sop_operands sop))
    body;
  Array.iter (touch m) out_vals;
  let nc = !nconsts in
  let expire = Array.make (m + 1) [] in
  Array.iteri
    (fun i pos -> if pos >= 0 && pos < m then expire.(pos) <- (nc + i) :: expire.(pos))
    last_use_ssa;
  Hashtbl.iter
    (fun id pos -> if pos < m then expire.(pos) <- id :: expire.(pos))
    last_use_const;
  let reg_of = Array.make (nc + m) (-1) in
  let free = ref [] in
  let next_reg = ref 0 in
  let alloc id =
    let r =
      match !free with
      | r :: rest ->
        free := rest;
        r
      | [] ->
        let r = !next_reg in
        incr next_reg;
        r
    in
    reg_of.(id) <- r;
    r
  in
  (* Constants are all live at entry: allocate them up front. *)
  for id = 0 to nc - 1 do
    ignore (alloc id)
  done;
  let reg_of_operand = function
    | Cst c -> reg_of.(const_id c)
    | Ssa i -> reg_of.(nc + i)
  in
  let instrs =
    Array.mapi
      (fun pos sop ->
        (* Free values whose last read is this instruction before binding the
           destination: the interpreters read sources before writing, so the
           destination may legally recycle a source register. *)
        List.iter (fun id -> free := reg_of.(id) :: !free) expire.(pos);
        let srcs = List.map reg_of_operand (sop_operands sop) in
        let d = alloc (nc + pos) in
        match (sop, srcs) with
        | S_load slot, [] -> Load_input (d, slot)
        | S_add _, [ a; b ] -> Add (d, a, b)
        | S_mul _, [ a; b ] -> Mul (d, a, b)
        | S_neg _, [ a ] -> Neg (d, a)
        | S_inv _, [ a ] -> Inv (d, a)
        | S_sqrt _, [ a ] -> Sqrt (d, a)
        | S_exp _, [ a ] -> Exp (d, a)
        | _ -> assert false)
      body
  in
  let init = Array.make (Int.max !next_reg 1) 0.0 in
  List.iteri
    (fun k c ->
      (* const_vals is reversed: entry k holds constant id nc-1-k. *)
      init.(reg_of.(nc - 1 - k)) <- c)
    !const_vals;
  let outputs = Array.map reg_of_operand out_vals in
  make ~inputs:p.inputs ~instrs ~init ~outputs

let optimize p =
  let q = rewrite p in
  if !Obs.enabled then begin
    Obs.Metrics.add "slp.optimize.folded_ops"
      (Array.length p.instrs - Array.length q.instrs);
    Obs.Metrics.add "slp.optimize.saved_regs"
      (Int.max 0 (Array.length p.init - Array.length q.init))
  end;
  q

(* The program cut down to the outputs [ks]: [rewrite] drops every
   instruction no kept output reads and keeps the bits.  Memoized on [p]
   in one slot, as [lowered_memo] is, so every sweep over one subset
   shares one program, with its lowered form and native kernel.  Racy
   writes are benign: a lost update only re-runs [rewrite]. *)
let select p ks =
  let n = Array.length p.outputs in
  Array.iter
    (fun k ->
      if k < 0 || k >= n then
        invalid_arg
          (Printf.sprintf "Slp.select: output %d out of range [0, %d)" k n))
    ks;
  match p.select_memo with
  | Some (kept, q) when kept = ks -> q
  | _ ->
    let q =
      rewrite
        (make ~inputs:p.inputs ~instrs:p.instrs ~init:p.init
           ~outputs:(Array.map (fun k -> p.outputs.(k)) ks))
    in
    if !Obs.enabled then
      Obs.Metrics.add "slp.select.dropped_ops"
        (Array.length p.instrs - Array.length q.instrs);
    p.select_memo <- Some (Array.copy ks, q);
    q

(* ------------------------------------------------------------------ *)

let optimize_pass = optimize

let compile ?(optimize = true) ~inputs outputs =
  let slot_of_symbol : (int, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri (fun k s -> Hashtbl.replace slot_of_symbol (Symbol.id s) k) inputs;
  let reg_of_node : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let consts = ref [] in
  let instrs = ref [] in
  let next_reg = ref 0 in
  let fresh () =
    let r = !next_reg in
    incr next_reg;
    r
  in
  let rec reg e =
    match Hashtbl.find_opt reg_of_node (Expr.id e) with
    | Some r -> r
    | None ->
      let r =
        match Expr.node e with
        | Expr.Const c ->
          let r = fresh () in
          consts := (r, c) :: !consts;
          r
        | Expr.Sym s ->
          let slot =
            match Hashtbl.find_opt slot_of_symbol (Symbol.id s) with
            | Some k -> k
            | None ->
              invalid_arg
                (Printf.sprintf "Slp.compile: symbol %s is not an input"
                   (Symbol.name s))
          in
          let r = fresh () in
          instrs := Load_input (r, slot) :: !instrs;
          r
        | Expr.Add (a, b) ->
          let ra = reg a in
          let rb = reg b in
          let r = fresh () in
          instrs := Add (r, ra, rb) :: !instrs;
          r
        | Expr.Mul (a, b) ->
          let ra = reg a in
          let rb = reg b in
          let r = fresh () in
          instrs := Mul (r, ra, rb) :: !instrs;
          r
        | Expr.Neg a ->
          let ra = reg a in
          let r = fresh () in
          instrs := Neg (r, ra) :: !instrs;
          r
        | Expr.Inv a ->
          let ra = reg a in
          let r = fresh () in
          instrs := Inv (r, ra) :: !instrs;
          r
        | Expr.Sqrt a ->
          let ra = reg a in
          let r = fresh () in
          instrs := Sqrt (r, ra) :: !instrs;
          r
        | Expr.Exp a ->
          let ra = reg a in
          let r = fresh () in
          instrs := Exp (r, ra) :: !instrs;
          r
      in
      Hashtbl.replace reg_of_node (Expr.id e) r;
      r
  in
  let out_regs = Array.map reg outputs in
  let init = Array.make (Int.max !next_reg 1) 0.0 in
  List.iter (fun (r, c) -> init.(r) <- c) !consts;
  let p =
    make ~inputs
      ~instrs:(Array.of_list (List.rev !instrs))
      ~init ~outputs:out_regs
  in
  let p = if optimize then optimize_pass p else p in
  if !Obs.enabled then begin
    Obs.Metrics.incr "slp.compile.count";
    Obs.Metrics.observe "slp.program.ops" (float_of_int (Array.length p.instrs))
  end;
  p

(* ------------------------------------------------------------------ *)
(* Backend selection.

   The interpreter below is always available; a native backend appears
   when a code generator registers a provider (lib/codegen does this via
   [Codegen.install]).  Dispatch lives here — behind the existing
   [eval]/[make_evaluator]/[make_batch_evaluator] entry points — so every
   caller (Model, sweep engine, serve batcher, bench) switches backends
   without changing a line.  The provider contract: returned kernels are
   bit-identical to the interpreter, point for point, or they must not be
   returned at all. *)

type backend = Interp | Native

let backend_ref = ref Interp
let set_backend b = backend_ref := b
let current_backend () = !backend_ref

let backend_name = function
  | Interp -> "interp"
  | Native -> "native"

let provider_ref : (t -> native_kernels option) option ref = ref None
let set_native_provider p = provider_ref := p

let digest p =
  match p.digest_memo with
  | Some d -> d
  | None ->
    (* The bytes of the [Printf] spelling ["L %d %d"], ["A %d %d %d"], ...,
       ["c%Lx"], ["o%d"], written digit by digit: [Printf] and
       [string_of_int] format through C's [snprintf], at several times the
       cost, and every sweep key digests its model's program.  Registers
       and slots are non-negative. *)
    let b = Buffer.create (16 * (Array.length p.instrs + Array.length p.init)) in
    let rec dec v =
      if v >= 10 then dec (v / 10);
      Buffer.add_char b (Char.unsafe_chr (48 + (v mod 10)))
    in
    let rec hex v =
      if v >= 16 then hex (v lsr 4);
      Buffer.add_char b "0123456789abcdef".[v land 15]
    in
    let op tag regs =
      Buffer.add_char b '\n';
      Buffer.add_char b tag;
      List.iter
        (fun r ->
          Buffer.add_char b ' ';
          dec r)
        regs
    in
    Buffer.add_string b "awesym-slp/1\n";
    dec (Array.length p.inputs);
    Array.iter
      (function
        | Load_input (r, s) -> op 'L' [ r; s ]
        | Add (r, a, c) -> op 'A' [ r; a; c ]
        | Mul (r, a, c) -> op 'M' [ r; a; c ]
        | Neg (r, a) -> op 'N' [ r; a ]
        | Inv (r, a) -> op 'I' [ r; a ]
        | Sqrt (r, a) -> op 'S' [ r; a ]
        | Exp (r, a) -> op 'E' [ r; a ])
      p.instrs;
    Buffer.add_char b '\n';
    (* Constants by bit pattern: -0.0, infinities and NaN payloads are
       part of the program's identity.  All but the last hex digit fit an
       [int]. *)
    Array.iter
      (fun c ->
        let bits = Int64.bits_of_float c in
        let top = Int64.to_int (Int64.shift_right_logical bits 4) in
        Buffer.add_char b 'c';
        if top > 0 then hex top;
        hex (Int64.to_int bits land 15))
      p.init;
    Buffer.add_char b '\n';
    Array.iter
      (fun r ->
        Buffer.add_char b 'o';
        dec r)
      p.outputs;
    let d = Digest.to_hex (Digest.string (Buffer.contents b)) in
    p.digest_memo <- Some d;
    d

(* Resolve the kernels for one program, memoized per program.  A failed
   resolution is only memoized when a provider was consulted — installing
   the provider later (tests, late [Codegen.install]) must not be masked
   by an earlier miss.  The provider is trusted to classify and swallow
   its own failures; a raising provider falls back to the interpreter. *)
let resolve_native p =
  match !backend_ref with
  | Interp -> None
  | Native -> (
    match p.native_memo with
    | Some r -> r
    | None -> (
      match !provider_ref with
      | None -> None
      | Some f ->
        let r = try f p with _ -> None in
        p.native_memo <- Some r;
        (match r with
        | Some _ -> Obs.Metrics.incr "kernel.backend.native"
        | None -> Obs.Metrics.incr "kernel.backend.interp");
        r))

(* An operation on two NaNs keeps one operand's sign and payload, and the
   compiler may commute the operands differently in each backend, so
   every backend folds a NaN output to [Float.nan] — at the outputs only:
   a NaN anywhere in a chain makes every output it reaches NaN. *)
let[@inline] canonical v = if Float.is_nan v then Float.nan else v

let run p regs values out =
  (* One flag test per evaluation (not per instruction): the op count is
     known statically, so the whole program is charged in two bumps. *)
  if !Obs.enabled then begin
    Obs.Metrics.incr "slp.eval.count";
    Obs.Metrics.add "slp.eval.ops" (Array.length p.instrs)
  end;
  Array.blit p.init 0 regs 0 (Array.length p.init);
  Array.iter
    (fun instr ->
      match instr with
      | Load_input (r, slot) -> regs.(r) <- values.(slot)
      | Add (r, a, b) -> regs.(r) <- regs.(a) +. regs.(b)
      | Mul (r, a, b) -> regs.(r) <- regs.(a) *. regs.(b)
      | Neg (r, a) -> regs.(r) <- -.regs.(a)
      | Inv (r, a) -> regs.(r) <- 1.0 /. regs.(a)
      | Sqrt (r, a) -> regs.(r) <- Float.sqrt regs.(a)
      | Exp (r, a) -> regs.(r) <- Float.exp regs.(a))
    p.instrs;
  Array.iteri (fun k r -> out.(k) <- canonical regs.(r)) p.outputs;
  out

(* The native scalar path charges the same counters as [run] so --stats
   reads identically whichever backend executed. *)
let charge_eval p =
  if !Obs.enabled then begin
    Obs.Metrics.incr "slp.eval.count";
    Obs.Metrics.add "slp.eval.ops" (Array.length p.instrs)
  end

let eval p values =
  if Array.length values <> Array.length p.inputs then
    invalid_arg "Slp.eval: wrong number of input values";
  match resolve_native p with
  | Some k ->
    charge_eval p;
    let out = Array.make (Array.length p.outputs) 0.0 in
    k.native_eval values out;
    out
  | None ->
    run p (Array.make (Array.length p.init) 0.0) values
      (Array.make (Array.length p.outputs) 0.0)

let make_evaluator p =
  let regs = Array.make (Array.length p.init) 0.0 in
  let out = Array.make (Array.length p.outputs) 0.0 in
  fun values ->
    if Array.length values <> Array.length p.inputs then
      invalid_arg "Slp: wrong number of input values";
    match resolve_native p with
    | Some k ->
      charge_eval p;
      k.native_eval values out;
      out
    | None -> run p regs values out

(* ------------------------------------------------------------------ *)
(* Batched evaluation: one structure-of-arrays register file of [block]
   lanes, interpreted block-by-block so instruction dispatch amortizes over
   the lanes and the whole file stays cache-resident.  Each lane computes
   exactly the scalar interpreter's operation sequence, so results are
   bit-identical to [eval] / [make_evaluator] point by point. *)

let xop_dest = function
  | X_load (r, _)
  | X_add (r, _, _)
  | X_sub (r, _, _)
  | X_nsub (r, _, _)
  | X_mul (r, _, _)
  | X_addk (r, _, _)
  | X_mulk (r, _, _)
  | X_ksub (r, _, _)
  | X_neg (r, _)
  | X_inv (r, _)
  | X_sqrt (r, _)
  | X_exp (r, _)
  | X_mkadd (r, _, _, _)
  | X_mksub (r, _, _, _)
  | X_mk2add (r, _, _, _, _, _)
  | X_addmk (r, _, _, _) -> r

(* The registers an instruction reads as vectors. *)
let xop_reads f = function
  | X_load _ -> ()
  | X_add (_, a, b)
  | X_sub (_, a, b)
  | X_nsub (_, a, b)
  | X_mul (_, a, b)
  | X_mkadd (_, a, _, b)
  | X_mksub (_, a, _, b)
  | X_addmk (_, a, b, _) ->
    f a;
    f b
  | X_addk (_, a, _)
  | X_mulk (_, a, _)
  | X_ksub (_, _, a)
  | X_neg (_, a)
  | X_inv (_, a)
  | X_sqrt (_, a)
  | X_exp (_, a) -> f a
  | X_mk2add (_, a2, _, a1, _, b) ->
    f a2;
    f a1;
    f b

(* Lowering to the batch execution form.  Three rewrites, none of which
   moves a bit:

   - A [Neg] whose every reader is an [Add] is dropped, and each reader
     subtracts the [Neg]'s source instead: IEEE 754 defines [x - y] as
     [x + (-y)], addition commutes, and [(-x) + (-y)] is [(-x) - y].  The
     [Neg] stays when anything else reads its value (another operation,
     an output), or when its source register is rewritten before a reader
     runs.  Commuting only moves a NaN's sign or payload, and the outputs
     fold every NaN to [Float.nan].
   - A register the block has not written yet holds its preloaded
     constant in every lane, so binary operations read it as a scalar
     ([x + k], [x * k], [k - y]).  Only registers still read as vectors
     before being written are refilled at each block boundary.
   - An instruction whose result only the next instruction reads, once,
     and no output reads, is fused into it: the pair becomes one
     superinstruction that keeps the intermediate in a CPU register and
     never stores it ([a*k + b], [a*k - b], [a2*k2 + (a1*k1 + b)],
     [(a + b)*k]).
     Each lane still performs every rounding of the pair, in order:
     ocamlopt never contracts a product and a sum into an FMA.
     [b - a*k], [(-(a*k)) - b] and [(-b) - a*k] take the negated
     constant, because round-to-nearest is sign-symmetric, so
     [(-k) * a] is [-(k * a)] exactly.  The superinstruction reads all
     its sources before it writes, lane by lane, and the elided store's
     register is read by nothing else before its next write, so which
     registers the pair recycles does not matter.

   Each pass is linear in the program size. *)
let lower p =
  let n = Array.length p.instrs and nregs = Array.length p.init in
  (* Pass 1: which [Neg]s can go.  [holder.(r)] is the [Neg] whose result
     register [r] holds, or -1; [last_write.(r)] is where [r] was last
     written. *)
  let fuse = Array.make n false in
  let holder = Array.make nregs (-1) and last_write = Array.make nregs (-1) in
  let keep r = if holder.(r) >= 0 then fuse.(holder.(r)) <- false in
  Array.iteri
    (fun j instr ->
      (match instr with
      | Add (_, a, b) ->
        (* An [Add] may subtract the source while it still holds the
           value the [Neg] read. *)
        let read r =
          match holder.(r) with
          | -1 -> ()
          | i -> (
            match p.instrs.(i) with
            | Neg (_, s) when last_write.(s) > i -> keep r
            | _ -> ())
        in
        read a;
        read b
      | _ -> List.iter keep (sources instr));
      let d = dest instr in
      last_write.(d) <- j;
      holder.(d) <- -1;
      match instr with
      | Neg _ ->
        fuse.(j) <- true;
        holder.(d) <- j
      | _ -> ())
    p.instrs;
  Array.iter keep p.outputs;
  (* Pass 2: emit.  While [r] stands for the result of a dropped [Neg],
     [negated.(r)] is that [Neg]'s source; otherwise it is -1. *)
  let written = Array.make nregs false and needed = Array.make nregs false in
  let negated = Array.make nregs (-1) in
  let code = ref [] and consts = ref [] and nconsts = ref 0 in
  let emit x = code := x :: !code in
  let k c =
    consts := c :: !consts;
    incr nconsts;
    !nconsts - 1
  in
  let cst r = p.init.(r) in
  let vec r =
    if not written.(r) then needed.(r) <- true;
    r
  in
  let add d a b =
    if not written.(b) then emit (X_addk (d, vec a, k (cst b)))
    else if not written.(a) then emit (X_addk (d, b, k (cst a)))
    else emit (X_add (d, a, b))
  and mul d a b =
    if not written.(b) then emit (X_mulk (d, vec a, k (cst b)))
    else if not written.(a) then emit (X_mulk (d, b, k (cst a)))
    else emit (X_mul (d, a, b))
  and sub d a b =
    if not written.(b) then emit (X_addk (d, vec a, k (-.cst b)))
    else if not written.(a) then emit (X_ksub (d, k (cst a), b))
    else emit (X_sub (d, a, b))
  and nsub d a b =
    if not written.(b) then emit (X_ksub (d, k (-.cst b), vec a))
    else if not written.(a) then emit (X_ksub (d, k (-.cst a), b))
    else emit (X_nsub (d, a, b))
  in
  Array.iteri
    (fun j instr ->
      let d = dest instr in
      match instr with
      | Neg (_, s) when fuse.(j) -> negated.(d) <- s
      | _ ->
        (match instr with
        | Load_input (_, slot) -> emit (X_load (d, slot))
        | Add (_, a, b) -> (
          match (negated.(a), negated.(b)) with
          | -1, -1 -> add d a b
          | -1, y -> sub d a y
          | x, -1 -> sub d b x
          | x, y -> nsub d x y)
        | Mul (_, a, b) -> mul d a b
        | Neg (_, a) -> emit (X_neg (d, vec a))
        | Inv (_, a) -> emit (X_inv (d, vec a))
        | Sqrt (_, a) -> emit (X_sqrt (d, vec a))
        | Exp (_, a) -> emit (X_exp (d, vec a)));
        written.(d) <- true;
        negated.(d) <- -1)
    p.instrs;
  Array.iter (fun r -> ignore (vec r)) p.outputs;
  let preload = ref [] in
  for r = nregs - 1 downto 0 do
    if needed.(r) then preload := r :: !preload
  done;
  (* Pass 3: fuse.  Walking backwards, [uses.(r)] counts the reads of the
     value [r] holds, up to its next write, outputs included; [single.(j)]
     says that instruction [j]'s result is read exactly once. *)
  let code = Array.of_list (List.rev !code) in
  let single = Array.make (Array.length code) false in
  let uses = Array.make nregs 0 in
  Array.iter (fun r -> uses.(r) <- uses.(r) + 1) p.outputs;
  for j = Array.length code - 1 downto 0 do
    let d = xop_dest code.(j) in
    single.(j) <- uses.(d) = 1;
    uses.(d) <- 0;
    xop_reads (fun r -> uses.(r) <- uses.(r) + 1) code.(j)
  done;
  let kv = Array.of_list (List.rev !consts) in
  let neg c = k (-.kv.(c)) in
  let fuse p x =
    match (p, x) with
    | X_mulk (t, a, c), X_add (d, u, v) when u = t -> Some (X_mkadd (d, a, c, v))
    | X_mulk (t, a, c), X_add (d, u, v) when v = t -> Some (X_mkadd (d, a, c, u))
    | X_mulk (t, a, c), X_sub (d, u, v) when u = t -> Some (X_mksub (d, a, c, v))
    | X_mulk (t, a, c), X_sub (d, u, v) when v = t -> Some (X_mkadd (d, a, neg c, u))
    | X_mulk (t, a, c), X_nsub (d, u, v) when u = t -> Some (X_mksub (d, a, neg c, v))
    | X_mulk (t, a, c), X_nsub (d, u, v) when v = t -> Some (X_mksub (d, a, neg c, u))
    | X_mkadd (t, a1, c1, b), X_mkadd (d, a2, c2, v) when v = t ->
      Some (X_mk2add (d, a2, c2, a1, c1, b))
    | X_add (t, a, b), X_mulk (d, u, c) when u = t -> Some (X_addmk (d, a, b, c))
    | _ -> None
  in
  (* The emitted code as a stack, each instruction with its [single]
     flag; a new instruction fuses with the top while it can, so a fused
     pair may fuse again with the instruction before it. *)
  let fused = ref [] in
  Array.iteri
    (fun j x ->
      let rec push x =
        match (match !fused with (p, true) :: _ -> fuse p x | _ -> None) with
        | Some f ->
          fused := List.tl !fused;
          push f
        | None -> fused := (x, single.(j)) :: !fused
      in
      push x)
    code;
  {
    code = Array.of_list (List.rev_map fst !fused);
    consts = Array.of_list (List.rev !consts);
    preload = Array.of_list !preload;
  }

(* Racy writes are benign, as for [digest_memo]: racers store equal
   immutable values. *)
let lowered p =
  match p.lowered_memo with
  | Some l -> l
  | None ->
    let l = lower p in
    p.lowered_memo <- Some l;
    l

let default_block = 256

(* One block of the SoA kernel: refill the preloaded registers, run the
   lowered code over [len] lanes starting at point [lo], blit the outputs.
   Blocks touch disjoint [lo, lo+len) ranges of [inputs]/[outs] and each
   lane runs the scalar operation sequence, so blocks may execute in any
   order — or on different domains with private [regs] — and the outputs
   stay bit-identical. *)
let run_block p lw regs inputs outs lo len =
  Array.iter (fun r -> Array.fill regs.(r) 0 len p.init.(r)) lw.preload;
  (* Every lane loop runs four lanes an iteration, then a scalar tail.
     Each lane still computes its own scalar operation, so the bits do not
     change; the unrolled body keeps the loop's speed independent of where
     the code lands in the binary. *)
  let quads = len lsr 2 and tail = len land lnot 3 in
  let consts = lw.consts in
  Array.iter
    (fun xop ->
      match xop with
      | X_load (r, slot) -> Array.blit inputs.(slot) lo regs.(r) 0 len
      | X_add (r, a, b) ->
        let d = regs.(r) and x = regs.(a) and y = regs.(b) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i (Array.unsafe_get x i +. Array.unsafe_get y i);
          Array.unsafe_set d (i + 1)
            (Array.unsafe_get x (i + 1) +. Array.unsafe_get y (i + 1));
          Array.unsafe_set d (i + 2)
            (Array.unsafe_get x (i + 2) +. Array.unsafe_get y (i + 2));
          Array.unsafe_set d (i + 3)
            (Array.unsafe_get x (i + 3) +. Array.unsafe_get y (i + 3))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i (Array.unsafe_get x i +. Array.unsafe_get y i)
        done
      | X_sub (r, a, b) ->
        let d = regs.(r) and x = regs.(a) and y = regs.(b) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i (Array.unsafe_get x i -. Array.unsafe_get y i);
          Array.unsafe_set d (i + 1)
            (Array.unsafe_get x (i + 1) -. Array.unsafe_get y (i + 1));
          Array.unsafe_set d (i + 2)
            (Array.unsafe_get x (i + 2) -. Array.unsafe_get y (i + 2));
          Array.unsafe_set d (i + 3)
            (Array.unsafe_get x (i + 3) -. Array.unsafe_get y (i + 3))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i (Array.unsafe_get x i -. Array.unsafe_get y i)
        done
      | X_nsub (r, a, b) ->
        let d = regs.(r) and x = regs.(a) and y = regs.(b) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i (-.(Array.unsafe_get x i) -. Array.unsafe_get y i);
          Array.unsafe_set d (i + 1)
            (-.(Array.unsafe_get x (i + 1)) -. Array.unsafe_get y (i + 1));
          Array.unsafe_set d (i + 2)
            (-.(Array.unsafe_get x (i + 2)) -. Array.unsafe_get y (i + 2));
          Array.unsafe_set d (i + 3)
            (-.(Array.unsafe_get x (i + 3)) -. Array.unsafe_get y (i + 3))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i (-.(Array.unsafe_get x i) -. Array.unsafe_get y i)
        done
      | X_mul (r, a, b) ->
        let d = regs.(r) and x = regs.(a) and y = regs.(b) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i (Array.unsafe_get x i *. Array.unsafe_get y i);
          Array.unsafe_set d (i + 1)
            (Array.unsafe_get x (i + 1) *. Array.unsafe_get y (i + 1));
          Array.unsafe_set d (i + 2)
            (Array.unsafe_get x (i + 2) *. Array.unsafe_get y (i + 2));
          Array.unsafe_set d (i + 3)
            (Array.unsafe_get x (i + 3) *. Array.unsafe_get y (i + 3))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i (Array.unsafe_get x i *. Array.unsafe_get y i)
        done
      | X_addk (r, a, c) ->
        let d = regs.(r) and x = regs.(a) and k = Array.unsafe_get consts c in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i (Array.unsafe_get x i +. k);
          Array.unsafe_set d (i + 1) (Array.unsafe_get x (i + 1) +. k);
          Array.unsafe_set d (i + 2) (Array.unsafe_get x (i + 2) +. k);
          Array.unsafe_set d (i + 3) (Array.unsafe_get x (i + 3) +. k)
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i (Array.unsafe_get x i +. k)
        done
      | X_mulk (r, a, c) ->
        let d = regs.(r) and x = regs.(a) and k = Array.unsafe_get consts c in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i (Array.unsafe_get x i *. k);
          Array.unsafe_set d (i + 1) (Array.unsafe_get x (i + 1) *. k);
          Array.unsafe_set d (i + 2) (Array.unsafe_get x (i + 2) *. k);
          Array.unsafe_set d (i + 3) (Array.unsafe_get x (i + 3) *. k)
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i (Array.unsafe_get x i *. k)
        done
      | X_ksub (r, c, b) ->
        let d = regs.(r) and k = Array.unsafe_get consts c and y = regs.(b) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i (k -. Array.unsafe_get y i);
          Array.unsafe_set d (i + 1) (k -. Array.unsafe_get y (i + 1));
          Array.unsafe_set d (i + 2) (k -. Array.unsafe_get y (i + 2));
          Array.unsafe_set d (i + 3) (k -. Array.unsafe_get y (i + 3))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i (k -. Array.unsafe_get y i)
        done
      | X_neg (r, a) ->
        let d = regs.(r) and x = regs.(a) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i (-.(Array.unsafe_get x i));
          Array.unsafe_set d (i + 1) (-.(Array.unsafe_get x (i + 1)));
          Array.unsafe_set d (i + 2) (-.(Array.unsafe_get x (i + 2)));
          Array.unsafe_set d (i + 3) (-.(Array.unsafe_get x (i + 3)))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i (-.(Array.unsafe_get x i))
        done
      | X_inv (r, a) ->
        let d = regs.(r) and x = regs.(a) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i (1.0 /. Array.unsafe_get x i);
          Array.unsafe_set d (i + 1) (1.0 /. Array.unsafe_get x (i + 1));
          Array.unsafe_set d (i + 2) (1.0 /. Array.unsafe_get x (i + 2));
          Array.unsafe_set d (i + 3) (1.0 /. Array.unsafe_get x (i + 3))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i (1.0 /. Array.unsafe_get x i)
        done
      | X_sqrt (r, a) ->
        let d = regs.(r) and x = regs.(a) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i (Float.sqrt (Array.unsafe_get x i));
          Array.unsafe_set d (i + 1) (Float.sqrt (Array.unsafe_get x (i + 1)));
          Array.unsafe_set d (i + 2) (Float.sqrt (Array.unsafe_get x (i + 2)));
          Array.unsafe_set d (i + 3) (Float.sqrt (Array.unsafe_get x (i + 3)))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i (Float.sqrt (Array.unsafe_get x i))
        done
      | X_exp (r, a) ->
        let d = regs.(r) and x = regs.(a) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i (Float.exp (Array.unsafe_get x i));
          Array.unsafe_set d (i + 1) (Float.exp (Array.unsafe_get x (i + 1)));
          Array.unsafe_set d (i + 2) (Float.exp (Array.unsafe_get x (i + 2)));
          Array.unsafe_set d (i + 3) (Float.exp (Array.unsafe_get x (i + 3)))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i (Float.exp (Array.unsafe_get x i))
        done
      | X_mkadd (r, a, c, b) ->
        let d = regs.(r) and x = regs.(a) and k = Array.unsafe_get consts c
        and y = regs.(b) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i ((Array.unsafe_get x i *. k) +. Array.unsafe_get y i);
          Array.unsafe_set d (i + 1)
            ((Array.unsafe_get x (i + 1) *. k) +. Array.unsafe_get y (i + 1));
          Array.unsafe_set d (i + 2)
            ((Array.unsafe_get x (i + 2) *. k) +. Array.unsafe_get y (i + 2));
          Array.unsafe_set d (i + 3)
            ((Array.unsafe_get x (i + 3) *. k) +. Array.unsafe_get y (i + 3))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i ((Array.unsafe_get x i *. k) +. Array.unsafe_get y i)
        done
      | X_mksub (r, a, c, b) ->
        let d = regs.(r) and x = regs.(a) and k = Array.unsafe_get consts c
        and y = regs.(b) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i ((Array.unsafe_get x i *. k) -. Array.unsafe_get y i);
          Array.unsafe_set d (i + 1)
            ((Array.unsafe_get x (i + 1) *. k) -. Array.unsafe_get y (i + 1));
          Array.unsafe_set d (i + 2)
            ((Array.unsafe_get x (i + 2) *. k) -. Array.unsafe_get y (i + 2));
          Array.unsafe_set d (i + 3)
            ((Array.unsafe_get x (i + 3) *. k) -. Array.unsafe_get y (i + 3))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i ((Array.unsafe_get x i *. k) -. Array.unsafe_get y i)
        done
      | X_mk2add (r, a2, c2, a1, c1, b) ->
        let d = regs.(r) and x2 = regs.(a2) and k2 = Array.unsafe_get consts c2
        and x1 = regs.(a1) and k1 = Array.unsafe_get consts c1 and y = regs.(b) in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i
            ((Array.unsafe_get x2 i *. k2)
            +. ((Array.unsafe_get x1 i *. k1) +. Array.unsafe_get y i));
          Array.unsafe_set d (i + 1)
            ((Array.unsafe_get x2 (i + 1) *. k2)
            +. ((Array.unsafe_get x1 (i + 1) *. k1) +. Array.unsafe_get y (i + 1)));
          Array.unsafe_set d (i + 2)
            ((Array.unsafe_get x2 (i + 2) *. k2)
            +. ((Array.unsafe_get x1 (i + 2) *. k1) +. Array.unsafe_get y (i + 2)));
          Array.unsafe_set d (i + 3)
            ((Array.unsafe_get x2 (i + 3) *. k2)
            +. ((Array.unsafe_get x1 (i + 3) *. k1) +. Array.unsafe_get y (i + 3)))
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i
            ((Array.unsafe_get x2 i *. k2)
            +. ((Array.unsafe_get x1 i *. k1) +. Array.unsafe_get y i))
        done
      | X_addmk (r, a, b, c) ->
        let d = regs.(r) and x = regs.(a) and y = regs.(b)
        and k = Array.unsafe_get consts c in
        for q = 0 to quads - 1 do
          let i = q lsl 2 in
          Array.unsafe_set d i ((Array.unsafe_get x i +. Array.unsafe_get y i) *. k);
          Array.unsafe_set d (i + 1)
            ((Array.unsafe_get x (i + 1) +. Array.unsafe_get y (i + 1)) *. k);
          Array.unsafe_set d (i + 2)
            ((Array.unsafe_get x (i + 2) +. Array.unsafe_get y (i + 2)) *. k);
          Array.unsafe_set d (i + 3)
            ((Array.unsafe_get x (i + 3) +. Array.unsafe_get y (i + 3)) *. k)
        done;
        for i = tail to len - 1 do
          Array.unsafe_set d i ((Array.unsafe_get x i +. Array.unsafe_get y i) *. k)
        done)
    lw.code;
  Array.iteri
    (fun k r ->
      let x = regs.(r) and y = outs.(k) in
      for q = 0 to quads - 1 do
        let i = q lsl 2 in
        Array.unsafe_set y (lo + i) (canonical (Array.unsafe_get x i));
        Array.unsafe_set y (lo + i + 1) (canonical (Array.unsafe_get x (i + 1)));
        Array.unsafe_set y (lo + i + 2) (canonical (Array.unsafe_get x (i + 2)));
        Array.unsafe_set y (lo + i + 3) (canonical (Array.unsafe_get x (i + 3)))
      done;
      for i = tail to len - 1 do
        Array.unsafe_set y (lo + i) (canonical (Array.unsafe_get x i))
      done)
    p.outputs

let make_batch_evaluator ?(block = default_block) ?jobs p =
  if block <= 0 then invalid_arg "Slp.make_batch_evaluator: block must be > 0";
  let jobs = Runtime.resolve_jobs jobs in
  let nregs = Array.length p.init in
  (* One register file per worker.  The evaluator closure owns them —
     its register files are single-owner state, so two overlapping calls
     would interleave writes into the same lanes and silently corrupt
     both results.  The [busy] latch turns that data race into an
     immediate [Invalid_argument]: callers wanting concurrent batches
     (e.g. a serving scheduler) must keep one evaluator per owning
     domain. *)
  (* Register files are only needed by the interpreter; allocate them on
     first interpreted call so a native-backed evaluator costs no SoA
     memory.  The thunk is forced under the busy latch (or before the
     fan-out), so the laziness is single-owner too. *)
  let files =
    lazy
      (Array.init jobs (fun _ ->
           Array.init nregs (fun _ -> Array.make block 0.0)))
  in
  let busy = Atomic.make false in
  fun inputs ->
    if not (Atomic.compare_and_set busy false true) then
      invalid_arg
        "Slp.make_batch_evaluator: evaluator called concurrently (its \
         register file is single-owner; make one evaluator per domain)";
    Fun.protect ~finally:(fun () -> Atomic.set busy false) @@ fun () ->
    if Array.length inputs <> Array.length p.inputs then
      invalid_arg "Slp.eval_batch: wrong number of input columns";
    if Array.length inputs = 0 then
      invalid_arg "Slp.eval_batch: program has no inputs (use eval)";
    let n = Array.length inputs.(0) in
    Array.iteri
      (fun k col ->
        if Array.length col <> n then
          invalid_arg
            (Printf.sprintf
               "Slp.eval_batch: input column %d has %d points, expected %d" k
               (Array.length col) n))
      inputs;
    if !Obs.enabled then begin
      Obs.Metrics.incr "slp.eval_batch.count";
      Obs.Metrics.add "slp.eval_batch.points" n;
      Obs.Metrics.add "slp.eval_batch.ops" (n * Array.length p.instrs)
    end;
    let outs = Array.map (fun _ -> Array.make n 0.0) p.outputs in
    (* Both backends walk the same block grid, so fan-out determinism
       holds whichever kernel runs. *)
    (match resolve_native p with
    | Some k ->
      Runtime.iter_chunks ~jobs ~n ~block
        (fun ~worker:_ (c : Runtime.Chunk.t) -> k.native_batch inputs outs c.lo c.len)
    | None ->
      let lw = lowered p in
      if !Obs.enabled then
        Obs.Metrics.add "slp.eval_batch.dispatched" (n * Array.length lw.code);
      let files = Lazy.force files in
      Runtime.iter_chunks ~jobs ~n ~block
        (fun ~worker (c : Runtime.Chunk.t) ->
          run_block p lw files.(worker) inputs outs c.lo c.len));
    outs

let eval_batch ?block ?jobs p inputs = make_batch_evaluator ?block ?jobs p inputs

(* ------------------------------------------------------------------ *)

let to_exprs p =
  let vals = Array.map Expr.const p.init in
  Array.iter
    (fun instr ->
      match instr with
      | Load_input (r, slot) -> vals.(r) <- Expr.sym p.inputs.(slot)
      | Add (r, a, b) -> vals.(r) <- Expr.add vals.(a) vals.(b)
      | Mul (r, a, b) -> vals.(r) <- Expr.mul vals.(a) vals.(b)
      | Neg (r, a) -> vals.(r) <- Expr.neg vals.(a)
      | Inv (r, a) -> vals.(r) <- Expr.inv vals.(a)
      | Sqrt (r, a) -> vals.(r) <- Expr.sqrt vals.(a)
      | Exp (r, a) -> vals.(r) <- Expr.exp vals.(a))
    p.instrs;
  Array.map (fun r -> vals.(r)) p.outputs

let pp ppf p =
  Format.fprintf ppf "@[<v>inputs:";
  Array.iteri (fun k s -> Format.fprintf ppf " %d=%a" k Symbol.pp s) p.inputs;
  Format.fprintf ppf "@,";
  Array.iteri
    (fun k c -> if c <> 0.0 then Format.fprintf ppf "r%d := %g@," k c)
    p.init;
  Array.iter
    (fun instr ->
      match instr with
      | Load_input (r, s) -> Format.fprintf ppf "r%d := input[%d]@," r s
      | Add (r, a, b) -> Format.fprintf ppf "r%d := r%d + r%d@," r a b
      | Mul (r, a, b) -> Format.fprintf ppf "r%d := r%d * r%d@," r a b
      | Neg (r, a) -> Format.fprintf ppf "r%d := -r%d@," r a
      | Inv (r, a) -> Format.fprintf ppf "r%d := 1/r%d@," r a
      | Sqrt (r, a) -> Format.fprintf ppf "r%d := sqrt r%d@," r a
      | Exp (r, a) -> Format.fprintf ppf "r%d := exp r%d@," r a)
    p.instrs;
  Format.fprintf ppf "outputs:";
  Array.iter (fun r -> Format.fprintf ppf " r%d" r) p.outputs;
  Format.fprintf ppf "@]"

let eval_interval p values =
  if Array.length values <> Array.length p.inputs then
    invalid_arg "Slp.eval_interval: wrong number of input values";
  let regs = Array.map Interval.point p.init in
  Array.iter
    (fun instr ->
      match instr with
      | Load_input (r, slot) -> regs.(r) <- values.(slot)
      | Add (r, a, b) -> regs.(r) <- Interval.add regs.(a) regs.(b)
      | Mul (r, a, b) -> regs.(r) <- Interval.mul regs.(a) regs.(b)
      | Neg (r, a) -> regs.(r) <- Interval.neg regs.(a)
      | Inv (r, a) -> regs.(r) <- Interval.inv regs.(a)
      | Sqrt (r, a) -> regs.(r) <- Interval.sqrt regs.(a)
      | Exp (r, a) -> regs.(r) <- Interval.exp regs.(a))
    p.instrs;
  Array.map (fun r -> regs.(r)) p.outputs
